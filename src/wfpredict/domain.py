"""Shared vocabulary: tasks, metrics, consumption series, feature vectors."""

from __future__ import annotations

import binascii
import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Callable, List, Optional

import numpy as np


class MetricKind(str, Enum):
    """The 13 resource-consumption metrics collected per running task."""

    procs = "procs"
    stime = "stime"
    threads = "threads"
    utime = "utime"
    vmRSS = "vmRSS"
    vmSize = "vmSize"
    iowait = "iowait"
    rchar = "rchar"
    read_bytes = "read_bytes"
    syscr = "syscr"
    syscw = "syscw"
    wchar = "wchar"
    write_bytes = "write_bytes"


# name -> member; a member looks itself up too, as its name is its value
_METRIC_BY_NAME = {m.value: m for m in MetricKind}


class Scenario(str, Enum):
    baseline = "baseline"
    two_stages = "two_stages"
    time_series = "time_series"


class DomainError(ValueError):
    """Invalid domain object or operation input."""


@dataclass(frozen=True)
class PreRuntimeFeatures:
    """Attributes known before a task executes: identity, VM shape, submission time."""

    task_name: str
    task_id: str
    input_name: str
    vm_vcpus: int
    vm_memory: float  # MiB
    vm_storage: float  # GiB
    submission_day: int  # 0-6
    submission_hour: int  # 0-23

    def __post_init__(self):
        if not (0 <= self.submission_day <= 6):
            raise DomainError(f"submission_day out of range: {self.submission_day}")
        if not (0 <= self.submission_hour <= 23):
            raise DomainError(f"submission_hour out of range: {self.submission_hour}")
        if self.vm_vcpus < 1:
            raise DomainError(f"vm_vcpus must be >= 1, got {self.vm_vcpus}")
        if self.vm_memory <= 0 or self.vm_storage <= 0:
            raise DomainError("vm_memory and vm_storage must be positive")

    def to_dict(self) -> dict:
        return {
            "task_name": self.task_name,
            "task_id": self.task_id,
            "input_name": self.input_name,
            "vm_vcpus": self.vm_vcpus,
            "vm_memory": self.vm_memory,
            "vm_storage": self.vm_storage,
            "submission_day": self.submission_day,
            "submission_hour": self.submission_hour,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PreRuntimeFeatures":
        return cls(
            task_name=d["task_name"],
            task_id=d["task_id"],
            input_name=d["input_name"],
            vm_vcpus=int(d["vm_vcpus"]),
            vm_memory=float(d["vm_memory"]),
            vm_storage=float(d["vm_storage"]),
            submission_day=int(d["submission_day"]),
            submission_hour=int(d["submission_hour"]),
        )


@dataclass(frozen=True)
class MetricSeries:
    """Uniformly sampled measurements for one metric; index i means offset i*tau."""

    metric: MetricKind
    interval_seconds: int
    values: tuple

    def __post_init__(self):
        if self.interval_seconds < 1:
            raise DomainError(f"interval_seconds must be >= 1, got {self.interval_seconds}")
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if not self.values:
            raise DomainError("stored series must be non-empty")
        if not all(map(math.isfinite, self.values)):
            raise DomainError(f"non-finite measurement in {self.metric.value} series")


class SeriesBlock(Mapping):
    """All consumption series of one record in one read-only float64 array.

    Row i holds the lengths[i] samples of metrics[i], taken every tau seconds;
    the rows lie end to end in `samples`. As a Mapping it is the record's
    series: looking a metric up builds a MetricSeries from its row.
    """

    __slots__ = ("tau", "metrics", "lengths", "samples", "_offsets")

    def __init__(self, tau: int, metrics: Iterable, lengths: Iterable[int], samples):
        self.tau = operator.index(tau)
        try:
            self.metrics = tuple(map(_METRIC_BY_NAME.__getitem__, metrics))
        except (KeyError, TypeError) as exc:
            raise DomainError(f"unknown metric: {exc}") from None
        self.lengths = tuple(map(operator.index, lengths))
        self.samples = np.asarray(samples, dtype=np.float64).view()
        self.samples.flags.writeable = False
        self._offsets = (0, *accumulate(self.lengths))
        if self.tau < 1:
            raise DomainError(f"tau must be >= 1, got {self.tau}")
        if len(set(self.metrics)) != len(self.metrics):
            raise DomainError(f"duplicate metric in {[m.value for m in self.metrics]}")
        if len(self.lengths) != len(self.metrics):
            raise DomainError(f"{len(self.lengths)} lengths for {len(self.metrics)} metrics")
        if min(self.lengths, default=1) < 1:
            raise DomainError("stored series must be non-empty")
        if self.samples.ndim != 1 or self._offsets[-1] != self.samples.size:
            raise DomainError(
                f"lengths add up to {self._offsets[-1]} samples, "
                f"the block holds {self.samples.size}"
            )
        finite = np.isfinite(self.samples)
        if not finite.all():
            row = np.searchsorted(self._offsets, np.argmin(finite), side="right") - 1
            raise DomainError(f"non-finite measurement in {self.metrics[row].value} series")

    @classmethod
    def _of_rows(cls, metrics: Iterable, taus: Iterable[int], rows: List[np.ndarray]):
        taus = set(taus)
        if len(taus) > 1:
            raise DomainError(f"series intervals are not uniform: {sorted(taus)}")
        samples = np.concatenate(rows) if rows else ()
        return cls(taus.pop() if taus else 1, metrics, [len(r) for r in rows], samples)

    @classmethod
    def of(cls, series: Mapping[MetricKind, MetricSeries]) -> "SeriesBlock":
        """The block of per-metric series, which must share one interval."""
        return cls._of_rows(
            series,
            (s.interval_seconds for s in series.values()),
            [np.asarray(s.values, dtype=np.float64) for s in series.values()],
        )

    def row(self, m: MetricKind) -> Optional[np.ndarray]:
        """A read-only view of m's samples, None if the record lacks m."""
        try:
            i = self.metrics.index(m)
        except ValueError:
            return None
        return self.samples[self._offsets[i]:self._offsets[i + 1]]

    def __getitem__(self, m) -> MetricSeries:
        values = self.row(m)
        if values is None:
            raise KeyError(m)
        return MetricSeries(metric=MetricKind(m), interval_seconds=self.tau, values=values.tolist())

    def __contains__(self, m) -> bool:
        return m in self.metrics

    def __iter__(self):
        return iter(self.metrics)

    def __len__(self) -> int:
        return len(self.metrics)

    def to_dict(self) -> dict:
        raw = self.samples.astype("<f8", copy=False).tobytes()
        return {
            "tau": self.tau,
            "metrics": [m.value for m in self.metrics],
            "lengths": list(self.lengths),
            "f64": binascii.b2a_base64(raw, newline=False).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SeriesBlock":
        """The block of to_dict's layout, checked whole."""
        # frombuffer rejects a byte count that is not whole float64s
        raw = binascii.a2b_base64(d["f64"], strict_mode=True)
        return cls(d["tau"], d["metrics"], d["lengths"], np.frombuffer(raw, dtype="<f8"))

    @classmethod
    def from_legacy_dict(cls, d: Mapping) -> "SeriesBlock":
        """The block of the layout written before it: {name: {"tau", "values"}}."""
        return cls._of_rows(
            d,
            (int(s["tau"]) for s in d.values()),
            [np.asarray(s["values"], dtype=np.float64) for s in d.values()],
        )


@dataclass(frozen=True)
class TaskExecutionRecord:
    """One completed task: pre-runtime features, consumption series, observed runtime.

    `series` may be given as any mapping of MetricSeries; the record keeps it
    as one SeriesBlock.
    """

    features: PreRuntimeFeatures
    series: Mapping[MetricKind, MetricSeries]
    runtime_seconds: float

    def __post_init__(self):
        if not isinstance(self.series, SeriesBlock):
            object.__setattr__(self, "series", SeriesBlock.of(self.series))
        if not (self.runtime_seconds > 0 and math.isfinite(self.runtime_seconds)):
            raise DomainError(f"runtime_seconds must be positive, got {self.runtime_seconds}")
        s = self.series
        longest = max(s.lengths, default=0)
        if longest * s.tau > self.runtime_seconds + s.tau:
            raise DomainError(
                f"{s.metrics[s.lengths.index(longest)].value} series outlives the task: "
                f"{longest} samples at tau={s.tau} vs runtime {self.runtime_seconds}"
            )

    def to_dict(self) -> dict:
        return {
            "features": self.features.to_dict(),
            "runtime_seconds": self.runtime_seconds,
            "series": self.series.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TaskExecutionRecord":
        """Decode either layout: one block ({"tau", "metrics", "lengths", "f64"})
        or, as written before the block, one {"tau", "values"} per metric name."""
        sd = d["series"]
        if not isinstance(sd, Mapping):
            raise DomainError(f"series must be an object, got {type(sd).__name__}")
        return cls(
            features=PreRuntimeFeatures.from_dict(d["features"]),
            series=SeriesBlock.from_dict(sd) if "tau" in sd else SeriesBlock.from_legacy_dict(sd),
            runtime_seconds=float(d["runtime_seconds"]),
        )


@dataclass(frozen=True)
class FeatureVector:
    """Named numeric vector fed to the regressors."""

    names: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.names) != len(self.values):
            raise DomainError("names/values length mismatch")
        if len(set(self.names)) != len(self.names):
            raise DomainError("feature names must be unique")
        if not all(map(math.isfinite, self.values)):
            raise DomainError("non-finite feature value")


@dataclass(frozen=True)
class Prediction:
    runtime_seconds: float
    scenario: Scenario
    task_name: str

    def __post_init__(self):
        if not (self.runtime_seconds > 0 and math.isfinite(self.runtime_seconds)):
            raise DomainError(f"predicted runtime must be positive, got {self.runtime_seconds}")


PRE_RUNTIME_FEATURE_NAMES = (
    "task_name",
    "task_id",
    "input_name",
    "vm_vcpus",
    "vm_memory",
    "vm_storage",
    "submission_day",
    "submission_hour",
)

_CATEGORICAL_FIELDS = ("task_name", "task_id", "input_name")


@dataclass
class CategoryVocab:
    """Stable integer codes per categorical field, assigned in first-seen order.

    code mutates on unseen categories, lookup never does; callers needing
    concurrency must serialize access externally.
    """

    codes: dict = field(default_factory=lambda: {f: {} for f in _CATEGORICAL_FIELDS})

    def code(self, fieldname: str, value: str) -> int:
        table = self.codes[fieldname]
        if value not in table:
            table[value] = len(table)
        return table[value]

    def lookup(self, fieldname: str, value: str) -> int:
        """value's code; for an unseen value, the code that code() would
        assign it next, without storing it."""
        table = self.codes[fieldname]
        return table.get(value, len(table))

    def to_dict(self) -> dict:
        return {f: dict(t) for f, t in self.codes.items()}

    @classmethod
    def from_dict(cls, d: Mapping) -> "CategoryVocab":
        v = cls()
        for f in _CATEGORICAL_FIELDS:
            v.codes[f] = {k: int(c) for k, c in d.get(f, {}).items()}
        return v


def encode_pre_runtime(f: PreRuntimeFeatures, code: Callable[[str, str], int]) -> FeatureVector:
    """Encode pre-runtime features as an 8-dimensional numeric vector.

    Categorical fields get integer codes from code(field, value), a
    CategoryVocab's code (which stores a fresh code for an unseen category) or
    lookup (which does not); numerics pass through.
    """
    values = (
        float(code("task_name", f.task_name)),
        float(code("task_id", f.task_id)),
        float(code("input_name", f.input_name)),
        float(f.vm_vcpus),
        float(f.vm_memory),
        float(f.vm_storage),
        float(f.submission_day),
        float(f.submission_hour),
    )
    return FeatureVector(names=PRE_RUNTIME_FEATURE_NAMES, values=values)
