"""Shared vocabulary: tasks, metrics, consumption series, feature vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence


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

    def to_dict(self) -> dict:
        return {"tau": self.interval_seconds, "values": list(self.values)}

    @classmethod
    def from_dict(cls, metric: MetricKind, d: Mapping) -> "MetricSeries":
        return cls(metric=metric, interval_seconds=int(d["tau"]), values=d["values"])


@dataclass(frozen=True)
class TaskExecutionRecord:
    """One completed task: pre-runtime features, consumption series, observed runtime."""

    features: PreRuntimeFeatures
    series: Mapping[MetricKind, MetricSeries]
    runtime_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "series", dict(self.series))
        if not (self.runtime_seconds > 0 and math.isfinite(self.runtime_seconds)):
            raise DomainError(f"runtime_seconds must be positive, got {self.runtime_seconds}")
        taus = {s.interval_seconds for s in self.series.values()}
        if len(taus) > 1:
            raise DomainError(f"series intervals are not uniform: {sorted(taus)}")
        for s in self.series.values():
            if len(s.values) * s.interval_seconds > self.runtime_seconds + s.interval_seconds:
                raise DomainError(
                    f"{s.metric.value} series outlives the task: "
                    f"{len(s.values)} samples at tau={s.interval_seconds} "
                    f"vs runtime {self.runtime_seconds}"
                )

    def to_dict(self) -> dict:
        return {
            "features": self.features.to_dict(),
            "runtime_seconds": self.runtime_seconds,
            "series": {m.value: s.to_dict() for m, s in self.series.items()},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TaskExecutionRecord":
        return cls(
            features=PreRuntimeFeatures.from_dict(d["features"]),
            series={
                MetricKind(name): MetricSeries.from_dict(MetricKind(name), sd)
                for name, sd in d["series"].items()
            },
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

    Mutates on unseen categories; callers needing concurrency must serialize
    access externally.
    """

    codes: dict = field(default_factory=lambda: {f: {} for f in _CATEGORICAL_FIELDS})

    def code(self, fieldname: str, value: str) -> int:
        table = self.codes[fieldname]
        if value not in table:
            table[value] = len(table)
        return table[value]

    def peek(self, fieldname: str, value: str) -> Optional[int]:
        return self.codes[fieldname].get(value)

    def to_dict(self) -> dict:
        return {f: dict(t) for f, t in self.codes.items()}

    @classmethod
    def from_dict(cls, d: Mapping) -> "CategoryVocab":
        v = cls()
        for f in _CATEGORICAL_FIELDS:
            v.codes[f] = {k: int(c) for k, c in d.get(f, {}).items()}
        return v


def encode_pre_runtime(f: PreRuntimeFeatures, vocab: CategoryVocab) -> FeatureVector:
    """Encode pre-runtime features as an 8-dimensional numeric vector.

    Categorical fields get stable integer codes from the vocabulary (a fresh
    code is appended for unseen categories); numerics pass through.
    """
    values = (
        float(vocab.code("task_name", f.task_name)),
        float(vocab.code("task_id", f.task_id)),
        float(vocab.code("input_name", f.input_name)),
        float(f.vm_vcpus),
        float(f.vm_memory),
        float(f.vm_storage),
        float(f.submission_day),
        float(f.submission_hour),
    )
    return FeatureVector(names=PRE_RUNTIME_FEATURE_NAMES, values=values)
