"""Shared vocabulary: tasks, metrics, consumption series, the pre-runtime encoding."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

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


# every metric, in the order that numbers them in the log and orders a selection
ALL_METRICS = tuple(MetricKind)

# name -> member; a member looks itself up too, as its name is its value
_METRIC_BY_NAME = {m.value: m for m in MetricKind}


@lru_cache(maxsize=64)
def _members_of(names: tuple) -> tuple:
    """The members a metric-name list names, each at most once; cached, as
    the records of a log name few distinct lists."""
    try:
        members = tuple(map(_METRIC_BY_NAME.__getitem__, names))
    except KeyError as exc:
        raise DomainError(f"unknown metric: {exc}") from None
    if len(set(members)) != len(members):
        raise DomainError(f"duplicate metric in {[m.value for m in members]}")
    return members


class Scenario(str, Enum):
    baseline = "baseline"
    two_stages = "two_stages"
    time_series = "time_series"


class DomainError(ValueError):
    """Invalid domain object or operation input."""


# the largest magnitude of a sample, numeric feature or runtime, past any u64 counter:
# checked where a value enters, so a range is at most 2B, a cube 8B**3 and a sum of n nB
B = 2.0**64


def check_within_b(values: Sequence[float], names: Iterable[str]) -> None:
    """DomainError naming the first value outside [-B, B], NaN too, by names[i]."""
    if not sum(map(abs, values)) <= B:  # as it is where one value is outside, NaN too
        for name, v in zip(names, values):
            if not abs(v) <= B:
                raise DomainError(f"{name} {float(v)!r} is outside [-B, B], B = 2**64")


# each integer feature, its least and greatest value; a float holds 2**53 exactly
_INTEGER_FEATURES = (("vm_vcpus", 1, 2**53), ("submission_day", 0, 6), ("submission_hour", 0, 23))


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
        if not type(self.task_name) is type(self.task_id) is type(self.input_name) is str:
            raise DomainError("task_name, task_id and input_name must be strings")
        for name, lo, hi in _INTEGER_FEATURES:
            v = getattr(self, name)
            if type(v) is not int or not lo <= v <= hi:
                raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {repr(v)[:20]}")
        for name in ("vm_memory", "vm_storage"):
            v = getattr(self, name)
            if type(v) not in (int, float) or not 0 < v <= B:
                raise DomainError(f"{name} must be in (0, B], B = 2**64, got {repr(v)[:20]}")
            if type(v) is int:  # held as the float it encodes to
                object.__setattr__(self, name, float(v))


class SeriesBlock:
    """All consumption series of one record in one read-only float64 array.

    Row i holds the lengths[i] samples of metrics[i], taken every tau seconds;
    the rows lie end to end in `samples`.
    """

    __slots__ = ("tau", "metrics", "lengths", "samples")

    def __init__(self, tau: int, metrics: Iterable, lengths: Iterable[int], samples):
        lengths = tuple(lengths)
        # exact types: a bool is an int subclass, and a numpy integer is not an int
        if type(tau) is not int or any(type(x) is not int for x in lengths):
            raise DomainError("tau and lengths must be integers, not booleans or other types")
        try:
            self.metrics = _members_of(tuple(metrics))
        except TypeError as exc:  # an unhashable name
            raise DomainError(f"unknown metric: {exc}") from None
        self.tau, self.lengths = tau, lengths
        samples = np.asarray(samples, dtype=np.float64)
        if samples.flags.writeable:  # a read-only view; the caller's array stays writable
            samples = samples.view()
            samples.flags.writeable = False
        self.samples = samples
        if tau < 1:
            raise DomainError(f"tau must be >= 1, got {tau}")
        if len(lengths) != len(self.metrics):
            raise DomainError(f"{len(lengths)} lengths for {len(self.metrics)} metrics")
        if lengths and min(lengths) < 1:
            raise DomainError("stored series must be non-empty")
        if samples.ndim != 1 or sum(lengths) != samples.size:
            raise DomainError(
                f"lengths add up to {sum(lengths)} samples, the block holds {samples.size}")
        if not np.maximum.reduce(np.abs(samples), initial=0.0) <= B:  # NaN too: maximum keeps it
            check_within_b(samples.tolist(), (
                f"{m.value} sample" for m, n in zip(self.metrics, lengths) for _ in range(n)))

    def row(self, m: MetricKind) -> Optional[np.ndarray]:
        """A read-only view of m's samples, None if the record lacks m."""
        try:
            i = self.metrics.index(m)
        except ValueError:
            return None
        return self.samples[sum(self.lengths[:i]):sum(self.lengths[:i + 1])]

    def __eq__(self, other) -> bool:
        """Same tau, metrics in the same order, lengths and samples; samples
        compare as floats, so -0.0 equals 0.0."""
        if not isinstance(other, SeriesBlock):
            return NotImplemented
        return (
            (self.tau, self.metrics, self.lengths) == (other.tau, other.metrics, other.lengths)
            and np.array_equal(self.samples, other.samples)
        )


@dataclass(frozen=True)
class TaskExecutionRecord:
    """One completed task: pre-runtime features, consumption series, observed runtime."""

    features: PreRuntimeFeatures
    series: SeriesBlock
    runtime_seconds: float

    def __post_init__(self):
        rt = self.runtime_seconds
        if type(rt) is int and 0 < rt <= B:
            rt = float(rt)  # an int runtime is stored as the float it encodes to
            object.__setattr__(self, "runtime_seconds", rt)
        if not isinstance(rt, float) or not 0 < rt <= B:
            raise DomainError(f"runtime_seconds must be in (0, B], B = 2**64, got {repr(rt)[:20]}")
        s = self.series
        longest = max(s.lengths) if s.lengths else 0
        if longest * s.tau > self.runtime_seconds + s.tau:
            raise DomainError(
                f"{s.metrics[s.lengths.index(longest)].value} series outlives the task: "
                f"{longest} samples at tau={s.tau} vs runtime {self.runtime_seconds}"
            )


@dataclass(frozen=True)
class Prediction:
    runtime_seconds: float

    def __post_init__(self):
        if not (self.runtime_seconds > 0 and math.isfinite(self.runtime_seconds)):
            raise DomainError(f"predicted runtime must be positive, got {self.runtime_seconds}")


PRE_RUNTIME_FEATURE_NAMES = tuple(f.name for f in fields(PreRuntimeFeatures))

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
        """The vocabulary to_dict wrote; DomainError unless each field's codes
        are the integers 0..n-1, each once, as code() assigns them."""
        v = cls()
        for f in _CATEGORICAL_FIELDS:
            table = dict(d[f].items())
            codes = list(table.values())
            if set(map(type, codes)) - {int} or sorted(codes) != list(range(len(codes))):
                raise DomainError(f"{f} codes are not 0..{len(codes) - 1}, each once")
            v.codes[f] = table
        return v


def encode_pre_runtime(f: PreRuntimeFeatures, code: Callable[[str, str], int]) -> tuple:
    """The 8 pre-runtime features as floats, in PRE_RUNTIME_FEATURE_NAMES order.

    Categorical fields get integer codes from code(field, value), a
    CategoryVocab's code (which stores a fresh code for an unseen category) or
    lookup (which does not); numerics pass through.
    """
    return (
        float(code("task_name", f.task_name)),
        float(code("task_id", f.task_id)),
        float(code("input_name", f.input_name)),
        float(f.vm_vcpus),
        float(f.vm_memory),
        float(f.vm_storage),
        float(f.submission_day),
        float(f.submission_hour),
    )
