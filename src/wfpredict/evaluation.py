"""Evaluation protocol: RAE metric, online (test-then-train) and batch-offline
runs, and the synthetic workload generator used in place of real cloud traces."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .domain import (
    MetricKind,
    Prediction,
    PreRuntimeFeatures,
    Scenario,
    SeriesBlock,
    TaskExecutionRecord,
)
from .pipeline import PipelineConfig, Registry
from .store import RecordLog


def rae(actuals: Sequence[float], predicted: Sequence[float]) -> float:
    """Relative absolute error: total |error| over the error of the mean predictor.

    Degenerate denominator (all actuals equal): 0.0 when the predictions are
    perfect too, +inf otherwise.
    """
    if len(actuals) != len(predicted):
        raise ValueError(f"length mismatch: {len(actuals)} vs {len(predicted)}")
    if not actuals:
        raise ValueError("empty inputs")
    n = len(actuals)
    mean = sum(actuals) / n
    num = sum(abs(a - p) for a, p in zip(actuals, predicted))
    den = sum(abs(a - mean) for a in actuals)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass
class EvalReport:
    scenario: Scenario
    tau: int
    lag: int
    mode: str  # "online" or "batch(d)"
    rae: float
    n_predictions: int
    per_task: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scenario"] = self.scenario.value
        d["per_task"] = dict(sorted(self.per_task.items()))
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        d = self.to_dict()
        per_task = d.pop("per_task")
        lines = [f"{k} {v}" for k, v in d.items()]
        lines += [f"rae[{task}] {value}" for task, value in per_task.items()]
        return "\n".join(lines) + "\n"


def _score(pairs: List[Tuple[str, float, float]], scenario, tau, lag, mode) -> EvalReport:
    # each task's pairs in arrival order: the order of its sums fixes the report's bits
    by_task: Dict[str, Tuple[List[float], List[float]]] = {}
    for task, a, p in pairs:
        ta, tp = by_task.setdefault(task, ([], []))
        ta.append(a)
        tp.append(p)
    return EvalReport(
        scenario=scenario,
        tau=tau,
        lag=lag,
        mode=mode,
        rae=rae([a for _, a, _ in pairs], [p for _, _, p in pairs]),
        n_predictions=len(pairs),
        per_task={task: rae(*by_task[task]) for task in sorted(by_task)},
    )


def prequential(
    registry: Registry, records: Iterable[TaskExecutionRecord], scenario: Scenario
) -> Iterator[Tuple[TaskExecutionRecord, Prediction]]:
    """Test-then-train: yield each record with its prediction, then observe it."""
    for rec in records:
        yield rec, registry.predict_task(rec.features, scenario)
        registry.observe_completion(rec, scenario)


def run_online(
    log: RecordLog,
    scenario: Scenario,
    tau: int = 1,
    lag: int = 2,
    seed: int = 0,
    skip_first: int = 0,
    **config_overrides,
) -> EvalReport:
    """Prequential pass over the log: predict each record, then train on it;
    the first skip_first predictions are not scored."""
    n = log.count
    if n == 0:
        raise ValueError("log is empty")
    if not 0 <= skip_first < n:
        raise ValueError(f"skip_first must be in [0, {n}) for this log, got {skip_first}")
    config = PipelineConfig(target_tau=tau, trev_lag=lag, seed=seed, **config_overrides)
    registry = Registry(config=config)
    pairs = [(rec.features.task_name, rec.runtime_seconds, pred.runtime_seconds)
             for rec, pred in prequential(registry, log.records(), scenario)]
    return _score(pairs[skip_first:], scenario, tau, lag, "online")


def run_batch_offline(
    log: RecordLog,
    scenario: Scenario,
    d: float,
    tau: int = 1,
    lag: int = 2,
    seed: int = 0,
    **config_overrides,
) -> EvalReport:
    """Train on the first d fraction (arrival order), score the rest frozen."""
    if not (0.0 < d < 1.0):
        raise ValueError(f"d must be in (0, 1), got {d}")
    records = log.read_all()
    split = int(len(records) * d)
    if split == 0 or split == len(records):
        raise ValueError(f"d={d} leaves an empty train or test side for {len(records)} records")
    config = PipelineConfig(target_tau=tau, trev_lag=lag, seed=seed, **config_overrides)
    registry = Registry(config=config)
    for rec in records[:split]:
        registry.observe_completion(rec, scenario)
    pairs = []
    for rec in records[split:]:
        pred = registry.predict_task(rec.features, scenario)
        pairs.append((rec.features.task_name, rec.runtime_seconds, pred.runtime_seconds))
    return _score(pairs, scenario, tau, lag, f"batch({d})")


# -- synthetic workload ----------------------------------------------------


@dataclass
class TaskTypeSpec:
    """Parametric generator for one task type.

    Runtime model: base_seconds * input_scale / vcpus * _HOUR_FACTORS[hour]
    * (1 + noise), with noise ~ N(0, _RUNTIME_NOISE). Consumption series are
    sampled at tau=1 with shapes whose parameters track the runtime.
    """

    name: str
    base_seconds: float
    input_names: Tuple[str, ...]
    input_scales: Tuple[float, ...]
    series_profile: str = "steady"

    def __post_init__(self):
        if len(self.input_names) != len(self.input_scales):
            raise ValueError("input_names/input_scales length mismatch")
        if self.base_seconds <= 0:
            raise ValueError("base_seconds must be positive")
        if self.series_profile not in ("steady", "curved"):
            raise ValueError(f"unknown series_profile {self.series_profile!r}")


@dataclass
class GeneratorConfig:
    tasks: Tuple[TaskTypeSpec, ...]
    n_records: int

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("generator needs at least one task type")
        if self.n_records < 1:
            raise ValueError("n_records must be >= 1")


# every task draws its VM among these shapes: vcpus -> (memory MiB, storage GiB)
_VM_SHAPES = {1: (2048.0, 40.0), 2: (4096.0, 40.0), 4: (8192.0, 40.0)}
_RUNTIME_NOISE = 0.04
_HOUR_FACTORS = tuple(1.0 + 0.2 * math.sin(2 * math.pi * (h - 6) / 24.0) for h in range(24))
# the curved profile's ramp exponent, by input index, and its relative sample noise
_RAMP_EXPONENTS = (1.0, 2.0, 4.0, 7.0)
_SAMPLE_NOISE = 0.002


# each metric's per-second reading: a "count" reads its factor, a "ramp" or a
# "level" its factor times the task runtime. The steady profile holds every
# reading constant, as a task in a resource steady state does; the curved one
# turns each "ramp" into a noisy power law whose curvature follows the input,
# and gives each "level" noise alone.
_METRIC_MODEL = {
    MetricKind.procs: ("count", 1.0),
    MetricKind.stime: ("ramp", 0.1),
    MetricKind.threads: ("count", 4.0),
    MetricKind.utime: ("ramp", 0.8),
    MetricKind.vmRSS: ("level", 100.0),
    MetricKind.vmSize: ("level", 150.0),
    MetricKind.iowait: ("level", 0.05),
    MetricKind.rchar: ("ramp", 1000.0),
    MetricKind.read_bytes: ("ramp", 900.0),
    MetricKind.syscr: ("ramp", 80.0),
    MetricKind.syscw: ("ramp", 50.0),
    MetricKind.wchar: ("ramp", 400.0),
    MetricKind.write_bytes: ("ramp", 350.0),
}
# read in MetricKind order, which numbers a record's rows, whatever the table's order
_KINDS = np.array([_METRIC_MODEL[m][0] for m in MetricKind])
_FACTORS = np.array([_METRIC_MODEL[m][1] for m in MetricKind])
_LIVE = _KINDS != "count"


def generate_synthetic(config: GeneratorConfig, seed: int, path) -> RecordLog:
    """Emit an arrival-ordered record log, deterministic under the seed.

    A path that already exists is refused, as appending would leave a log
    holding both corpora; a bad seed is refused before the file is created."""
    rng = np.random.default_rng(seed)
    log = RecordLog(path)
    if log.path.exists():
        raise ValueError(f"refusing to append to existing log: {path}")
    log.extend(_synthetic_records(config, rng))
    return log


def _synthetic_records(config: GeneratorConfig, rng) -> Iterator[TaskExecutionRecord]:
    for _ in range(config.n_records):
        ts = config.tasks[int(rng.integers(len(config.tasks)))]
        input_idx = int(rng.integers(len(ts.input_names)))
        vcpus = tuple(_VM_SHAPES)[int(rng.integers(len(_VM_SHAPES)))]
        day = int(rng.integers(7))
        hour = int(rng.integers(24))
        noise = float(rng.normal(0.0, _RUNTIME_NOISE))
        runtime = (
            ts.base_seconds
            * ts.input_scales[input_idx]
            / vcpus
            * _HOUR_FACTORS[hour]
            * (1.0 + noise)
        )
        runtime = max(runtime, 1.0)
        mem, storage = _VM_SHAPES[vcpus]
        features = PreRuntimeFeatures(
            task_name=ts.name,
            task_id=ts.name,
            input_name=ts.input_names[input_idx],
            vm_vcpus=vcpus,
            vm_memory=mem,
            vm_storage=storage,
            submission_day=day,
            submission_hour=hour,
        )
        length = min(int(runtime) + 1, 600)
        level = np.where(_LIVE, _FACTORS * runtime, _FACTORS)
        block = np.repeat(level[:, None], length, axis=1)
        if ts.series_profile == "curved":
            shape_exp = _RAMP_EXPONENTS[input_idx % len(_RAMP_EXPONENTS)]
            frac = np.arange(1, length + 1) / length
            curve = np.where(_KINDS[_LIVE, None] == "ramp", frac ** shape_exp, 1.0)
            noise = 1.0 + _SAMPLE_NOISE * rng.standard_normal((np.count_nonzero(_LIVE), length))
            block[_LIVE] = np.abs(level[_LIVE, None] * curve * noise)
        series = SeriesBlock(
            tau=1,
            metrics=MetricKind,
            lengths=(length,) * len(MetricKind),
            samples=block.ravel(),
        )
        yield TaskExecutionRecord(features=features, series=series, runtime_seconds=runtime)


STANDARD_SEED = 20240601
STANDARD_N_RECORDS = 2000


def standard_corpus_config(n_records: int = STANDARD_N_RECORDS) -> GeneratorConfig:
    """The fixed 3-task corpus all acceptance thresholds reference."""
    return GeneratorConfig(
        tasks=(
            TaskTypeSpec(
                name="align",
                base_seconds=30.0,
                input_names=("chr20", "chr21", "chr22", "chrX"),
                input_scales=(1.0, 1.3, 1.6, 2.0),
            ),
            TaskTypeSpec(
                name="merge",
                base_seconds=60.0,
                input_names=("batchA", "batchB", "batchC", "batchD"),
                input_scales=(1.0, 1.3, 1.6, 2.0),
            ),
            TaskTypeSpec(
                name="screen",
                base_seconds=120.0,
                input_names=("ligand1", "ligand2", "ligand3", "ligand4"),
                input_scales=(1.0, 1.4, 1.8, 2.2),
            ),
        ),
        n_records=n_records,
    )
