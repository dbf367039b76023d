"""Evaluation protocol: RAE metric, online (test-then-train) and batch-offline
runs, and the synthetic workload generator used in place of real cloud traces."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .domain import (
    MetricKind,
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
        return {
            "scenario": self.scenario.value,
            "tau": self.tau,
            "lag": self.lag,
            "mode": self.mode,
            "rae": self.rae,
            "n_predictions": self.n_predictions,
            "per_task": dict(sorted(self.per_task.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        lines = [
            f"scenario {self.scenario.value}",
            f"tau {self.tau}",
            f"lag {self.lag}",
            f"mode {self.mode}",
            f"rae {self.rae!r}",
            f"n_predictions {self.n_predictions}",
        ]
        for task, value in sorted(self.per_task.items()):
            lines.append(f"rae[{task}] {value!r}")
        return "\n".join(lines) + "\n"


def _score(pairs: List[Tuple[str, float, float]], scenario, tau, lag, mode) -> EvalReport:
    actuals = [a for _, a, _ in pairs]
    preds = [p for _, _, p in pairs]
    per_task: Dict[str, float] = {}
    for task in sorted({t for t, _, _ in pairs}):
        ta = [a for t, a, _ in pairs if t == task]
        tp = [p for t, _, p in pairs if t == task]
        per_task[task] = rae(ta, tp)
    return EvalReport(
        scenario=scenario,
        tau=tau,
        lag=lag,
        mode=mode,
        rae=rae(actuals, preds),
        n_predictions=len(pairs),
        per_task=per_task,
    )


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
    if log.count == 0:
        raise ValueError("log is empty")
    if not 0 <= skip_first < log.count:
        raise ValueError(f"skip_first must be in [0, {log.count}) for this log, got {skip_first}")
    config = PipelineConfig(target_tau=tau, trev_lag=lag, seed=seed, **config_overrides)
    registry = Registry(config=config)
    pairs: List[Tuple[str, float, float]] = []
    for idx, rec in enumerate(log.records()):
        pred = registry.predict_task(rec.features, scenario)
        if idx >= skip_first:
            pairs.append((rec.features.task_name, rec.runtime_seconds, pred.runtime_seconds))
        registry.observe_completion(rec, scenario)
    return _score(pairs, scenario, tau, lag, "online")


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

    Runtime model: base_seconds * input_scale / vcpus * hour_profile[hour]
    * (1 + noise), with noise ~ N(0, noise_level). Consumption series are
    sampled at tau=1 with shapes whose parameters track the runtime.
    """

    name: str
    base_seconds: float
    input_names: Tuple[str, ...]
    input_scales: Tuple[float, ...]
    vcpus_choices: Tuple[int, ...] = (1, 2, 4)
    noise_level: float = 0.04
    series_profile: str = "steady"
    shape_exponents: Tuple[float, ...] = (1.0, 2.0, 4.0, 7.0)
    series_noise: float = 0.002
    hour_profile: Tuple[float, ...] = tuple(
        1.0 + 0.2 * math.sin(2 * math.pi * (h - 6) / 24.0) for h in range(24)
    )

    def __post_init__(self):
        if len(self.input_names) != len(self.input_scales):
            raise ValueError("input_names/input_scales length mismatch")
        if len(self.hour_profile) != 24:
            raise ValueError("hour_profile must have 24 entries")
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


_VM_SHAPES = {1: (2048.0, 40.0), 2: (4096.0, 40.0), 4: (8192.0, 40.0)}


# per-second reading level for each metric as a multiple of the task runtime;
# procs and threads are absolute counts
_LEVEL_FACTORS = {
    MetricKind.utime: 0.8,
    MetricKind.stime: 0.1,
    MetricKind.vmRSS: 100.0,
    MetricKind.vmSize: 150.0,
    MetricKind.syscr: 80.0,
    MetricKind.syscw: 50.0,
    MetricKind.rchar: 1000.0,
    MetricKind.read_bytes: 900.0,
    MetricKind.wchar: 400.0,
    MetricKind.write_bytes: 350.0,
    MetricKind.iowait: 0.05,
}

# metrics that behave like cumulative counters under the curved profile
_RAMP_METRICS = frozenset(
    {
        MetricKind.utime,
        MetricKind.stime,
        MetricKind.syscr,
        MetricKind.syscw,
        MetricKind.rchar,
        MetricKind.read_bytes,
        MetricKind.wchar,
        MetricKind.write_bytes,
    }
)


def _series_values(
    rng,
    metric: MetricKind,
    length: int,
    runtime: float,
    shape_exp: float,
    profile: str,
    series_noise: float,
):
    """Per-metric consumption values; levels track the runtime.

    The steady profile emits exactly constant readings, matching tasks in a
    resource steady state. The curved profile turns the counter metrics into
    noisy power-law ramps whose curvature class follows shape_exp.
    """
    if metric is MetricKind.procs:
        return np.ones(length)
    if metric is MetricKind.threads:
        return np.full(length, 4.0)
    level = _LEVEL_FACTORS[metric] * runtime
    if profile == "steady":
        return np.full(length, level)
    t = np.arange(length, dtype=float)
    noise = 1.0 + series_noise * rng.standard_normal(length)
    if metric in _RAMP_METRICS:
        frac = (t + 1) / length
        return np.abs(level * frac ** shape_exp * noise)
    return np.abs(level * noise)


def generate_synthetic(config: GeneratorConfig, seed: int, path) -> RecordLog:
    """Emit an arrival-ordered record log, deterministic under the seed."""
    log = RecordLog(path)
    log.extend(_synthetic_records(config, seed))
    return log


def _synthetic_records(config: GeneratorConfig, seed: int) -> Iterator[TaskExecutionRecord]:
    rng = np.random.default_rng(seed)
    for _ in range(config.n_records):
        ts = config.tasks[int(rng.integers(len(config.tasks)))]
        input_idx = int(rng.integers(len(ts.input_names)))
        vcpus = int(ts.vcpus_choices[int(rng.integers(len(ts.vcpus_choices)))])
        day = int(rng.integers(7))
        hour = int(rng.integers(24))
        noise = float(rng.normal(0.0, ts.noise_level)) if ts.noise_level > 0 else 0.0
        runtime = (
            ts.base_seconds
            * ts.input_scales[input_idx]
            / vcpus
            * ts.hour_profile[hour]
            * (1.0 + noise)
        )
        runtime = max(runtime, 1.0)
        mem, storage = _VM_SHAPES.get(vcpus, (2048.0 * vcpus, 40.0))
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
        shape_exp = ts.shape_exponents[input_idx % len(ts.shape_exponents)]
        series = SeriesBlock(
            tau=1,
            metrics=MetricKind,
            lengths=(length,) * len(MetricKind),
            samples=np.concatenate([
                _series_values(
                    rng, m, length, runtime, shape_exp, ts.series_profile, ts.series_noise
                )
                for m in MetricKind
            ]),
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
