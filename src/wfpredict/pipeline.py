"""End-to-end prediction pipeline: per-task model registry, the three
prediction scenarios, and correlation-based feature selection."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .domain import (
    CategoryVocab,
    FeatureVector,
    MetricKind,
    Prediction,
    PreRuntimeFeatures,
    Scenario,
    TaskExecutionRecord,
    encode_pre_runtime,
)
from .forecaster import SequenceModel
from .knn import EmptyWindowError, InstanceWindow
# the pipeline calls neither downsample nor trev; perfbench/layers.py wraps
# both by name in this module's namespace, so they stay importable from here
from .store import downsample, downsample_block  # noqa: F401
from .tsfeat import TrevConfig, strip_padding_rows, trev, trev_rows  # noqa: F401

REGISTRY_MAGIC = "wfpredict-registry"
REGISTRY_VERSION = 6

ALL_METRICS: Tuple[MetricKind, ...] = tuple(MetricKind)

# an aggregate is a consumption sum (>= 0) floored at a tiny epsilon, which is
# also the aggregate of a metric the record lacks; the floor enters the
# aggregate columns' ranges, so it can move k>1 answers
_AGG_FLOOR = 1e-9


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; 0.0 when either side has zero variance."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least 2 paired samples")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def correlations(
    history: Sequence[Tuple[Mapping[MetricKind, float], float]]
) -> Dict[MetricKind, float]:
    """Each metric's Pearson correlation to runtime over the history; an entry
    without the metric counts as 0.0."""
    if len(history) < 2:
        raise ValueError("need at least 2 history entries")
    runtimes = [rt for _, rt in history]
    return {
        m: pearson([float(feats.get(m, 0.0)) for feats, _ in history], runtimes)
        for m in ALL_METRICS
    }


def select_features(
    history: Sequence[Tuple[Mapping[MetricKind, float], float]], threshold: float
) -> Set[MetricKind]:
    """Metrics whose |correlation to runtime| over the history exceeds the threshold."""
    return {m for m, rho in correlations(history).items() if abs(rho) > threshold}


def trev_history(records: Iterable[TaskExecutionRecord], tau: int, lag: int) -> dict:
    """Per task name, in log order, the history select_features reads: each
    record's trev of every series it carries, downsampled to tau and stripped
    of trailing zeros, and its runtime."""
    cfg = TrevConfig(lag)
    history: Dict[str, list] = {}
    for rec in records:
        s = rec.series
        block, lengths = downsample_block([s.row(m) for m in s.metrics], s.tau, tau)
        trevs = trev_rows(block, strip_padding_rows(block, lengths), cfg)
        history.setdefault(rec.features.task_name, []).append(
            (dict(zip(s.metrics, trevs.tolist())), rec.runtime_seconds)
        )
    return history


@dataclass
class PipelineConfig:
    k: int = 1
    window_capacity: Optional[int] = None
    trev_lag: int = 2
    target_tau: int = 1
    hidden_size: int = 10
    learning_rate: float = 0.01
    epochs_per_update: int = 1
    clip_norm: float = 5.0
    seed: int = 0
    # per-task metric selection; None means all 13 metrics
    selected_metrics: Optional[Dict[str, Set[MetricKind]]] = None

    def __post_init__(self):
        for name in ("k", "trev_lag", "target_tau"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.window_capacity is not None and self.window_capacity < 1:
            raise ValueError(f"window_capacity must be >= 1 or None, got {self.window_capacity}")
        if self.epochs_per_update < 0:
            raise ValueError(f"epochs_per_update must be >= 0, got {self.epochs_per_update}")

    def metrics_for(self, task_name: str) -> Tuple[MetricKind, ...]:
        if self.selected_metrics is None or task_name not in self.selected_metrics:
            return ALL_METRICS
        chosen = self.selected_metrics[task_name]
        return tuple(m for m in ALL_METRICS if m in chosen)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.selected_metrics is not None:
            d["selected_metrics"] = {
                t: sorted(m.value for m in ms) for t, ms in self.selected_metrics.items()
            }
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "PipelineConfig":
        cfg = cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)})
        if cfg.selected_metrics is not None:
            sel = cfg.selected_metrics.items()
            cfg.selected_metrics = {t: {MetricKind(v) for v in ms} for t, ms in sel}
        return cfg


def _model_seed(base_seed: int, task_name: str, metric: str) -> int:
    return zlib.crc32(f"{base_seed}:{task_name}:{metric}".encode("utf-8")) & 0x7FFFFFFF


@dataclass
class TaskModelBundle:
    """All models owned by one (task name, scenario) pair: learned state only,
    every setting is the registry's config."""

    task_name: str
    scenario: Scenario
    # the kNN window of runtimes; for two_stages its rows are sigma followed
    # by each selected metric's aggregate, and stage 1 reads those rows
    regressor: InstanceWindow
    # time_series: one forecaster over the selected metrics, None when none are selected
    forecaster: Optional[SequenceModel] = None
    runtime_count: int = 0

    @property
    def agg_estimators(self) -> Mapping[MetricKind, InstanceWindow]:
        """Empty: the aggregates live in the regressor's rows.

        Kept for perfbench/replay.py (zero_range_dims), which counts the
        windows it maps besides the regressor.
        """
        return MappingProxyType({})

    def to_dict(self) -> dict:
        return {
            "task_name": self.task_name,
            "scenario": self.scenario.value,
            "runtime_count": self.runtime_count,
            "regressor": self.regressor.to_dict(),
            "forecaster": self.forecaster.to_dict() if self.forecaster else None,
        }


class Registry:
    """Holds one TaskModelBundle per (task name, scenario) and the shared
    category vocabulary; persists everything as one file in a storage directory."""

    def __init__(self, storage_dir=None, config: Optional[PipelineConfig] = None):
        self.storage_dir = Path(storage_dir) if storage_dir else None
        self.config = config or PipelineConfig()
        self.vocab = CategoryVocab()
        self.bundles: Dict[Tuple[str, Scenario], TaskModelBundle] = {}

    # -- bundle management -------------------------------------------------

    def _new_bundle(self, task_name: str, scenario: Scenario) -> TaskModelBundle:
        """An untrained bundle built from the config; observe_completion and
        load both build every bundle here."""
        cfg = self.config
        bundle = TaskModelBundle(
            task_name=task_name,
            scenario=scenario,
            regressor=InstanceWindow(capacity=cfg.window_capacity),
        )
        metrics = cfg.metrics_for(task_name)
        if scenario == Scenario.time_series and metrics:
            bundle.forecaster = SequenceModel(
                input_dim=8,
                hidden_size=cfg.hidden_size,
                learning_rate=cfg.learning_rate,
                epochs_per_update=cfg.epochs_per_update,
                clip_norm=cfg.clip_norm,
                seeds=[_model_seed(cfg.seed, task_name, m.value) for m in metrics],
                metrics=metrics,
                tau=cfg.target_tau,
            )
        return bundle

    def _get_bundle(self, task_name: str, scenario: Scenario) -> TaskModelBundle:
        key = (task_name, scenario)
        if key not in self.bundles:
            self.bundles[key] = self._new_bundle(task_name, scenario)
        return self.bundles[key]

    # -- feature assembly --------------------------------------------------

    @staticmethod
    def _baseline_vector(f: PreRuntimeFeatures, code: Callable[[str, str], int]) -> FeatureVector:
        return FeatureVector(
            names=("input_name",), values=(float(code("input_name", f.input_name)),)
        )

    def _time_series_vector(
        self, metrics: Sequence[MetricKind], sigma: FeatureVector, block: np.ndarray,
        lengths: Sequence[int],
    ) -> FeatureVector:
        """sigma plus the trev of each selected metric's row of the block,
        stripped of trailing zeros; 0.0 for a row of length 0."""
        trev_cfg = TrevConfig(self.config.trev_lag)
        trevs = trev_rows(block, strip_padding_rows(block, lengths), trev_cfg)
        return FeatureVector(
            names=sigma.names + tuple(f"trev_{m.value}" for m in metrics),
            values=sigma.values + tuple(trevs.tolist()),
        )

    @staticmethod
    def _two_stages_query_vector(bundle: TaskModelBundle, sigma: FeatureVector) -> FeatureVector:
        """Stage 1: sigma plus the aggregates of the held row nearest to sigma
        on the sigma columns. EmptyWindowError when the regressor is empty."""
        aggs = tuple(bundle.regressor.nearest(sigma)[len(sigma.values):].tolist())
        return FeatureVector(names=bundle.regressor.schema, values=sigma.values + aggs)

    @staticmethod
    def _two_stages_observed_vector(
        metrics: Sequence[MetricKind], sigma: FeatureVector, block: np.ndarray,
        lengths: np.ndarray,
    ) -> FeatureVector:
        """sigma plus the aggregate (the sum) of each selected metric's row of
        the block, floored at _AGG_FLOOR."""
        # cumsum adds left to right, as sum() over the series did; the zeros
        # past a row's length leave its last running sum unchanged
        sums = np.cumsum(block, axis=1)[:, -1] if block.shape[1] else np.zeros(len(block))
        aggs = tuple(np.where(lengths > 0, np.maximum(sums, _AGG_FLOOR), _AGG_FLOOR).tolist())
        names = tuple(f"agg_{m.value}" for m in metrics)
        return FeatureVector(names=sigma.names + names, values=sigma.values + aggs)

    def _observed_block(
        self, metrics: Sequence[MetricKind], rec: TaskExecutionRecord
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The metrics' series downsampled to the target tau: the block (M, T)
        and each row's length, 0 where the record lacks the metric."""
        tau = self.config.target_tau
        series = rec.series
        interval = series.tau if series else tau
        return downsample_block([series.row(m) for m in metrics], interval, tau)

    # -- the three phases --------------------------------------------------

    def predict_task(self, f: PreRuntimeFeatures, scenario: Scenario) -> Prediction:
        """Predict the runtime of a not-yet-executed task.

        Cold start: a task with no completion in this scenario gets a 1.0
        second default without any change to the registry.
        Predicting changes no state: an unseen category reads the code that
        observing it would assign, and only observe_completion stores codes.
        """
        bundle = self.bundles.get((f.task_name, scenario))
        if bundle is None:
            return Prediction(runtime_seconds=1.0, scenario=scenario, task_name=f.task_name)
        try:
            if scenario == Scenario.baseline:
                query = self._baseline_vector(f, self.vocab.lookup)
            else:
                sigma = encode_pre_runtime(f, self.vocab.lookup)
                if scenario == Scenario.two_stages:
                    query = self._two_stages_query_vector(bundle, sigma)
                elif bundle.forecaster is None:
                    query = sigma
                else:
                    metrics = self.config.metrics_for(f.task_name)
                    if bundle.regressor.ranges()[len(sigma.values):].any():
                        block, horizons = bundle.forecaster.forecast_all(sigma)
                    else:
                        # no trev column is live, so no trev can move a
                        # distance: skip the forecast; empty rows give trevs of 0.0
                        block, horizons = np.zeros((len(metrics), 0)), np.zeros(len(metrics), int)
                    query = self._time_series_vector(metrics, sigma, block, horizons)
            runtime = bundle.regressor.predict(query, k=self.config.k)
        except EmptyWindowError:
            runtime = 1.0
        return Prediction(runtime_seconds=runtime, scenario=scenario, task_name=f.task_name)

    def observe_completion(self, rec: TaskExecutionRecord, scenario: Scenario) -> None:
        """Fold a completed task into the models for its (task, scenario) bundle.

        Training features come from the observed consumption, downsampled once
        and only for the selected metrics; baseline reads no series. Any
        forecaster failure propagates before the regressor is touched.
        """
        bundle = self._get_bundle(rec.features.task_name, scenario)
        if scenario == Scenario.baseline:
            fv = self._baseline_vector(rec.features, self.vocab.code)
        else:
            sigma = encode_pre_runtime(rec.features, self.vocab.code)
            metrics = self.config.metrics_for(rec.features.task_name)
            block, lengths = self._observed_block(metrics, rec)
            if scenario == Scenario.two_stages:
                fv = self._two_stages_observed_vector(metrics, sigma, block, lengths)
            else:
                # update the forecaster first so a diverged update, which rolls
                # it back whole, cannot leave a freshly added regressor instance
                if bundle.forecaster is not None:
                    bundle.forecaster.update_all(sigma, block, lengths)
                fv = self._time_series_vector(metrics, sigma, block, lengths)
        bundle.regressor.add(fv, rec.runtime_seconds)
        bundle.runtime_count += 1

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        """Write the registry as one JSON document, storage_dir/index.json: to
        index.json.tmp first, synced to disk, then renamed over index.json, so a
        save that fails at any point leaves the previous registry in place."""
        if self.storage_dir is None:
            raise ValueError("registry has no storage directory")
        self.storage_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "magic": REGISTRY_MAGIC,
            "version": REGISTRY_VERSION,
            "vocab": self.vocab.to_dict(),
            "config": self.config.to_dict(),
            "bundles": [self.bundles[key].to_dict() for key in sorted(self.bundles)],
        }
        path = self.storage_dir / "index.json"
        tmp = path.with_name("index.json.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, storage_dir) -> "Registry":
        """The registry save wrote; ValueError if index.json is not one.

        Each bundle is built from the saved config, as a first observe would
        build it, and then takes on its saved learned state."""
        storage_dir = Path(storage_dir)
        doc = json.loads((storage_dir / "index.json").read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("magic") != REGISTRY_MAGIC:
            raise ValueError(f"not a registry directory: {storage_dir}")
        if doc.get("version") != REGISTRY_VERSION:
            raise ValueError(f"unsupported registry version {doc.get('version')}")
        try:
            reg = cls(storage_dir=storage_dir, config=PipelineConfig.from_dict(doc["config"]))
            reg.vocab = CategoryVocab.from_dict(doc["vocab"])
            for payload in doc["bundles"]:
                bundle = reg._new_bundle(payload["task_name"], Scenario(payload["scenario"]))
                bundle.runtime_count = payload["runtime_count"]
                bundle.regressor.restore(payload["regressor"])
                if bundle.forecaster is not None:
                    bundle.forecaster.restore(payload["forecaster"])
                reg.bundles[(bundle.task_name, bundle.scenario)] = bundle
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed registry in {storage_dir}: {exc!r}") from exc
        return reg
