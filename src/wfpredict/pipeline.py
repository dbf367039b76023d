"""End-to-end prediction pipeline: per-task model registry, the three
prediction scenarios, and correlation-based feature selection."""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

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
from .store import downsample
from .tsfeat import TrevConfig, strip_padding, trev

REGISTRY_MAGIC = "wfpredict-registry"
REGISTRY_VERSION = 2

ALL_METRICS: Tuple[MetricKind, ...] = tuple(MetricKind)

# aggregate targets are stored through InstanceWindow, which requires a
# positive target; consumption sums are >= 0, so clamp at a tiny epsilon
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


def select_features(
    history: Sequence[Tuple[Mapping[MetricKind, float], float]], threshold: float
) -> Set[MetricKind]:
    """Metrics whose |correlation to runtime| over the history exceeds the threshold."""
    if len(history) < 2:
        raise ValueError("need at least 2 history entries")
    runtimes = [rt for _, rt in history]
    selected = set()
    for m in ALL_METRICS:
        feats = [float(feats.get(m, 0.0)) for feats, _ in history]
        if abs(pearson(feats, runtimes)) > threshold:
            selected.add(m)
    return selected


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
    forecast_horizon: Optional[int] = None  # None: model's running-mean length
    # per-task metric selection; None means all 13 metrics
    selected_metrics: Optional[Dict[str, Set[MetricKind]]] = None

    def metrics_for(self, task_name: str) -> Tuple[MetricKind, ...]:
        if self.selected_metrics is None or task_name not in self.selected_metrics:
            return ALL_METRICS
        chosen = self.selected_metrics[task_name]
        return tuple(m for m in ALL_METRICS if m in chosen)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "window_capacity": self.window_capacity,
            "trev_lag": self.trev_lag,
            "target_tau": self.target_tau,
            "hidden_size": self.hidden_size,
            "learning_rate": self.learning_rate,
            "epochs_per_update": self.epochs_per_update,
            "clip_norm": self.clip_norm,
            "seed": self.seed,
            "forecast_horizon": self.forecast_horizon,
            "selected_metrics": (
                None
                if self.selected_metrics is None
                else {t: sorted(m.value for m in ms) for t, ms in self.selected_metrics.items()}
            ),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        sel = d.get("selected_metrics")
        return cls(
            k=d["k"],
            window_capacity=d["window_capacity"],
            trev_lag=d["trev_lag"],
            target_tau=d["target_tau"],
            hidden_size=d["hidden_size"],
            learning_rate=d["learning_rate"],
            epochs_per_update=d["epochs_per_update"],
            clip_norm=d["clip_norm"],
            seed=d["seed"],
            forecast_horizon=d.get("forecast_horizon"),
            selected_metrics=(
                None
                if sel is None
                else {t: {MetricKind(v) for v in ms} for t, ms in sel.items()}
            ),
        )


def _model_seed(base_seed: int, task_name: str, metric: str) -> int:
    return zlib.crc32(f"{base_seed}:{task_name}:{metric}".encode("utf-8")) & 0x7FFFFFFF


@dataclass
class TaskModelBundle:
    """All models owned by one (task name, scenario) pair."""

    task_name: str
    scenario: Scenario
    selected_metrics: Tuple[MetricKind, ...]
    trev_lag: int
    target_tau: int
    regressor: InstanceWindow
    # time_series: one forecaster over selected_metrics, None when none are selected
    forecaster: Optional[SequenceModel] = None
    agg_estimators: Dict[MetricKind, InstanceWindow] = field(default_factory=dict)
    runtime_sum: float = 0.0
    runtime_count: int = 0

    @property
    def mean_runtime(self) -> Optional[float]:
        if self.runtime_count == 0:
            return None
        return self.runtime_sum / self.runtime_count


class Registry:
    """Holds one TaskModelBundle per (task name, scenario) and the shared
    category vocabulary; persists everything under a storage directory."""

    def __init__(self, storage_dir=None, config: Optional[PipelineConfig] = None):
        self.storage_dir = Path(storage_dir) if storage_dir else None
        self.config = config or PipelineConfig()
        self.vocab = CategoryVocab()
        self.bundles: Dict[Tuple[str, Scenario], TaskModelBundle] = {}

    # -- bundle management -------------------------------------------------

    def _get_bundle(self, task_name: str, scenario: Scenario) -> TaskModelBundle:
        key = (task_name, scenario)
        if key not in self.bundles:
            cfg = self.config
            metrics = cfg.metrics_for(task_name) if scenario != Scenario.baseline else ()
            bundle = TaskModelBundle(
                task_name=task_name,
                scenario=scenario,
                selected_metrics=metrics,
                trev_lag=cfg.trev_lag,
                target_tau=cfg.target_tau,
                regressor=InstanceWindow(capacity=cfg.window_capacity),
            )
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
            elif scenario == Scenario.two_stages:
                for m in metrics:
                    bundle.agg_estimators[m] = InstanceWindow(capacity=cfg.window_capacity)
            self.bundles[key] = bundle
        return self.bundles[key]

    # -- feature assembly --------------------------------------------------

    def _baseline_vector(self, f: PreRuntimeFeatures) -> FeatureVector:
        return FeatureVector(
            names=("input_name",), values=(float(self.vocab.code("input_name", f.input_name)),)
        )

    def _time_series_vector(
        self, bundle: TaskModelBundle, sigma: FeatureVector, series: Sequence
    ) -> FeatureVector:
        """sigma plus the trev of each selected metric's series, 0.0 where it is None."""
        cfg = TrevConfig(lag=bundle.trev_lag)
        return FeatureVector(
            names=sigma.names + tuple(f"trev_{m.value}" for m in bundle.selected_metrics),
            values=sigma.values
            + tuple(trev(strip_padding(s), cfg) if s is not None else 0.0 for s in series),
        )

    def _two_stages_query_vector(
        self, bundle: TaskModelBundle, sigma: FeatureVector
    ) -> FeatureVector:
        names = list(sigma.names)
        values = list(sigma.values)
        for m in bundle.selected_metrics:
            est = bundle.agg_estimators[m]
            try:
                agg = est.predict(sigma, k=1)
            except EmptyWindowError:
                agg = _AGG_FLOOR
            names.append(f"agg_{m.value}")
            values.append(agg)
        return FeatureVector(names=tuple(names), values=tuple(values))

    def _two_stages_observed_vector(
        self, bundle: TaskModelBundle, sigma: FeatureVector, ds_series
    ) -> Tuple[FeatureVector, Dict[MetricKind, float]]:
        names = list(sigma.names)
        values = list(sigma.values)
        aggs: Dict[MetricKind, float] = {}
        for m in bundle.selected_metrics:
            s = ds_series.get(m)
            agg = max(sum(s.values), _AGG_FLOOR) if s is not None else _AGG_FLOOR
            aggs[m] = agg
            names.append(f"agg_{m.value}")
            values.append(agg)
        return FeatureVector(names=tuple(names), values=tuple(values)), aggs

    # -- the three phases --------------------------------------------------

    def predict_task(self, f: PreRuntimeFeatures, scenario: Scenario) -> Prediction:
        """Predict the runtime of a not-yet-executed task.

        Cold start: per-task running mean runtime if any completion was
        observed, otherwise a 1.0 second default.
        """
        bundle = self._get_bundle(f.task_name, scenario)
        sigma = encode_pre_runtime(f, self.vocab)
        if scenario == Scenario.baseline:
            query = self._baseline_vector(f)
        elif scenario == Scenario.two_stages:
            query = self._two_stages_query_vector(bundle, sigma)
        else:
            forecasts = []
            if bundle.forecaster is not None:
                forecasts = bundle.forecaster.forecast_all(sigma, self.config.forecast_horizon)
            query = self._time_series_vector(bundle, sigma, forecasts)
        try:
            runtime = bundle.regressor.predict(query, k=self.config.k)
        except EmptyWindowError:
            runtime = bundle.mean_runtime if bundle.mean_runtime is not None else 1.0
        return Prediction(runtime_seconds=runtime, scenario=scenario, task_name=f.task_name)

    def observe_completion(self, rec: TaskExecutionRecord, scenario: Scenario) -> None:
        """Fold a completed task into the models for its (task, scenario) bundle.

        Training features come from the observed consumption; any forecaster
        failure propagates before the regressor is touched.
        """
        bundle = self._get_bundle(rec.features.task_name, scenario)
        sigma = encode_pre_runtime(rec.features, self.vocab)
        ds_series = {
            m: downsample(s, bundle.target_tau) for m, s in rec.series.items()
        }
        if scenario == Scenario.baseline:
            fv = self._baseline_vector(rec.features)
        elif scenario == Scenario.two_stages:
            fv, aggs = self._two_stages_observed_vector(bundle, sigma, ds_series)
            for m, agg in aggs.items():
                bundle.agg_estimators[m].add(sigma, agg)
        else:
            observed = [
                ds_series[m].values if m in ds_series else None for m in bundle.selected_metrics
            ]
            # update the forecaster first so a diverged update, which rolls
            # it back whole, cannot leave a freshly added regressor instance
            if bundle.forecaster is not None:
                bundle.forecaster.update_all(sigma, observed)
            fv = self._time_series_vector(bundle, sigma, observed)
        bundle.regressor.add(fv, rec.runtime_seconds)
        bundle.runtime_sum += rec.runtime_seconds
        bundle.runtime_count += 1

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        if self.storage_dir is None:
            raise ValueError("registry has no storage directory")
        self.storage_dir.mkdir(parents=True, exist_ok=True)
        index = {
            "magic": REGISTRY_MAGIC,
            "version": REGISTRY_VERSION,
            "vocab": self.vocab.to_dict(),
            "config": self.config.to_dict(),
            "bundles": [],
        }
        for i, ((task, scenario), bundle) in enumerate(sorted(
            self.bundles.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        )):
            subdir = f"bundle_{i:04d}"
            bdir = self.storage_dir / subdir
            bdir.mkdir(exist_ok=True)
            payload = {
                "task_name": bundle.task_name,
                "scenario": bundle.scenario.value,
                "selected_metrics": [m.value for m in bundle.selected_metrics],
                "trev_lag": bundle.trev_lag,
                "target_tau": bundle.target_tau,
                "runtime_sum": bundle.runtime_sum,
                "runtime_count": bundle.runtime_count,
                "regressor": bundle.regressor.to_dict(),
                "forecaster": bundle.forecaster.to_dict() if bundle.forecaster else None,
                "agg_estimators": {
                    m.value: w.to_dict() for m, w in bundle.agg_estimators.items()
                },
            }
            (bdir / "bundle.json").write_text(json.dumps(payload), encoding="utf-8")
            index["bundles"].append(
                {"task_name": task, "scenario": scenario.value, "path": subdir}
            )
        (self.storage_dir / "index.json").write_text(json.dumps(index), encoding="utf-8")

    @classmethod
    def load(cls, storage_dir) -> "Registry":
        storage_dir = Path(storage_dir)
        index = json.loads((storage_dir / "index.json").read_text(encoding="utf-8"))
        if index.get("magic") != REGISTRY_MAGIC:
            raise ValueError(f"not a registry directory: {storage_dir}")
        if index.get("version") != REGISTRY_VERSION:
            raise ValueError(f"unsupported registry version {index.get('version')}")
        reg = cls(storage_dir=storage_dir, config=PipelineConfig.from_dict(index["config"]))
        reg.vocab = CategoryVocab.from_dict(index["vocab"])
        for entry in index["bundles"]:
            payload = json.loads(
                (storage_dir / entry["path"] / "bundle.json").read_text(encoding="utf-8")
            )
            forecaster = payload["forecaster"]
            bundle = TaskModelBundle(
                task_name=payload["task_name"],
                scenario=Scenario(payload["scenario"]),
                selected_metrics=tuple(MetricKind(v) for v in payload["selected_metrics"]),
                trev_lag=payload["trev_lag"],
                target_tau=payload["target_tau"],
                regressor=InstanceWindow.from_dict(payload["regressor"]),
                forecaster=SequenceModel.from_dict(forecaster) if forecaster else None,
                agg_estimators={
                    MetricKind(v): InstanceWindow.from_dict(d)
                    for v, d in payload["agg_estimators"].items()
                },
                runtime_sum=payload["runtime_sum"],
                runtime_count=payload["runtime_count"],
            )
            reg.bundles[(bundle.task_name, bundle.scenario)] = bundle
        return reg
