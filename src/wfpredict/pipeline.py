"""End-to-end prediction pipeline: per-task model registry, the three
prediction scenarios, and feature selection from running co-moments."""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .domain import (
    ALL_METRICS,
    PRE_RUNTIME_FEATURE_NAMES,
    CategoryVocab,
    MetricKind,
    Prediction,
    PreRuntimeFeatures,
    Scenario,
    TaskExecutionRecord,
    encode_pre_runtime,
)
from .forecaster import SequenceModel
from .knn import InstanceWindow
# the pipeline calls neither downsample nor trev; perfbench/layers.py wraps
# both by name in this module's namespace, so they stay importable from here
from .store import downsample, downsample_block  # noqa: F401
from .tsfeat import trev, trev_rows  # noqa: F401

REGISTRY_MAGIC = "wfpredict-registry"
REGISTRY_VERSION = 9

# an aggregate is a consumption sum (>= 0) floored at a tiny epsilon, which is
# also the aggregate of a metric the record lacks; the floor enters the
# aggregate columns' ranges, so it can move k>1 answers
_AGG_FLOOR = 1e-9

# the most answers a bundle keeps; a full cache is cleared whole
_ANSWERS_CAP = 1024


def _aggregates(block: np.ndarray, lengths: Sequence[int], lag: int) -> np.ndarray:
    """The aggregate (the sum) of each row of the block, floored at
    _AGG_FLOOR; a metric the record lacks has an all-zero row, whose sum
    0.0 floors to _AGG_FLOOR. It takes trev_rows' arguments and reads neither
    the lengths nor the lag."""
    # accumulate adds each row left to right, as sum() over the series did, and the
    # padding zeros keep its sum; a sum of means within B is finite (add refuses > B)
    sums = np.add.accumulate(block.T)[-1] if block.shape[1] else np.zeros(len(block))
    return np.maximum(sums, _AGG_FLOOR)


def _sigma(f: PreRuntimeFeatures, code) -> tuple:
    """encode_pre_runtime, looked up at each call, so that a wrapper set on it sees each one."""
    return encode_pre_runtime(f, code)


# each scenario's row encoder and the pre-runtime columns it gives; its statistic
# (a column prefix and the function of an observed or forecast block) or None; and
# its query's statistic source: None, "neighbor" (the nearest row) or "forecast"
_SCENARIOS = {
    # baseline codes input_name alone, so that its registry codes no task name or id
    Scenario.baseline: (lambda f, code: (float(code("input_name", f.input_name)),),
                        ("input_name",), None, None),
    Scenario.two_stages: (_sigma, PRE_RUNTIME_FEATURE_NAMES, ("agg_", _aggregates), "neighbor"),
    Scenario.time_series: (_sigma, PRE_RUNTIME_FEATURE_NAMES, ("trev_", trev_rows), "forecast"),
}


class CoMoments:
    """Running count, means and co-moments of each metric's statistic x (in
    ALL_METRICS order) against runtime y, in Welford's form (Welford 1962;
    Chan, Golub & LeVeque 1983): a side that never varies keeps its first
    value as an exact mean, so its co-moment stays exactly 0.0."""

    def __init__(self) -> None:
        self.n, self.mean_y, self.yy = 0, 0.0, 0.0
        self.mean_x, self.xx, self.xy = (np.zeros(len(ALL_METRICS)) for _ in range(3))

    def add(self, stats: Sequence[float], runtime: float) -> None:
        """Fold in one record: its statistic of every metric and its runtime."""
        self.n += 1
        dx, dy = np.subtract(stats, self.mean_x), runtime - self.mean_y
        self.mean_x += dx / self.n
        self.mean_y += dy / self.n
        self.xx += dx * (stats - self.mean_x)
        self.xy += dx * (runtime - self.mean_y)
        self.yy += dy * (runtime - self.mean_y)

    def rho(self) -> np.ndarray:
        """Each metric's Pearson correlation to runtime, 0.0 where either side
        has not varied; ValueError below 2 records."""
        if self.n < 2:
            raise ValueError("need at least 2 records")
        with np.errstate(all="ignore"):
            den = np.sqrt(self.xx * self.yy)
            return np.clip(np.where(den > 0.0, self.xy / den, 0.0), -1.0, 1.0)

    def selected(self, threshold: float) -> Set[MetricKind]:
        """The metrics whose |correlation to runtime| exceeds the threshold."""
        return {m for m, r in zip(ALL_METRICS, self.rho().tolist()) if abs(r) > threshold}


def trev_comoments(records: Iterable[TaskExecutionRecord], tau: int, lag: int) -> dict:
    """Per task name, the CoMoments against runtime of each metric's trev at
    tau over one pass of the records, 0.0 for a metric the record lacks."""
    per_task: Dict[str, CoMoments] = defaultdict(CoMoments)
    for rec in records:
        trevs = trev_rows(*downsample_block(rec.series, ALL_METRICS, tau), lag)
        per_task[rec.features.task_name].add(trevs, rec.runtime_seconds)
    return dict(per_task)


@dataclass
class PipelineConfig:
    k: int = 1
    window_capacity: Optional[int] = None
    trev_lag: int = 2
    target_tau: int = 1
    epochs_per_update: int = 1
    seed: int = 0
    # per task, its selected members in ALL_METRICS order; None means all 13
    selected_metrics: Optional[Dict[str, Tuple[MetricKind, ...]]] = None

    def __post_init__(self):
        # each integer setting and its least value, if it has one; each must
        # fit an int64, as numpy takes the sizes among them
        for name, least in (("k", 1), ("window_capacity", 1), ("trev_lag", 1), ("target_tau", 1),
                            ("epochs_per_update", 0), ("seed", None)):
            v = getattr(self, name)
            if v is None and name == "window_capacity":
                continue
            if type(v) is not int or least is not None and v < least or not -2**63 <= v < 2**63:
                at_least = "" if least is None else f">= {least} and "
                raise ValueError(f"{name} must be {at_least}an integer an int64 holds, got {v!r}")
        if self.selected_metrics is not None:
            if not isinstance(self.selected_metrics, Mapping):
                raise ValueError("selected_metrics must map task names to metrics, "
                                 f"got a {type(self.selected_metrics).__name__}")
            for t, ms in self.selected_metrics.items():
                # a task's name is a str: another key would match no task, and load back as one
                if not isinstance(t, str):
                    raise ValueError(f"the selection key {t!r} is not a task name")
                if isinstance(ms, str):
                    raise ValueError(f"the selection of {t!r} is a string {ms!r}, not metrics")
            self.selected_metrics = {
                t: tuple(sorted({MetricKind(v) for v in ms}, key=ALL_METRICS.index))
                for t, ms in self.selected_metrics.items()
            }

    def metrics_for(self, task_name: str) -> Tuple[MetricKind, ...]:
        return (self.selected_metrics or {}).get(task_name, ALL_METRICS)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.selected_metrics is not None:
            d["selected_metrics"] = {
                t: sorted(m.value for m in ms) for t, ms in self.selected_metrics.items()
            }
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "PipelineConfig":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)})


def _model_seed(base_seed: int, task_name: str, metric: str) -> int:
    return zlib.crc32(f"{base_seed}:{task_name}:{metric}".encode("utf-8")) & 0x7FFFFFFF


@dataclass
class TaskModelBundle:
    """All models owned by one (task name, scenario) pair, its key in
    Registry.bundles: learned state only, every setting is the registry's config."""

    # the kNN window of runtimes; the two_stages stage 1 reads its rows too
    regressor: InstanceWindow
    # for a "forecast" source, one forecaster over the selected metrics, None if none are selected
    forecaster: Optional[SequenceModel] = None
    runtime_count: int = 0
    # encoded query -> the Prediction predict_task gave for it; observe clears
    # it first, and it is never saved
    answers: Dict[tuple, Prediction] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    # empty, as the aggregates live in the regressor's rows; perfbench/replay.py
    # (zero_range_dims) counts the windows it maps besides the regressor
    agg_estimators = MappingProxyType({})

    def to_dict(self) -> dict:
        return {
            "runtime_count": self.runtime_count,
            "regressor": self.regressor.to_dict(),
            "forecaster": self.forecaster.to_dict() if self.forecaster else None,
        }


def temp_path(path: Path) -> Path:
    """<path>.tmp, the file replace_file writes and then renames over path."""
    return Path(f"{path}.tmp")


def index_path(storage_dir) -> Path:
    """storage_dir/index.json, the one file a registry is saved to and loaded from."""
    return Path(storage_dir) / "index.json"


def replace_file(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 to <path>.tmp, synced, then rename it over path.
    path's directory is created once the first chunk is taken; a failure at any
    point, the chunks' producer included, removes <path>.tmp and leaves path as it was."""
    chunks = iter(chunks)
    first = next(chunks, "")
    tmp = temp_path(path)
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        """An untrained bundle laid out by its scenario's _SCENARIOS row and the
        config, on first observe and on load."""
        cfg = self.config
        _, columns, statistic, source = _SCENARIOS[scenario]
        metrics = cfg.metrics_for(task_name) if statistic else ()
        schema = columns + tuple(statistic[0] + m.value for m in metrics)
        # a "neighbor" query names only the pre-runtime columns; the nearest row completes it
        width = len(columns) if source == "neighbor" else None
        regressor = InstanceWindow(schema, cfg.window_capacity, width)
        bundle = TaskModelBundle(regressor)
        if source == "forecast" and metrics:
            bundle.forecaster = SequenceModel(
                input_dim=len(columns),
                epochs_per_update=cfg.epochs_per_update,
                seeds=[_model_seed(cfg.seed, task_name, m.value) for m in metrics],
                metrics=metrics,
            )
        return bundle

    # -- the three phases --------------------------------------------------

    def predict_task(self, f: PreRuntimeFeatures, scenario: Scenario) -> Prediction:
        """Predict the runtime of a not-yet-executed task.

        Cold start: a task with no completion in this scenario has no bundle,
        and gets a 1.0 second default without any change to the registry.
        Predicting changes no model state: an unseen category reads the code
        that observing it would assign, and only observe_completion stores
        codes. A query the bundle has answered since its last observe gets
        the cached answer, which is a function of the encoded query and the
        bundle's state alone.
        """
        bundle = self.bundles.get((f.task_name, scenario))
        if bundle is None:
            return Prediction(runtime_seconds=1.0)
        # the key is the encoded query, not f: an unseen category codes as its
        # table's length, which another task's observe can grow. Each value in
        # it is an int as a float or a positive VM size, so no two equal keys
        # differ in a bit (as 0.0 and -0.0 would)
        encode, _, statistic, _ = _SCENARIOS[scenario]
        key = query = sigma = encode(f, self.vocab.lookup)
        answer = bundle.answers.get(key)
        if answer is not None:
            return answer
        # a bundle without a forecaster queries with sigma alone (see _new_bundle)
        if bundle.forecaster is not None:
            if any(bundle.regressor.ranges()[len(sigma):].tolist()):
                block, horizons = bundle.forecaster.forecast_all(sigma)
                query = sigma + tuple(statistic[1](block, horizons, self.config.trev_lag).tolist())
            else:
                # no statistic column is live, so none can move a distance:
                # skip the forecast and read every statistic as 0.0
                query = sigma + (0.0,) * (len(bundle.regressor.schema) - len(sigma))
        runtime = bundle.regressor.predict(query, k=self.config.k)
        answer = Prediction(runtime_seconds=runtime)
        if len(bundle.answers) >= _ANSWERS_CAP:
            bundle.answers.clear()
        bundle.answers[key] = answer
        return answer

    def observe_completion(self, rec: TaskExecutionRecord, scenario: Scenario) -> None:
        """Fold a completed task into the models for its (task, scenario) bundle.

        Training features come from the observed consumption, downsampled once
        and only for the selected metrics; baseline reads no series. Any
        forecaster failure propagates before the regressor is touched. A
        bundle joins the registry with its first row, so a refused first
        record leaves none.
        """
        key = (rec.features.task_name, scenario)
        bundle = self.bundles.get(key) or self._new_bundle(*key)
        # first, so an observe refused or half applied leaves no stale answer
        bundle.answers.clear()
        encode, _, statistic, _ = _SCENARIOS[scenario]
        # encoded first, so a record whose series fail still leaves its codes
        row = sigma = encode(rec.features, self.vocab.code)
        if statistic:
            cfg = self.config
            metrics = cfg.metrics_for(rec.features.task_name)
            block, lengths = downsample_block(rec.series, metrics, cfg.target_tau)
            # update the forecaster first so a diverged update, which rolls
            # it back whole, cannot leave a freshly added regressor instance
            if bundle.forecaster is not None:
                bundle.forecaster.update_all(sigma, block, lengths)
            row = sigma + tuple(statistic[1](block, lengths, cfg.trev_lag).tolist())
        bundle.regressor.add(row, rec.runtime_seconds)
        bundle.runtime_count += 1
        self.bundles[key] = bundle

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        """Write the registry as one JSON document, index_path(storage_dir), through
        replace_file, so a save that fails at any point leaves the previous one."""
        if self.storage_dir is None:
            raise ValueError("registry has no storage directory")
        doc = {
            "magic": REGISTRY_MAGIC,
            "version": REGISTRY_VERSION,
            "vocab": self.vocab.to_dict(),
            "config": self.config.to_dict(),
            "bundles": [{"task_name": t, "scenario": s.value, **self.bundles[t, s].to_dict()}
                        for t, s in sorted(self.bundles)],
        }
        replace_file(index_path(self.storage_dir), [json.dumps(doc)])

    @classmethod
    def load(cls, storage_dir) -> "Registry":
        """The registry save wrote; ValueError if its index_path is not one.

        Each bundle is built from the saved config, as a first observe would
        build it, and then takes on its saved learned state; a bundle saved
        without rows is checked and dropped, as observe keeps none."""
        storage_dir = Path(storage_dir)
        doc = json.loads(index_path(storage_dir).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("magic") != REGISTRY_MAGIC:
            raise ValueError(f"not a registry directory: {storage_dir}")
        if doc.get("version") != REGISTRY_VERSION:
            raise ValueError(f"unsupported registry version {doc.get('version')}")
        try:
            reg = cls(storage_dir=storage_dir, config=PipelineConfig.from_dict(doc["config"]))
            reg.vocab = CategoryVocab.from_dict(doc["vocab"])
            listed = set()
            for payload in doc["bundles"]:
                name, count = payload["task_name"], payload["runtime_count"]
                if type(name) is not str:
                    raise ValueError(f"task name {name!r} is not a string")
                key = (name, Scenario(payload["scenario"]))
                if key in listed:
                    raise ValueError(f"bundle {name!r} {key[1].value} is listed twice")
                listed.add(key)
                bundle = reg._new_bundle(*key)
                bundle.regressor.restore(payload["regressor"])
                # every row held was once a completion; eviction only drops rows
                if type(count) is not int or count < len(bundle.regressor):
                    raise ValueError(f"runtime_count {count!r} of {name!r} is not an "
                                     f"integer >= its {len(bundle.regressor)} rows")
                bundle.runtime_count = count
                if bundle.forecaster is not None:
                    bundle.forecaster.restore(payload["forecaster"])
                if len(bundle.regressor):
                    reg.bundles[key] = bundle
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed registry in {storage_dir}: {exc!r}") from exc
        return reg
