"""Per-layer tracing for the replay benchmark.

The wrappers go around the public calls of each wfpredict layer from outside
the package: methods are wrapped on their classes, and the functions that
`wfpredict.pipeline` imports by name (`downsample`, `trev`,
`encode_pre_runtime`) are wrapped in that module's namespace, because that is
the name the pipeline calls. Nothing inside `src/` changes.

Spans are not kept one by one: each wrapper adds its duration, its self time
(duration minus the time of the wrapped calls it made) and its counters to
per-name totals, which is all the report needs.
"""

from __future__ import annotations

import functools
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import wfpredict.pipeline as pipeline_mod
from wfpredict.forecaster import SequenceModel, TrainingDivergedError
from wfpredict.knn import EmptyWindowError, InstanceWindow
from wfpredict.pipeline import Registry
from wfpredict.store import RecordLog


class Tracer:
    """Accumulates seconds, self seconds and counters per span name."""

    def __init__(self):
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._child_s: List[float] = []  # one slot per open span

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn: Callable, on_return=None, on_error=None) -> Callable:
        """Wrap fn so each call is timed as `name`.

        on_return(result, args, kwargs) and on_error(exc) record counters; the
        call's result and exceptions pass through unchanged.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dur = perf_counter() - t0
                children = self._child_s.pop()
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - children
                if self._child_s:
                    self._child_s[-1] += dur
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapped

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json declares."""
        s, c = self.total_s, self.counts
        return {
            "forecaster.update_s": s.get("forecaster.update", 0.0),
            "forecaster.update_calls": c.get("forecaster.update_calls", 0),
            "forecaster.update_steps": c.get("forecaster.update_steps", 0),
            "forecaster.diverged": c.get("forecaster.diverged", 0),
            "forecaster.forecast_s": s.get("forecaster.forecast", 0.0),
            "forecaster.forecast_calls": c.get("forecaster.forecast_calls", 0),
            "forecaster.forecast_steps": c.get("forecaster.forecast_steps", 0),
            "tsfeat.trev_s": s.get("tsfeat.trev", 0.0),
            "tsfeat.trev_calls": c.get("tsfeat.trev_calls", 0),
            "knn.predict_s": s.get("knn.predict", 0.0),
            "knn.predict_calls": c.get("knn.predict_calls", 0),
            "knn.scanned": c.get("knn.scanned", 0),
            "knn.empty": c.get("knn.empty", 0),
            "knn.add_s": s.get("knn.add", 0.0),
            "knn.add_calls": c.get("knn.add_calls", 0),
            "knn.evicted": c.get("knn.evicted", 0),
            "store.decode_s": s.get("store.decode", 0.0),
            "store.records": c.get("store.records", 0),
            "store.downsample_s": s.get("store.downsample", 0.0),
            "store.downsample_calls": c.get("store.downsample_calls", 0),
            "pipeline.load_s": s.get("pipeline.load", 0.0),
            "pipeline.save_s": s.get("pipeline.save", 0.0),
            "pipeline.registry_bytes": c.get("pipeline.registry_bytes", 0),
            "domain.encode_s": s.get("domain.encode", 0.0),
            "domain.encode_calls": c.get("domain.encode_calls", 0),
            "pipeline.predict_s": s.get("pipeline.predict", 0.0),
            "pipeline.observe_s": s.get("pipeline.observe", 0.0),
            "pipeline.predict_self_s": self.self_s.get("pipeline.predict", 0.0),
            "pipeline.observe_self_s": self.self_s.get("pipeline.observe", 0.0),
        }


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install(tracer: Tracer) -> None:
    """Wrap every traced wfpredict call for the rest of this process."""
    t = tracer

    def counted(name):
        return lambda result, args, kwargs: t.count(name)

    def on_update(result, args, kwargs):
        t.count("forecaster.update_calls")
        observed = args[2] if len(args) > 2 else kwargs["observed"]
        t.count("forecaster.update_steps", len(observed.values))

    def on_update_error(exc):
        if isinstance(exc, TrainingDivergedError):
            t.count("forecaster.diverged")

    forecast = SequenceModel.forecast

    def forecast_counted(model, f, n=None):
        # the horizon is read before the call, as forecast() itself resolves it
        steps = model.default_horizon() if n is None else n
        t.count("forecaster.forecast_calls")
        t.count("forecaster.forecast_steps", steps)
        return forecast(model, f, n)

    knn_predict = InstanceWindow.predict

    def knn_predict_counted(window, query, k=1):
        t.count("knn.predict_calls")
        t.count("knn.scanned", len(window))
        return knn_predict(window, query, k)

    def on_knn_error(exc):
        if isinstance(exc, EmptyWindowError):
            t.count("knn.empty")

    def on_add(result, args, kwargs):
        t.count("knn.add_calls")
        if result is not None:
            t.count("knn.evicted")

    records = RecordLog.records

    def records_timed(log):
        # time each step of the generator: that is where a record is decoded
        it = records(log)
        step = t.span("store.decode", lambda: next(it, None))
        while True:
            rec = step()
            if rec is None:
                return
            t.count("store.records")
            yield rec

    def on_save(result, args, kwargs):
        t.count("pipeline.registry_bytes", _dir_bytes(args[0].storage_dir))

    load = Registry.load.__func__

    SequenceModel.update = t.span("forecaster.update", SequenceModel.update, on_update, on_update_error)
    SequenceModel.forecast = t.span("forecaster.forecast", forecast_counted)
    InstanceWindow.predict = t.span("knn.predict", knn_predict_counted, on_error=on_knn_error)
    InstanceWindow.add = t.span("knn.add", InstanceWindow.add, on_add)
    RecordLog.records = records_timed
    pipeline_mod.downsample = t.span("store.downsample", pipeline_mod.downsample, counted("store.downsample_calls"))
    pipeline_mod.trev = t.span("tsfeat.trev", pipeline_mod.trev, counted("tsfeat.trev_calls"))
    pipeline_mod.encode_pre_runtime = t.span(
        "domain.encode", pipeline_mod.encode_pre_runtime, counted("domain.encode_calls")
    )
    Registry.predict_task = t.span("pipeline.predict", Registry.predict_task)
    Registry.observe_completion = t.span("pipeline.observe", Registry.observe_completion)
    Registry.save = t.span("pipeline.save", Registry.save, on_save)
    Registry.load = classmethod(t.span("pipeline.load", load))
