"""One phase of a benchmark pass, run in a fresh process, plus the replay
loops it times.

`bench.py` starts this file once per pass, or twice on the restart protocol
(a training process, then a serving process), so every pass pays the real
start-up cost (interpreter, numpy, wfpredict, and `Registry.load` when
serving from saved registries) and starts with empty model state. It prints
one JSON object with the phase's samples on its last line. `bench.py` also
imports the loops and checks them against `run_online` and
`run_batch_offline`.

The load is a closed loop with one caller: each call is made only after the
previous one returned, as a workflow scheduler calls the predictor.

Between two steps of a loop the worker times `host_probe`, a fixed slice of
work that does not touch wfpredict; `bench.py` uses those times to scale the
steps and calls around them to one reference host speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy

from wfpredict.domain import Scenario
from wfpredict.pipeline import PipelineConfig, Registry
from wfpredict.store import RecordLog

# every workload runs at the paper's tau=5 s, statistic lag 2 and pipeline seed 0
TAU = 5
LAG = 2
PIPELINE_SEED = 0
TRAIN_FRACTION = 0.8  # batch-offline split d

_PROBE_W = numpy.random.default_rng(0).uniform(-0.1, 0.1, (40, 21))


def host_probe() -> float:
    """A fixed slice of work in the program's own mix, about 0.3 ms: small
    numpy products as in one LSTM cell step, then a pure-Python dict loop.

    The host's vCPUs slow by up to 2x for tens of seconds at a time with other
    tenants' load, and the program slows with them; the probe's time, taken
    next to the program's, measures by how much.
    """
    h = numpy.zeros(10)
    c = numpy.zeros(10)
    x = numpy.full(11, 0.5)
    for _ in range(12):
        z = _PROBE_W @ numpy.concatenate((x, h))
        g = 1.0 / (1.0 + numpy.exp(-z))
        c = g[:10] * c + g[10:20] * numpy.tanh(z[20:30])
        h = g[30:] * numpy.tanh(c)
    d: Dict[int, float] = {}
    for i in range(1500):
        d[i & 63] = d.get(i & 63, 0.0) + i * 0.5
    return float(h.sum()) + d[0]


def new_registry(storage_dir=None) -> Registry:
    """A registry configured as run_online/run_batch_offline(tau=TAU, lag=LAG, seed=PIPELINE_SEED)."""
    return Registry(
        storage_dir=storage_dir,
        config=PipelineConfig(target_tau=TAU, trev_lag=LAG, seed=PIPELINE_SEED),
    )


class Samples:
    """Per-call latencies, predictions and failures of one replay."""

    def __init__(self):
        self.predict_ms: List[float] = []
        self.observe_ms: List[float] = []
        # the step each call was made in, as an index into steps
        self.predict_step: List[int] = []
        self.observe_step: List[int] = []
        self.actuals: List[float] = []
        self.preds: List[float] = []
        self.records = 0  # records the replay read from its log
        # seconds of consecutive steps that together make up the timed loop:
        # the same sequence of work on every pass over the same input
        self.steps: List[float] = []
        self._step_start = 0.0
        # host_probe's time just before each step (and once after the last)
        self.probe_ms: List[float] = []
        self.failures: Dict[str, int] = {}  # "<call>:<exception type>" -> count
        self.first_error: Optional[str] = None

    def call(self, kind: str, fn: Callable, *args):
        """Time one call; a call that raises is counted and the replay goes on."""
        getattr(self, kind + "_step").append(len(self.steps))
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller keeps serving, as a scheduler would
            key = f"{kind}:{type(exc).__name__}"
            self.failures[key] = self.failures.get(key, 0) + 1
            if self.first_error is None:
                self.first_error = f"{key}: {exc}"
            result = None
        getattr(self, kind + "_ms").append((perf_counter() - t0) * 1e3)
        return result

    def predict(self, registry: Registry, rec, scenario: Scenario) -> None:
        pred = self.call("predict", registry.predict_task, rec.features, scenario)
        if pred is not None:
            self.actuals.append(rec.runtime_seconds)
            self.preds.append(pred.runtime_seconds)

    def observe(self, registry: Registry, rec, scenario: Scenario) -> None:
        self.call("observe", registry.observe_completion, rec, scenario)

    def start(self) -> None:
        """Probe the host, then start the clock of the first step."""
        t0 = perf_counter()
        host_probe()
        self._step_start = perf_counter()
        self.probe_ms.append((self._step_start - t0) * 1e3)

    def step(self) -> None:
        """End the current step, probe the host, and start the next step."""
        self.steps.append(perf_counter() - self._step_start)
        self.start()

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "steps": self.steps,
            "predict_ms": self.predict_ms,
            "observe_ms": self.observe_ms,
            "predict_step": self.predict_step,
            "observe_step": self.observe_step,
            "probe_ms": self.probe_ms,
            "actuals": self.actuals,
            "preds": self.preds,
            "failures": self.failures,
            "failed_predicts": sum(n for k, n in self.failures.items() if k.startswith("predict:")),
            "first_error": self.first_error,
        }


def replay_online(log: RecordLog, scenario: Scenario, segment: int, out: Samples) -> List[Registry]:
    """Prequential replay: predict each record, then train on it.

    Every `segment` records the predictor restarts from empty state, so one
    pass replays several independent streams. Returns their registries.
    """
    registries: List[Registry] = []
    out.start()
    for rec in log.records():
        if out.records % segment == 0:
            registries.append(new_registry())
        out.records += 1
        out.predict(registries[-1], rec, scenario)
        out.observe(registries[-1], rec, scenario)
        out.step()
    return registries


def train_and_save(log: RecordLog, scenario: Scenario, segment: int, registry_dir, out: Samples) -> None:
    """Batch-offline training side: read the whole log; for each stream of
    `segment` records, observe its first TRAIN_FRACTION into a fresh registry
    and save that under `registry_dir`."""
    out.start()
    records = log.read_all()
    out.records += len(records)
    out.step()
    for j in range(0, len(records), segment):
        stream = records[j : j + segment]
        registry = new_registry(Path(registry_dir) / f"stream-{j // segment:03d}")
        for rec in stream[: train_split(len(stream))]:
            out.observe(registry, rec, scenario)
            out.step()
        registry.save()
        out.step()


def load_streams(registry_dir) -> List[Registry]:
    """The registries train_and_save wrote, in stream order."""
    return [Registry.load(d) for d in sorted(Path(registry_dir).glob("stream-*"))]


def serve_frozen(registries: List[Registry], test_log: RecordLog, scenario: Scenario,
                 segment: int, out: Samples) -> None:
    """Batch-offline test side: predict the held-out records of each stream
    with that stream's registry, never training."""
    held_out = segment - train_split(segment)
    out.start()
    for i, rec in enumerate(test_log.records()):
        out.records += 1
        out.predict(registries[i // held_out], rec, scenario)
        out.step()


def train_split(n_records: int) -> int:
    return int(n_records * TRAIN_FRACTION)


def zero_range_dims(registries: List[Registry]) -> dict:
    """Dimensions of every kNN window whose public lo/hi give no range.

    Uses the window's own rule: a range at the float rounding level of the
    stored values counts as zero, and such a dimension never moves a distance.
    """
    total = trev_dims = trev_zero = 0
    for bundle in (b for r in registries for b in r.bundles.values()):
        for w in [bundle.regressor, *bundle.agg_estimators.values()]:
            if w.schema is None:
                continue
            for name, lo, hi in zip(w.schema, w.lo, w.hi):
                zero = not (hi - lo > 1e-12 * max(1.0, abs(lo), abs(hi)))
                total += zero
                if w is bundle.regressor and name.startswith("trev_"):
                    trev_dims += 1
                    trev_zero += zero
    return {"zero_range_dims": total, "trev_dims": trev_dims, "trev_zero_range_dims": trev_zero}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--phase", choices=("online", "train", "serve"), required=True)
    p.add_argument("--scenario", choices=[s.value for s in Scenario], required=True)
    p.add_argument("--log", required=True, help="records to replay (JSONL)")
    p.add_argument("--segment", type=int, required=True, help="records per independent stream")
    p.add_argument("--registry-dir", help="saved registry (train writes it, serve loads it)")
    p.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="exit once ready")
    args = p.parse_args(argv)
    scenario = Scenario(args.scenario)

    tracer = None
    if args.trace:
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)

    log = RecordLog(args.log)
    registries = load_streams(args.registry_dir) if args.phase == "serve" else []
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if not args.setup_only:
        out = Samples()
        if args.phase == "online":
            registries = replay_online(log, scenario, args.segment, out)
        elif args.phase == "train":
            train_and_save(log, scenario, args.segment, args.registry_dir, out)
        else:
            serve_frozen(registries, log, scenario, args.segment, out)
        result["loop_s"] = sum(out.steps)
        result.update(out.to_dict())
        result.update(zero_range_dims(registries))
        if tracer is not None:
            result["layers"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
