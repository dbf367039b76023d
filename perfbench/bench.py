"""The benchmark's workloads, output checks, passes and metrics.

`run.py` imports this module once it has put the checkout's `src/` on the
path; `replay.py` is the worker each pass runs in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

import replay
from wfpredict.domain import Scenario
from wfpredict.evaluation import (
    GeneratorConfig,
    generate_synthetic,
    rae,
    run_batch_offline,
    run_online,
    standard_corpus_config,
)
from wfpredict.store import RecordLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2  # per untraced run, so each call's time is the best of several
SETUP_PROBES = 7  # extra start-ups per run, so setup_s is a median of several
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
# host_probe's median time on a 2-vCPU Xeon VM that no other tenant slows; every
# timing is scaled to the host speed at which the probe takes this long
PROBE_REF_MS = 0.28
PROBE_WINDOW = 4  # probes on each side of a step that set its host speed
# start-up does not slow as the probe does, so it is scaled by a reference
# start-up instead: an interpreter that imports numpy, which takes this long
# on the same host when no other tenant slows it
REF_START_S = 0.12
REF_START = "import sys, time, numpy; print(time.monotonic() - float(sys.argv[1]))"


@dataclasses.dataclass(frozen=True)
class Workload:
    scenario: str
    protocol: str  # "online" (prequential) or "restart" (batch-offline across a restart)
    profile: str  # generator series profile
    records: int  # length of one independent stream
    segments: int  # streams per pass, each replayed from empty state
    check_records: int  # prefix replayed against the evaluation module
    pass_s: float  # nominal seconds of one pass of the seed code, which sets the pass count
    loads: str  # the layer the workload is chosen to load

    @property
    def total(self) -> int:
        """Fixed length of one pass, in records."""
        return self.records * self.segments

    @property
    def predictions(self) -> int:
        """Predict calls in one pass."""
        if self.protocol == "online":
            return self.total
        return self.segments * (self.records - replay.train_split(self.records))


# Each workload puts a different layer on the blocking path of the calls, so a
# change to one layer has a workload that exercises it and workloads that
# bypass it, where the prediction is no change.
#
# A pass replays several independent streams, each from empty state, and
# pools their predictions. The rae of a single stream spreads by 15-20%
# (interquartile range over median) from one corpus seed to the next, and
# longer streams do not narrow it (measured up to 2000 records); pooling
# several streams does, and it narrows the spread of the latency medians and
# tails, which follow each seed's mix of tasks and runtimes, too.
WORKLOADS: Dict[str, Workload] = {
    # the forecaster bank: 13 updates per observe, 13 forecasts per predict;
    # the curved profile gives the trev features a range, so a changed
    # forecast changes predictions and shows in rae
    "ts-online-curved": Workload("time_series", "online", "curved", 150, 3, 30, 12.0, "forecaster"),
    # 14 kNN scans per record over windows that grow through each stream; no forecaster
    "two-stages-online": Workload("two_stages", "online", "steady", 150, 6, 60, 8.0, "knn"),
    # read_all, observe-only on 80%, save; a fresh process loads the registry
    # and predicts the rest frozen: store decode, downsampling, persistence,
    # and a 1-d kNN over a full window in which tie order decides every answer
    "baseline-restart": Workload("baseline", "restart", "steady", 500, 4, 200, 6.5, "store+registry"),
}


def declared_metrics() -> dict:
    """Names and units of the metrics BENCHMARK.json declares, per trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# -- inputs -------------------------------------------------------------------


def generate_corpus(wl: Workload, seed: int, path: Path) -> dict:
    """The standard three-task corpus for `seed`, in the workload's profile and length."""
    std = standard_corpus_config(wl.total)
    tasks = tuple(dataclasses.replace(t, series_profile=wl.profile) for t in std.tasks)
    generate_synthetic(GeneratorConfig(tasks=tasks, n_records=wl.total), seed, path)
    data = path.read_bytes()
    return {
        "profile": wl.profile,
        "seed": seed,
        "records": data.count(b"\n"),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def write_held_out(corpus: Path, dst: Path, segment: int) -> None:
    """The records each stream of `segment` records holds out from training."""
    with open(corpus, "rb") as fh:
        lines = fh.readlines()
    split = replay.train_split(segment)
    dst.write_bytes(b"".join(
        line for i, line in enumerate(lines) if i % segment >= split
    ))


# -- output checks ------------------------------------------------------------


def check_prefix(wl: Workload, corpus: Path, work: Path) -> dict:
    """Replay a prefix in this process with the benchmark's loops and with the
    evaluation module's protocol; the two rae values must be bit-identical."""
    scenario = Scenario(wl.scenario)
    n = wl.check_records
    prefix = work / "prefix.jsonl"
    with open(corpus, "rb") as fh:
        prefix.write_bytes(b"".join(fh.readlines()[:n]))
    out = replay.Samples()
    if wl.protocol == "online":
        replay.replay_online(RecordLog(prefix), scenario, n, out)
        ref = run_online(RecordLog(prefix), scenario, replay.TAU, replay.LAG, replay.PIPELINE_SEED)
    else:
        reg_dir = work / "prefix-registry"
        replay.train_and_save(RecordLog(prefix), scenario, n, reg_dir, out)
        test = work / "prefix-test.jsonl"
        write_held_out(prefix, test, n)
        replay.serve_frozen(replay.load_streams(reg_dir), RecordLog(test), scenario, n, out)
        ref = run_batch_offline(
            RecordLog(prefix), scenario, replay.TRAIN_FRACTION,
            replay.TAU, replay.LAG, replay.PIPELINE_SEED,
        )
    bench = rae(out.actuals, out.preds)
    return {
        "records": wl.check_records,
        "bench_rae": bench,
        "reference_rae": ref.rae,
        "identical": bench == ref.rae and not out.failures,
    }


def check_pass(wl: Workload, p: dict) -> List[str]:
    """Output checks on one timed pass; returns what failed."""
    problems = []
    if p["records"] != wl.total:
        problems.append(f"replayed {p['records']} records of {wl.total}")
    if len(p["predict_ms"]) != wl.predictions:
        problems.append(f"{len(p['predict_ms'])} predict calls, expected {wl.predictions}")
    if len(p["preds"]) + p["failed_predicts"] != wl.predictions:
        problems.append(
            f"{len(p['preds'])} predictions and {p['failed_predicts']} failed predict calls "
            f"for {wl.predictions} records"
        )
    bad = [v for v in p["preds"] if not (math.isfinite(v) and v > 0)]
    if bad:
        problems.append(f"{len(bad)} predictions not finite and > 0, e.g. {bad[0]!r}")
    if wl.scenario == "time_series" and p["trev_zero_range_dims"] == p["trev_dims"]:
        problems.append(
            f"all {p['trev_dims']} trev dimensions have zero range: "
            "the workload cannot see a forecaster change"
        )
    return problems


# -- passes -------------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one caller, one thread: pin every BLAS pool numpy may use
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(phase: str, wl: Workload, log: Path, registry_dir: Optional[Path],
               trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "replay.py"), "--phase", phase, "--scenario", wl.scenario,
           "--log", str(log), "--trace", str(int(trace))]
    if registry_dir is not None:
        cmd += ["--registry-dir", str(registry_dir)]
    cmd += ["--segment", str(wl.records)]
    if setup_only:
        cmd.append("--setup-only")
    cmd.append("--launched")
    ref_start_s = float(spawn([sys.executable, "-c", REF_START]))
    result = json.loads(spawn(cmd).strip().splitlines()[-1])
    to_reference_speed(result, ref_start_s)
    return result


def spawn(cmd: List[str]) -> str:
    """Run `cmd` with one more argument, time.monotonic() at the launch; its stdout."""
    proc = subprocess.run(cmd + [repr(time.monotonic())], env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def to_reference_speed(result: dict, ref_start_s: float) -> None:
    """Scale a worker's timings, in place, to the host speed at which the
    probe takes PROBE_REF_MS.

    The host's vCPUs run up to 2x slower for tens of seconds at a time with
    other tenants' load, so whole runs, and whole sets of runs, can fall in a
    slow period. A step's host speed is the median probe time of the probes
    around it, and its time and its calls' times are scaled by the reference
    over that median. Start-up is scaled by the reference start-up made just
    before the worker's. The unscaled times stay in `raw_*`.
    """
    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] *= REF_START_S / ref_start_s
    if "steps" not in result:
        return
    probe_ms = result["probe_ms"]  # probe i runs just before step i
    scale = [
        PROBE_REF_MS / statistics.median(probe_ms[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 2])
        for i in range(len(result["steps"]))
    ]
    result["host_slowdown"] = statistics.median(probe_ms) / PROBE_REF_MS
    result["raw_loop_s"] = result["loop_s"]
    result["steps"] = [t * f for t, f in zip(result["steps"], scale)]
    result["loop_s"] = sum(result["steps"])
    for kind in ("predict", "observe"):
        result[kind + "_ms"] = [
            t * scale[i] for t, i in zip(result[kind + "_ms"], result[kind + "_step"])
        ]


def run_pass(wl: Workload, corpus: Path, test_log: Optional[Path], reg_dir: Path,
             trace: bool) -> dict:
    """One pass from empty state. For the restart protocol, a training process
    writes the registry and a fresh serving process loads it."""
    if wl.protocol == "online":
        phases = [run_worker("online", wl, corpus, None, trace)]
    else:
        phases = [run_worker("train", wl, corpus, reg_dir, trace),
                  run_worker("serve", wl, test_log, reg_dir, trace)]
    merged = {
        "setup_s": phases[-1]["setup_s"],  # the process that serves the predictions
        "loop_s": sum(ph["loop_s"] for ph in phases),
        "raw_loop_s": sum(ph["raw_loop_s"] for ph in phases),
        "raw_setup_s": phases[-1]["raw_setup_s"],
        "host_slowdown": max(ph["host_slowdown"] for ph in phases),
        "records": phases[0]["records"],
        "peak_rss_mb": max(ph["peak_rss_mb"] for ph in phases),
        "failed_predicts": sum(ph["failed_predicts"] for ph in phases),
        "failures": {},
        "first_error": next((ph["first_error"] for ph in phases if ph["first_error"]), None),
    }
    for key in ("predict_ms", "observe_ms", "actuals", "preds"):
        merged[key] = [v for ph in phases for v in ph[key]]
    for key in ("zero_range_dims", "trev_dims", "trev_zero_range_dims"):
        merged[key] = phases[-1][key]
    for field in ("failures",) + (("layers",) if trace else ()):
        merged[field] = {}
        for ph in phases:
            for name, v in ph[field].items():
                merged[field][name] = merged[field].get(name, 0) + v
    return merged


def pass_count(wl: Workload, seconds: float, trace: bool) -> int:
    """Passes (pairs of passes with tracing) that fill `seconds` on the seed code.

    The count depends on the workload and `seconds` only, never on how fast
    this run goes, so the code before and after a change does the same work.
    """
    if trace:
        return max(1, round(seconds / (2 * wl.pass_s)))
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def measure(wl: Workload, corpus: Path, work: Path, seconds: float, trace: bool):
    """Run the passes. With tracing, untraced and traced passes alternate, so
    both sides of the overhead ratio see the same machine conditions.
    Returns the untraced and the traced passes."""
    test_log = None
    if wl.protocol == "restart":
        test_log = work / "test.jsonl"
        write_held_out(corpus, test_log, wl.records)
    runs: Dict[bool, List[dict]] = {False: [], True: []}
    for i in range(pass_count(wl, seconds, trace)):
        for traced in ([False, True] if trace else [False]):
            reg_dir = work / f"registry-{len(runs[False]) + len(runs[True])}"
            runs[traced].append(run_pass(wl, corpus, test_log, reg_dir, traced))
    return runs[False], runs[True], test_log, reg_dir


# -- metrics ------------------------------------------------------------------


def tail(samples: List[float]) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none below the tail")
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_call_best(passes: List[dict], key: str) -> List[float]:
    """Each call's shortest scaled time over the passes.

    Every pass repeats the same calls on the same input from the same state,
    so the i-th samples of all passes measure the same work. Scaling takes out
    the host's slow periods; the best of the repeats also drops one-off stalls
    that the probes around a call did not see. Medians and tails over calls
    are then taken over these.
    """
    lists = [p[key] for p in passes]
    if len({len(v) for v in lists}) != 1:
        raise RuntimeError(f"passes disagree on the number of {key} samples")
    return [min(v) for v in zip(*lists)]


def end_to_end(passes: List[dict], setups: List[float]) -> dict:
    predict = per_call_best(passes, "predict_ms")
    observe = per_call_best(passes, "observe_ms")
    attempted = sum(len(p["predict_ms"]) + len(p["observe_ms"]) for p in passes)
    failed = sum(sum(p["failures"].values()) for p in passes)
    return {
        "records_per_s": passes[0]["records"] / median_of(passes, "loop_s"),
        "predict_ms_p50": statistics.median(predict),
        "predict_ms_tail": tail(predict)[0],
        "observe_ms_p50": statistics.median(observe),
        "observe_ms_tail": tail(observe)[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        "rae": rae(passes[0]["actuals"], passes[0]["preds"]),
        "ok_ops_frac": (attempted - failed) / attempted,
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def median_of(dicts: List[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate, check, measure; returns the report with its metrics."""
    wl = WORKLOADS[workload]
    declared = declared_metrics()[trace]
    meta = metadata()
    corpus_path = work / "corpus.jsonl"
    corpus = generate_corpus(wl, seed, corpus_path)
    prefix = check_prefix(wl, corpus_path, work)
    plain, traced, test_log, last_registry = measure(wl, corpus_path, work, seconds, trace)
    timed = plain + traced

    problems = []
    if corpus["records"] != wl.total:
        problems.append(f"corpus has {corpus['records']} records, expected {wl.total}")
    if not prefix["identical"]:
        problems.append(
            f"prefix rae {prefix['bench_rae']!r} differs from the evaluation module's "
            f"{prefix['reference_rae']!r}"
        )
    for i, p in enumerate(timed):
        problems += [f"pass {i}: {msg}" for msg in check_pass(wl, p)]
    raes = [rae(p["actuals"], p["preds"]) for p in timed]
    if len(set(raes)) != 1:
        problems.append(f"rae differs between passes over the same input: {raes}")

    failures: Dict[str, int] = {}
    for p in timed:
        for name, n in p["failures"].items():
            failures[name] = failures.get(name, 0) + n
    report = {
        "workload": workload,
        "wl": wl,
        "meta": meta,
        "corpus": corpus,
        "prefix_check": prefix,
        "passes": len(plain),
        "problems": problems,
        "attempted": sum(len(p["predict_ms"]) + len(p["observe_ms"]) for p in timed),
        "failed": sum(failures.values()),
        "failures": failures,
        "first_error": next((p["first_error"] for p in timed if p["first_error"]), None),
        "zero_range": {k: timed[-1][k] for k in ("zero_range_dims", "trev_dims", "trev_zero_range_dims")},
        "tail": {
            kind: {"percentile": tail(timed[0][kind])[1], "samples": len(timed[0][kind])}
            for kind in ("predict_ms", "observe_ms")
        },
    }
    if trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["knn.zero_range_dims"] = traced[-1]["zero_range_dims"]
        values["replay.loop_s"] = median_of(traced, "raw_loop_s")  # unscaled, as the layer times
        values["trace.overhead_frac"] = median_of(traced, "loop_s") / median_of(plain, "loop_s") - 1.0
    else:
        setups = [p["setup_s"] for p in plain]
        probe_phase, probe_log = ("online", corpus_path) if wl.protocol == "online" else ("serve", test_log)
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(probe_phase, wl, probe_log, last_registry, False, True)["setup_s"])
        values = end_to_end(plain, setups)
        report["setup_samples"] = len(setups)
        report["records_per_s_by_pass"] = [p["records"] / p["loop_s"] for p in plain]
        report["raw_records_per_s_by_pass"] = [p["records"] / p["raw_loop_s"] for p in plain]
        report["host_slowdown_by_pass"] = [p["host_slowdown"] for p in plain]
        report["raw_setup_s"] = median_of(plain, "raw_setup_s")
    if set(values) != set(declared):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(declared)}")
    report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    return report


def print_report(r: dict) -> None:
    wl, m, c, pc, zr = r["wl"], r["meta"], r["corpus"], r["prefix_check"], r["zero_range"]
    print(f"workload {r['workload']}: scenario {wl.scenario}, {wl.protocol} protocol, loads {wl.loads}; "
          f"closed loop, one caller, one thread; {wl.segments} x {wl.records} records per pass")
    print(f"machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']}")
    print(f"code commit={m['commit']} src_lines={m['src_lines']} src_sha256={m['src_sha256']}")
    print(f"corpus {c['profile']} seed={c['seed']} records={c['records']} bytes={c['bytes']} "
          f"sha256={c['sha256']}")
    print(f"check prefix of {pc['records']} records: bench rae {pc['bench_rae']!r}, "
          f"reference rae {pc['reference_rae']!r}, identical={pc['identical']}")
    print(f"check zero-range dims: {zr['zero_range_dims']} in all windows; "
          f"trev dims with zero range {zr['trev_zero_range_dims']} of {zr['trev_dims']}")
    print(f"passes {r['passes']} untraced; calls attempted {r['attempted']}, failed {r['failed']} "
          f"{r['failures'] or ''}")
    print(f"failed_ops_frac {r['failed'] / r['attempted']!r} ratio")
    if r["first_error"]:
        print(f"first failure: {r['first_error']}")
    for name, v in r["metrics"].items():
        extra = ""
        if name.endswith("_tail"):
            t = r["tail"][name[: -len("_tail")]]
            extra = f"  (p{t['percentile']:.2f}: {TAIL_BEYOND} of {t['samples']} samples per pass beyond it)"
        elif name == "setup_s":
            extra = f"  (median of {r['setup_samples']} start-ups)"
        print(f"{name} {v['value']!r} {v['unit']}{extra}")
    if "records_per_s_by_pass" in r:
        print(f"timings above are scaled to the host speed at which the probe takes {PROBE_REF_MS} ms")
        print("host slowdown of each pass (median probe time over the reference): "
              + " ".join(f"{x:.3g}" for x in r["host_slowdown_by_pass"]))
        print("records_per_s of each pass: " + " ".join(f"{x:.4g}" for x in r["records_per_s_by_pass"]))
        print("unscaled records_per_s of each pass: "
              + " ".join(f"{x:.4g}" for x in r["raw_records_per_s_by_pass"]))
        print(f"unscaled setup_s median of the passes: {r['raw_setup_s']!r} s")
    for msg in r["problems"]:
        print(f"CHECK FAILED: {msg}")
