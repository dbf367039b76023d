"""The bundle attributes the replay benchmark in perfbench/ reads.

The benchmark imports wfpredict from outside the package; importing its replay
module here makes a renamed attribute fail in this suite, not only in a
benchmark run.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wfpredict.domain import Scenario
from wfpredict.pipeline import PipelineConfig, Registry
from wfpredict.store import RecordLog

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def replay():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import replay
    finally:
        sys.path.remove(str(PERFBENCH))
    return replay


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench
    finally:
        sys.path.remove(str(PERFBENCH))
    return bench


def test_the_benchmark_splits_a_log_into_records_at_its_newlines(bench, tmp_path):
    """The benchmark counts a corpus's records by its b"\\n" bytes, replays a
    prefix of its lines and holds lines out by index: a log must be one record
    per newline-terminated line, with no header line and no raw newline
    inside a record."""
    wl = dataclasses.replace(bench.WORKLOADS["ts-online-curved"], records=20, segments=2)
    corpus = tmp_path / "corpus.jsonl"
    info = bench.generate_corpus(wl, 3, corpus)
    records = RecordLog(corpus).read_all()
    assert info["records"] == len(records) == wl.total
    with open(corpus, "rb") as fh:
        lines = fh.readlines()
    assert len(lines) == len(records) and all(line.endswith(b"\n") for line in lines)
    # the curved samples' bytes hold newlines, which the lines must not
    assert any(b"\n" in rec.series.samples.tobytes() for rec in records)
    prefix = tmp_path / "prefix.jsonl"
    for n in (1, 7, wl.total):
        prefix.write_bytes(b"".join(lines[:n]))
        assert RecordLog(prefix).read_all() == records[:n]
    held_out = tmp_path / "held_out.jsonl"
    bench.write_held_out(corpus, held_out, wl.records)
    split = bench.replay.train_split(wl.records)
    assert RecordLog(held_out).read_all() == [
        rec for i, rec in enumerate(records) if i % wl.records >= split
    ]


@pytest.mark.parametrize("scenario,trev_dims", [
    (Scenario.two_stages, 0), (Scenario.time_series, 13), (Scenario.baseline, 0),
])
def test_zero_range_dims_reads_every_window(replay, small_log, scenario, trev_dims):
    reg = Registry(config=PipelineConfig(target_tau=5))
    for rec in small_log.read_all()[:6]:
        reg.observe_completion(rec, scenario)
    dims = replay.zero_range_dims([reg])
    assert dims["trev_dims"] == trev_dims
    assert 0 <= dims["trev_zero_range_dims"] <= trev_dims
    bundle = reg.bundles[("align", scenario)]
    windows = [bundle.regressor, *bundle.agg_estimators.values()]
    assert 0 <= dims["zero_range_dims"] <= sum(len(w.schema) for w in windows)
    # the two_stages aggregates live in the regressor's rows: no other window
    assert not bundle.agg_estimators


@pytest.mark.parametrize("scenario", list(Scenario))
def test_saved_streams_reload_with_identical_predictions(replay, small_log, tmp_path, scenario):
    """The restart workload's two halves: train_and_save writes one registry
    per stream, load_streams reads them back, and the reloaded registries must
    predict bit for bit as the registries that were saved. A load derives each
    window's ranges from its rows, and the restart workload counts the
    zero-range dimensions of the loaded registries: the count must be the
    saved registries' count."""
    segment = 60
    replay.train_and_save(small_log, scenario, segment, tmp_path, replay.Samples())
    loaded = replay.load_streams(tmp_path)
    records = small_log.read_all()
    assert len(loaded) == len(records) // segment
    saved_all = []
    for reg, j in zip(loaded, range(0, len(records), segment)):
        stream = records[j:j + segment]
        split = replay.train_split(len(stream))
        saved = replay.new_registry()
        for rec in stream[:split]:
            saved.observe_completion(rec, scenario)
        saved_all.append(saved)
        for rec in stream[split:]:
            assert (
                reg.predict_task(rec.features, scenario).runtime_seconds
                == saved.predict_task(rec.features, scenario).runtime_seconds
            )
    assert replay.zero_range_dims(loaded) == replay.zero_range_dims(saved_all)


def test_tracer_installs_on_the_current_package():
    """`--trace 1` wraps wfpredict callables by name; a rename breaks it."""
    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(PERFBENCH))))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


TRACED_TWO_STAGES = """
import json, sys
import layers
tracer = layers.Tracer()
layers.install(tracer)
from wfpredict.domain import Scenario
from wfpredict.pipeline import PipelineConfig, Registry
from wfpredict.store import RecordLog
from wfpredict.store import RecordLog

reg = Registry(config=PipelineConfig(target_tau=5, k=3))
calls = scanned = 0
for rec in RecordLog(sys.argv[1]).read_all()[:40]:
    bundle = reg.bundles.get((rec.features.task_name, Scenario.two_stages))
    if bundle is not None:
        calls += 1
        scanned += len(bundle.regressor)
    reg.predict_task(rec.features, Scenario.two_stages)
    reg.observe_completion(rec, Scenario.two_stages)
print(json.dumps({"metrics": tracer.metrics(), "calls": calls, "scanned": scanned}))
"""


def test_traced_two_stages_scans_once_per_prediction_inside_knn_predict(small_log):
    """Both stages of a two_stages prediction run inside the one traced
    `InstanceWindow.predict`, so the knn.* metrics cover the whole scan."""
    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(PERFBENCH))))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TWO_STAGES, str(small_log.path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    metrics = out["metrics"]
    assert out["calls"] == 39  # one task: every prediction but the first
    assert metrics["knn.predict_calls"] == out["calls"]
    assert metrics["knn.scanned"] == out["scanned"]
    assert metrics["knn.predict_s"] > 0
