"""The bundle attributes the replay benchmark in perfbench/ reads.

The benchmark imports wfpredict from outside the package; importing its replay
module here makes a renamed attribute fail in this suite, not only in a
benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wfpredict.domain import Scenario
from wfpredict.pipeline import PipelineConfig, Registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def replay():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import replay
    finally:
        sys.path.remove(str(PERFBENCH))
    return replay


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
    predict bit for bit as the registries that were saved."""
    segment = 60
    replay.train_and_save(small_log, scenario, segment, tmp_path, replay.Samples())
    loaded = replay.load_streams(tmp_path)
    records = small_log.read_all()
    assert len(loaded) == len(records) // segment
    for reg, j in zip(loaded, range(0, len(records), segment)):
        stream = records[j:j + segment]
        split = replay.train_split(len(stream))
        saved = replay.new_registry()
        for rec in stream[:split]:
            saved.observe_completion(rec, scenario)
        for rec in stream[split:]:
            assert (
                reg.predict_task(rec.features, scenario).runtime_seconds
                == saved.predict_task(rec.features, scenario).runtime_seconds
            )


def test_tracer_installs_on_the_current_package():
    """`--trace 1` wraps wfpredict callables by name; a rename breaks it."""
    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(PERFBENCH))))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
