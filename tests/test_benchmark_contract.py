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
    if scenario == Scenario.two_stages:
        assert list(bundle.agg_estimators.values()) == [bundle.agg_index] * 13


def test_tracer_installs_on_the_current_package():
    """`--trace 1` wraps wfpredict callables by name; a rename breaks it."""
    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(PERFBENCH))))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
