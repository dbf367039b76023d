"""The bundle attributes the replay benchmark in perfbench/ reads.

The benchmark imports wfpredict from outside the package; importing its replay
module here makes a renamed attribute fail in this suite, not only in a
benchmark run.
"""

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
