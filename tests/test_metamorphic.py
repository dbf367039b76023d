"""Metamorphic relations: how a scenario's predictions move when every
consumption series of a replay is transformed. A relation compares two
replays of the same records and needs no expected value (Chen, Cheung & Yiu,
HKUST-CS98-01, 1998), so a scenario that stops reading the signal it claims
to read, or starts reading one it should not, fails one test id here."""

import dataclasses
import functools

import numpy as np
import pytest

from wfpredict.domain import Scenario, SeriesBlock
from wfpredict.evaluation import (
    GeneratorConfig, _synthetic_records, prequential, standard_corpus_config,
)
from wfpredict.pipeline import PipelineConfig, Registry

# 60 records per corpus keep every outcome below in view: wherever zeroing
# moves a prediction it moves 25 to 46 of the 60 (39 to 65 of 80 records).
# The 60 replays then take about 1.5 s, most of it in the 20 of time_series.
N_RECORDS = 60

_TRANSFORMS = {
    "as-is": lambda s: s,
    "x2": lambda s: s * 2.0,
    "x0.5": lambda s: s * 0.5,
    "x3": lambda s: s * 3.0,
    "zeroed": lambda s: np.zeros_like(s),
}


@functools.cache
def _corpus(profile):
    """N_RECORDS standard-task records of the profile (seed 3), in memory."""
    std = standard_corpus_config(N_RECORDS)
    tasks = tuple(dataclasses.replace(t, series_profile=profile) for t in std.tasks)
    cfg = GeneratorConfig(tasks=tasks, n_records=N_RECORDS)
    return tuple(_synthetic_records(cfg, np.random.default_rng(3)))


@functools.cache
def _predictions(profile, scenario, k, transform):
    """float.hex of each prequential prediction over the corpus whose every
    series' samples the named transform maps (tau 5, lag 2)."""
    f = _TRANSFORMS[transform]
    records = [
        dataclasses.replace(r, series=SeriesBlock(
            r.series.tau, r.series.metrics, r.series.lengths, f(r.series.samples)))
        for r in _corpus(profile)
    ]
    registry = Registry(config=PipelineConfig(k=k, target_tau=5, trev_lag=2))
    return [pred.runtime_seconds.hex() for _, pred in prequential(registry, records, scenario)]


@pytest.mark.parametrize("transform", ["x2", "x0.5", "x3"])
@pytest.mark.parametrize("k", [1, 3], ids=["k1", "k3"])
@pytest.mark.parametrize("scenario", list(Scenario), ids=[s.value for s in Scenario])
@pytest.mark.parametrize("profile", ["steady", "curved"])
def test_scaling_every_series_leaves_every_prediction_bit(profile, scenario, k, transform):
    """Each statistic a scenario reads from a series, an aggregate normalized
    by the window's range or a trev, is blind to the series' unit, so a
    change of unit moves no prediction, not even in its last bit."""
    assert _predictions(profile, scenario, k, transform) == _predictions(
        profile, scenario, k, "as-is")


@pytest.mark.parametrize("profile, scenario, k, moves", [
    pytest.param(profile, scenario, k, moves,
                 id=f"{profile}-{scenario.value}-k{k}-{'moves' if moves else 'unchanged'}")
    for profile in ("steady", "curved")
    for scenario, k, moves in (
        (Scenario.baseline, 1, False),
        (Scenario.baseline, 3, False),
        # stage 1 keeps the nearest pre-runtime row, whose aggregates a 1-NN
        # never reads; at k=3 they choose the neighbours
        (Scenario.two_stages, 1, False),
        (Scenario.two_stages, 3, True),
        # a steady series' trev is 0.0, as a zeroed one's is, so no trev
        # column is live; a curved one's is not
        (Scenario.time_series, 1, profile == "curved"),
        (Scenario.time_series, 3, profile == "curved"),
    )
])
def test_zeroing_every_series_moves_only_a_scenario_that_reads_one(profile, scenario, k, moves):
    """The no-signal relation: a replay whose every sample reads 0.0 gives
    the as-is predictions exactly where the scenario reads no series. Each
    id states which signal a scenario reads on a profile, at a k."""
    zeroed = _predictions(profile, scenario, k, "zeroed")
    assert (zeroed != _predictions(profile, scenario, k, "as-is")) == moves
