"""Pipeline: correlation, feature selection, registry behavior, persistence."""

import dataclasses
import functools
import itertools
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_features, make_record, running_rho, series_block
import wfpredict.pipeline as pipeline_mod
import wfpredict.store as store_mod
from wfpredict.domain import (
    B, PRE_RUNTIME_FEATURE_NAMES, CategoryVocab, DomainError, MetricKind, Scenario,
    TaskExecutionRecord, encode_pre_runtime,
)
from wfpredict.evaluation import (
    GeneratorConfig, TaskTypeSpec, generate_synthetic, standard_corpus_config,
)
from wfpredict.forecaster import SequenceModel, TrainingDivergedError
from wfpredict.knn import InstanceWindow
from wfpredict.pipeline import (
    ALL_METRICS, REGISTRY_VERSION, CoMoments, PipelineConfig, Registry, replace_file,
    trev_comoments,
)
from wfpredict.store import downsample, downsample_block
from wfpredict.tsfeat import trev, trev_rows


def downsampled(rec, m, tau):
    """rec's series of m alone downsampled to tau, as a tuple: the per-metric references' input."""
    alone = series_block({m: rec.series.row(m)}, rec.series.tau)
    return tuple(downsample(alone, tau).samples.tolist())


def reference_pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / (sxx * syy) ** 0.5


def test_pearson_matches_reference():
    random.seed(301)
    for _ in range(200):
        n = random.randrange(2, 40)
        xs = [random.gauss(0, 5) for _ in range(n)]
        ys = [random.gauss(0, 5) for _ in range(n)]
        assert abs(running_rho(xs, ys) - reference_pearson(xs, ys)) < 1e-12


def test_pearson_extremes_and_degenerate():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert abs(running_rho(xs, [2 * x + 1 for x in xs]) - 1.0) < 1e-12
    assert abs(running_rho(xs, [-3 * x for x in xs]) + 1.0) < 1e-12
    assert running_rho(xs, [5.0, 5.0, 5.0, 5.0]) == 0.0
    # both sides constant at values that are not dyadic fractions: a two-pass
    # mean leaves a rounding residue on each side and reads their ratio, -1.0
    assert running_rho([0.1] * 3, [0.7] * 3) == 0.0
    # exact linear pairs whose quotient rounds to 1 ulp past +-1
    xs = [0.5, 1.5, 2.7]
    assert running_rho(xs, [0.7 * x for x in xs]) == 1.0
    assert running_rho(xs, [-0.7 * x for x in xs]) == -1.0


def test_pearson_input_validation():
    # below 2 records there is no correlation; the paired-list API whose
    # length-mismatch check stood here is gone, since add takes one record
    acc = CoMoments()
    with pytest.raises(ValueError):
        acc.rho()
    acc.add([1.0] * len(ALL_METRICS), 1.0)
    with pytest.raises(ValueError):
        acc.rho()


def test_select_features_picks_planted_metric():
    random.seed(307)
    acc = CoMoments()
    for _ in range(60):
        runtime = random.uniform(10, 100)
        feats = {m: random.gauss(0, 1) for m in MetricKind}
        feats[MetricKind.vmRSS] = runtime  # planted: perfectly correlated
        acc.add([feats[m] for m in ALL_METRICS], runtime)
    assert acc.selected(0.5) == {MetricKind.vmRSS}


def test_select_features_requires_history():
    acc = CoMoments()
    acc.add([0.0] * len(ALL_METRICS), 1.0)
    with pytest.raises(ValueError):
        acc.selected(0.5)


def test_config_round_trip():
    cfg = PipelineConfig(
        k=3,
        window_capacity=50,
        trev_lag=3,
        target_tau=5,
        seed=11,
        selected_metrics={"align": {MetricKind.utime, MetricKind.vmRSS}},
    )
    again = PipelineConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.metrics_for("align") == (MetricKind.utime, MetricKind.vmRSS)
    assert len(again.metrics_for("other")) == 13


@pytest.mark.parametrize("field", [
    "k", "window_capacity", "trev_lag", "target_tau", "epochs_per_update", "seed",
])
@pytest.mark.parametrize("value", [True, 1.0, "1", pytest.param(2**63, id="2**63")])
def test_config_refuses_an_integer_setting_that_is_not_an_int64(field, value):
    """numpy takes the sizes among them; a bool or a float would pass as a number."""
    with pytest.raises(ValueError, match=f"^{field} must be .*an integer an int64 holds, got "):
        PipelineConfig(**{field: value})
    assert getattr(PipelineConfig(**{field: 2**63 - 1}), field) == 2**63 - 1


def test_config_has_no_learning_rate_or_clip_norm_and_forecasters_take_their_own():
    """The three were settable but set by no caller; each forecaster keeps
    SequenceModel's defaults, the values the config once repeated."""
    for field, value in (("learning_rate", 0.5), ("clip_norm", 0.5), ("hidden_size", 4)):
        with pytest.raises(TypeError, match=field):
            PipelineConfig(**{field: value})
    reg = Registry(config=PipelineConfig(target_tau=1))
    for i in range(3):
        reg.observe_completion(make_record(runtime=10.0 + i), Scenario.time_series)
    forecaster = reg.bundles[("align", Scenario.time_series)].forecaster
    assert (forecaster.learning_rate, forecaster.clip_norm) == (0.01, 5.0)
    assert forecaster.hidden_size == 10


def test_selected_metrics_take_one_form_however_they_are_given():
    """Names or members, in a list or a set, in any order: each task holds
    the tuple of its members in ALL_METRICS order, and the configs are equal."""
    u, v = MetricKind.utime, MetricKind.vmRSS
    given = [{"align": {u, v}}, {"align": ["vmRSS", "utime"]}, {"align": {"utime", v}},
             {"align": (m for m in (v, u))}, {"align": [v, u, "vmRSS"]}]
    configs = [PipelineConfig(target_tau=5, selected_metrics=sel) for sel in given]
    for cfg in configs:
        assert cfg.selected_metrics == {"align": (u, v)}
        assert cfg == configs[0] == PipelineConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict()["selected_metrics"] == {"align": ["utime", "vmRSS"]}
        assert cfg.metrics_for("align") == (u, v) and cfg.metrics_for("other") == ALL_METRICS
    every = PipelineConfig(selected_metrics={"align": [m.value for m in reversed(ALL_METRICS)]})
    assert every.metrics_for("align") == ALL_METRICS


@pytest.mark.parametrize("selected", [{"align": {"bogus"}}, {"align": [None]}])
def test_config_refuses_a_selection_that_names_no_metric(selected):
    with pytest.raises(ValueError, match="is not a valid MetricKind"):
        PipelineConfig(selected_metrics=selected)


@pytest.mark.parametrize("names", ["utime", ""])
def test_config_refuses_a_selection_given_as_a_string(names):
    """A string once read as its characters: "utime" was refused for 'u',
    and "" taken as an empty selection."""
    error = f"^the selection of 'align' is a string '{names}', not metrics$"
    with pytest.raises(ValueError, match=error):
        PipelineConfig(selected_metrics={"other": ["utime"], "align": names})


@pytest.mark.parametrize("selected, error", [
    # a key of 1 once matched no task, and saved and loaded back as "1"
    ({"align": ["utime"], 1: ["utime"]}, "^the selection key 1 is not a task name$"),
    # a list of pairs once raised AttributeError for its missing items()
    ([("align", ["utime"])], "^selected_metrics must map task names to metrics, got a list$"),
], ids=["int-key", "list-of-pairs"])
def test_config_refuses_a_selection_not_keyed_by_task_name(selected, error):
    with pytest.raises(ValueError, match=error):
        PipelineConfig(selected_metrics=selected)


def test_a_time_series_replay_selected_by_name_saves_and_loads(tmp_path, small_log):
    """A selection given as names, as select-features writes them; the save
    once raised AttributeError after the whole replay."""
    records = small_log.read_all()
    config = PipelineConfig(target_tau=5, selected_metrics={"align": ["utime", "vmRSS"]})
    reg = Registry(storage_dir=tmp_path, config=config)
    for rec in records[:60]:
        reg.predict_task(rec.features, Scenario.time_series)
        reg.observe_completion(rec, Scenario.time_series)
    assert reg.bundles[("align", Scenario.time_series)].forecaster.metrics == (
        MetricKind.utime, MetricKind.vmRSS)
    reg.save()
    loaded = Registry.load(tmp_path)
    assert loaded.config == config
    for rec in records[60:]:
        want = reg.predict_task(rec.features, Scenario.time_series).runtime_seconds
        assert loaded.predict_task(rec.features, Scenario.time_series).runtime_seconds == want


def test_a_registry_without_a_storage_directory_refuses_to_save():
    with pytest.raises(ValueError, match="^registry has no storage directory$"):
        Registry().save()


def test_cold_start_prediction_policy():
    reg = Registry(config=PipelineConfig())
    rec = make_record(runtime=40.0, n=40)
    pred = reg.predict_task(rec.features, Scenario.baseline)
    assert pred.runtime_seconds == 1.0  # nothing observed yet
    reg.observe_completion(rec, Scenario.baseline)
    reg.observe_completion(make_record(runtime=20.0, n=20), Scenario.baseline)
    # an unseen task name still falls back to 1.0
    other = make_record(runtime=5.0, n=5, task_name="other", task_id="other")
    assert reg.predict_task(other.features, Scenario.baseline).runtime_seconds == 1.0


def test_baseline_keys_on_input_name():
    reg = Registry(config=PipelineConfig())
    reg.observe_completion(make_record(runtime=30.0, n=30, input_name="a"), Scenario.baseline)
    reg.observe_completion(make_record(runtime=90.0, n=90, input_name="b"), Scenario.baseline)
    qa = make_record(runtime=1.0, n=1, input_name="a", submission_hour=2).features
    qb = make_record(runtime=1.0, n=1, input_name="b", submission_hour=2).features
    assert reg.predict_task(qa, Scenario.baseline).runtime_seconds == 30.0
    assert reg.predict_task(qb, Scenario.baseline).runtime_seconds == 90.0
    # baseline codes input_name alone, so its saved vocabulary holds no task
    # name or id; a predict stores no code, even for unseen names
    qc = make_record(runtime=1.0, n=1, task_id="unseen", input_name="c").features
    assert reg.predict_task(qc, Scenario.baseline).runtime_seconds in (30.0, 90.0)
    assert reg.vocab.codes == {"task_name": {}, "task_id": {}, "input_name": {"a": 0, "b": 1}}


def test_scenarios_do_not_share_state():
    reg = Registry(config=PipelineConfig())
    reg.observe_completion(make_record(runtime=25.0, n=25), Scenario.baseline)
    assert ("align", Scenario.baseline) in reg.bundles
    assert ("align", Scenario.time_series) not in reg.bundles
    pred = reg.predict_task(make_record().features, Scenario.time_series)
    assert pred.runtime_seconds == 1.0  # its own bundle is still empty


def test_two_stages_prediction_uses_aggregates(small_log):
    reg = Registry(config=PipelineConfig(target_tau=5))
    records = small_log.read_all()
    for rec in records[:60]:
        reg.observe_completion(rec, Scenario.two_stages)
    bundle = reg.bundles[("align", Scenario.two_stages)]
    assert bundle.regressor.schema[8:] == tuple(f"agg_{m.value}" for m in MetricKind)
    assert len(bundle.regressor) == 60
    pred = reg.predict_task(records[60].features, Scenario.two_stages)
    assert pred.runtime_seconds > 0


def test_two_stages_at_k1_is_pre_runtime_1nn(small_log):
    """The query copies its aggregates from sigma's nearest neighbour, so that
    neighbour also wins the combined distance: its aggregate terms are 0, and
    every other row's are >= 0."""
    reg = Registry(config=PipelineConfig(target_tau=5, k=1))
    vocab = CategoryVocab()
    window = InstanceWindow(PRE_RUNTIME_FEATURE_NAMES)
    for rec in small_log.read_all():
        got = reg.predict_task(rec.features, Scenario.two_stages).runtime_seconds
        sigma = encode_pre_runtime(rec.features, vocab.code)
        # one task: the window is empty only before the first completion
        assert got == (window.predict(sigma, k=1) if len(window) else 1.0)
        reg.observe_completion(rec, Scenario.two_stages)
        window.add(sigma, rec.runtime_seconds)


class TwoWindowReference:
    """two_stages as two scalar windows that see the same adds: stage 1 is a
    window over sigma whose target is each row's arrival number + 1, which
    names the row whose aggregates it returns; stage 2 is the runtime window
    over sigma plus those aggregates."""

    def __init__(self, tau, k, capacity):
        self.tau, self.k = tau, k
        self.vocab = CategoryVocab()
        self.index = InstanceWindow(PRE_RUNTIME_FEATURE_NAMES, capacity)
        names = PRE_RUNTIME_FEATURE_NAMES + tuple(f"agg_{m.value}" for m in MetricKind)
        self.regressor = InstanceWindow(names, capacity)
        self.aggs = []

    def predict(self, f):
        if not self.aggs:
            return 1.0
        sigma = encode_pre_runtime(f, self.vocab.lookup)
        aggs = self.aggs[int(self.index.predict(sigma, k=1)) - 1]
        return self.regressor.predict(sigma + aggs, k=self.k)

    def observe(self, rec):
        sigma = encode_pre_runtime(rec.features, self.vocab.code)
        aggs = tuple(
            max(sum(downsampled(rec, m, self.tau)), pipeline_mod._AGG_FLOOR)
            for m in MetricKind
        )
        self.aggs.append(aggs)
        self.index.add(sigma, float(len(self.aggs)))
        self.regressor.add(sigma + aggs, rec.runtime_seconds)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("capacity", [None, 7, 1])
def test_two_stages_matches_the_two_window_reference(small_log, k, capacity):
    reg = Registry(config=PipelineConfig(target_tau=5, k=k, window_capacity=capacity))
    ref = TwoWindowReference(5, k, capacity)
    for rec in small_log.read_all():
        got = reg.predict_task(rec.features, Scenario.two_stages).runtime_seconds
        assert repr(got) == repr(ref.predict(rec.features))
        reg.observe_completion(rec, Scenario.two_stages)
        ref.observe(rec)


def test_time_series_bundle_has_one_forecaster_per_metric(small_log):
    reg = Registry(config=PipelineConfig(target_tau=5))
    for rec in small_log.read_all()[:5]:
        reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    assert bundle.forecaster.metrics == tuple(MetricKind)
    assert bundle.forecaster.len_count.tolist() == [5] * len(MetricKind)


def test_diverged_forecaster_update_leaves_bundle_unchanged(small_log):
    reg = Registry(config=PipelineConfig(target_tau=5))
    records = small_log.read_all()
    for rec in records[:5]:
        reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    # one metric of the thirteen gets an output weight whose squared error overflows
    bundle.forecaster.params["w_y"][6] = 1e300

    def state():
        return json.dumps(bundle.to_dict())

    before = state()
    with pytest.raises(TrainingDivergedError), np.errstate(over="ignore", invalid="ignore"):
        reg.observe_completion(records[5], Scenario.time_series)
    assert state() == before


@pytest.mark.parametrize("stat", ["len_sum", "len_count"])
def test_an_update_that_would_overflow_a_length_statistic_is_refused(tmp_path, small_log, stat):
    """A loaded length statistic of 2**53 - 1 is valid, but no update may
    take it past what restore reads back: the update is refused whole, and
    the registry still saves a document that loads."""
    records = small_log.read_all()
    reg = Registry(storage_dir=tmp_path, config=PipelineConfig(target_tau=5))
    for rec in records[:3]:
        reg.observe_completion(rec, Scenario.time_series)
    reg.save()
    doc = json.loads((tmp_path / "index.json").read_text())
    (saved,) = doc["bundles"]
    saved["forecaster"][stat][0] = 2**53 - 1
    (tmp_path / "index.json").write_text(json.dumps(doc))
    reg = Registry.load(tmp_path)
    bundle = reg.bundles[("align", Scenario.time_series)]
    before = json.dumps(bundle.to_dict())
    with pytest.raises(ValueError, match=r"^a length statistic would reach 2\*\*53"):
        reg.observe_completion(records[3], Scenario.time_series)
    assert json.dumps(bundle.to_dict()) == before
    reg.save()
    loaded = Registry.load(tmp_path).bundles[("align", Scenario.time_series)]
    assert json.dumps(loaded.to_dict()) == before


def test_observe_completes_on_samples_at_the_domain_bound():
    # samples of magnitude B: d**2 and d**3 stay finite, and the trev features
    # come out finite, with no warning (warnings are errors in the pytest
    # configuration); a sample past B is refused where its block is made
    rec = make_record(runtime=10.0, n=8)
    values = (1.0, B, -B, 0.5 * B, 1e18, -1e18, B, 2.0)
    series = series_block({m: values for m in MetricKind})
    rec = TaskExecutionRecord(features=rec.features, series=series, runtime_seconds=10.0)
    reg = Registry(config=PipelineConfig(target_tau=1))
    reg.observe_completion(make_record(runtime=12.0, n=8), Scenario.time_series)
    reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    assert bundle.runtime_count == 2
    assert np.all(np.isfinite(bundle.regressor.lo)) and np.all(np.isfinite(bundle.regressor.hi))


@pytest.mark.parametrize("level, n", [
    pytest.param(2.0**63, 4, id="2**63-x4"), pytest.param(B, 8, id="B-x8"),
])
def test_an_aggregate_past_b_is_refused_without_a_warning(level, n):
    # samples within B whose sum passes it: the window refuses the row,
    # naming the first aggregate column and B
    reg = Registry(config=PipelineConfig(target_tau=1))
    reg.observe_completion(make_record(runtime=12.0, n=8), Scenario.two_stages)
    bundle = reg.bundles[("align", Scenario.two_stages)]
    before = json.dumps(bundle.to_dict())
    huge = make_record(runtime=10.0, n=n, level=level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^agg_procs {re.escape(repr(n * level))} is out"):
            reg.observe_completion(huge, Scenario.two_stages)
    assert json.dumps(bundle.to_dict()) == before


def test_a_refused_first_record_leaves_no_bundle(tmp_path):
    """A bundle joins the registry with its first row: a first record whose
    aggregate passes B leaves none, so a save holds none either."""
    reg = Registry(storage_dir=tmp_path, config=PipelineConfig(target_tau=1))
    huge = make_record(runtime=10.0, n=8, level=B)
    with pytest.raises(DomainError, match=r"^agg_procs .* is outside \[-B, B\]"):
        reg.observe_completion(huge, Scenario.two_stages)
    assert reg.bundles == {}
    assert reg.predict_task(huge.features, Scenario.two_stages).runtime_seconds == 1.0
    reg.save()
    assert json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))["bundles"] == []


@pytest.mark.parametrize("scenario", [Scenario.two_stages, Scenario.time_series])
def test_a_replay_that_goes_on_after_a_refused_first_record_predicts_as_one_without_it(
    small_log, monkeypatch, scenario
):
    """A loop that catches the refusal and goes on, as a serving caller does:
    the refused record was the task's first, so every later prediction is
    that of a replay that never saw it. The refused record carries the
    features of the first good one, so both replays code the same values."""
    records = small_log.read_all()[:40]
    if scenario == Scenario.two_stages:
        # its two tau-5 window means of B add up to an aggregate of 2B
        bad = TaskExecutionRecord(records[0].features, make_record(n=8, level=B).series, 10.0)
    else:
        bad = records[0]
        gradients = SequenceModel._gradients
        calls = []

        def diverge_once(self, *args):
            calls.append(1)
            if len(calls) == 1:
                return np.full(self.n_metrics, np.nan), np.zeros_like(self.flat_params)
            return gradients(self, *args)

        monkeypatch.setattr(SequenceModel, "_gradients", diverge_once)

    def replay(stream):
        reg = Registry(config=PipelineConfig(target_tau=5))
        preds, refused = [], 0
        for rec in stream:
            preds.append(reg.predict_task(rec.features, scenario).runtime_seconds)
            try:
                reg.observe_completion(rec, scenario)
            except (DomainError, TrainingDivergedError):
                refused += 1
                assert (rec.features.task_name, scenario) not in reg.bundles
        return preds, refused

    after_refusal, refused = replay([bad] + records)
    assert refused == 1
    assert replay(records) == (after_refusal[1:], 0)


def test_a_saved_bundle_without_rows_is_dropped_at_load(tmp_path, small_log):
    """Observe keeps no rowless bundle, so load drops one that an earlier
    save wrote, after checking it, and predicts as before."""
    reg = Registry(storage_dir=tmp_path, config=PipelineConfig(target_tau=5))
    records = small_log.read_all()
    for rec in records[:20]:
        for scenario in Scenario:
            reg.observe_completion(rec, scenario)
    reg.save()
    doc = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
    ghosts = [{**b, "task_name": "ghost", "runtime_count": 0,
               "regressor": {"rows": [], "targets": []}} for b in doc["bundles"][:3]]
    assert {b["scenario"] for b in ghosts} == {s.value for s in Scenario}
    doc["bundles"] += ghosts
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    loaded = Registry.load(tmp_path)
    assert sorted(loaded.bundles) == sorted(reg.bundles)
    for rec in records[20:40]:
        for scenario in Scenario:
            want = reg.predict_task(rec.features, scenario).runtime_seconds
            assert loaded.predict_task(rec.features, scenario).runtime_seconds == want


@pytest.mark.parametrize("profile", ["steady", "curved"])
def test_time_series_forecasts_only_while_a_trev_column_is_live(tmp_path, monkeypatch, profile):
    spec = dict(base_seconds=40.0, input_names=("i1", "i2"), input_scales=(1.0, 1.5),
                series_profile=profile)
    cfg = GeneratorConfig(tasks=(TaskTypeSpec(name="a", **spec),), n_records=40)
    records = generate_synthetic(cfg, 3, tmp_path / "log.jsonl").read_all()
    forecast_all = SequenceModel.forecast_all
    calls = []

    def counted(model, f, n=None):
        calls.append(len(reg.bundles[("a", Scenario.time_series)].regressor))
        return forecast_all(model, f, n)

    monkeypatch.setattr(SequenceModel, "forecast_all", counted)
    reg = Registry(config=PipelineConfig(target_tau=5, k=3))
    for rec in records:
        got = reg.predict_task(rec.features, Scenario.time_series).runtime_seconds
        bundle = reg.bundles.get(("a", Scenario.time_series))
        if bundle is not None:
            # the answer of a query that always carries the forecast's trevs
            sigma = encode_pre_runtime(rec.features, reg.vocab.lookup)
            block, horizons = forecast_all(bundle.forecaster, sigma)
            query = sigma + tuple(trev_rows(block, horizons, reg.config.trev_lag).tolist())
            assert bundle.regressor.predict(query, k=3) == got
        reg.observe_completion(rec, Scenario.time_series)
    live = bundle.regressor.ranges()[8:] > 0
    if profile == "steady":
        # every series is constant, so every trev is 0.0 and none is live
        assert calls == [] and not live.any()
    else:
        # one held row has no ranges; after that some trev column is live
        assert calls == list(range(2, len(records))) and live.any()


def test_metric_selection_restricts_models(small_log):
    sel = {"align": {MetricKind.utime}}
    reg = Registry(config=PipelineConfig(target_tau=5, selected_metrics=sel))
    for rec in small_log.read_all()[:5]:
        reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    assert bundle.forecaster.metrics == (MetricKind.utime,)
    assert bundle.regressor.schema[-1] == "trev_utime"
    assert len(bundle.regressor.schema) == 9  # 8 pre-runtime dims plus one


@pytest.mark.parametrize("k", [1, 3])
def test_time_series_without_selected_metrics_predicts_as_two_stages(
    tmp_path, small_log, monkeypatch, k
):
    """With no metric selected, a time_series bundle holds sigma alone and no
    forecaster: it never forecasts, and it answers as two_stages does, before
    and after a save and load."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a bundle without a forecaster must not forecast")

    monkeypatch.setattr(SequenceModel, "forecast_all", forbidden)
    records = small_log.read_all()
    config = PipelineConfig(target_tau=5, k=k, selected_metrics={"align": set()})
    want = _online_predictions(records, Scenario.two_stages, config)
    reg = Registry(storage_dir=tmp_path / "reg", config=config)
    for rec, w in zip(records[:80], want):
        assert reg.predict_task(rec.features, Scenario.time_series).runtime_seconds == w
        reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    assert bundle.regressor.schema == PRE_RUNTIME_FEATURE_NAMES and bundle.forecaster is None
    reg.save()
    doc = json.loads((tmp_path / "reg" / "index.json").read_text(encoding="utf-8"))
    assert [b["forecaster"] for b in doc["bundles"]] == [None]
    loaded = Registry.load(tmp_path / "reg")
    for rec, w in zip(records[80:], want[80:]):
        for r in (reg, loaded):
            assert r.predict_task(rec.features, Scenario.time_series).runtime_seconds == w
            r.observe_completion(rec, Scenario.time_series)


def _online_predictions(records, scenario, config):
    reg = Registry(config=config)
    preds = []
    for rec in records:
        preds.append(reg.predict_task(rec.features, scenario).runtime_seconds)
        reg.observe_completion(rec, scenario)
    return preds


def _pre_runtime_1nn(records):
    """Pre-runtime 1-NN replayed as the pipeline replays: per task, one window
    over encode_pre_runtime rows, and 1.0 before the task's first completion."""
    vocab, windows, preds = CategoryVocab(), {}, []
    for rec in records:
        window = windows.get(rec.features.task_name)
        sigma = encode_pre_runtime(rec.features, vocab.lookup)
        preds.append(1.0 if window is None else window.predict(sigma, k=1))
        if window is None:
            window = windows[rec.features.task_name] = InstanceWindow(PRE_RUNTIME_FEATURE_NAMES)
        window.add(encode_pre_runtime(rec.features, vocab.code), rec.runtime_seconds)
    return preds


def test_time_series_does_not_collapse_to_pre_runtime_1nn_on_a_curved_corpus(tmp_path):
    """Where a trev column is live, the forecast trevs must move some answer
    away from the one pre-runtime 1-NN gives, which two_stages gives at k 1."""
    std = standard_corpus_config(80)
    cfg = GeneratorConfig(
        tasks=tuple(dataclasses.replace(t, series_profile="curved") for t in std.tasks),
        n_records=80,
    )
    records = generate_synthetic(cfg, 3, tmp_path / "curved.jsonl").read_all()
    config = PipelineConfig(target_tau=5)
    reg = Registry(config=config)
    got = []
    for rec in records:
        got.append(reg.predict_task(rec.features, Scenario.time_series).runtime_seconds)
        reg.observe_completion(rec, Scenario.time_series)
    assert any((b.regressor.ranges()[8:] > 0).any() for b in reg.bundles.values())
    nearest = _pre_runtime_1nn(records)
    assert _online_predictions(records, Scenario.two_stages, config) == nearest
    assert sum(g != n for g, n in zip(got, nearest)) > 0


def test_baseline_reads_no_series_and_encodes_no_pre_runtime_vector(small_log, monkeypatch):
    records = small_log.read_all()
    want = _online_predictions(records, Scenario.baseline, PipelineConfig(target_tau=5))

    def forbidden(*args, **kwargs):
        raise AssertionError("baseline must not call this")

    monkeypatch.setattr(pipeline_mod, "downsample_block", forbidden)
    monkeypatch.setattr(pipeline_mod, "encode_pre_runtime", forbidden)
    assert _online_predictions(records, Scenario.baseline, PipelineConfig(target_tau=5)) == want


@pytest.mark.parametrize("scenario", [Scenario.two_stages, Scenario.time_series])
def test_sigma_is_encoded_through_the_module_name_once_per_call(small_log, monkeypatch, scenario):
    """The scenario table reaches encode_pre_runtime by this module's name at
    each call, so a wrapper set there, as perfbench/layers.py sets one, sees
    each observe and each predict, cached or not, encode sigma once."""
    calls = []

    def spy(f, code):
        calls.append(code.__name__)
        return encode_pre_runtime(f, code)

    monkeypatch.setattr(pipeline_mod, "encode_pre_runtime", spy)
    reg = Registry(config=PipelineConfig(target_tau=5))
    for rec in small_log.read_all()[:12]:
        reg.observe_completion(rec, scenario)
        assert calls == ["code"]
        # the observe cleared the answers, so the first predict runs uncached
        # and the second is served from the cache, whose key is sigma
        want = reg.predict_task(rec.features, scenario)
        assert reg.predict_task(rec.features, scenario) is want
        assert calls == ["code", "lookup", "lookup"]
        calls.clear()


def test_time_series_block_holds_only_the_selected_metrics(small_log, monkeypatch):
    chosen = (MetricKind.stime, MetricKind.rchar, MetricKind.wchar)
    blocks = []

    def spy(*args):
        blocks.append(downsample_block(*args))
        return blocks[-1]

    records = small_log.read_all()[:4]
    reg = Registry(config=PipelineConfig(target_tau=5, selected_metrics={"align": set(chosen)}))
    with monkeypatch.context() as m:
        m.setattr(pipeline_mod, "downsample_block", spy)
        for rec in records:
            reg.observe_completion(rec, Scenario.time_series)
    assert len(blocks) == len(records)
    for rec, (block, lengths) in zip(records, blocks):
        rows = [downsampled(rec, m, 5) for m in chosen]
        assert block.shape[0] == 3
        assert lengths.tolist() == [len(r) for r in rows]
        assert [tuple(row[:len(r)]) for row, r in zip(block.tolist(), rows)] == rows


def test_two_stages_observe_hands_downsample_block_the_record_rows(small_log, monkeypatch):
    calls, averaged = [], []

    def spy(series, metrics, target_tau):
        calls.append((series, metrics, target_tau))
        return downsample_block(series, metrics, target_tau)

    def window_means(values, width):
        averaged.append(values)
        return store_window_means(values, width)

    records = small_log.read_all()[:3]
    reg = Registry(config=PipelineConfig(target_tau=5))
    store_window_means = store_mod._window_means
    monkeypatch.setattr(pipeline_mod, "downsample_block", spy)
    monkeypatch.setattr(store_mod, "_window_means", window_means)
    for rec in records:
        reg.observe_completion(rec, Scenario.two_stages)
    assert len(calls) == len(averaged) == len(records)
    for rec, (series, metrics, tau), values in zip(records, calls, averaged):
        assert series is rec.series and metrics == ALL_METRICS and tau == 5
        # the record holds every metric at one length: the uniform path
        # averages one (M, n) view of the record's samples, not a copy
        assert series.metrics == ALL_METRICS and len(set(series.lengths)) == 1
        assert values.shape == (len(ALL_METRICS), series.lengths[0])
        assert np.shares_memory(values, rec.series.samples)


def test_registry_round_trip_predictions_identical(tmp_path, small_log):
    records = small_log.read_all()
    reg = Registry(storage_dir=tmp_path / "reg", config=PipelineConfig(target_tau=5, seed=4))
    for rec in records[:40]:
        reg.observe_completion(rec, Scenario.time_series)
        reg.observe_completion(rec, Scenario.two_stages)
    reg.save()
    loaded = Registry.load(tmp_path / "reg")
    assert loaded.config == reg.config
    for rec in records[40:80]:
        for scenario in (Scenario.time_series, Scenario.two_stages):
            a = reg.predict_task(rec.features, scenario).runtime_seconds
            b = loaded.predict_task(rec.features, scenario).runtime_seconds
            assert a == b


@pytest.fixture(scope="module")
def curved_records(tmp_path_factory):
    """240 records of two task types whose series have a shape."""
    spec = dict(base_seconds=40.0, input_names=("i1", "i2", "i3"),
                input_scales=(1.0, 1.5, 2.0), series_profile="curved")
    cfg = GeneratorConfig(
        tasks=(TaskTypeSpec(name="a", **spec), TaskTypeSpec(name="b", **spec)), n_records=240
    )
    path = tmp_path_factory.mktemp("curved") / "curved.jsonl"
    return generate_synthetic(cfg, 3, path).read_all()


@pytest.mark.parametrize("capacity", [None, 7])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_a_loaded_registry_keeps_learning_as_an_uninterrupted_one(
    tmp_path, curved_records, scenario, capacity
):
    config = PipelineConfig(k=3, window_capacity=capacity, target_tau=5, seed=4)
    whole = Registry(storage_dir=tmp_path / "whole", config=config)
    for rec in curved_records[:150]:
        whole.predict_task(rec.features, scenario)
        whole.observe_completion(rec, scenario)
    whole.save()
    resumed = Registry.load(tmp_path / "whole")
    resumed.storage_dir = tmp_path / "resumed"

    def saved_alike():
        whole.save()
        resumed.save()
        return (tmp_path / "resumed" / "index.json").read_bytes() == (
            tmp_path / "whole" / "index.json"
        ).read_bytes()

    assert saved_alike()
    for rec in curved_records[150:]:
        want = whole.predict_task(rec.features, scenario).runtime_seconds
        assert resumed.predict_task(rec.features, scenario).runtime_seconds == want
        whole.observe_completion(rec, scenario)
        resumed.observe_completion(rec, scenario)
    assert saved_alike()


def test_the_document_holds_each_setting_and_format_version_once(tmp_path, small_log):
    reg = Registry(storage_dir=tmp_path, config=PipelineConfig(
        target_tau=5, window_capacity=9, selected_metrics={"align": {MetricKind.utime}}
    ))
    for rec in small_log.read_all()[:12]:
        for scenario in Scenario:
            reg.observe_completion(rec, scenario)
    reg.save()
    doc = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
    assert doc["magic"] == "wfpredict-registry" and doc["version"] == REGISTRY_VERSION == 9

    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys(v)
        elif isinstance(node, list):
            for v in node:
                yield from keys(v)

    below_top = set(keys([v for k, v in doc.items() if k not in ("magic", "version")]))
    assert not below_top & {"magic", "version"}
    config_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(doc["config"]) == config_fields
    bundles = {b["scenario"]: b for b in doc["bundles"]}
    assert set(bundles) == {s.value for s in Scenario} and len(doc["bundles"]) == 3
    assert bundles["time_series"]["forecaster"] is not None
    assert not set(keys(doc["bundles"])) & config_fields
    # learned state only
    for b in doc["bundles"]:
        assert set(b) == {"task_name", "scenario", "runtime_count", "regressor", "forecaster"}
        assert set(b["regressor"]) == {"rows", "targets"}
    assert set(bundles["time_series"]["forecaster"]) == {
        "flat_params", "value_norm", "feat_norm", "len_sum", "len_count"
    }


def test_registry_load_rejects_foreign_directory(tmp_path):
    (tmp_path / "index.json").write_text('{"magic": "nope"}', encoding="utf-8")
    with pytest.raises(ValueError):
        Registry.load(tmp_path)


def test_time_series_forecasts_a_value_range_of_2b(monkeypatch):
    # series that swing between -B and B, the domain bound, so the
    # forecaster's value range is 2B; turned end for end record by record,
    # their trev moves, so the statistic columns are live and each prediction
    # from the third on forecasts, with no warning
    swing = tuple(B / 8 * (j + 1) if j % 2 else -B for j in range(8))
    forecast_all, forecasts = SequenceModel.forecast_all, []

    def counted(model, f, n=None):
        forecasts.append(f)
        return forecast_all(model, f, n)

    monkeypatch.setattr(SequenceModel, "forecast_all", counted)
    reg = Registry(config=PipelineConfig(target_tau=1))
    for i in range(60):
        series = series_block({m: swing[::1 if i % 2 else -1] for m in MetricKind})
        rec = TaskExecutionRecord(make_features(submission_hour=i % 24), series, 10.0 + i)
        reg.predict_task(rec.features, Scenario.time_series)
        reg.observe_completion(rec, Scenario.time_series)
    forecaster = reg.bundles[("align", Scenario.time_series)].forecaster
    assert (forecaster.value_norm.hi - forecaster.value_norm.lo).tolist() == [2 * B] * 13
    assert len(forecasts) == 58


def test_trev_comoments_match_the_per_metric_path(tmp_path):
    spec = dict(base_seconds=40.0, input_names=("i1", "i2"), input_scales=(1.0, 1.5),
                series_profile="curved")
    cfg = GeneratorConfig(
        tasks=(TaskTypeSpec(name="a", **spec), TaskTypeSpec(name="b", **spec)), n_records=40
    )
    records = generate_synthetic(cfg, 3, tmp_path / "curved.jsonl").read_all()
    # series that end in zeros, and a record that carries only two metrics
    padded = (1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for metrics in (tuple(MetricKind), (MetricKind.utime, MetricKind.vmRSS)):
        series = series_block({m: padded for m in metrics})
        features = records[0].features
        records.append(TaskExecutionRecord(features=features, series=series, runtime_seconds=12.0))
    for tau, lag in ((1, 2), (5, 2), (10, 3)):
        want = {}
        for rec in records:
            stats = [
                trev(downsampled(rec, m, tau), lag)
                if m in rec.series.metrics else 0.0
                for m in ALL_METRICS
            ]
            want.setdefault(rec.features.task_name, CoMoments()).add(stats, rec.runtime_seconds)
        got = trev_comoments(records, tau, lag)
        assert sorted(got) == sorted(want)
        for task, acc in got.items():
            # the same inputs in the same order: every running sum bit for bit
            state = [repr(np.asarray(v).tolist()) for v in vars(acc).values()]
            assert state == [repr(np.asarray(v).tolist()) for v in vars(want[task]).values()]


def test_a_series_that_ends_in_zeros_reads_the_trev_of_its_full_length():
    """Series whose last readings are 0.0: the observed trev_ column and
    trev_comoments both read tsfeat.trev of the whole downsampled row, zeros
    included, as the statistic of a row is taken over its stated length.
    Each once read the trev of the row without its trailing zeros."""
    rows = {
        MetricKind.wchar: (4.0, 9.0, 2.0, 7.0, 3.0, 0.0, 0.0, 0.0),
        MetricKind.utime: (1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 0.0, 0.0),
        MetricKind.vmRSS: (2.0, 6.0, 1.0, 5.0, 0.0, 0.0),
    }
    rec = TaskExecutionRecord(make_features(), series_block(rows), 12.0)
    for tau in (1, 2):
        want = [trev(downsampled(rec, m, tau), 2) if m in rows else 0.0 for m in ALL_METRICS]
        assert all(downsampled(rec, m, tau)[-1] == 0.0 for m in rows)
        reg = Registry(config=PipelineConfig(target_tau=tau, trev_lag=2))
        reg.observe_completion(rec, Scenario.time_series)
        [row] = reg.bundles[("align", Scenario.time_series)].regressor.to_dict()["rows"]
        assert row[len(PRE_RUNTIME_FEATURE_NAMES):] == want
        assert trev_comoments([rec], tau, 2)["align"].mean_x.tolist() == want
    # the wchar example at tau 1: the trev of all 8 samples, not of the first 5
    assert trev(rows[MetricKind.wchar], 2) != trev(rows[MetricKind.wchar][:5], 2)


def test_samples_whose_trev_moments_underflow_read_a_trev_of_zero():
    """utime samples of 1e-110 to 5e-110, whose mean squared lagged difference
    to the power 1.5 underflows to 0.0: a time_series observe, its predict
    and trev_comoments read their trev as 0.0, as they read a degenerate
    series, where each once raised ZeroDivisionError."""
    samples = (1e-110, 3e-110, 5e-110, 2e-110, 4e-110)
    records = [TaskExecutionRecord(make_features(), series_block({MetricKind.utime: samples}),
                                   10.0 + i) for i in range(3)]
    reg = Registry(config=PipelineConfig(target_tau=1))
    for rec in records:
        reg.predict_task(rec.features, Scenario.time_series)
        reg.observe_completion(rec, Scenario.time_series)
    window = reg.bundles[("align", Scenario.time_series)].regressor
    column = window.schema.index("trev_utime")
    assert [row[column] for row in window.to_dict()["rows"]] == [0.0] * 3
    acc = trev_comoments(records, 1, 2)["align"]
    assert acc.n == 3 and not acc.mean_x.any() and not acc.xx.any()


def _trained(storage_dir, records):
    reg = Registry(storage_dir=storage_dir, config=PipelineConfig(target_tau=5, seed=4))
    for rec in records:
        for scenario in Scenario:
            reg.observe_completion(rec, scenario)
    return reg


def test_predicting_an_unseen_task_leaves_the_saved_registry_unchanged(tmp_path, small_log):
    records = small_log.read_all()[:10]
    plain = _trained(tmp_path / "plain", records)
    plain.save()
    queried = _trained(tmp_path / "queried", records)
    unseen = make_record(task_name="other", task_id="other-1", input_name="chrY").features
    for scenario in Scenario:
        assert queried.predict_task(unseen, scenario).runtime_seconds == 1.0
    queried.save()
    assert (tmp_path / "queried" / "index.json").read_bytes() == (
        tmp_path / "plain" / "index.json"
    ).read_bytes()


def test_predicting_unseen_categories_of_a_known_task_leaves_the_saved_registry_unchanged(
    tmp_path, small_log
):
    records = small_log.read_all()[:10]
    plain = _trained(tmp_path / "plain", records)
    plain.save()
    queried = _trained(tmp_path / "queried", records)
    coded = _trained(None, records)
    new = make_record(task_id="align-new", input_name="chrY").features
    coded.vocab.code("task_id", new.task_id)
    coded.vocab.code("input_name", new.input_name)
    for scenario in Scenario:
        # the codes predicting reads are the ones observing would assign
        got = queried.predict_task(new, scenario).runtime_seconds
        assert got == coded.predict_task(new, scenario).runtime_seconds
    queried.save()
    assert (tmp_path / "queried" / "index.json").read_bytes() == (
        tmp_path / "plain" / "index.json"
    ).read_bytes()


def test_save_writes_one_file_and_an_interrupted_save_keeps_the_previous_one(
    tmp_path, small_log, monkeypatch
):
    records = small_log.read_all()
    reg = _trained(tmp_path / "reg", records[:20])
    reg.save()
    assert [p.name for p in (tmp_path / "reg").iterdir()] == ["index.json"]
    queries = [rec.features for rec in records[20:40]]

    def predictions(registry):
        return [registry.predict_task(q, s).runtime_seconds for q in queries for s in Scenario]

    saved = predictions(reg)
    for rec in records[20:30]:
        reg.observe_completion(rec, Scenario.time_series)

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(pipeline_mod.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        reg.save()
    monkeypatch.undo()
    assert [p.name for p in (tmp_path / "reg").iterdir()] == ["index.json"]
    assert predictions(Registry.load(tmp_path / "reg")) == saved


def test_replace_file_keeps_the_target_when_the_producer_raises(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"before\n")

    def chunks():
        yield "a"
        yield "b"
        raise ValueError("producer failed")

    with pytest.raises(ValueError, match="producer failed"):
        replace_file(target, chunks())
    assert target.read_bytes() == b"before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    # a producer that finishes replaces the file, written as UTF-8
    replace_file(target, ["é", "\n"])
    assert target.read_bytes() == "é\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("version", [3, 4, 5, 6, 7, 8])
def test_registry_load_rejects_older_versions(tmp_path, small_log, version):
    reg = _trained(tmp_path, small_log.read_all()[:3])
    reg.save()
    doc = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
    doc["version"] = version
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"unsupported registry version {version}"):
        Registry.load(tmp_path)


# a runtime whose row the interleaving test makes the window refuse: no valid
# record reaches add with a row add refuses once the forecaster has updated,
# and an observe half applied that way is what clearing the cache first is for
_REFUSED_RUNTIME = 4321.0


@pytest.fixture(scope="module")
def three_task_records(tmp_path_factory):
    """150 records of three task types whose series have a shape."""
    spec = dict(base_seconds=15.0, input_names=("i1", "i2", "i3"),
                input_scales=(1.0, 1.4, 1.8), series_profile="curved")
    cfg = GeneratorConfig(
        tasks=tuple(TaskTypeSpec(name=n, **spec) for n in ("a", "b", "c")), n_records=150
    )
    return generate_synthetic(cfg, 8, tmp_path_factory.mktemp("three") / "log.jsonl").read_all()


@pytest.mark.parametrize("capacity", [None, 40])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_a_cached_answer_is_bit_identical_to_one_computed_afresh(
    tmp_path, monkeypatch, three_task_records, scenario, k, capacity
):
    """Random interleavings of predict, observe, save and load: each answer of
    a registry is bit for bit that of one whose caches are cleared before
    every predict, a save with warm caches writes the bytes of a cold one,
    and a load starts with every cache empty. The interleavings take unseen
    input names, which code as the vocabulary's length until another task's
    observe grows it, and observes that are refused, half applied or not."""
    add = InstanceWindow.add

    def refusing_add(window, row, target):
        if target == _REFUSED_RUNTIME:
            raise DomainError("refused by the test")
        return add(window, row, target)

    monkeypatch.setattr(InstanceWindow, "add", refusing_add)
    # forecasters of width 4 keep the test fast
    monkeypatch.setattr(pipeline_mod, "SequenceModel",
                        functools.partial(SequenceModel, hidden_size=4))
    config = PipelineConfig(k=k, window_capacity=capacity, target_tau=5)
    regs = {"cached": Registry(tmp_path / "cached", config),
            "fresh": Registry(tmp_path / "fresh", config)}
    rng = random.Random(f"{scenario.value} {k} {capacity}")
    stream = iter(three_task_records)
    queries = [rec.features for rec in three_task_records]
    unseen = 0  # input names u0, u1, ... below this one have been observed
    asked = []
    hits = 0

    def predict(f):
        nonlocal hits
        for bundle in regs["fresh"].bundles.values():
            bundle.answers.clear()
        want = regs["fresh"].predict_task(f, scenario)
        warm = {id(a) for b in regs["cached"].bundles.values() for a in b.answers.values()}
        got = regs["cached"].predict_task(f, scenario)
        assert got == want and got.runtime_seconds.hex() == want.runtime_seconds.hex()
        hits += id(got) in warm
        return got

    def observe(rec):
        """Whether both registries took rec; each refuses what the other does."""
        refused = []
        for reg in regs.values():
            try:
                reg.observe_completion(rec, scenario)
            except DomainError as exc:
                refused.append(str(exc))
        assert len(refused) in (0, 2) and len(set(refused)) <= 1
        return not refused

    def renamed(f, input_name):
        return dataclasses.replace(f, input_name=input_name)

    def save():
        for bundle in regs["fresh"].bundles.values():
            bundle.answers.clear()
        for reg in regs.values():
            reg.save()
        return [(tmp_path / name / "index.json").read_bytes() for name in regs]

    for rec in itertools.islice(stream, 12):
        assert observe(rec)
    a = next(r for r in three_task_records if r.features.task_name == "a")
    b = next(r for r in three_task_records if r.features.task_name == "b")
    # an unseen name codes as its table's length, u0 and u1 alike; once task
    # b observes u0, u0 keeps that code and u1 codes one higher, so task a's
    # answer for u1 becomes its answer for u0
    first = predict(renamed(a.features, "u1"))
    assert predict(renamed(a.features, "u0")) is first
    assert observe(dataclasses.replace(b, features=renamed(b.features, "u0")))
    assert predict(renamed(a.features, "u0")) is first
    assert predict(renamed(a.features, "u1")) is not first
    # a refused observe of task a, in time_series made after its forecaster
    # updated, still drops a's answers
    before = predict(a.features)
    assert not observe(dataclasses.replace(a, runtime_seconds=_REFUSED_RUNTIME))
    assert predict(a.features) is not before
    unseen = 1

    huge = make_record(n=8, level=B).series  # its tau-5 window means add up past B
    for i, rec in enumerate(stream):
        choice = rng.random()
        if choice < 0.1:
            # refused after the vocabulary took u<unseen> and, in time_series,
            # after the forecaster updated
            observe(dataclasses.replace(rec, runtime_seconds=_REFUSED_RUNTIME,
                                        features=renamed(rec.features, f"u{unseen}")))
            unseen += 1
        elif choice < 0.15:
            # refused by two_stages, whose aggregate is 2B; baseline reads no
            # series, and time_series takes samples within B
            observe(dataclasses.replace(rec, series=huge, runtime_seconds=40.0))
        for _ in range(rng.randrange(4)):
            # a scheduler asks again about tasks it asked about before
            if asked and rng.random() < 0.5:
                f = rng.choice(asked[-8:])
            else:
                f = rng.choice(queries)
                if rng.random() < 0.2:
                    f = renamed(f, f"u{unseen + rng.randrange(2)}")
                asked.append(f)
            predict(f)
        if i % 45 == 44:  # a save and load cost an fsync each: few of them
            predict(rec.features)
            assert any(b.answers for b in regs["cached"].bundles.values())
            warm, cold = save()
            assert warm == cold
            regs = {name: Registry.load(tmp_path / name) for name in regs}
            assert not any(b.answers for r in regs.values() for b in r.bundles.values())
        observe(rec)
    warm, cold = save()
    assert warm == cold
    assert hits > 20
    counts = [(b.runtime_count, len(b.regressor)) for b in regs["cached"].bundles.values()]
    assert len(counts) == 3 and any(n > rows for n, rows in counts) == (capacity is not None)


def test_a_full_answer_cache_is_cleared_whole(monkeypatch, small_log):
    monkeypatch.setattr(pipeline_mod, "_ANSWERS_CAP", 2)
    reg = Registry(config=PipelineConfig(target_tau=5))
    records = small_log.read_all()
    for rec in records[:10]:
        reg.observe_completion(rec, Scenario.two_stages)
    answers = reg.bundles[("align", Scenario.two_stages)].answers
    for n, rec in zip((1, 2, 1), records[10:]):
        reg.predict_task(rec.features, Scenario.two_stages)
        assert len(answers) == n


def test_importing_the_pipeline_loads_neither_evaluation_nor_the_cli():
    """The package root imports no module, so a fresh interpreter that imports
    the pipeline compiles and runs neither the evaluation harness nor the CLI."""
    src = Path(pipeline_mod.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wfpredict.pipeline; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "wfpredict.pipeline" in loaded
    assert not loaded & {"wfpredict.evaluation", "wfpredict.cli"}
