"""Pipeline: correlation, feature selection, registry behavior, persistence."""

import random

import numpy as np
import pytest

from conftest import make_record
from wfpredict.domain import MetricKind, Scenario
from wfpredict.forecaster import TrainingDivergedError
from wfpredict.pipeline import PipelineConfig, Registry, pearson, select_features


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
        assert abs(pearson(xs, ys) - reference_pearson(xs, ys)) < 1e-12


def test_pearson_extremes_and_degenerate():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert abs(pearson(xs, [2 * x + 1 for x in xs]) - 1.0) < 1e-12
    assert abs(pearson(xs, [-3 * x for x in xs]) + 1.0) < 1e-12
    assert pearson(xs, [5.0, 5.0, 5.0, 5.0]) == 0.0


def test_pearson_input_validation():
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0])


def test_select_features_picks_planted_metric():
    random.seed(307)
    history = []
    for _ in range(60):
        runtime = random.uniform(10, 100)
        feats = {m: random.gauss(0, 1) for m in MetricKind}
        feats[MetricKind.vmRSS] = runtime  # planted: perfectly correlated
        history.append((feats, runtime))
    assert select_features(history, 0.5) == {MetricKind.vmRSS}


def test_select_features_requires_history():
    with pytest.raises(ValueError):
        select_features([({}, 1.0)], 0.5)


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
    assert len(bundle.agg_estimators) == 13
    assert len(bundle.regressor) == 60
    pred = reg.predict_task(records[60].features, Scenario.two_stages)
    assert pred.runtime_seconds > 0


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
        return (bundle.forecaster.dumps(), bundle.regressor.dumps(), bundle.runtime_count)

    before = state()
    with pytest.raises(TrainingDivergedError), np.errstate(over="ignore", invalid="ignore"):
        reg.observe_completion(records[5], Scenario.time_series)
    assert state() == before


def test_metric_selection_restricts_models(small_log):
    sel = {"align": {MetricKind.utime}}
    reg = Registry(config=PipelineConfig(target_tau=5, selected_metrics=sel))
    for rec in small_log.read_all()[:5]:
        reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    assert bundle.forecaster.metrics == (MetricKind.utime,)
    assert bundle.regressor.schema[-1] == "trev_utime"
    assert len(bundle.regressor.schema) == 9  # 8 pre-runtime dims plus one


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


def test_registry_load_rejects_foreign_directory(tmp_path):
    (tmp_path / "index.json").write_text('{"magic": "nope"}', encoding="utf-8")
    with pytest.raises(ValueError):
        Registry.load(tmp_path)
