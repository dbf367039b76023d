"""Pipeline: correlation, feature selection, registry behavior, persistence."""

import dataclasses
import json
import random

import numpy as np
import pytest

from conftest import make_record, write_legacy
import wfpredict.pipeline as pipeline_mod
from wfpredict.domain import (
    CategoryVocab, FeatureVector, MetricKind, MetricSeries, Scenario, TaskExecutionRecord,
    encode_pre_runtime,
)
from wfpredict.evaluation import GeneratorConfig, TaskTypeSpec, generate_synthetic
from wfpredict.forecaster import SequenceModel, TrainingDivergedError
from wfpredict.knn import InstanceWindow
from wfpredict.pipeline import (
    REGISTRY_VERSION, PipelineConfig, Registry, pearson, select_features, trev_history,
)
from wfpredict.store import RecordLog, downsample, downsample_block
from wfpredict.tsfeat import TrevConfig, strip_padding, trev


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
    window = InstanceWindow()
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
        self.index = InstanceWindow(capacity)
        self.regressor = InstanceWindow(capacity)
        self.aggs = []

    def predict(self, f):
        if not self.aggs:
            return 1.0
        sigma = encode_pre_runtime(f, self.vocab.lookup)
        aggs = self.aggs[int(self.index.predict(sigma, k=1)) - 1]
        query = FeatureVector(names=self.regressor.schema, values=sigma.values + aggs)
        return self.regressor.predict(query, k=self.k)

    def observe(self, rec):
        sigma = encode_pre_runtime(rec.features, self.vocab.code)
        aggs = tuple(
            max(sum(downsample(rec.series[m], self.tau).values), pipeline_mod._AGG_FLOOR)
            for m in MetricKind
        )
        self.aggs.append(aggs)
        self.index.add(sigma, float(len(self.aggs)))
        names = sigma.names + tuple(f"agg_{m.value}" for m in MetricKind)
        self.regressor.add(FeatureVector(names=names, values=sigma.values + aggs),
                           rec.runtime_seconds)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("capacity", [None, 7])
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


def test_observe_completes_on_samples_whose_trev_moments_overflow():
    # finite samples near the float64 maximum: d**2 and d**3 overflow, yet the
    # record is valid and its trev features must come out finite
    big = 1.7976931348623157e308
    rec = make_record(runtime=10.0, n=8)
    values = (1.0, big, -big, 0.5 * big, 1e200, -1e200, big, 2.0)
    series = {m: MetricSeries(m, 1, values) for m in MetricKind}
    rec = TaskExecutionRecord(features=rec.features, series=series, runtime_seconds=10.0)
    reg = Registry(config=PipelineConfig(target_tau=1))
    reg.observe_completion(make_record(runtime=12.0, n=8), Scenario.time_series)
    reg.observe_completion(rec, Scenario.time_series)
    bundle = reg.bundles[("align", Scenario.time_series)]
    assert bundle.runtime_count == 2
    assert np.all(np.isfinite(bundle.regressor.lo)) and np.all(np.isfinite(bundle.regressor.hi))


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
            query = reg._time_series_vector(tuple(MetricKind), sigma, block, horizons)
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


def _online_predictions(records, scenario, config):
    reg = Registry(config=config)
    preds = []
    for rec in records:
        preds.append(reg.predict_task(rec.features, scenario).runtime_seconds)
        reg.observe_completion(rec, scenario)
    return preds


def test_baseline_reads_no_series_and_encodes_no_pre_runtime_vector(small_log, monkeypatch):
    records = small_log.read_all()
    want = _online_predictions(records, Scenario.baseline, PipelineConfig(target_tau=5))

    def forbidden(*args, **kwargs):
        raise AssertionError("baseline must not call this")

    monkeypatch.setattr(pipeline_mod, "downsample_block", forbidden)
    monkeypatch.setattr(pipeline_mod, "encode_pre_runtime", forbidden)
    assert _online_predictions(records, Scenario.baseline, PipelineConfig(target_tau=5)) == want


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
        rows = [downsample(rec.series[m], 5).values for m in chosen]
        assert block.shape[0] == 3
        assert lengths.tolist() == [len(r) for r in rows]
        assert [tuple(row[:len(r)]) for row, r in zip(block.tolist(), rows)] == rows


def test_block_and_legacy_logs_give_identical_predictions_and_registries(tmp_path, small_log):
    assert '"f64": ' in small_log.path.read_text(encoding="utf-8").splitlines()[0]
    legacy = RecordLog(write_legacy(small_log.read_all(), tmp_path / "legacy.jsonl"))
    assert legacy.read_all() == small_log.read_all()
    for scenario in Scenario:
        runs = []
        for name, log in (("block", small_log), ("legacy", legacy)):
            reg = Registry(storage_dir=tmp_path / name / scenario.value,
                           config=PipelineConfig(target_tau=5))
            preds = []
            for rec in log.records():
                preds.append(reg.predict_task(rec.features, scenario).runtime_seconds)
                reg.observe_completion(rec, scenario)
            reg.save()
            files = {
                path.relative_to(reg.storage_dir): path.read_bytes()
                for path in sorted(reg.storage_dir.rglob("*.json"))
            }
            runs.append((preds, files))
        assert runs[0] == runs[1], scenario


def test_two_stages_observe_hands_downsample_block_the_record_rows(small_log, monkeypatch):
    calls = []

    def spy(values, interval, target_tau):
        calls.append((values, interval))
        return downsample_block(values, interval, target_tau)

    records = small_log.read_all()[:3]
    reg = Registry(config=PipelineConfig(target_tau=5))
    monkeypatch.setattr(pipeline_mod, "downsample_block", spy)
    for rec in records:
        reg.observe_completion(rec, Scenario.two_stages)
    assert len(calls) == len(records)
    for rec, (rows, interval) in zip(records, calls):
        assert interval == 1
        assert [tuple(row.tolist()) for row in rows] == [rec.series[m].values for m in MetricKind]
        # views into the record's block, not copies
        assert all(np.shares_memory(row, rec.series.samples) for row in rows)


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
    assert doc["magic"] == "wfpredict-registry" and doc["version"] == REGISTRY_VERSION == 6

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
        assert set(b["regressor"]) == {"schema", "lo", "hi", "rows", "targets"}
    assert set(bundles["time_series"]["forecaster"]) == {
        "flat_params", "value_norm", "feat_norm", "len_sum", "len_count"
    }


def test_registry_load_rejects_foreign_directory(tmp_path):
    (tmp_path / "index.json").write_text('{"magic": "nope"}', encoding="utf-8")
    with pytest.raises(ValueError):
        Registry.load(tmp_path)


def test_time_series_forecasts_ranges_near_the_float64_maximum():
    # series that alternate record by record between all zeros and the float64
    # maximum: the forecaster's value range overflows hi - lo
    big = 1.7976931348623157e308
    reg = Registry(config=PipelineConfig(target_tau=1, learning_rate=0.5))
    failures = 0
    for i in range(60):
        level = big if i % 2 else 0.0
        rec = make_record(runtime=10.0 + i, n=8, level=level, submission_hour=i % 24)
        try:
            reg.predict_task(rec.features, Scenario.time_series)
        except ValueError:
            failures += 1
        reg.observe_completion(rec, Scenario.time_series)
    assert failures == 0


def test_trev_history_matches_the_per_metric_path(tmp_path):
    spec = dict(base_seconds=40.0, input_names=("i1", "i2"), input_scales=(1.0, 1.5),
                series_profile="curved")
    cfg = GeneratorConfig(
        tasks=(TaskTypeSpec(name="a", **spec), TaskTypeSpec(name="b", **spec)), n_records=40
    )
    records = generate_synthetic(cfg, 3, tmp_path / "curved.jsonl").read_all()
    # trailing zeros to strip, and a record that carries only two metrics
    padded = (1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for metrics in (tuple(MetricKind), (MetricKind.utime, MetricKind.vmRSS)):
        series = {m: MetricSeries(m, 1, padded) for m in metrics}
        features = records[0].features
        records.append(TaskExecutionRecord(features=features, series=series, runtime_seconds=12.0))
    for tau, lag in ((1, 2), (5, 2), (10, 3)):
        trev_cfg = TrevConfig(lag=lag)
        want = {}
        for rec in records:
            feats = {
                m: trev(strip_padding(downsample(s, tau).values), trev_cfg)
                for m, s in rec.series.items()
            }
            want.setdefault(rec.features.task_name, []).append((feats, rec.runtime_seconds))
        got = trev_history(records, tau, lag)
        assert repr(got) == repr(want)


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


@pytest.mark.parametrize("version", [3, 4, 5])
def test_registry_load_rejects_older_versions(tmp_path, small_log, version):
    reg = _trained(tmp_path, small_log.read_all()[:3])
    reg.save()
    doc = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
    doc["version"] = version
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"unsupported registry version {version}"):
        Registry.load(tmp_path)
