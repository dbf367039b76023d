"""RAE metric, online/batch evaluation runs, synthetic generator."""

import ast
import base64
import dataclasses
import hashlib
import inspect
import json
import math
import random

import pytest

import wfpredict.evaluation as evaluation_mod
import wfpredict.pipeline as pipeline_mod
from conftest import header_of
from test_forecaster import StridedOracle
from wfpredict.domain import MetricKind, Scenario
from wfpredict.evaluation import (
    STANDARD_SEED,
    GeneratorConfig,
    TaskTypeSpec,
    generate_synthetic,
    prequential,
    rae,
    run_batch_offline,
    run_online,
    standard_corpus_config,
)
from wfpredict.pipeline import PipelineConfig, Registry
from wfpredict.store import RecordLog


def reference_rae(actuals, predicted):
    n = len(actuals)
    mean = sum(actuals) / n
    num = sum(abs(a - p) for a, p in zip(actuals, predicted))
    den = sum(abs(a - mean) for a in actuals)
    if den == 0:
        return 0.0 if num == 0 else math.inf
    return num / den


def test_rae_matches_reference():
    random.seed(401)
    for _ in range(200):
        n = random.randrange(1, 50)
        actuals = [random.uniform(1, 100) for _ in range(n)]
        predicted = [random.uniform(1, 100) for _ in range(n)]
        got = rae(actuals, predicted)
        want = reference_rae(actuals, predicted)
        if math.isinf(want):
            assert got == want  # single-sample case: mean predictor is exact
        else:
            assert abs(got - want) < 1e-12


def test_rae_fixed_points():
    assert rae([5.0, 9.0, 2.0], [5.0, 9.0, 2.0]) == 0.0
    assert rae([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 1.0
    assert rae([4.0, 4.0], [4.0, 4.0]) == 0.0
    assert rae([4.0, 4.0], [4.0, 5.0]) == math.inf


def test_rae_input_validation():
    with pytest.raises(ValueError):
        rae([], [])
    with pytest.raises(ValueError):
        rae([1.0], [1.0, 2.0])


def test_generator_is_deterministic(tmp_path):
    cfg = standard_corpus_config(n_records=30)
    a = generate_synthetic(cfg, STANDARD_SEED, tmp_path / "a.jsonl")
    b = generate_synthetic(cfg, STANDARD_SEED, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    c = generate_synthetic(cfg, STANDARD_SEED + 1, tmp_path / "c.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "c.jsonl").read_bytes()
    assert a.count == b.count == c.count == 30


def block_dict(rec):
    """A record as one JSON object, its series block's samples the base64
    text of their little-endian float64 bytes: the layout logs had before
    the binary payload."""
    d = header_of(rec)
    samples = rec.series.samples.astype("<f8").tobytes()
    d["series"]["f64"] = base64.b64encode(samples).decode("ascii")
    return d


def test_generator_output_bytes_are_pinned(tmp_path):
    # the records' JSON rendering is the bytes this corpus had when the log
    # held one JSON object per line, each written with its own open, flush and
    # fsync: the generated records stay bit for bit those records
    log = generate_synthetic(standard_corpus_config(n_records=40), 7, tmp_path / "g.jsonl")
    rendered = "".join(json.dumps(block_dict(rec)) + "\n" for rec in log.records())
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    assert digest == "4a2f62487091d0a7e86ecdb63f9af9681af836249a147c94f5e12a8e90739f4a"
    # the log file's bytes, in the packed-header layout
    digest = hashlib.sha256((tmp_path / "g.jsonl").read_bytes()).hexdigest()
    assert digest == "a474a203bc48572a4d9f9f2d6a3d416db1287da87af34a7ea0c6ab24bf7ac3bb"


def test_curved_generator_output_bytes_are_pinned(tmp_path):
    # the curved profile draws sample noise and ramps the counters, which the
    # steady corpus above never reaches
    std = standard_corpus_config(n_records=40)
    tasks = tuple(dataclasses.replace(t, series_profile="curved") for t in std.tasks)
    generate_synthetic(GeneratorConfig(tasks=tasks, n_records=40), 7, tmp_path / "c.jsonl")
    digest = hashlib.sha256((tmp_path / "c.jsonl").read_bytes()).hexdigest()
    assert digest == "a7dc4013568d49d2ae0019eacd236a9c3411c70d21feb74e4208bb2410cf0954"


def test_the_metric_model_states_every_metric_once():
    # a key written twice in the table's literal would silently keep one line
    tree = ast.parse(inspect.getsource(evaluation_mod))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_METRIC_MODEL"
    )
    assert sorted(key.attr for key in table.keys) == sorted(m.name for m in MetricKind)
    model = evaluation_mod._METRIC_MODEL
    assert {kind for kind, _ in model.values()} == {"count", "ramp", "level"}
    # the arrays follow MetricKind's order, which numbers a record's rows
    assert [(str(k), float(f)) for k, f in zip(evaluation_mod._KINDS, evaluation_mod._FACTORS)] == [
        model[m] for m in MetricKind
    ]


def test_generate_refuses_an_existing_path_and_leaves_it_unchanged(tmp_path):
    path = tmp_path / "g.jsonl"
    generate_synthetic(standard_corpus_config(n_records=5), 7, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="refusing to append to existing log"):
        generate_synthetic(standard_corpus_config(n_records=5), 8, path)
    assert path.read_bytes() == before


def test_generator_record_invariants(tmp_path):
    log = generate_synthetic(standard_corpus_config(n_records=40), 7, tmp_path / "g.jsonl")
    for rec in log.records():
        assert rec.runtime_seconds >= 1.0
        assert set(rec.series.metrics) == set(MetricKind)
        length = len(rec.series.row(MetricKind.utime))
        assert length == min(int(rec.runtime_seconds) + 1, 600)


def test_generator_curved_profile(tmp_path):
    cfg = GeneratorConfig(
        tasks=(
            TaskTypeSpec(
                name="t",
                base_seconds=40.0,
                input_names=("i1",),
                input_scales=(1.0,),
                series_profile="curved",
            ),
        ),
        n_records=5,
    )
    log = generate_synthetic(cfg, 3, tmp_path / "c.jsonl")
    for rec in log.records():
        values = rec.series.row(MetricKind.utime)
        assert values[-1] > values[0]  # counters ramp upward
        flat = rec.series.row(MetricKind.vmRSS)
        assert max(flat) != min(flat)  # measurement noise present


def test_task_type_spec_validation():
    with pytest.raises(ValueError):
        TaskTypeSpec(name="x", base_seconds=0.0, input_names=("a",), input_scales=(1.0,))
    with pytest.raises(ValueError):
        TaskTypeSpec(name="x", base_seconds=1.0, input_names=("a", "b"), input_scales=(1.0,))
    with pytest.raises(ValueError):
        TaskTypeSpec(
            name="x", base_seconds=1.0, input_names=("a",), input_scales=(1.0,),
            series_profile="wavy",
        )


@pytest.mark.parametrize("tasks, n_records, error", [
    ((), 5, "generator needs at least one task type"),
    (standard_corpus_config().tasks, 0, "n_records must be >= 1"),
])
def test_generator_config_needs_a_task_type_and_a_record(tasks, n_records, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        GeneratorConfig(tasks=tasks, n_records=n_records)


def test_run_online_scores_every_record(small_log):
    report = run_online(small_log, Scenario.baseline, tau=5, lag=2, seed=0)
    assert report.n_predictions == small_log.count
    assert report.mode == "online"
    assert math.isfinite(report.rae)
    assert set(report.per_task) == {"align"}


@pytest.mark.parametrize("scenario", list(Scenario))
def test_prequential_predicts_each_record_before_it_observes_it(small_log, scenario):
    records = small_log.read_all()[:30]
    registry = Registry(config=PipelineConfig(target_tau=5))
    reference = Registry(config=PipelineConfig(target_tau=5))
    n = 0
    for rec, pred in prequential(registry, records, scenario):
        assert rec is records[n]
        assert pred == reference.predict_task(rec.features, scenario)
        reference.observe_completion(rec, scenario)
        n += 1
    assert n == len(records)
    assert registry.bundles[("align", scenario)].runtime_count == len(records)


def test_run_online_skip_first(small_log):
    report = run_online(small_log, Scenario.baseline, tau=5, lag=2, seed=0, skip_first=20)
    assert report.n_predictions == small_log.count - 20


@pytest.mark.parametrize("skip", [-1, 120, 121])
def test_run_online_rejects_skip_first_out_of_range_before_any_replay(small_log, monkeypatch, skip):
    def replay(log):
        raise AssertionError("replayed the log")

    monkeypatch.setattr(RecordLog, "records", replay)
    assert small_log.count == 120
    with pytest.raises(ValueError, match=r"^skip_first must be in \[0, 120\)"):
        run_online(small_log, Scenario.baseline, skip_first=skip)


def test_run_batch_offline_split(small_log):
    report = run_batch_offline(small_log, Scenario.baseline, d=0.5, tau=5, lag=2, seed=0)
    assert report.n_predictions == small_log.count - small_log.count // 2
    assert report.mode == "batch(0.5)"
    with pytest.raises(ValueError):
        run_batch_offline(small_log, Scenario.baseline, d=1.5)


@pytest.mark.parametrize("d", [0.001, 0.008])
def test_run_batch_offline_refuses_a_fraction_that_leaves_no_training_record(small_log, d):
    error = f"d={d} leaves an empty train or test side for 120 records"
    with pytest.raises(ValueError, match=f"^{error}$"):
        run_batch_offline(small_log, Scenario.baseline, d=d)


@pytest.mark.parametrize("scenario, overrides, field", [
    (Scenario.baseline, dict(lag=0), "trev_lag"),
    (Scenario.baseline, dict(tau=0), "target_tau"),
    (Scenario.baseline, dict(k=0), "k"),
    (Scenario.baseline, dict(window_capacity=0), "window_capacity"),
    (Scenario.baseline, dict(epochs_per_update=-1), "epochs_per_update"),
    (Scenario.time_series, dict(epochs_per_update=-1), "epochs_per_update"),
    (Scenario.baseline, dict(k=2.5), "k"),
    (Scenario.baseline, dict(window_capacity=2.5), "window_capacity"),
    (Scenario.baseline, dict(lag=2.5), "trev_lag"),
    (Scenario.baseline, dict(k=True), "k"),
    (Scenario.baseline, dict(tau=2**63), "target_tau"),
    (Scenario.time_series, dict(epochs_per_update=10**400), "epochs_per_update"),
])
def test_runs_reject_out_of_range_settings(small_log, scenario, overrides, field):
    # the config checks its own ranges, so a run from Python refuses what the CLI refuses
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        run_online(small_log, scenario, **overrides)
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        run_batch_offline(small_log, scenario, d=0.5, **overrides)


def test_run_online_rejects_empty_log(tmp_path):
    (tmp_path / "empty.jsonl").touch()
    with pytest.raises(ValueError, match="^log is empty$"):
        run_online(RecordLog(tmp_path / "empty.jsonl"), Scenario.baseline)


def test_time_series_run_matches_the_strided_oracle_bit_for_bit(tmp_path, monkeypatch):
    std = standard_corpus_config(150)
    tasks = tuple(dataclasses.replace(t, series_profile="curved") for t in std.tasks)
    log = generate_synthetic(GeneratorConfig(tasks=tasks, n_records=150), 23, tmp_path / "c.jsonl")
    registries = []

    class Kept(evaluation_mod.Registry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            registries.append(self)

    monkeypatch.setattr(evaluation_mod, "Registry", Kept)

    def run(name):
        report = run_online(log, Scenario.time_series, tau=5, lag=2, seed=0)
        registries[-1].storage_dir = tmp_path / name
        registries[-1].save()
        return report.rae, (tmp_path / name / "index.json").read_bytes()

    rae_kernel, doc_kernel = run("kernel")
    monkeypatch.setattr(pipeline_mod, "SequenceModel", StridedOracle)
    rae_oracle, doc_oracle = run("oracle")
    assert all(
        type(b.forecaster) is StridedOracle for b in registries[-1].bundles.values()
    )
    assert rae_kernel.hex() == rae_oracle.hex()
    assert doc_kernel == doc_oracle


def test_report_serialization_round_trip(small_log):
    report = run_online(small_log, Scenario.baseline, tau=5, lag=2, seed=0)
    d = json.loads(report.to_json())
    assert d["scenario"] == "baseline"
    assert d["rae"] == report.rae
    text = report.to_text()
    assert f"rae {report.rae!r}" in text
    assert "rae[align]" in text


# sha256 of every replay below, taken before the bit-exact rewrites of the
# two_stages observe (downsampling, the aggregate row, the kept normalization);
# the window_capacity=40 one, of predictions and documents together, was taken
# before feature rows became plain tuples. To retake them (another numpy, or a
# change meant to move predictions): check out the commit before the change,
# print `got` in the test in place of the assert, run it with
# `pytest -s -k pinned_digests`, and paste the three hexdigests.
_REPLAY_DIGESTS = {
    "predictions": "385ee35f6845f2aded2af2eca348fdee4a9b79a94de7d5ab0bdb435bd93d8bdb",
    "index.json": "dbd595a7b65f60821410b04d12820f46e1dec2aa8ba3d6d2cb00c29fbe756dae",
    "window_capacity=40": "787a6a3062406323142bead76b3eb93885c8d9784e69204672f8dbc868f35597",
}


def test_replays_keep_their_pinned_digests(tmp_path):
    """Every scenario at k 1 and 3 replayed prequentially over 150 steady and
    150 curved standard-task records (seed 3, tau 5, lag 2) must give the
    predictions and the saved index.json they gave when the digests were
    taken: float.hex of each prediction, and the document's bytes. The same
    replays with a window of 40 rows, which evicts, are pinned by one digest
    of both.

    Pinned with numpy 2.4.6 on Python 3.11. A speedup that keeps every bit
    keeps both; another numpy may round differently and need new digests.
    """
    std = standard_corpus_config(150)
    curved = GeneratorConfig(
        tasks=tuple(dataclasses.replace(t, series_profile="curved") for t in std.tasks),
        n_records=150,
    )
    preds, docs, evicting = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for name, cfg in (("steady", std), ("curved", curved)):
        records = generate_synthetic(cfg, 3, tmp_path / f"{name}.jsonl").read_all()
        for capacity, (p, d) in ((None, (preds, docs)), (40, (evicting, evicting))):
            for scenario in Scenario:
                for k in (1, 3):
                    registry = Registry(
                        tmp_path / f"{name}-{scenario.value}-{k}-{capacity}",
                        PipelineConfig(k=k, window_capacity=capacity, target_tau=5, trev_lag=2),
                    )
                    for _, pred in prequential(registry, records, scenario):
                        p.update(pred.runtime_seconds.hex().encode() + b"\n")
                    registry.save()
                    d.update((registry.storage_dir / "index.json").read_bytes())
    got = {"predictions": preds.hexdigest(), "index.json": docs.hexdigest(),
           "window_capacity=40": evicting.hexdigest()}
    assert got == _REPLAY_DIGESTS
