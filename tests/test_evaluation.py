"""RAE metric, online/batch evaluation runs, synthetic generator."""

import dataclasses
import hashlib
import json
import math
import random

import pytest

import wfpredict.evaluation as evaluation_mod
import wfpredict.pipeline as pipeline_mod
from test_forecaster import StridedOracle
from wfpredict.domain import MetricKind, Scenario
from wfpredict.evaluation import (
    STANDARD_SEED,
    GeneratorConfig,
    TaskTypeSpec,
    generate_synthetic,
    rae,
    run_batch_offline,
    run_online,
    standard_corpus_config,
)
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


def test_generator_output_bytes_are_pinned(tmp_path):
    # the bytes this corpus had when every record was written with its own
    # open, flush and fsync; one batched write per corpus must not change them
    generate_synthetic(standard_corpus_config(n_records=40), 7, tmp_path / "g.jsonl")
    digest = hashlib.sha256((tmp_path / "g.jsonl").read_bytes()).hexdigest()
    assert digest == "4a2f62487091d0a7e86ecdb63f9af9681af836249a147c94f5e12a8e90739f4a"


def test_generator_record_invariants(tmp_path):
    log = generate_synthetic(standard_corpus_config(n_records=40), 7, tmp_path / "g.jsonl")
    for rec in log.records():
        assert rec.runtime_seconds >= 1.0
        assert set(rec.series) == set(MetricKind)
        length = len(rec.series[MetricKind.utime].values)
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
        values = rec.series[MetricKind.utime].values
        assert values[-1] > values[0]  # counters ramp upward
        flat = rec.series[MetricKind.vmRSS].values
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


def test_run_online_scores_every_record(small_log):
    report = run_online(small_log, Scenario.baseline, tau=5, lag=2, seed=0)
    assert report.n_predictions == small_log.count
    assert report.mode == "online"
    assert math.isfinite(report.rae)
    assert set(report.per_task) == {"align"}


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


@pytest.mark.parametrize("scenario, overrides, field", [
    (Scenario.baseline, dict(lag=0), "trev_lag"),
    (Scenario.baseline, dict(tau=0), "target_tau"),
    (Scenario.baseline, dict(k=0), "k"),
    (Scenario.baseline, dict(window_capacity=0), "window_capacity"),
    (Scenario.baseline, dict(epochs_per_update=-1), "epochs_per_update"),
    (Scenario.time_series, dict(epochs_per_update=-1), "epochs_per_update"),
])
def test_runs_reject_out_of_range_settings(small_log, scenario, overrides, field):
    # the config checks its own ranges, so a run from Python refuses what the CLI refuses
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        run_online(small_log, scenario, **overrides)
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        run_batch_offline(small_log, scenario, d=0.5, **overrides)


def test_run_online_rejects_empty_log(tmp_path):
    with pytest.raises(ValueError):
        run_online(RecordLog(tmp_path / "none.jsonl"), Scenario.baseline)


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
