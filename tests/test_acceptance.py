"""Acceptance gate: one test per release criterion.

Each test prints a single CRITERION line with its verdict; the heavyweight
end-to-end runs on the standard 2000-record corpus are shared through
module-scoped fixtures.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import running_rho
from test_forecaster import max_param_gradient_error
from test_knn import oracle_predict
from wfpredict.cli import main
from wfpredict.domain import MetricKind, Scenario, SeriesBlock
from wfpredict.evaluation import rae, run_batch_offline, run_online
from wfpredict.forecaster import SequenceModel
from wfpredict.knn import InstanceWindow
from wfpredict.pipeline import ALL_METRICS, CoMoments, Registry, PipelineConfig, trev_comoments
from wfpredict.store import downsample
from wfpredict.tsfeat import trev

# the fixed end-to-end configuration every corpus threshold refers to
ACCEPT_TAU = 5
ACCEPT_LAG = 2
ACCEPT_SEED = 0


def verdict(number, name, ok):
    print(f"CRITERION {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _reference_trev(values, lag):
    diffs = [values[t + lag] - values[t] for t in range(len(values) - lag)]
    if not diffs:
        return 0.0
    m2 = sum(d * d for d in diffs) / len(diffs)
    if m2 == 0.0:
        return 0.0
    return sum(d ** 3 for d in diffs) / len(diffs) / m2 ** 1.5


@pytest.fixture(scope="module")
def online_reports(standard_log):
    """Timed online runs of the baseline and time_series scenarios."""
    t0 = time.monotonic()
    baseline = run_online(
        standard_log, Scenario.baseline, tau=ACCEPT_TAU, lag=ACCEPT_LAG, seed=ACCEPT_SEED
    )
    time_series = run_online(
        standard_log, Scenario.time_series, tau=ACCEPT_TAU, lag=ACCEPT_LAG, seed=ACCEPT_SEED
    )
    return {"baseline": baseline, "time_series": time_series, "elapsed": time.monotonic() - t0}


def test_criterion_01_trev_oracle():
    random.seed(1001)
    t0 = time.monotonic()
    ok = True
    for _ in range(1000):
        n = random.randrange(0, 101)
        lag = random.randrange(1, 6)
        values = [random.gauss(0, 4) for _ in range(n)]
        got = trev(values, lag)
        want = _reference_trev(values, lag)
        ok = ok and abs(got - want) < 1e-9
        if n <= lag:
            ok = ok and got == 0.0
    ok = ok and trev([], 1) == 0.0
    ok = ok and trev([7.0] * 50, 3) == 0.0
    ok = ok and (time.monotonic() - t0) < 5.0
    verdict(1, "trev oracle", ok)


def test_criterion_02_trev_symmetry():
    random.seed(1002)
    ok = True
    for _ in range(200):
        n = random.randrange(5, 80)
        lag = random.randrange(1, 5)
        values = [random.gauss(0, 3) for _ in range(n)]
        base = trev(values, lag)
        ok = ok and abs(trev(values[::-1], lag) + base) < 1e-9
        scale = random.uniform(0.2, 30)
        shift = random.uniform(-60, 60)
        ok = ok and abs(trev([v * scale for v in values], lag) - base) < 1e-9
        ok = ok and abs(trev([v + shift for v in values], lag) - base) < 1e-9
    verdict(2, "trev symmetry suite", ok)


def test_criterion_03_gradient_check():
    rng = np.random.default_rng(1003)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        input_dim = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 7))
        model = SequenceModel(input_dim=input_dim, hidden_size=hidden, seeds=(trial,))
        fenc = rng.uniform(0, 1, size=(1, input_dim))
        inputs = rng.uniform(0, 1, size=(1, 5))
        targets = rng.uniform(0, 1, size=(1, 5))
        worst = max(worst, max_param_gradient_error(model, fenc, inputs, targets, step=1e-5))
    elapsed = time.monotonic() - t0
    verdict(3, "gradient check", worst < 1e-4 and elapsed < 30.0)


def test_criterion_04_convergence():
    f = [1.0, 2.0]
    target_values = (2.0, 3.0, 5.0, 8.0)
    s = SeriesBlock(1, ["utime"], [len(target_values)], target_values)
    # an untrained twin measures the starting loss without taking a step
    probe = SequenceModel(
        input_dim=2, hidden_size=10, learning_rate=0.3, epochs_per_update=0, seeds=(1004,)
    )
    probe.update(f, s)
    initial = probe.loss(f, s)
    model = SequenceModel(input_dim=2, hidden_size=10, learning_rate=0.3, seeds=(1004,))
    for _ in range(500):
        model.update(f, s)
    last = model.loss(f, s)
    forecast = model.forecast(f, len(target_values)).tolist()
    ok = last < initial / 10
    ok = ok and len(forecast) == len(target_values)
    ok = ok and all(
        abs(got - want) < 0.5 for got, want in zip(forecast, target_values)
    )
    verdict(4, "forecaster convergence", ok)


def test_criterion_05_knn_oracle():
    random.seed(1005)
    ok = True
    for _ in range(500):
        dim = random.randrange(1, 5)
        n = random.randrange(1, 30)
        instances = [
            (
                np.array([float(random.randrange(0, 4)) for _ in range(dim)]),
                float(random.randrange(1, 60)),
            )
            for _ in range(n)
        ]
        w = InstanceWindow([f"f{i}" for i in range(dim)])
        for x, r in instances:
            w.add(x.tolist(), r)
        query = [float(random.randrange(0, 4)) for _ in range(dim)]
        k = random.randrange(1, 6)
        ok = ok and w.predict(query, k) == oracle_predict(instances, query, k)
    cap = 8
    w = InstanceWindow(["f0"], capacity=cap)
    for i in range(cap + 1):
        w.add([float(i)], float(i + 1))
    members = [x[0] for x in w.to_dict()["rows"]]
    ok = ok and len(w) == cap and members == [float(i) for i in range(1, cap + 1)]
    verdict(5, "knn oracle and eviction", ok)


def test_criterion_06_rae_correctness():
    random.seed(1006)
    ok = True
    for _ in range(200):
        n = random.randrange(1, 40)
        actuals = [random.uniform(1, 200) for _ in range(n)]
        predicted = [random.uniform(1, 200) for _ in range(n)]
        mean = sum(actuals) / n
        want_num = sum(abs(a - p) for a, p in zip(actuals, predicted))
        want_den = sum(abs(a - mean) for a in actuals)
        want = want_num / want_den if want_den else (0.0 if want_num == 0 else math.inf)
        got = rae(actuals, predicted)
        ok = ok and (got == want if math.isinf(want) else abs(got - want) < 1e-12)
    ok = ok and rae([4.0, 7.0], [4.0, 7.0]) == 0.0
    ok = ok and rae([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 1.0
    ok = ok and rae([5.0, 5.0], [5.0, 6.0]) == math.inf
    verdict(6, "rae correctness", ok)


def test_criterion_07_pearson_correctness():
    random.seed(1007)
    ok = True
    for _ in range(200):
        n = random.randrange(2, 40)
        xs = [random.gauss(0, 4) for _ in range(n)]
        ys = [random.gauss(0, 4) for _ in range(n)]
        mx, my = sum(xs) / n, sum(ys) / n
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx = sum((x - mx) ** 2 for x in xs)
        syy = sum((y - my) ** 2 for y in ys)
        want = 0.0 if sxx == 0 or syy == 0 else sxy / math.sqrt(sxx * syy)
        ok = ok and abs(running_rho(xs, ys) - want) < 1e-12
    xs = [1.0, 2.0, 5.0, 9.0]
    ok = ok and abs(running_rho(xs, [3 * x + 2 for x in xs]) - 1.0) < 1e-12
    ok = ok and abs(running_rho(xs, [-x for x in xs]) + 1.0) < 1e-12
    ok = ok and running_rho(xs, [4.0] * 4) == 0.0
    verdict(7, "pearson correctness", ok)


def test_criterion_08_online_trend(online_reports):
    baseline = online_reports["baseline"].rae
    time_series = online_reports["time_series"].rae
    elapsed = online_reports["elapsed"]
    print(
        f"  online rae: time_series={time_series:.4f} baseline={baseline:.4f} "
        f"({elapsed:.0f}s)"
    )
    verdict(
        8,
        "online trend",
        time_series < baseline and time_series < 0.25 and elapsed < 300.0,
    )


def test_criterion_09_batch_trend(standard_log):
    low = run_batch_offline(
        standard_log, Scenario.two_stages, d=0.2, tau=ACCEPT_TAU, lag=ACCEPT_LAG,
        seed=ACCEPT_SEED,
    )
    high = run_batch_offline(
        standard_log, Scenario.two_stages, d=0.8, tau=ACCEPT_TAU, lag=ACCEPT_LAG,
        seed=ACCEPT_SEED,
    )
    print(f"  batch rae: d=0.2 -> {low.rae:.4f}, d=0.8 -> {high.rae:.4f}")
    verdict(9, "batch trend", high.rae <= low.rae)


def test_criterion_10_feature_selection(standard_log, online_reports):
    # planted-metric selection on a constructed history
    random.seed(1010)
    history = CoMoments()
    for _ in range(300):
        runtime = random.uniform(5, 200)
        feats = {m: random.gauss(0, 1) for m in MetricKind}
        feats[MetricKind.utime] = 0.9 * runtime
        history.add([feats[m] for m in ALL_METRICS], runtime)
    noise_ok = all(
        abs(r) < 0.3
        for m, r in zip(ALL_METRICS, history.rho().tolist())
        if m is not MetricKind.utime
    )
    planted_ok = history.selected(0.5) == {MetricKind.utime}

    # data-driven selection on the standard corpus must not hurt the
    # end-to-end error by more than 0.02 absolute
    per_task = trev_comoments(standard_log.records(), ACCEPT_TAU, ACCEPT_LAG)
    selection = {t: acc.selected(0.5) for t, acc in per_task.items()}
    selected_report = run_online(
        standard_log, Scenario.time_series, tau=ACCEPT_TAU, lag=ACCEPT_LAG,
        seed=ACCEPT_SEED, selected_metrics=selection,
    )
    all_features = online_reports["time_series"].rae
    print(f"  selected-only rae {selected_report.rae:.4f} vs all-features {all_features:.4f}")
    verdict(
        10,
        "feature selection",
        noise_ok and planted_ok and selected_report.rae <= all_features + 0.02,
    )


def test_criterion_11_determinism_and_persistence(small_log, tmp_path):
    a = run_online(small_log, Scenario.time_series, tau=ACCEPT_TAU, lag=ACCEPT_LAG, seed=7)
    b = run_online(small_log, Scenario.time_series, tau=ACCEPT_TAU, lag=ACCEPT_LAG, seed=7)
    runs_identical = a.to_json().encode("utf-8") == b.to_json().encode("utf-8")

    records = small_log.read_all()
    reg = Registry(
        storage_dir=tmp_path / "registry",
        config=PipelineConfig(target_tau=ACCEPT_TAU, trev_lag=ACCEPT_LAG, seed=7),
    )
    for rec in records[:60]:
        reg.observe_completion(rec, Scenario.time_series)
    reg.save()
    loaded = Registry.load(tmp_path / "registry")
    queries = [records[i % len(records)].features for i in range(100)]
    round_trip_identical = all(
        reg.predict_task(q, Scenario.time_series).runtime_seconds
        == loaded.predict_task(q, Scenario.time_series).runtime_seconds
        for q in queries
    )
    verdict(11, "determinism and persistence", runs_identical and round_trip_identical)


def test_criterion_12_downsampling_and_sweep(tmp_path):
    random.seed(1012)
    props_ok = True
    for _ in range(200):
        n = random.randrange(1, 80)
        width = random.choice([1, 2, 3, 5, 6])
        values = [random.uniform(0, 100) for _ in range(n)]
        s = SeriesBlock(1, ["utime"], [n], values)
        out = downsample(s, width)
        total = sum(
            v * len(values[j * width:(j + 1) * width])
            for j, v in enumerate(out.samples.tolist())
        )
        props_ok = props_ok and abs(total / n - sum(values) / n) < 1e-12
        # composition on evenly divisible lengths
        blocks = random.randrange(1, 6)
        comp = [random.uniform(0, 100) for _ in range(blocks * 6)]
        cs = SeriesBlock(1, ["utime"], [len(comp)], comp)
        direct = downsample(cs, 6)
        staged = downsample(downsample(cs, 2), 6)
        props_ok = props_ok and all(
            abs(x - y) < 1e-12 for x, y in zip(direct.samples.tolist(), staged.samples.tolist())
        )

    corpus = tmp_path / "sweep_corpus.jsonl"
    assert main(["generate", "--out", str(corpus), "--records", "60", "--seed", "9"]) == 0
    out_dir = tmp_path / "sweep"
    rc = main([
        "sweep", "--log", str(corpus), "--scenarios", "time_series",
        "--taus", "1", "5", "10", "15", "30", "--lags", "2",
        "--out-dir", str(out_dir),
    ])
    reports = sorted(p.name for p in out_dir.glob("*.json"))
    expected = [f"time_series_tau{t}_lag2.json" for t in (1, 5, 10, 15, 30)]
    sweep_ok = rc == 0 and reports == sorted(expected)
    verdict(12, "downsampling and sweep", props_ok and sweep_ok)
