"""Windowed nearest-neighbor regressor against a brute-force oracle."""

import json
import random

import numpy as np
import pytest

from wfpredict.domain import FeatureVector
from wfpredict.knn import EmptyWindowError, InstanceWindow, SchemaMismatchError


def _fv(values):
    return FeatureVector(
        names=tuple(f"f{i}" for i in range(len(values))), values=tuple(values)
    )


def oracle_predict(instances, query, k):
    """Full sort over all instances with the documented normalization and ties."""
    xs = np.array([x for x, _ in instances])
    lo = xs.min(axis=0)
    hi = xs.max(axis=0)
    rng = hi - lo
    eps = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    rng = np.where(rng > eps, rng, 0.0)
    scored = []
    for idx, (x, runtime) in enumerate(instances):
        diff = np.where(rng > 0, (np.array(query) - x) / np.where(rng > 0, rng, 1.0), 0.0)
        scored.append((float(np.sum(diff * diff)), idx, runtime))
    scored.sort(key=lambda t: (t[0], t[1]))
    chosen = scored[: min(k, len(scored))]
    return sum(r for _, _, r in chosen) / len(chosen)


def test_empty_window_raises():
    w = InstanceWindow()
    with pytest.raises(EmptyWindowError):
        w.predict(_fv([1.0]))


def test_schema_fixed_by_first_add():
    w = InstanceWindow()
    w.add(_fv([1.0, 2.0]), 5.0)
    with pytest.raises(SchemaMismatchError):
        w.add(FeatureVector(names=("a", "b"), values=(1.0, 2.0)), 5.0)
    with pytest.raises(SchemaMismatchError):
        w.predict(_fv([1.0]))


def test_rejects_bad_inputs():
    w = InstanceWindow()
    with pytest.raises(ValueError):
        InstanceWindow(capacity=0)
    with pytest.raises(ValueError):
        w.add(_fv([1.0]), 0.0)
    w.add(_fv([1.0]), 2.0)
    with pytest.raises(ValueError):
        w.predict(_fv([1.0]), k=0)


def test_single_instance_always_wins():
    w = InstanceWindow()
    w.add(_fv([3.0, 4.0]), 17.0)
    assert w.predict(_fv([100.0, -100.0])) == 17.0


def test_matches_oracle_on_random_cases():
    random.seed(211)
    for _ in range(500):
        dim = random.randrange(1, 5)
        n = random.randrange(1, 25)
        # coarse grid values make exact distance ties common
        instances = [
            (
                np.array([float(random.randrange(0, 4)) for _ in range(dim)]),
                float(random.randrange(1, 50)),
            )
            for _ in range(n)
        ]
        cap = random.choice([None, random.randrange(1, 8)])
        w = InstanceWindow(capacity=cap)
        for x, r in instances:
            w.add(_fv(x.tolist()), r)
        query = [float(random.randrange(0, 4)) for _ in range(dim)]
        k = random.randrange(1, 6)
        # a bounded window holds, and takes its ranges from, the last cap instances
        held = instances if cap is None else instances[-cap:]
        assert w.predict(_fv(query), k) == oracle_predict(held, query, k)


def test_tie_break_prefers_older_instance():
    w = InstanceWindow()
    w.add(_fv([0.0]), 10.0)
    w.add(_fv([2.0]), 20.0)
    w.add(_fv([2.0]), 30.0)  # same point as the second, inserted later
    assert w.predict(_fv([2.0]), k=1) == 20.0


def test_k_larger_than_window_means_global_mean():
    w = InstanceWindow()
    for v, r in ((0.0, 10.0), (1.0, 20.0), (2.0, 60.0)):
        w.add(_fv([v]), r)
    assert w.predict(_fv([0.0]), k=50) == 30.0


def test_fifo_eviction_after_capacity():
    cap = 5
    w = InstanceWindow(capacity=cap)
    evicted = []
    for i in range(cap + 3):
        out = w.add(_fv([float(i)]), float(i + 1))
        if out is not None:
            evicted.append(out)
    assert len(w) == cap
    kept = [x[0] for x in w.to_dict()["rows"]]
    assert kept == [3.0, 4.0, 5.0, 6.0, 7.0]
    assert [x[0] for x, _ in evicted] == [0.0, 1.0, 2.0]


def test_zero_range_dimension_is_ignored():
    w = InstanceWindow()
    w.add(_fv([5.0, 1.0]), 10.0)
    w.add(_fv([5.0, 9.0]), 50.0)
    # first dim constant: only the second decides the neighbor
    assert w.predict(_fv([-1000.0, 8.9]), k=1) == 50.0


def test_rounding_level_range_counts_as_zero():
    w = InstanceWindow()
    w.add(_fv([1.0, 1.0]), 10.0)
    w.add(_fv([1.0 + 1e-15, 2.0]), 50.0)
    # the first dimension's spread is float noise; it must not dominate
    assert w.predict(_fv([0.5, 2.0]), k=1) == 50.0


def test_prediction_invariant_under_affine_feature_rescaling():
    random.seed(223)
    for _ in range(50):
        n = random.randrange(2, 15)
        pts = [(random.uniform(-5, 5), random.uniform(-5, 5)) for _ in range(n)]
        runtimes = [float(random.randrange(1, 30)) for _ in range(n)]
        a = InstanceWindow()
        b = InstanceWindow()
        scale, shift = random.uniform(0.5, 20), random.uniform(-40, 40)
        for (x, y), r in zip(pts, runtimes):
            a.add(_fv([x, y]), r)
            b.add(_fv([x * scale + shift, y]), r)
        qx, qy = random.uniform(-5, 5), random.uniform(-5, 5)
        k = random.randrange(1, 4)
        pa = a.predict(_fv([qx, qy]), k)
        pb = b.predict(_fv([qx * scale + shift, qy]), k)
        assert abs(pa - pb) < 1e-9


def test_serialization_round_trip():
    w = InstanceWindow(capacity=4)
    for i in range(6):
        w.add(_fv([float(i), float(i % 2)]), float(i + 1))
    again = InstanceWindow(capacity=4)
    again.restore(json.loads(json.dumps(w.to_dict())))
    assert again.schema == w.schema
    assert len(again) == len(w)
    q = _fv([2.5, 1.0])
    assert again.predict(q, 2) == w.predict(q, 2)
    # both keep evicting alike past another wrap of the buffer
    for i in range(6, 30):
        fv = _fv([float(i % 7), float(i % 3)])
        out_w, out_again = w.add(fv, float(i + 1)), again.add(fv, float(i + 1))
        assert out_w[0].tolist() == out_again[0].tolist() and out_w[1] == out_again[1]
        assert again.predict(q, 2) == w.predict(q, 2)
        assert again.lo.tolist() == w.lo.tolist() and again.hi.tolist() == w.hi.tolist()


def test_nearest_matches_oracle_on_the_prefix_columns():
    random.seed(227)
    for _ in range(300):
        dim = random.randrange(2, 6)
        width = random.randrange(1, dim)
        n = random.randrange(1, 25)
        rows = [[float(random.randrange(0, 4)) for _ in range(dim)] for _ in range(n)]
        cap = random.choice([None, random.randrange(1, 8)])
        w = InstanceWindow(capacity=cap)
        for x in rows:
            w.add(_fv(x), 1.0)
        held = rows if cap is None else rows[-cap:]
        query = [float(random.randrange(0, 4)) for _ in range(width)]
        # a target naming each held row turns the oracle's 1-NN into an index
        named = [(np.array(x[:width]), float(i + 1)) for i, x in enumerate(held)]
        want = held[int(oracle_predict(named, query, 1)) - 1]
        assert w.nearest(_fv(query)).tolist() == want


def test_nearest_ties_go_to_the_older_row_and_it_checks_the_query():
    w = InstanceWindow()
    with pytest.raises(EmptyWindowError):
        w.nearest(_fv([0.0]))
    w.add(_fv([0.0, 5.0]), 10.0)
    w.add(_fv([2.0, 7.0]), 20.0)
    w.add(_fv([2.0, 9.0]), 30.0)  # same prefix as the second, inserted later
    assert w.nearest(_fv([2.0])).tolist() == [2.0, 7.0]
    with pytest.raises(SchemaMismatchError):
        w.nearest(FeatureVector(names=("f1",), values=(2.0,)))
    with pytest.raises(SchemaMismatchError):
        w.nearest(_fv([2.0, 7.0, 1.0]))
    with pytest.raises(SchemaMismatchError):
        w.predict(_fv([2.0]))
