"""Windowed nearest-neighbor regressor against a brute-force oracle."""

import json
import math
import random

import numpy as np
import pytest

from conftest import PAST_B
from wfpredict.domain import B, DomainError
from wfpredict.knn import EmptyWindowError, InstanceWindow, SchemaMismatchError


def _names(dim):
    return tuple(f"f{i}" for i in range(dim))


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
    w = InstanceWindow(_names(1))
    with pytest.raises(EmptyWindowError):
        w.predict([1.0])


def test_schema_fixed_at_construction():
    w = InstanceWindow(_names(2))
    assert w.schema == ("f0", "f1")
    # a row is one flat sequence, as wide as the schema
    with pytest.raises(SchemaMismatchError):
        w.add([[1.0, 2.0]], 5.0)
    assert len(w) == 0


def test_rejects_bad_inputs():
    w = InstanceWindow(_names(1))
    with pytest.raises(ValueError):
        InstanceWindow(_names(1), capacity=0)
    with pytest.raises(ValueError):
        w.add([1.0], 0.0)
    w.add([1.0], 2.0)
    with pytest.raises(ValueError):
        w.predict([1.0], k=0)


def test_single_instance_always_wins():
    w = InstanceWindow(_names(2))
    w.add([3.0, 4.0], 17.0)
    assert w.predict([100.0, -100.0]) == 17.0


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
        w = InstanceWindow(_names(dim), capacity=cap)
        for x, r in instances:
            w.add(x.tolist(), r)
        query = [float(random.randrange(0, 4)) for _ in range(dim)]
        k = random.randrange(1, 6)
        # a bounded window holds, and takes its ranges from, the last cap instances
        held = instances if cap is None else instances[-cap:]
        assert w.predict(query, k) == oracle_predict(held, query, k)


def test_tie_break_prefers_older_instance():
    w = InstanceWindow(_names(1))
    w.add([0.0], 10.0)
    w.add([2.0], 20.0)
    w.add([2.0], 30.0)  # same point as the second, inserted later
    assert w.predict([2.0], k=1) == 20.0


def test_k_larger_than_window_means_global_mean():
    w = InstanceWindow(_names(1))
    for v, r in ((0.0, 10.0), (1.0, 20.0), (2.0, 60.0)):
        w.add([v], r)
    assert w.predict([0.0], k=50) == 30.0


def test_fifo_eviction_after_capacity():
    cap = 5
    w = InstanceWindow(_names(1), capacity=cap)
    evicted = []
    for i in range(cap + 3):
        out = w.add([float(i)], float(i + 1))
        if out is not None:
            evicted.append(out)
    assert len(w) == cap
    kept = [x[0] for x in w.to_dict()["rows"]]
    assert kept == [3.0, 4.0, 5.0, 6.0, 7.0]
    assert [x[0] for x, _ in evicted] == [0.0, 1.0, 2.0]


def test_zero_range_dimension_is_ignored():
    w = InstanceWindow(_names(2))
    w.add([5.0, 1.0], 10.0)
    w.add([5.0, 9.0], 50.0)
    # first dim constant: only the second decides the neighbor
    assert w.predict([-1000.0, 8.9], k=1) == 50.0


def test_rounding_level_range_counts_as_zero():
    w = InstanceWindow(_names(2))
    w.add([1.0, 1.0], 10.0)
    w.add([1.0 + 1e-15, 2.0], 50.0)
    # the first dimension's spread is float noise; it must not dominate
    assert w.predict([0.5, 2.0], k=1) == 50.0


@pytest.mark.parametrize("query_width", [None, 1])
def test_a_range_of_2b_ranks_every_distance_and_a_value_past_b_is_refused(query_width):
    """Values at -B and B, the domain bound, span 2B, which a float64 holds: the
    row equal to the query ranks first, and no query warns (warnings are errors
    in the pytest configuration). With query_width 1 the second column completes
    the query from the nearest row. A value past B, in a row or a query, is
    refused where it enters, naming its column and B, and changes nothing."""
    dim = 1 if query_width is None else 2
    w = InstanceWindow(_names(dim), query_width=query_width)
    w.add([B] * dim, 1.0)
    w.add([-B] * dim, 2.0)
    assert w.predict([B], k=1) == 1.0
    assert w.predict([-B], k=1) == 2.0
    w.add([0.0] * dim, 3.0)  # halfway: nearer to either end than the ends are to each other
    assert w.predict([0.6 * B], k=1) == 1.0  # 0.4B from the first row, 0.6B from this
    assert w.predict([B], k=2) == 2.0
    assert w.predict([-B], k=2) == 2.5
    assert w.ranges().tolist() == [2 * B] * dim
    state = (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes())
    for bad in (PAST_B, -PAST_B, 1e308):
        with pytest.raises(DomainError, match=r"^f0 .* is outside \[-B, B\], B = 2\*\*64$"):
            w.add([bad] * dim, 4.0)
        with pytest.raises(DomainError, match=r"^f0 .* is outside \[-B, B\]"):
            w.predict([bad])
    assert (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes()) == state


def test_a_column_of_range_2b_weighs_its_differences_by_its_whole_range():
    """Its terms are (q - x) / (hi - lo) as for any column: against the
    second column's, they pick row 2 (terms 0 + 0.5625) over row 1 (1 + 0.0625)."""
    w = InstanceWindow(_names(2))
    for row, runtime in (([B, 0.0], 1.0), ([-B, 4.0], 2.0), ([0.0, 4.0], 3.0)):
        w.add(row, runtime)
    assert w.predict([-B, 1.0], k=1) == 2.0
    assert w.predict([B, 3.0], k=1) == 3.0


def test_prediction_invariant_under_affine_feature_rescaling():
    random.seed(223)
    for _ in range(50):
        n = random.randrange(2, 15)
        pts = [(random.uniform(-5, 5), random.uniform(-5, 5)) for _ in range(n)]
        runtimes = [float(random.randrange(1, 30)) for _ in range(n)]
        a = InstanceWindow(_names(2))
        b = InstanceWindow(_names(2))
        scale, shift = random.uniform(0.5, 20), random.uniform(-40, 40)
        for (x, y), r in zip(pts, runtimes):
            a.add([x, y], r)
            b.add([x * scale + shift, y], r)
        qx, qy = random.uniform(-5, 5), random.uniform(-5, 5)
        k = random.randrange(1, 4)
        pa = a.predict([qx, qy], k)
        pb = b.predict([qx * scale + shift, qy], k)
        assert abs(pa - pb) < 1e-9


def test_serialization_round_trip():
    w = InstanceWindow(_names(2), capacity=4)
    for i in range(6):
        w.add([float(i), float(i % 2)], float(i + 1))
    again = InstanceWindow(_names(2), capacity=4)
    again.restore(json.loads(json.dumps(w.to_dict())))
    assert again.schema == w.schema
    assert len(again) == len(w)
    assert again.lo.tolist() == w.lo.tolist() and again.hi.tolist() == w.hi.tolist()
    q = [2.5, 1.0]
    assert again.predict(q, 2) == w.predict(q, 2)
    # both keep evicting alike past another wrap of the buffer
    for i in range(6, 30):
        row = [float(i % 7), float(i % 3)]
        out_w, out_again = w.add(row, float(i + 1)), again.add(row, float(i + 1))
        assert out_w[0].tolist() == out_again[0].tolist() and out_w[1] == out_again[1]
        assert again.predict(q, 2) == w.predict(q, 2)
        assert again.lo.tolist() == w.lo.tolist() and again.hi.tolist() == w.hi.tolist()


def test_restoring_an_empty_window_leaves_its_ranges_unset():
    again = InstanceWindow(_names(2))
    again.restore(json.loads(json.dumps(InstanceWindow(_names(2)).to_dict())))
    assert len(again) == 0 and again._X.shape == (0, 2)
    assert again.lo.tolist() == [math.inf] * 2 and again.hi.tolist() == [-math.inf] * 2
    again.add([1.0, 2.0], 3.0)
    assert again.lo.tolist() == again.hi.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("payload", [
    {"rows": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], "targets": [1.0]},
    {"rows": [], "targets": [1.0]},
    {"rows": [[1.0, 2.0, 3.0]], "targets": [1.0]},
    {"rows": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "targets": [1.0, 2.0, 3.0]},
    {"rows": [[1.0, 2.0], [3.0]], "targets": [1.0, 2.0]},
    {"rows": [[[1.0, 2.0]]], "targets": [1.0]},
    {"rows": [[[1.0], [2.0]]], "targets": [1.0]},
    {"rows": [[1.0, 2.0]], "targets": [[1.0]]},
    {"rows": [[math.nan, 2.0]], "targets": [1.0]},
    {"rows": [[1.0, math.inf]], "targets": [1.0]},
    {"rows": [[1.0, 2.0]], "targets": [0.0]},
    {"rows": [[1.0, 2.0]], "targets": [-1.0]},
    {"rows": [[1.0, 2.0]], "targets": [math.inf]},
    {"rows": [[1.0, PAST_B]], "targets": [1.0]},
    {"rows": [[-1e308, 2.0]], "targets": [1.0]},
    {"rows": [[1.0, 2.0]], "targets": [PAST_B]},
])
def test_restore_rejects_what_add_would_refuse(payload):
    w = InstanceWindow(_names(2))
    w.add([7.0, 8.0], 9.0)
    state = (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes())
    with pytest.raises(ValueError):
        w.restore(payload)
    assert (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes()) == state


_BAD_INSTANCES = [
    ([1.0, 2.0, 3.0], 1.0, SchemaMismatchError),
    ([1.0], 1.0, SchemaMismatchError),
    ([math.nan, 2.0], 1.0, DomainError),
    ([1.0, math.inf], 1.0, DomainError),
    ([-math.inf, 2.0], 1.0, DomainError),
    ([1.0, 2.0], 0.0, ValueError),
    ([1.0, 2.0], -1.0, ValueError),
    ([1.0, 2.0], math.inf, ValueError),
    ([1.0, 2.0], math.nan, ValueError),
    ([PAST_B, 2.0], 1.0, DomainError),
    ([1.0, -1e308], 1.0, DomainError),
    ([1.0, 2.0], PAST_B, ValueError),
]


@pytest.mark.parametrize("row, target, error", _BAD_INSTANCES)
@pytest.mark.parametrize("held", [0, 2])
def test_add_refuses_what_restore_refuses_and_changes_nothing(row, target, error, held):
    """An add of a row of another width, of a value outside [-B, B] or of a
    target that is not a runtime in (0, B] raises before it touches the
    window: rows, bounds and a cached normalization stay, and a full window
    evicts nothing. restore refuses the same instance."""
    w = InstanceWindow(_names(2), capacity=2)
    for i in range(held):
        w.add([float(i), 10.0 * i], float(i + 1))
    norm = w._normalization() if held else None
    state = (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes())
    with pytest.raises(error):
        w.add(row, target)
    assert (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes()) == state
    assert w._norm is norm
    with pytest.raises(ValueError):
        InstanceWindow(_names(2)).restore({"rows": [row], "targets": [target]})


@pytest.mark.parametrize("width", [None, 1])
def test_predict_refuses_a_query_of_another_width_or_past_b(width):
    w = InstanceWindow(_names(2), query_width=width)
    w.add([0.0, 5.0], 10.0)
    w.add([1.0, 6.0], 20.0)
    query = [0.9, 5.9][:w.query_width]
    want = w.predict(query)
    norm = w._normalization()
    state = (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes())
    for bad in (query + [1.0], query[:-1], [query]):
        with pytest.raises(SchemaMismatchError):
            w.predict(bad)
    for value in (math.nan, math.inf, -math.inf, PAST_B, -1e308):
        with pytest.raises(DomainError, match=r"^f0 .* is outside \[-B, B\], B = 2\*\*64$"):
            w.predict([value] + query[1:])
    assert (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes()) == state
    assert w._norm is norm
    assert w.predict(query) == want == 20.0


def test_prefix_query_matches_the_oracle_completed_from_the_nearest_row():
    random.seed(227)
    for _ in range(300):
        dim = random.randrange(2, 6)
        width = random.randrange(1, dim)
        n = random.randrange(1, 25)
        # coarse grid values make exact distance ties common, on both stages
        instances = [
            ([float(random.randrange(0, 4)) for _ in range(dim)], float(random.randrange(1, 50)))
            for _ in range(n)
        ]
        cap = random.choice([None, random.randrange(1, 8)])
        w = InstanceWindow(_names(dim), capacity=cap, query_width=width)
        for x, r in instances:
            w.add(x, r)
        held = instances if cap is None else instances[-cap:]
        query = [float(random.randrange(0, 4)) for _ in range(width)]
        # a target naming each held row turns the oracle's 1-NN into an index
        named = [(np.array(x[:width]), float(i + 1)) for i, (x, _) in enumerate(held)]
        nearest = held[int(oracle_predict(named, query, 1)) - 1]
        assert w.predict(query, 1) == nearest[1]
        completed = query + nearest[0][width:]
        for k in (1, 3, 5):
            got = w.predict(query, k)
            assert got.hex() == oracle_predict(held, completed, k).hex()


def _full_scan(w, query, k):
    """The two-stage answer by the full scan, as predict made it at every k
    before it answered k == 1 from stage 1: the query completed from the
    stage-1 row, then where(live, (qc - X) / denom, 0.0), then the row sums of
    a fresh contiguous array. The normalization is rebuilt from the held rows."""
    held, targets = np.array(w.to_dict()["rows"]), w.to_dict()["targets"]
    lo, hi = held.min(axis=0), held.max(axis=0)
    rng = hi - lo
    eps = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    live = np.where(rng > eps, rng, 0.0) > 0
    denom = np.where(live, rng, 1.0)
    q = np.array(query)
    width = len(q)
    prefix = np.where(live[:width], (q - held[:, :width]) / denom[:width], 0.0)
    j = np.add.reduce(prefix * prefix, axis=1).argmin()
    diff = np.where(live, (np.concatenate((q, held[j, width:])) - held) / denom, 0.0)
    chosen = np.add.reduce(diff * diff, axis=1).argsort(kind="stable")[:k]
    return float(sum(targets[i] for i in chosen) / len(chosen))


def test_a_k1_two_stage_answer_is_the_full_scans_bit_for_bit():
    """8-column queries over the schema widths selected_metrics can give,
    against the full scan: real rows over several magnitudes, sigmas reused
    for exact stage-1 ties, a dead column, and evictions."""
    rng = np.random.default_rng(29)

    def sigma():
        row = rng.choice([-1.0, 1.0], 8) * rng.random(8) * 10.0 ** rng.integers(-3, 7, 8)
        row[3] = 4.0  # a dead column: every row holds the same value
        return row.tolist()

    answers = 0
    for dim in (9, 13, 21):
        for cap in (None, 5, 40):
            w = InstanceWindow(_names(dim), capacity=cap, query_width=8)
            sigmas = []
            for _ in range(80):
                reuse = sigmas and rng.random() < 0.3
                sigmas.append(sigmas[rng.integers(len(sigmas))] if reuse else sigma())
                aggs = rng.random(dim - 8) * 10.0 ** rng.integers(-9, 9, dim - 8)
                w.add(sigmas[-1] + aggs.tolist(), float(rng.random() * 10.0 ** rng.integers(0, 4)))
                for _ in range(3):
                    query = sigmas[rng.integers(len(sigmas))] if rng.random() < 0.4 else sigma()
                    assert w.predict(query, 1).hex() == _full_scan(w, query, 1).hex()
                    assert w.predict(query, 3).hex() == _full_scan(w, query, 3).hex()
                    answers += 1
    assert answers == 3 * 3 * 80 * 3


def test_a_zero_padded_8_term_row_sum_keeps_its_bits():
    """The premise of predict's k == 1 answer: numpy adds a row of 8 or more
    terms in 8 partial sums, so zeros after 8 terms change no bit. A numpy
    release that regroups its pairwise sum fails here, not in a replay."""
    rng = np.random.default_rng(8)
    terms = rng.random((20000, 8)) * 10.0 ** rng.integers(-6, 6, (20000, 8))
    want = np.add.reduce(terms, axis=1).tobytes()
    for dim in range(9, 31):
        padded = np.zeros((len(terms), dim))
        padded[:, :8] = terms
        assert np.add.reduce(padded, axis=1).tobytes() == want, dim


def test_prefix_ties_go_to_the_older_row_and_it_checks_the_query():
    w = InstanceWindow(_names(3), query_width=2)
    with pytest.raises(EmptyWindowError):
        w.predict([0.0, 5.0])
    w.add([0.0, 5.0, 1.0], 10.0)
    w.add([2.0, 7.0, 4.0], 20.0)
    w.add([2.0, 7.0, 9.0], 30.0)  # same prefix as the second, inserted later
    assert w.predict([2.0, 7.0]) == 20.0
    # completed from the second row, the query is nearer the third than the first
    assert w.predict([2.0, 7.0], k=2) == 25.0
    for query in ([2.0], [2.0, 7.0, 4.0]):
        with pytest.raises(SchemaMismatchError):
            w.predict(query)
    for width in (0, 4):
        with pytest.raises(ValueError):
            InstanceWindow(_names(3), query_width=width)
    w = InstanceWindow(_names(2))
    w.add([0.0, 5.0], 10.0)
    with pytest.raises(SchemaMismatchError):
        w.predict([2.0])


def test_cached_normalization_follows_every_change_of_the_rows():
    """Random adds (evicting at capacity), evictions, restores and queries:
    after each step the window must rank and predict as a fresh one restored
    from its rows, and queries must change nothing."""
    rng = random.Random(229)
    for _ in range(80):
        dim = rng.randrange(2, 5)
        width = rng.randrange(1, dim + 1)
        cap = rng.choice([None, rng.randrange(1, 8)])

        def window():
            return InstanceWindow(_names(dim), cap, width)

        def row():
            return [float(rng.randrange(0, 4)) for _ in range(dim)]

        w = window()
        for _ in range(40):
            op = rng.random()
            if op < 0.55:
                w.add(row(), float(rng.randrange(1, 50)))
            elif op < 0.7 and len(w) >= 2:
                w._evict()
            elif op < 0.8:
                other = window()
                for _ in range(rng.randrange(0, 10)):
                    other.add(row(), float(rng.randrange(1, 50)))
                w.restore(json.loads(json.dumps(other.to_dict())))
            fresh = window()
            fresh.restore(json.loads(json.dumps(w.to_dict())))
            state = (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes())
            if not len(w):
                with pytest.raises(EmptyWindowError):
                    w.ranges()
                continue
            for _ in range(3):
                assert w.ranges().tobytes() == fresh.ranges().tobytes()
                query, k = row()[:width], rng.randrange(1, 6)
                assert w.predict(query, k).hex() == fresh.predict(query, k).hex()
            assert (json.dumps(w.to_dict()), w.lo.tobytes(), w.hi.tobytes()) == state


def test_normalization_is_kept_until_a_bound_moves():
    """Adds inside the bounds keep the cached normalization, the same tuple
    object; an add past a bound, the eviction of the only row on a bound and
    a restore each give a new one. Evicting a row whose bound another row
    still holds keeps it."""
    w = InstanceWindow(_names(2), capacity=6)
    w.add([0.0, 10.0], 1.0)
    w.add([4.0, 20.0], 2.0)
    norm = w._normalization()
    for row in ([1.0, 12.0], [1.5, 13.0], [2.0, 14.0]):  # strictly inside the bounds
        w.add(row, 3.0)
        assert w._normalization() is norm
    w.add([2.0, 25.0], 4.0)  # past hi[1]; the window is now full
    assert w._normalization() is not norm
    norm = w._normalization()
    w.add([3.0, 13.0], 5.0)  # evicts [0, 10], the only row on lo
    assert w.lo.tolist() == [1.0, 12.0]
    assert w._normalization() is not norm
    norm = w._normalization()
    w.add([1.0, 12.0], 6.0)  # evicts [4, 20], the only row on hi[0]
    assert w.hi.tolist() == [3.0, 25.0]
    assert w._normalization() is not norm
    norm = w._normalization()
    w.add([2.0, 14.0], 7.0)  # evicts [1, 12]; the row added before holds lo too
    assert w.lo.tolist() == [1.0, 12.0]
    assert w._normalization() is norm
    w.restore(w.to_dict())  # the same rows: a restore always drops the cache
    assert w._normalization() is not norm


def test_a_restore_of_rows_computes_the_normalization_and_of_none_does_not():
    """So the first query after a load costs what the queries after it do."""
    w = InstanceWindow(_names(2))
    w.add([0.0, 10.0], 1.0)
    w.add([4.0, 10.0], 2.0)
    again = InstanceWindow(_names(2))
    again.restore(w.to_dict())
    assert again._norm is not None and again.ranges().tolist() == w.ranges().tolist() == [4.0, 0.0]
    again.restore(InstanceWindow(_names(2)).to_dict())
    assert again._norm is None and len(again) == 0
