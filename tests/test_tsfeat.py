"""Time-reversal asymmetry statistic."""

import math
import random

import numpy as np
import pytest

from wfpredict.domain import B
from wfpredict.tsfeat import trev, trev_rows


def reference_trev(values, lag):
    """Plain-loop evaluation of the statistic, kept independent of the library."""
    diffs = [values[t + lag] - values[t] for t in range(len(values) - lag)]
    if not diffs:
        return 0.0
    m2 = sum(d * d for d in diffs) / len(diffs)
    if m2 == 0.0:
        return 0.0
    m3 = sum(d ** 3 for d in diffs) / len(diffs)
    return m3 / m2 ** 1.5


def test_trev_rejects_a_lag_below_one():
    with pytest.raises(ValueError, match="lag must be >= 1"):
        trev([1.0, 3.0, 2.0], 0)


def test_trev_matches_reference_on_random_series():
    random.seed(101)
    for _ in range(300):
        n = random.randrange(0, 80)
        lag = random.randrange(1, 6)
        values = [random.gauss(0, 3) for _ in range(n)]
        got = trev(values, lag)
        want = reference_trev(values, lag)
        assert abs(got - want) < 1e-9


def test_trev_degenerate_cases_are_exactly_zero():
    assert trev([], 2) == 0.0
    assert trev([5.0], 2) == 0.0
    assert trev([5.0, 5.0], 2) == 0.0  # length == lag
    assert trev([3.0] * 20, 2) == 0.0  # constant series
    assert trev([1.0, 2.0], 5) == 0.0


def test_trev_rounding_level_differences_count_as_degenerate():
    # a constant series that picked up 1-ulp wobble must stay at 0
    random.seed(5)
    base = 123.456
    values = [base + k * 1e-14 * random.choice([-1, 0, 1]) for k in range(30)]
    assert trev(values, 2) == 0.0


def test_trev_sign_antisymmetry_under_reversal():
    random.seed(103)
    for _ in range(200):
        n = random.randrange(5, 60)
        lag = random.randrange(1, 4)
        values = [random.gauss(0, 2) for _ in range(n)]
        assert abs(trev(values, lag) + trev(values[::-1], lag)) < 1e-9


def test_trev_invariant_under_positive_scaling_and_shift():
    random.seed(107)
    for _ in range(200):
        n = random.randrange(5, 60)
        lag = random.randrange(1, 4)
        values = [random.gauss(0, 2) for _ in range(n)]
        scale = random.uniform(0.1, 50)
        shift = random.uniform(-100, 100)
        base = trev(values, lag)
        assert abs(trev([v * scale for v in values], lag) - base) < 1e-9
        assert abs(trev([v + shift for v in values], lag) - base) < 1e-9


def test_trev_flips_sign_under_negation():
    values = [math.exp(0.2 * t) for t in range(25)]
    assert trev(values, 2) > 0
    assert abs(trev([-v for v in values], 2) + trev(values, 2)) < 1e-9


def _trev_1d(values, lag):
    """The one-series numpy form of the statistic, which trev_rows must
    reproduce bit for bit: a 1-D mean over exactly the series' differences."""
    x = np.asarray(values, dtype=float)
    if x.size <= lag:
        return 0.0
    d = x[lag:] - x[:-lag]
    m2 = float(np.mean(d * d))
    if m2 == 0.0 or math.sqrt(m2) <= 1e-9 * float(np.max(np.abs(x))):
        return 0.0
    return float(np.mean(d * d * d)) / m2 ** 1.5


def _ragged_block(rows):
    """rows as a zero-padded block and their lengths."""
    lengths = np.array([len(r) for r in rows])
    block = np.zeros((len(rows), max(lengths, default=0)))
    for m, r in enumerate(rows):
        block[m, :len(r)] = r
    return block, lengths


def test_trev_rows_equals_one_series_trev_bit_for_bit():
    rng = random.Random(113)
    for lag in (1, 2, 3):
        rows = []
        for _ in range(60):
            n = rng.choice([0, 1, lag, lag + 1, rng.randrange(0, 40), rng.randrange(200, 320)])
            kind = rng.randrange(3)
            if kind == 0:
                rows.append([rng.lognormvariate(0, 2) for _ in range(n)])
            elif kind == 1:  # constant
                rows.append([rng.uniform(1, 9)] * n)
            else:  # a constant with 1-ulp wobble
                base = rng.uniform(1, 900)
                rows.append([base + k * math.ulp(base) * rng.choice([-1, 0, 1]) for k in range(n)])
        block, lengths = _ragged_block(rows)
        got = trev_rows(block, lengths, lag)
        assert got.tolist() == [_trev_1d(r, lag) for r in rows]
        assert got.tolist() == [trev(r, lag) for r in rows]
        # only the first lengths[m] values of a row count
        junk = block + (np.arange(block.shape[1]) >= lengths[:, None]) * 7.0
        assert trev_rows(junk, lengths, lag).tolist() == got.tolist()


def _moments_before(x, l):
    """Per row, the mean of d^2 and of d^3 over the lagged differences d."""
    d = x[:, l:] - x[:, :-l]
    return np.mean(d * d, axis=1), np.mean(d * d * d, axis=1)


def _trev_rows_before(block, lengths, lag):
    """trev_rows as it was before its one-length fast path, kept verbatim as
    its bit-exact oracle."""
    l = lag
    lengths = np.asarray(lengths)
    out = np.zeros(len(lengths))
    for n in np.unique(lengths[lengths > l]).tolist():
        rows = np.flatnonzero(lengths == n)
        x = block[rows, :n]
        with np.errstate(over="ignore", invalid="ignore"):
            m2, m3 = _moments_before(x, l)
            scale = np.max(np.abs(x), axis=1).tolist()
            for k, (r, a, b, s) in enumerate(zip(rows.tolist(), m2.tolist(), m3.tolist(), scale)):
                if not (math.isfinite(a) and math.isfinite(b)):
                    a, b = (float(v[0]) for v in _moments_before(x[k:k + 1] / s, l))
                    s = 1.0
                if not (a == 0.0 or math.sqrt(a) <= 1e-9 * s):
                    out[r] = b / a ** 1.5
    return out


def test_trev_rows_matches_its_grouping_oracle_bit_for_bit():
    rng = np.random.default_rng(131)
    for trial in range(400):
        lag = int(rng.integers(1, 4))
        M, width = int(rng.integers(1, 14)), int(rng.integers(0, 40))
        block = rng.lognormal(0, 2, (M, width)) * rng.choice([-1.0, 1.0], (M, width))
        kind = trial % 4
        if kind == 0:  # every row of one length, the block's width or shorter
            lengths = np.full(M, rng.integers(0, width + 1))
        elif kind == 1:  # ragged, rows of length 0 among them
            lengths = rng.integers(0, width + 1, M)
        elif kind == 2:  # one length, rows scaled up to the domain bound B
            lengths = np.full(M, width)
            block[rng.random(M) < 0.5] *= B / np.abs(block).max(initial=1.0)
        else:  # constant rows, some with 1-ulp wobble, and rows of zeros
            block[:] = rng.uniform(1, 900, (M, 1))
            block += rng.integers(-1, 2, (M, width)) * np.spacing(block)
            block[rng.random(M) < 0.3] = rng.choice([0.0, -0.0])
            lengths = np.full(M, width) if trial % 8 == 3 else rng.integers(0, width + 1, M)
        want = _trev_rows_before(block, lengths, lag)
        with np.errstate(all="raise", under="ignore"):
            got = trev_rows(block, lengths, lag)
        assert got.tobytes() == want.tobytes(), trial


def test_trev_rows_of_rows_at_the_domain_bound_do_not_overflow():
    """Values within [-B, B] give lagged differences of at most 2B, whose cubes,
    at most 8B**3, and their sums stay far below the float64 maximum: no
    operation raises, and each statistic is that of the row scaled down. A
    sample past B never reaches trev_rows; SeriesBlock refuses it
    (test_domain's test_a_sample_past_b_is_refused_naming_its_series_and_b)."""
    rows = np.array([
        [B, -B, 0.5 * B, B, -0.25 * B, 0.0, B],
        [0.0, 1e18, -1e18, 3e18, 2e18, -5e18, 1e17],
        [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0],
    ])
    lengths = np.full(3, rows.shape[1])
    with np.errstate(all="raise"):
        out = trev_rows(rows, lengths, 2)
    assert np.all(np.isfinite(out))
    for r in range(2):
        # the statistic does not change under scaling; 2**-60 scales exactly
        scaled = trev_rows(rows[r:r + 1] * 2.0 ** -60, lengths[:1], 2)[0]
        assert out[r] != 0.0
        assert abs(out[r] - scaled) <= 1e-12 * abs(scaled)
    # a row that does not overflow keeps its own statistic bit for bit
    assert out[2] == trev(rows[2], 2)


def test_trev_rows_of_rows_whose_moments_underflow_read_zero():
    """Samples 1e-110 to 5e-110 give a mean(d^2) near 1e-220, whose power 1.5
    underflows to 0.0 while its square root passes the rounding-level test:
    such a row once raised ZeroDivisionError, and now reads 0.0, as a
    degenerate row does. A row scaled by 2**-330, whose power 1.5 does not
    underflow, keeps the statistic of the row unscaled, and a row beside the
    tiny one keeps its own statistic bit for bit."""
    tiny = [1e-110, 3e-110, 5e-110, 2e-110, 4e-110]
    assert trev(tiny, 1) == trev(tiny, 2) == 0.0
    rows = np.array([tiny, [1.0, 4.0, 2.0, 8.0, 5.0], [v * 2.0 ** -330 for v in (1, 4, 2, 8, 5)]])
    out = trev_rows(rows, np.full(3, 5), 2)
    assert out[0] == 0.0
    assert out[1] == trev(rows[1], 2) != 0.0
    assert out[2] == pytest.approx(out[1], rel=1e-12)


def test_trev_of_a_series_scaled_toward_underflow_reads_its_own_value_or_zero():
    """The statistic does not change under scaling. Scaled by 10**-k, for
    every k in 0..330, a series reads within 1e-12 of its unscaled value while
    its mean(d^2)**1.5 is a normal float, and 0.0 from k = 104 on, where it is
    not: subnormal moments once read up to 1.4545 for k = 105 to 108."""
    x = [1.0, 3.0, 5.0, 2.0, 4.0, 9.0, 1.5]
    want = trev(x, 2)
    got = [trev([v * 10.0 ** -k for v in x], 2) for k in range(331)]
    assert got[:104] == pytest.approx([want] * 104, rel=1e-12)
    assert got[104:] == [0.0] * 227
