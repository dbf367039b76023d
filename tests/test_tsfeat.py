"""Time-reversal asymmetry statistic and padding helpers."""

import math
import random

import numpy as np
import pytest

from wfpredict.tsfeat import TrevConfig, strip_padding, strip_padding_rows, trev, trev_rows


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


def test_trev_config_rejects_bad_lag():
    with pytest.raises(ValueError):
        TrevConfig(lag=0)


def test_trev_matches_reference_on_random_series():
    random.seed(101)
    for _ in range(300):
        n = random.randrange(0, 80)
        lag = random.randrange(1, 6)
        values = [random.gauss(0, 3) for _ in range(n)]
        got = trev(values, TrevConfig(lag=lag))
        want = reference_trev(values, lag)
        assert abs(got - want) < 1e-9


def test_trev_degenerate_cases_are_exactly_zero():
    cfg = TrevConfig(lag=2)
    assert trev([], cfg) == 0.0
    assert trev([5.0], cfg) == 0.0
    assert trev([5.0, 5.0], cfg) == 0.0  # length == lag
    assert trev([3.0] * 20, cfg) == 0.0  # constant series
    assert trev([1.0, 2.0], TrevConfig(lag=5)) == 0.0


def test_trev_rounding_level_differences_count_as_degenerate():
    # a constant series that picked up 1-ulp wobble must stay at 0
    random.seed(5)
    base = 123.456
    values = [base + k * 1e-14 * random.choice([-1, 0, 1]) for k in range(30)]
    assert trev(values, TrevConfig(lag=2)) == 0.0


def test_trev_sign_antisymmetry_under_reversal():
    random.seed(103)
    for _ in range(200):
        n = random.randrange(5, 60)
        lag = random.randrange(1, 4)
        values = [random.gauss(0, 2) for _ in range(n)]
        cfg = TrevConfig(lag=lag)
        assert abs(trev(values, cfg) + trev(values[::-1], cfg)) < 1e-9


def test_trev_invariant_under_positive_scaling_and_shift():
    random.seed(107)
    for _ in range(200):
        n = random.randrange(5, 60)
        lag = random.randrange(1, 4)
        values = [random.gauss(0, 2) for _ in range(n)]
        scale = random.uniform(0.1, 50)
        shift = random.uniform(-100, 100)
        cfg = TrevConfig(lag=lag)
        base = trev(values, cfg)
        assert abs(trev([v * scale for v in values], cfg) - base) < 1e-9
        assert abs(trev([v + shift for v in values], cfg) - base) < 1e-9


def test_trev_flips_sign_under_negation():
    values = [math.exp(0.2 * t) for t in range(25)]
    cfg = TrevConfig(lag=2)
    assert trev(values, cfg) > 0
    assert abs(trev([-v for v in values], cfg) + trev(values, cfg)) < 1e-9


def test_strip_padding_removes_trailing_zeros_only():
    assert strip_padding([1.0, 0.0, 2.0, 0.0, 0.0]) == [1.0, 0.0, 2.0]
    assert strip_padding([0.0, 0.0]) == []
    assert strip_padding([]) == []


def test_pad_strip_round_trip():
    random.seed(109)
    for _ in range(100):
        n = random.randrange(0, 20)
        values = [random.uniform(0.5, 9) for _ in range(n)]
        padded = values + [0.0] * random.randrange(0, 10)
        assert strip_padding(padded) == values


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
        cfg = TrevConfig(lag=lag)
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
        got = trev_rows(block, lengths, cfg)
        assert got.tolist() == [_trev_1d(r, lag) for r in rows]
        assert got.tolist() == [trev(r, cfg) for r in rows]
        # only the first lengths[m] values of a row count
        junk = block + (np.arange(block.shape[1]) >= lengths[:, None]) * 7.0
        assert trev_rows(junk, lengths, cfg).tolist() == got.tolist()


def _strip_loop(values):
    end = len(values)
    while end > 0 and values[end - 1] == 0.0:
        end -= 1
    return values[:end]


def test_strip_padding_rows_matches_a_loop():
    rng = random.Random(127)
    rows = [
        [rng.choice([0.0, -0.0, rng.uniform(-5, 5)]) for _ in range(rng.randrange(0, 12))]
        for _ in range(200)
    ]
    block, lengths = _ragged_block(rows)
    got = strip_padding_rows(block + 3.0 * (np.arange(block.shape[1]) >= lengths[:, None]), lengths)
    assert got.tolist() == [len(_strip_loop(r)) for r in rows]
    assert [strip_padding(r) for r in rows] == [_strip_loop(r) for r in rows]
    assert strip_padding_rows(np.zeros((0, 0)), np.zeros(0, dtype=int)).tolist() == []


def _moments_before(x, l):
    """Per row, the mean of d^2 and of d^3 over the lagged differences d."""
    d = x[:, l:] - x[:, :-l]
    return np.mean(d * d, axis=1), np.mean(d * d * d, axis=1)


def _trev_rows_before(block, lengths, cfg):
    """trev_rows as it was before its one-length fast path, kept verbatim as
    its bit-exact oracle."""
    l = cfg.lag
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
    big = np.finfo(np.float64).max
    for trial in range(400):
        cfg = TrevConfig(lag=int(rng.integers(1, 4)))
        M, width = int(rng.integers(1, 14)), int(rng.integers(0, 40))
        block = rng.lognormal(0, 2, (M, width)) * rng.choice([-1.0, 1.0], (M, width))
        kind = trial % 4
        if kind == 0:  # every row of one length, the block's width or shorter
            lengths = np.full(M, rng.integers(0, width + 1))
        elif kind == 1:  # ragged, rows of length 0 among them
            lengths = rng.integers(0, width + 1, M)
        elif kind == 2:  # one length, rows whose moments overflow
            lengths = np.full(M, width)
            block[rng.random(M) < 0.5] *= 0.5 * big / np.abs(block).max(initial=1.0)
        else:  # constant rows, some with 1-ulp wobble, and rows of zeros
            block[:] = rng.uniform(1, 900, (M, 1))
            block += rng.integers(-1, 2, (M, width)) * np.spacing(block)
            block[rng.random(M) < 0.3] = rng.choice([0.0, -0.0])
            lengths = np.full(M, width) if trial % 8 == 3 else rng.integers(0, width + 1, M)
        with np.errstate(over="ignore"):
            want = _trev_rows_before(block, lengths, cfg)
            got = trev_rows(block, lengths, cfg)
        assert got.tobytes() == want.tobytes(), trial


def test_trev_rows_rescales_rows_whose_moments_overflow():
    big = 1.7976931348623157e308
    cfg = TrevConfig(lag=2)
    rows = np.array([
        [big, -big, 0.5 * big, big, -0.25 * big, 0.0, big],
        [0.0, 1e200, -1e200, 3e200, 2e200, -5e200, 1e199],
        [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0],
    ])
    lengths = np.full(3, rows.shape[1])
    with np.errstate(all="raise"):
        out = trev_rows(rows, lengths, cfg)
    assert np.all(np.isfinite(out))
    for r in range(2):
        # the statistic does not change under scaling; 2**-1000 scales exactly
        scaled = trev_rows(rows[r:r + 1] * 2.0 ** -1000, lengths[:1], cfg)[0]
        assert out[r] != 0.0
        assert abs(out[r] - scaled) <= 1e-12 * abs(scaled)
    # a row that does not overflow keeps its own statistic bit for bit
    assert out[2] == trev(rows[2], cfg)
