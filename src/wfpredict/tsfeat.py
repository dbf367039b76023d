"""Time-reversal asymmetry feature extraction and the zero-padding length helper."""

from __future__ import annotations

import math
import sys
from typing import Sequence, Tuple

import numpy as np


def _moments(x: np.ndarray, l: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the mean of d^2 and of d^3 over the lagged differences d,
    each a sum divided by the count, as np.mean computes it."""
    d = x[:, l:] - x[:, :-l]
    d2 = d * d
    n = d.shape[1]
    return np.add.reduce(d2, 1) / n, np.add.reduce(d2 * d, 1) / n


def _length_groups(block: np.ndarray, lengths: np.ndarray, l: int):
    """For each length n > l, the rows of that length and their first n values."""
    ls = lengths.tolist()
    if ls and ls.count(ls[0]) == len(ls):
        # one length, the usual case: every row at once, with no gather
        if ls[0] > l:
            yield range(len(ls)), block[:, :ls[0]]
        return
    for n in np.unique(lengths[lengths > l]).tolist():
        rows = np.flatnonzero(lengths == n)
        yield rows.tolist(), block[rows, :n]


def trev_rows(block: np.ndarray, lengths: np.ndarray, lag: int) -> np.ndarray:
    """Time-reversal asymmetry statistic of each row's first lengths[m] values.

    mean(d^3) / mean(d^2)^1.5 over lagged differences d = x[t+lag] - x[t].
    Degenerate rows (too short, or all differences zero) yield 0.0, as do
    rows whose mean(d^2)^1.5 is below the normal range (sys.float_info.min,
    an rms difference below about 2.8e-103), where the moments lose precision.
    Differences at the float rounding level of the series (relative 1e-9)
    also count as degenerate: a constant series that picked up 1-ulp wobble
    from upstream arithmetic must not produce an O(1) statistic. A lag below
    1 raises ValueError.

    Rows of equal length are reduced together over exactly their own samples,
    so each row's statistic is bit for bit that of the row alone. The values
    are within [-B, B] (domain.B), so no moment overflows: |d|**3 <= 8 B**3.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    lengths = np.asarray(lengths)
    out = np.zeros(len(lengths))
    for rows, x in _length_groups(block, lengths, lag):
        m2, m3 = _moments(x, lag)
        scale = np.maximum.reduce(np.abs(x), 1).tolist()
        for r, a, b, s in zip(rows, m2.tolist(), m3.tolist(), scale):
            den = a ** 1.5
            if not (den < sys.float_info.min or math.sqrt(a) <= 1e-9 * s):
                out[r] = b / den
    return out


def trev(values: Sequence[float], lag: int) -> float:
    """Time-reversal asymmetry statistic of one series; see trev_rows."""
    x = np.asarray(values, dtype=float)
    return float(trev_rows(x[None, :], (x.size,), lag)[0])


def strip_padding_rows(block: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per row, the length of its first lengths[m] values without their trailing zeros."""
    lengths, n = np.asarray(lengths), block.shape[1]
    if n and (lengths == n).all() and block[:, -1].all():  # no row ends in a zero
        return lengths
    pos = np.arange(1, n + 1)
    kept = (block != 0.0) & (pos <= lengths[:, None])
    return np.maximum.reduce(np.where(kept, pos, 0), 1, initial=0)
