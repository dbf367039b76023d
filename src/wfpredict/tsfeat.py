"""Time-reversal asymmetry feature extraction and zero-padding helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TrevConfig:
    """Lag (window offset) for the asymmetry statistic."""

    lag: int = 2

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")


def _moments(x: np.ndarray, l: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the mean of d^2 and of d^3 over the lagged differences d,
    each a sum divided by the count, as np.mean computes it."""
    d = x[:, l:] - x[:, :-l]
    d2 = d * d
    n = d.shape[1]
    return np.add.reduce(d2, 1) / n, np.add.reduce(d2 * d, 1) / n


def _length_groups(block: np.ndarray, lengths: np.ndarray, l: int):
    """For each length n > l, the rows of that length and their first n values."""
    if lengths.size and (lengths == lengths[0]).all():
        # one length, the usual case: every row at once, with no gather
        if lengths[0] > l:
            yield range(len(lengths)), block[:, :lengths[0]]
        return
    for n in np.unique(lengths[lengths > l]).tolist():
        rows = np.flatnonzero(lengths == n)
        yield rows.tolist(), block[rows, :n]


def trev_rows(block: np.ndarray, lengths: np.ndarray, cfg: TrevConfig) -> np.ndarray:
    """Time-reversal asymmetry statistic of each row's first lengths[m] values.

    mean(d^3) / mean(d^2)^1.5 over lagged differences d = x[t+l] - x[t].
    Degenerate rows (too short, or all differences zero) yield 0.0.
    Differences at the float rounding level of the series (relative 1e-9)
    also count as degenerate: a constant series that picked up 1-ulp wobble
    from upstream arithmetic must not produce an O(1) statistic.

    Rows of equal length are reduced together over exactly their own samples,
    so each row's statistic is bit for bit that of the row alone. A row whose
    moments overflow (finite samples near the float64 maximum) is reduced
    again divided by its largest magnitude, which leaves the statistic as is.
    """
    l = cfg.lag
    lengths = np.asarray(lengths)
    out = np.zeros(len(lengths))
    for rows, x in _length_groups(block, lengths, l):
        with np.errstate(over="ignore", invalid="ignore"):
            m2, m3 = _moments(x, l)
            scale = np.max(np.abs(x), axis=1).tolist()
            for k, (r, a, b, s) in enumerate(zip(rows, m2.tolist(), m3.tolist(), scale)):
                if not (math.isfinite(a) and math.isfinite(b)):
                    a, b = (float(v[0]) for v in _moments(x[k:k + 1] / s, l))
                    s = 1.0
                if not (a == 0.0 or math.sqrt(a) <= 1e-9 * s):
                    out[r] = b / a ** 1.5
    return out


def trev(values: Sequence[float], cfg: TrevConfig) -> float:
    """Time-reversal asymmetry statistic of one series; see trev_rows."""
    x = np.asarray(values, dtype=float)
    return float(trev_rows(x[None, :], (x.size,), cfg)[0])


def strip_padding_rows(block: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per row, the length of its first lengths[m] values without their trailing zeros."""
    pos = np.arange(1, block.shape[1] + 1)
    kept = (block != 0.0) & (pos <= np.asarray(lengths)[:, None])
    return np.max(np.where(kept, pos, 0), axis=1, initial=0)


def strip_padding(values: Sequence[float]) -> List[float]:
    """Drop trailing zeros; interior zeros are preserved."""
    v = list(values)
    return v[:int(strip_padding_rows(np.array([v], dtype=float), (len(v),))[0])]
