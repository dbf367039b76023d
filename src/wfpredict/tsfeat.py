"""Time-reversal asymmetry feature extraction and zero-padding helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class TrevConfig:
    """Lag (window offset) for the asymmetry statistic."""

    lag: int = 2

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")


def trev_rows(block: np.ndarray, lengths: np.ndarray, cfg: TrevConfig) -> np.ndarray:
    """Time-reversal asymmetry statistic of each row's first lengths[m] values.

    mean(d^3) / mean(d^2)^1.5 over lagged differences d = x[t+l] - x[t].
    Degenerate rows (too short, or all differences zero) yield 0.0.
    Differences at the float rounding level of the series (relative 1e-9)
    also count as degenerate: a constant series that picked up 1-ulp wobble
    from upstream arithmetic must not produce an O(1) statistic.

    Rows of equal length are reduced together over exactly their own samples,
    so each row's statistic is bit for bit that of the row alone.
    """
    l = cfg.lag
    lengths = np.asarray(lengths)
    out = np.zeros(len(lengths))
    for n in np.unique(lengths[lengths > l]).tolist():
        rows = np.flatnonzero(lengths == n)
        x = block[rows, :n]
        d = x[:, l:] - x[:, :-l]
        m2 = np.mean(d * d, axis=1).tolist()
        m3 = np.mean(d * d * d, axis=1).tolist()
        scale = np.max(np.abs(x), axis=1).tolist()
        for r, a, b, s in zip(rows.tolist(), m2, m3, scale):
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
