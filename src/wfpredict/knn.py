"""Windowed incremental nearest-neighbor regressor (vectorised scan, FIFO window)."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .domain import FeatureVector


class EmptyWindowError(RuntimeError):
    """No training data yet; callers fall back per pipeline policy."""


class SchemaMismatchError(ValueError):
    pass


class InstanceWindow:
    """Bounded FIFO of (feature vector, runtime) instances with range-normalized
    Euclidean distance.

    The first add fixes the feature-name schema. A target is a positive
    runtime; predict returns the mean runtime of the k nearest instances, and
    nearest returns the nearest held row on a prefix of the schema. The
    per-feature min/max over the held instances normalizes distances;
    zero-range dimensions contribute nothing to distance. capacity=None means
    unbounded.

    The held instances are the rows [start, end) of one (rows, d) array, in
    arrival order. An add writes the next row; an eviction advances start.
    When the array is full, the held rows move to the front of a new array
    with room for as many again, so an add costs amortised O(d).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.schema: Optional[Tuple[str, ...]] = None
        self.lo: Optional[np.ndarray] = None
        self.hi: Optional[np.ndarray] = None
        self._X = np.empty((0, 0))
        self._y = np.empty(0)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def _check_schema(self, fv: FeatureVector):
        if self.schema is None:
            self.schema = tuple(fv.names)
            dim = len(self.schema)
            self.lo = np.full(dim, np.inf)
            self.hi = np.full(dim, -np.inf)
            self._X = np.empty((0, dim))
        elif tuple(fv.names) != self.schema:
            raise SchemaMismatchError(
                f"feature schema mismatch: {fv.names} vs window schema {self.schema}"
            )

    def _make_room(self) -> None:
        n = len(self)
        rows = max(16, 2 * n)
        X = np.empty((rows, self._X.shape[1]))
        y = np.empty(rows)
        X[:n] = self._X[self._start:self._end]
        y[:n] = self._y[self._start:self._end]
        self._X, self._y, self._start, self._end = X, y, 0, n

    def add(self, fv: FeatureVector, target: float) -> Optional[Tuple[np.ndarray, float]]:
        """Append an instance; returns the evicted oldest one when over capacity."""
        if not (target > 0 and math.isfinite(target)):
            raise ValueError(f"runtime must be positive, got {target}")
        self._check_schema(fv)
        if self._end == len(self._X):
            self._make_room()
        x = np.asarray(fv.values, dtype=float)
        self._X[self._end] = x
        self._y[self._end] = target
        self._end += 1
        self.lo = np.minimum(self.lo, x)
        self.hi = np.maximum(self.hi, x)
        if self.capacity is not None and len(self) > self.capacity:
            return self._evict()
        return None

    def _evict(self) -> Tuple[np.ndarray, float]:
        x = self._X[self._start].copy()
        y = float(self._y[self._start])
        self._start += 1
        # the evicted row may have been the only one on a bound: recompute the
        # ranges from the held rows, so an old outlier stops squashing its
        # dimension once it has left the window
        if np.any((x == self.lo) | (x == self.hi)):
            held = self._X[self._start:self._end]
            self.lo = held.min(axis=0)
            self.hi = held.max(axis=0)
        return x, y

    def ranges(self) -> np.ndarray:
        """Per column, the range of the held rows. A column is live, and moves
        a distance, only where its range is > 0. EmptyWindowError when the
        window holds no rows."""
        if not len(self):
            raise EmptyWindowError("no training instances in window")
        # a range smaller than float rounding noise on the stored values is
        # indistinguishable from a constant feature; treat it as zero-range
        # so it cannot blow up the normalized distance
        rng = self.hi - self.lo
        eps = 1e-12 * np.maximum(1.0, np.maximum(np.abs(self.lo), np.abs(self.hi)))
        return np.where(rng > eps, rng, 0.0)

    def _dist2(self, query: FeatureVector, width: Optional[int]) -> np.ndarray:
        """Squared normalized distance from the query to each held row, oldest
        first, on the schema's first width columns (all when width is None),
        which must be the query's names. All rows are scored in one expression."""
        rng = self.ranges()[:width]
        if tuple(query.names) != self.schema[:width]:
            raise SchemaMismatchError(
                f"query schema {query.names} does not match window schema {self.schema}"
            )
        live = rng > 0
        denom = np.where(live, rng, 1.0)
        q = np.asarray(query.values, dtype=float)
        d = np.where(live, (q - self._X[self._start:self._end, :width]) / denom, 0.0)
        return np.sum(d * d, axis=1)

    def predict(self, query: FeatureVector, k: int = 1) -> float:
        """Unweighted mean runtime of the k nearest stored instances; ties
        break toward the older (earlier inserted) instance."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        dist2 = self._dist2(query, None)
        if k == 1:
            chosen = [np.argmin(dist2)]
        else:
            chosen = np.argsort(dist2, kind="stable")[:k]
        targets = self._y[self._start:self._end]
        # summed one at a time in rank order, as a plain Python mean would
        return float(sum(targets[i] for i in chosen) / len(chosen))

    def nearest(self, prefix: FeatureVector) -> np.ndarray:
        """A copy of the held row nearest to prefix on the schema's first
        len(prefix.names) columns, which prefix must name; ties break toward
        the older row."""
        dist2 = self._dist2(prefix, len(prefix.names))
        return self._X[self._start + int(np.argmin(dist2))].copy()

    def to_dict(self) -> dict:
        """The held instances and ranges, which restore reads back."""
        return {
            "schema": list(self.schema) if self.schema else None,
            "lo": self.lo.tolist() if self.lo is not None else None,
            "hi": self.hi.tolist() if self.hi is not None else None,
            "rows": self._X[self._start:self._end].tolist(),
            "targets": self._y[self._start:self._end].tolist(),
        }

    def restore(self, d: dict) -> None:
        """Fill this empty window with the instances to_dict wrote."""
        if d["schema"] is not None:
            self.schema = tuple(d["schema"])
            self.lo = np.array(d["lo"], dtype=float)
            self.hi = np.array(d["hi"], dtype=float)
            self._X = np.array(d["rows"], dtype=float).reshape(-1, len(self.schema))
            self._y = np.array(d["targets"], dtype=float).reshape(-1)
            self._start, self._end = 0, len(self._X)
