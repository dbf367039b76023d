"""Windowed incremental nearest-neighbor regressor (vectorised scan, FIFO window)."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .domain import B, check_within_b


class EmptyWindowError(RuntimeError):
    """A read of a window without rows; each window in a registry holds one."""


class SchemaMismatchError(ValueError):
    """A row or query of another width than the window's."""


class InstanceWindow:
    """Bounded FIFO of (row, runtime) instances with range-normalized
    Euclidean distance.

    The schema, the names of a row's columns, is fixed at construction. A row
    is a sequence of floats in [-B, B] (domain.B) in schema order, and a target
    a runtime in (0, B]; predict returns the mean runtime of the k nearest
    instances. A query holds the schema's first query_width columns (all when
    None); a narrower query is completed from the held row nearest to it on
    those columns, which is how two_stages reads its aggregates; at k == 1
    that row is the answer (see predict). The per-feature min/max over the
    held instances normalizes distances; zero-range dimensions contribute
    nothing to distance. capacity=None means unbounded.

    The held instances are the rows [start, end) of one (rows, d) array, in
    arrival order. An add writes the next row; an eviction advances start.
    When the array is full, the held rows move to the front of a new array
    with room for as many again, so an add costs amortised O(d). The
    normalization is computed by a restore of rows, and by the first query
    after an add or an eviction changes lo or hi, and kept until one changes
    again; it is never saved.
    """

    def __init__(self, schema: Sequence[str], capacity: Optional[int] = None,
                 query_width: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.schema: Tuple[str, ...] = tuple(schema)
        dim = len(self.schema)
        if query_width is not None and not 1 <= query_width <= dim:
            raise ValueError(f"query_width must be in [1, {dim}] or None, got {query_width}")
        self.query_width = dim if query_width is None else query_width
        self.lo = np.full(dim, np.inf)
        self.hi = np.full(dim, -np.inf)
        self._X = np.empty((0, dim))
        self._y = np.empty(0)
        self._start = 0
        self._end = 0
        # (ranges, live, denom) of the held rows; None until a query needs it
        self._norm: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return self._end - self._start

    def _make_room(self) -> None:
        n = len(self)
        rows = max(16, 2 * n)
        X = np.empty((rows, self._X.shape[1]))
        y = np.empty(rows)
        X[:n] = self._X[self._start:self._end]
        y[:n] = self._y[self._start:self._end]
        self._X, self._y, self._start, self._end = X, y, 0, n

    def _checked(self, values: Sequence[float], width: int) -> np.ndarray:
        """values as a float array; SchemaMismatchError unless width wide, and
        DomainError, naming its column, for one outside [-B, B]."""
        x = np.asarray(values, dtype=float)
        if x.shape != (width,):
            raise SchemaMismatchError(
                f"values of shape {x.shape} for the {width} columns {self.schema[:width]}"
            )
        if not sum(map(abs, values)) <= B:  # check_within_b's own test, saving a call a query
            check_within_b(values, self.schema)
        return x

    def add(self, row: Sequence[float], target: float) -> Optional[Tuple[np.ndarray, float]]:
        """Append an instance; returns the evicted oldest one when over capacity.
        Refuses, with the window unchanged, what restore would refuse."""
        if not 0 < target <= B:
            raise ValueError(f"runtime must be in (0, B], B = 2**64, got {target}")
        x = self._checked(row, len(self.schema))
        if self._end == len(self._X):
            self._make_room()
        self._X[self._end] = x
        self._y[self._end] = target
        self._end += 1
        self._bound(np.minimum(self.lo, x), np.maximum(self.hi, x))
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
            self._bound(held.min(axis=0), held.max(axis=0))
        return x, y

    def _bound(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Take new bounds. The normalization is a function of their bits, so
        a cached one is dropped only when a bit moves; comparing bytes, not
        values, keeps a 0.0 bound that becomes -0.0 a change."""
        if self._norm is not None and (
            lo.tobytes() != self.lo.tobytes() or hi.tobytes() != self.hi.tobytes()
        ):
            self._norm = None
        self.lo, self.hi = lo, hi

    def _normalization(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ranges(), its live mask and its denominators (1.0 where dead)."""
        if self._norm is None:
            if not len(self):
                raise EmptyWindowError("no training instances in window")
            mag = np.maximum(self.hi, -self.lo)  # max(|lo|, |hi|), as lo <= hi
            rng = self.hi - self.lo  # at most 2B
            # a range smaller than float rounding noise on the stored values is
            # indistinguishable from a constant feature; treat it as zero-range
            # so it cannot blow up the normalized distance
            eps = 1e-12 * np.maximum(1.0, mag)
            rng = np.where(rng > eps, rng, 0.0)
            rng.flags.writeable = False  # ranges() hands it out
            live = rng > 0
            self._norm = (rng, live, np.where(live, rng, 1.0))
        return self._norm

    def ranges(self) -> np.ndarray:
        """Per column, the range of the held rows. A column is live, and moves
        a distance, only where its range is > 0. EmptyWindowError when the
        window holds no rows."""
        return self._normalization()[0]

    def predict(self, query: Sequence[float], k: int = 1) -> float:
        """Unweighted mean runtime of the k nearest stored instances; ties
        break toward the older (earlier inserted) instance. A narrower query
        takes its other columns from the row nearest to it on its own, whose
        normalized differences are the first columns of the full ones.

        At k == 1 a narrower query returns the runtime of that stage-1 row j,
        the first argmin of the prefix sums, without the full scan. For a
        query of 8 columns, as two_stages makes, and a schema of at most 128,
        this is the answer the full scan gives, bit for bit:
        - j's completion terms are exact zeros, and numpy's pairwise row sum
          adds 8 or more terms as 8 partial sums, term i into sum i mod 8,
          so j's full distance is its stage-1 sum;
        - every other row's full distance is at least its own stage-1 sum,
          as its completion terms are >= 0 and rounded addition is monotone;
        - a row older than j has a stage-1 sum strictly larger than j's, or
          argmin would have taken it, so the full argmin is j too.
        No term is NaN, as every value is within B. The padding argument
        fails at query widths 4-7, whose stage-1 sums numpy adds in one chain."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        w = self.query_width
        q = self._checked(query, w)
        _, live, denom = self._normalization()
        X = self._X[self._start:self._end]
        # all rows are scored in one expression; each sum runs over a fresh
        # contiguous array, as numpy's pairwise row sums depend on the layout
        diff = np.where(live[:w], (q - X[:, :w]) / denom[:w], 0.0)
        if w < len(self.schema):
            # stage 1: argmin gives the first, that is the oldest, nearest row
            j = np.add.reduce(diff * diff, axis=1).argmin()
            if k == 1:
                return float(self._y[self._start + j])
            tail = np.where(live[w:], (X[j, w:] - X[:, w:]) / denom[w:], 0.0)
            diff = np.concatenate((diff, tail), axis=1)
        dist2 = np.add.reduce(diff * diff, axis=1)
        if k == 1:
            return float(self._y[self._start + dist2.argmin()])
        chosen = dist2.argsort(kind="stable")[:k]
        targets = self._y[self._start:self._end]
        # summed one at a time in rank order, as a plain Python mean would
        return float(sum(targets[i] for i in chosen) / len(chosen))

    def to_dict(self) -> dict:
        """The held instances, oldest first, which restore reads back."""
        return {
            "rows": self._X[self._start:self._end].tolist(),
            "targets": self._y[self._start:self._end].tolist(),
        }

    def restore(self, d: dict) -> None:
        """Hold exactly the instances to_dict wrote and take the ranges from
        their rows; ValueError, with the window unchanged, for an instance add
        would refuse."""
        rows, width = d["rows"], len(self.schema)
        X = np.array(rows, dtype=float) if len(rows) else np.empty((0, width))
        y = np.array(d["targets"], dtype=float)
        if X.shape != (len(X), width) or y.shape != (len(X),):
            raise ValueError(f"{len(X)} rows need {width} features each and as many targets")
        if not (np.abs(X) <= B).all():
            raise ValueError("rows hold a value outside [-B, B], B = 2**64")
        if not ((0 < y) & (y <= B)).all():
            raise ValueError("targets hold a runtime outside (0, B], B = 2**64")
        self.lo, self.hi = X.min(axis=0, initial=np.inf), X.max(axis=0, initial=-np.inf)
        self._X, self._y, self._start, self._end = X, y, 0, len(X)
        self._norm = None
        if len(X):
            # now, at load, rather than in the first query after it
            self._normalization()
