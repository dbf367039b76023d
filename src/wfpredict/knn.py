"""Windowed incremental nearest-neighbor regressor (linear scan, FIFO window)."""

from __future__ import annotations

import json
import math
from typing import List, Optional, Tuple

import numpy as np

from .domain import FeatureVector

MAGIC = "wfpredict-knnwindow"
FORMAT_VERSION = 1


class EmptyWindowError(RuntimeError):
    """No training data yet; callers fall back per pipeline policy."""


class SchemaMismatchError(ValueError):
    pass


class InstanceWindow:
    """Bounded FIFO of (feature vector, runtime) instances with range-normalized
    Euclidean distance.

    The first add fixes the feature-name schema. Running per-feature min/max
    is maintained for distance normalization; zero-range dimensions contribute
    nothing to distance. capacity=None means unbounded.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.schema: Optional[Tuple[str, ...]] = None
        self.instances: List[Tuple[np.ndarray, float]] = []  # FIFO order
        self.lo: Optional[np.ndarray] = None
        self.hi: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.instances)

    def _check_schema(self, fv: FeatureVector):
        if self.schema is None:
            self.schema = tuple(fv.names)
            dim = len(self.schema)
            self.lo = np.full(dim, np.inf)
            self.hi = np.full(dim, -np.inf)
        elif tuple(fv.names) != self.schema:
            raise SchemaMismatchError(
                f"feature schema mismatch: {fv.names} vs window schema {self.schema}"
            )

    def add(self, fv: FeatureVector, runtime: float) -> Optional[Tuple[np.ndarray, float]]:
        """Append an instance; returns the evicted oldest one when over capacity."""
        if not (runtime > 0 and math.isfinite(runtime)):
            raise ValueError(f"runtime must be positive, got {runtime}")
        self._check_schema(fv)
        x = np.asarray(fv.values, dtype=float)
        self.lo = np.minimum(self.lo, x)
        self.hi = np.maximum(self.hi, x)
        self.instances.append((x, float(runtime)))
        if self.capacity is not None and len(self.instances) > self.capacity:
            return self.instances.pop(0)
        return None

    def _ranges(self) -> np.ndarray:
        # a range smaller than float rounding noise on the stored values is
        # indistinguishable from a constant feature; treat it as zero-range
        # so it cannot blow up the normalized distance
        rng = self.hi - self.lo
        eps = 1e-12 * np.maximum(1.0, np.maximum(np.abs(self.lo), np.abs(self.hi)))
        return np.where(rng > eps, rng, 0.0)

    def predict(self, query: FeatureVector, k: int = 1) -> float:
        """Unweighted mean runtime of the k nearest stored instances.

        Distances are computed by linear scan; ties break toward the older
        (earlier inserted) instance.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self.instances:
            raise EmptyWindowError("no training instances in window")
        if tuple(query.names) != self.schema:
            raise SchemaMismatchError(
                f"query schema {query.names} does not match window schema {self.schema}"
            )
        q = np.asarray(query.values, dtype=float)
        rng = self._ranges()
        live = rng > 0
        denom = np.where(live, rng, 1.0)
        diffs = (np.where(live, (q - x) / denom, 0.0) for x, _ in self.instances)
        dist2 = [float(np.sum(d * d)) for d in diffs]
        ranked = sorted(range(len(dist2)), key=lambda idx: (dist2[idx], idx))
        chosen = ranked[: min(k, len(self.instances))]
        return sum(self.instances[i][1] for i in chosen) / len(chosen)

    def to_dict(self) -> dict:
        return {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            "capacity": self.capacity,
            "schema": list(self.schema) if self.schema else None,
            "lo": self.lo.tolist() if self.lo is not None else None,
            "hi": self.hi.tolist() if self.hi is not None else None,
            "instances": [[x.tolist(), r] for x, r in self.instances],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InstanceWindow":
        if d.get("magic") != MAGIC:
            raise ValueError(f"not an instance window container: {d.get('magic')!r}")
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported instance window version {d.get('version')}")
        w = cls(capacity=d["capacity"])
        if d["schema"] is not None:
            w.schema = tuple(d["schema"])
            w.lo = np.array(d["lo"], dtype=float)
            w.hi = np.array(d["hi"], dtype=float)
            w.instances = [(np.array(x, dtype=float), float(r)) for x, r in d["instances"]]
        return w

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def loads(cls, s: str) -> "InstanceWindow":
        return cls.from_dict(json.loads(s))
