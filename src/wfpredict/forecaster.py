"""Online-trainable recurrent forecasters for the metrics of one task type.

One single-layer gated recurrent cell per metric (input/forget/output gates
plus a candidate memory path), all stepped together on a leading metric axis
with no shared parameters. The encoded pre-runtime features seed the initial
state and join the previous (normalized) value in every step's input. Gates
are fused in the stacked order i, f, o, c: W (M, 4H, 1+F), U (M, 4H, H).
"""

from __future__ import annotations

import copy
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domain import FeatureVector, MetricKind, MetricSeries
from .tsfeat import strip_padding

MAGIC = "wfpredict-seqmodel"
FORMAT_VERSION = 2

# constructor arguments stored verbatim in the persisted form
_CONFIG = (
    "input_dim", "hidden_size", "learning_rate", "epochs_per_update", "clip_norm", "seeds", "tau"
)


class TrainingDivergedError(RuntimeError):
    """An update produced non-finite values; the model was rolled back."""


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-metric matrix-vector product: (M, R, C) times (M, C) -> (M, R)."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


class RunningMinMax:
    """Element-wise running min/max used to map inputs into [0, 1]."""

    def __init__(self, shape):
        self.lo = np.full(shape, np.inf)
        self.hi = np.full(shape, -np.inf)

    def observe(self, lo: np.ndarray, hi: np.ndarray):
        """Fold in observed element-wise bounds; +inf/-inf leave an element as is."""
        self.lo = np.minimum(self.lo, lo)
        self.hi = np.maximum(self.hi, hi)

    def scale(self, x: np.ndarray) -> np.ndarray:
        rng = self.hi - self.lo
        seen = np.isfinite(rng) & (rng > 0)
        return np.where(seen, (x - self.lo) / np.where(seen, rng, 1.0), 0.0)

    def unscale(self, y: np.ndarray) -> np.ndarray:
        # inverse of scale along the trailing axes; an unobserved element passes y through
        seen = np.isfinite(self.lo)
        rng, lo = np.where(seen, self.hi - self.lo, 0.0), np.where(seen, self.lo, 0.0)
        return np.where(seen, y * rng + lo, y)

    def to_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RunningMinMax":
        n = cls(0)
        n.lo, n.hi = np.array(d["lo"], dtype=float), np.array(d["hi"], dtype=float)
        return n


def _one_row(s: MetricSeries) -> Tuple[np.ndarray, np.ndarray]:
    """The block and lengths of a one-metric example."""
    return np.array([s.values]), np.array([len(s.values)])


def _initial_weights(seed: int, hidden_size: int, input_dim: int) -> Tuple[np.ndarray, ...]:
    """One metric's random weights, drawn in the per-gate order W_g, U_g for
    g in i, f, o, c, then W_h0, W_c0, w_y; returns fused W, U and the rest."""
    rng = np.random.default_rng(seed)
    H, F = hidden_size, input_dim

    def u(*shape):
        return rng.uniform(-0.08, 0.08, size=shape)

    W, U = zip(*((u(H, 1 + F), u(H, H)) for _ in range(4)))
    return np.concatenate(W), np.concatenate(U), u(H, F), u(H, F), u(H)


class SequenceModel:
    """Gated recurrent one-step-ahead forecasters for M metrics, trained
    incrementally with batch size 1; metric m draws its weights from seeds[m].
    The *_all methods work on blocks with one row per metric; update, loss,
    default_horizon and forecast are the entry points of a one-metric model."""

    def __init__(
        self,
        input_dim: int,
        hidden_size: int = 10,
        learning_rate: float = 0.01,
        epochs_per_update: int = 1,
        clip_norm: float = 5.0,
        seeds: Sequence[int] = (0,),
        metrics: Optional[Sequence[Optional[MetricKind]]] = None,
        tau: int = 1,
    ):
        if hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {hidden_size}")
        self.seeds = tuple(int(s) for s in seeds)
        self.n_metrics = M = len(self.seeds)
        self.metrics = tuple(metrics) if metrics is not None else (None,) * M
        if M < 1 or len(self.metrics) != M:
            raise ValueError(f"need one or more seeds and one metric each, got {M} seeds")
        self.input_dim = input_dim  # pre-runtime feature dimension
        self.hidden_size = hidden_size
        self.learning_rate = learning_rate
        self.epochs_per_update = epochs_per_update
        self.clip_norm = clip_norm
        self.tau = tau

        H, F = hidden_size, input_dim
        W, U, W_h0, W_c0, w_y = (
            np.stack(ws) for ws in zip(*(_initial_weights(s, H, F) for s in self.seeds))
        )
        b = np.zeros((M, 4 * H))
        b[:, H:2 * H] = 1.0  # forget gate: ease early memory retention
        self.params: Dict[str, np.ndarray] = {
            "W": W, "U": U, "b": b,
            "W_h0": W_h0, "b_h0": np.zeros((M, H)),
            "W_c0": W_c0, "b_c0": np.zeros((M, H)),
            "w_y": w_y, "b_y": np.zeros(M),
        }
        self.value_norm = RunningMinMax(M)
        self.feat_norm = RunningMinMax((M, F))
        self.len_sum = np.zeros(M, dtype=np.int64)
        self.len_count = np.zeros(M, dtype=np.int64)

    def _cell(self, a_in: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One step of every metric's cell; a_in (M, 4H) is the step input's
        projection plus the bias. Returns h, c, the gate activations and tanh(c)."""
        H = self.hidden_size
        a = a_in + _matvec(self.params["U"], h)
        act = np.empty_like(a)
        act[:, :3 * H] = _sigmoid(a[:, :3 * H])
        act[:, 3 * H:] = np.tanh(a[:, 3 * H:])
        i, f, o, g = act[:, :H], act[:, H:2 * H], act[:, 2 * H:3 * H], act[:, 3 * H:]
        c = f * c + i * g
        tc = np.tanh(c)
        return o * tc, c, act, tc

    def _seed_state(self, fenc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p = self.params
        return _matvec(p["W_h0"], fenc) + p["b_h0"], _matvec(p["W_c0"], fenc) + p["b_c0"]

    def _feature_values(self, f: FeatureVector) -> np.ndarray:
        x = np.asarray(f.values, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"feature dimension mismatch: {x.shape[0]} != {self.input_dim}")
        return x

    # -- training ----------------------------------------------------------

    def _training_data(self, f: FeatureVector, block: np.ndarray, lengths: np.ndarray):
        """Normalized teacher-forcing arrays for one example: fenc (M, F),
        inputs and targets (M, T), and each metric's length."""
        if len(block) != self.n_metrics:
            raise ValueError(f"{len(block)} series for {self.n_metrics} metrics")
        fenc = self.feat_norm.scale(self._feature_values(f))
        targets = self.value_norm.scale(block.T).T
        # one-step-ahead: a zero start token, then each observed value
        inputs = np.zeros_like(targets)
        inputs[:, 1:] = targets[:, :-1]
        return fenc, inputs, targets, np.asarray(lengths)

    def _forward(self, fenc, inputs, targets, lengths):
        """Teacher-forced pass over one example; returns per-metric losses
        (mean squared error over each metric's own length) and caches."""
        p = self.params
        (M, T), H = inputs.shape, self.hidden_size
        X = np.concatenate((inputs[:, :, None], np.repeat(fenc[:, None, :], T, axis=1)), axis=2)
        A = np.matmul(X, p["W"].transpose(0, 2, 1)) + p["b"][:, None, :]
        # time-major caches; Hs and Cs hold the seed state first
        Hs, Cs = np.empty((T + 1, M, H)), np.empty((T + 1, M, H))
        acts, tcs = np.empty((T, M, 4 * H)), np.empty((T, M, H))
        Hs[0], Cs[0] = self._seed_state(fenc)
        for t in range(T):
            Hs[t + 1], Cs[t + 1], acts[t], tcs[t] = self._cell(A[:, t], Hs[t], Cs[t])
        ys = np.einsum("tmh,mh->mt", Hs[1:], p["w_y"]) + p["b_y"][:, None]
        err = np.where(np.arange(T) < lengths[:, None], ys - targets, 0.0)
        losses = np.sum(err * err, axis=1) / np.maximum(lengths, 1)
        return losses, (X, Hs, Cs, acts, tcs, err)

    def _gradients(self, fenc, inputs, targets, lengths):
        """Full-sequence backpropagation through time for every metric.

        Steps past a metric's length get no output gradient, so each metric's
        gradient is that of its own unpadded sequence. Returns (losses, grads).
        """
        p = self.params
        losses, (X, Hs, Cs, acts, tcs, err) = self._forward(fenc, inputs, targets, lengths)
        (M, T), H = inputs.shape, self.hidden_size
        dY = 2.0 * err / np.maximum(lengths, 1)[:, None]
        dA = np.empty((T, M, 4 * H))
        dh_next = dc_next = np.zeros((M, H))
        for t in range(T - 1, -1, -1):
            act, tc = acts[t], tcs[t]
            i, f, o, g = act[:, :H], act[:, H:2 * H], act[:, 2 * H:3 * H], act[:, 3 * H:]
            dh = dY[:, t, None] * p["w_y"] + dh_next
            dc = dh * o * (1 - tc * tc) + dc_next
            da = dA[t]
            da[:, :H] = dc * g * i * (1 - i)
            da[:, H:2 * H] = dc * Cs[t] * f * (1 - f)
            da[:, 2 * H:3 * H] = dh * tc * o * (1 - o)
            da[:, 3 * H:] = dc * i * (1 - g * g)
            dh_next = np.matmul(da[:, None, :], p["U"])[:, 0]
            dc_next = dc * f
        dAt = dA.transpose(1, 2, 0)  # (M, 4H, T)
        grads = {
            "W": np.matmul(dAt, X),
            "U": np.matmul(dAt, Hs[:-1].transpose(1, 0, 2)),
            "b": dA.sum(axis=0),
            # the initial state came from the feature projection
            "W_h0": dh_next[:, :, None] * fenc[:, None, :],
            "b_h0": dh_next,
            "W_c0": dc_next[:, :, None] * fenc[:, None, :],
            "b_c0": dc_next,
            "w_y": np.einsum("mt,tmh->mh", dY, Hs[1:]),
            "b_y": dY.sum(axis=1),
        }
        return losses, grads

    def update_all(self, f: FeatureVector, block: np.ndarray, lengths: np.ndarray) -> None:
        """Train every metric on one example: row m of block (M, T) holds
        metric m's first lengths[m] values, then zeros. A metric of length 0,
        which the example lacks, is left untouched.

        Refreshes the running normalizers, then runs epochs_per_update passes,
        each clipped per metric by the global norm of that metric's gradients.
        Any failure restores every metric's parameters, normalizers and length
        statistics; a non-finite result raises TrainingDivergedError.
        """
        fx = self._feature_values(f)
        lengths = np.asarray(lengths)
        present = (lengths > 0)[:, None]
        # RunningMinMax.observe rebinds lo and hi, so shallow copies of the normalizers hold
        backup = (
            {k: v.copy() for k, v in self.params.items()}, copy.copy(self.value_norm),
            copy.copy(self.feat_norm), self.len_sum.copy(), self.len_count.copy(),
        )
        try:
            held = np.arange(block.shape[1]) < lengths[:, None]
            self.value_norm.observe(
                np.min(block, axis=1, where=held, initial=np.inf),
                np.max(block, axis=1, where=held, initial=-np.inf),
            )
            self.feat_norm.observe(np.where(present, fx, np.inf), np.where(present, fx, -np.inf))
            fenc, inputs, targets, lengths = self._training_data(f, block, lengths)
            self.len_sum += lengths
            self.len_count += present[:, 0]
            for _ in range(self.epochs_per_update):
                losses, grads = self._gradients(fenc, inputs, targets, lengths)
                if not np.all(np.isfinite(losses)):
                    raise TrainingDivergedError(f"non-finite loss {losses.tolist()}")
                total = np.sqrt(
                    sum(np.sum((g * g).reshape(len(g), -1), axis=1) for g in grads.values())
                )
                clipped = total > self.clip_norm
                scale = np.where(clipped, self.clip_norm / np.where(clipped, total, 1.0), 1.0)
                for k, g in grads.items():
                    step = (self.learning_rate * scale).reshape((-1,) + (1,) * (g.ndim - 1))
                    self.params[k] -= step * g
            if not all(np.all(np.isfinite(v)) for v in self.params.values()):
                raise TrainingDivergedError("non-finite parameters after update")
        except BaseException as exc:
            (self.params, self.value_norm, self.feat_norm, self.len_sum, self.len_count) = backup
            if isinstance(exc, FloatingPointError):
                raise TrainingDivergedError("floating point failure during update") from exc
            raise

    # -- inference ---------------------------------------------------------

    def default_horizons(self) -> List[int]:
        """Per metric: running mean observed length, rounded up; 1 before any update."""
        counts = zip(self.len_sum.tolist(), self.len_count.tolist())
        return [max(1, math.ceil(s / max(n, 1))) for s, n in counts]

    def forecast_all(
        self, f: FeatureVector, n: Optional[int] = None
    ) -> Tuple[np.ndarray, List[int]]:
        """Autoregressive forecast of every metric, denormalized, padding kept.

        Metric m runs n steps, or its own default horizon when n is None.
        Returns the block (M, T) and the horizons: row m's forecast is its
        first horizons[m] values, and T is the longest horizon.
        """
        if n is not None and n < 1:
            raise ValueError(f"forecast horizon must be >= 1, got {n}")
        horizons = self.default_horizons() if n is None else [n] * self.n_metrics
        p = self.params
        fenc = self.feat_norm.scale(self._feature_values(f))
        h, c = self._seed_state(fenc)
        # the features are constant over the rollout; only the value input moves
        w_x = p["W"][:, :, 0]
        a_feat = _matvec(p["W"][:, :, 1:], fenc) + p["b"]
        x = np.zeros(self.n_metrics)
        ys = np.empty((max(horizons), self.n_metrics))
        for t in range(len(ys)):
            h, c, _, _ = self._cell(w_x * x[:, None] + a_feat, h, c)
            x = ys[t] = np.einsum("mh,mh->m", p["w_y"], h) + p["b_y"]
        return self.value_norm.unscale(ys).T, horizons

    def update(self, f: FeatureVector, observed: MetricSeries) -> None:
        self.update_all(f, *_one_row(observed))

    def loss(self, f: FeatureVector, observed: MetricSeries) -> float:
        """Mean squared error on one example, with the normalizers as they stand."""
        return float(self._forward(*self._training_data(f, *_one_row(observed)))[0][0])

    def default_horizon(self) -> int:
        return self.default_horizons()[0]

    def forecast(self, f: FeatureVector, n: Optional[int] = None) -> MetricSeries:
        """Autoregressive n-step forecast, denormalized and padding-stripped."""
        block, horizons = self.forecast_all(f, n)
        preds = block[0, :horizons[0]].tolist()
        metric = self.metrics[0] or MetricKind.utime
        return MetricSeries(metric, self.tau, tuple(strip_padding(preds) or preds[:1]))

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            **{k: getattr(self, k) for k in _CONFIG},
            "metrics": [m.value if m else None for m in self.metrics],
            "len_sum": self.len_sum.tolist(),
            "len_count": self.len_count.tolist(),
            "value_norm": self.value_norm.to_dict(),
            "feat_norm": self.feat_norm.to_dict(),
            "params": {k: v.tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SequenceModel":
        if d.get("magic") != MAGIC:
            raise ValueError(f"not a sequence model container: {d.get('magic')!r}")
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported sequence model version {d.get('version')}")
        m = cls(
            **{k: d[k] for k in _CONFIG},
            metrics=[MetricKind(v) if v else None for v in d["metrics"]],
        )
        m.len_sum = np.array(d["len_sum"], dtype=np.int64)
        m.len_count = np.array(d["len_count"], dtype=np.int64)
        m.value_norm = RunningMinMax.from_dict(d["value_norm"])
        m.feat_norm = RunningMinMax.from_dict(d["feat_norm"])
        m.params = {k: np.array(v, dtype=float) for k, v in d["params"].items()}
        return m

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def loads(cls, s: str) -> "SequenceModel":
        return cls.from_dict(json.loads(s))
