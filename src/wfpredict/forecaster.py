"""Online-trainable recurrent forecasters for the metrics of one task type.

One single-layer gated recurrent cell per metric (input/forget/output gates
plus a candidate memory path), all stepped together on a leading metric axis
with no shared parameters. The encoded pre-runtime features seed the initial
state and join the previous (normalized) value in every step's input. Gates
are fused in the stacked order i, f, o, c: W (M, 4H, 1+F), U (M, 4H, H).

One cell, `SequenceModel._cell`, serves training and forecasting. It steps a
contiguous gate-major (4, M, H) block in place, and writes c, tanh(c) and h
into the caller's arrays. Training keeps its activations time- and gate-major,
(T, 4, M, H), and the backward pass forms every gate delta of a step in place
from factors computed for all steps before its loop.

All parameters live in one flat float64 buffer, stored parameter by
parameter; each `params[k]` is a contiguous (M, ...) view into it. The
gradients fill a fresh buffer of the same layout. An update backs the buffer
up with one copy, steps it with one multiply and one subtract, and on failure
restores it in place, so the views stay bound.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domain import FeatureVector, MetricKind, MetricSeries
from .tsfeat import strip_padding

_FLOAT_MAX = np.finfo(np.float64).max


class TrainingDivergedError(RuntimeError):
    """An update produced non-finite values; the model was rolled back."""


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-metric matrix-vector product: (M, R, C) times (M, C) -> (M, R)."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


class RunningMinMax:
    """Element-wise running min/max used to map inputs into [0, 1]."""

    def __init__(self, shape):
        self._bind(np.full(shape, np.inf), np.full(shape, -np.inf))

    def _bind(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Set the bounds and the terms scale and unscale read. Where hi - lo
        overflows float64 (where half of it exceeds half the maximum) both work
        on halved values; halving is exact, so a range that fits is kept."""
        self.lo, self.hi = lo, hi
        f = self._f = np.where(hi * 0.5 - lo * 0.5 > _FLOAT_MAX * 0.5, 0.5, 1.0)
        lo_f = lo * f
        rng = hi * f - lo_f
        self._seen = np.isfinite(rng) & (rng > 0)
        self._den = np.where(self._seen, rng, 1.0)
        # where lo is unobserved, y * 1.0 + -0.0 gives back any y bit for bit
        observed = np.isfinite(lo)
        self._lo, self._rng = np.where(observed, lo_f, -0.0), np.where(observed, rng, 1.0)

    def observe(self, lo: np.ndarray, hi: np.ndarray):
        """Fold in observed element-wise bounds; +inf/-inf leave an element as is.

        The terms _bind sets are a function of the bounds' bits, so they are
        set again only when some bit moves; comparing bytes, not values, keeps
        a 0.0 bound that becomes -0.0 a change."""
        lo, hi = np.minimum(self.lo, lo), np.maximum(self.hi, hi)
        if lo.tobytes() != self.lo.tobytes() or hi.tobytes() != self.hi.tobytes():
            self._bind(lo, hi)

    def scale(self, x: np.ndarray) -> np.ndarray:
        return np.where(self._seen, (x * self._f - self._lo) / self._den, 0.0)

    def unscale(self, y: np.ndarray) -> np.ndarray:
        # inverse of scale along the trailing axes; an unobserved element passes
        # y through, and a value past the float64 range saturates at its limit
        with np.errstate(over="ignore"):
            x = (y * self._rng + self._lo) / self._f
        return np.minimum(np.maximum(x, -_FLOAT_MAX), _FLOAT_MAX)

    def to_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RunningMinMax":
        n = cls(0)
        n._bind(np.array(d["lo"], dtype=float), np.array(d["hi"], dtype=float))
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
        init = {
            "W": W, "U": U, "b": b,
            "W_h0": W_h0, "b_h0": np.zeros((M, H)),
            "W_c0": W_c0, "b_c0": np.zeros((M, H)),
            "w_y": w_y, "b_y": np.zeros(M),
        }
        # one buffer, parameter by parameter; params[k] is a view of its span
        self.flat_params = np.concatenate([v.reshape(-1) for v in init.values()])
        ends = np.cumsum([v.size for v in init.values()]).tolist()
        self._spans = list(zip([0] + ends[:-1], ends))
        self._shapes = {k: v.shape for k, v in init.items()}
        self.params: Dict[str, np.ndarray] = self._views(self.flat_params)
        # the metric and the size of each (parameter, metric) block of the
        # buffer, which spread a per-metric clip scale over its elements
        self._block_metric = np.tile(np.arange(M), len(init))
        self._block_sizes = np.repeat([v.size // M for v in init.values()], M)
        self.value_norm = RunningMinMax(M)
        self.feat_norm = RunningMinMax((M, F))
        self.len_sum = np.zeros(M, dtype=np.int64)
        self.len_count = np.zeros(M, dtype=np.int64)

    def _views(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Each parameter's contiguous (M, ...) view of a buffer laid out as flat_params."""
        return {
            k: flat[a:e].reshape(shape)
            for (k, shape), (a, e) in zip(self._shapes.items(), self._spans)
        }

    def _cell(self, act, h, c, c_out, tc_out, h_out, uh) -> None:
        """One step of every metric's cell, in place. act (4, M, H) holds the
        step input's projection plus the bias, gate-major; it becomes the gate
        activations i, f, o, g. The new c, tanh(c) and h go to c_out, tc_out
        and h_out (M, H), which must not alias h or c; uh (M, 4H, 1) is
        scratch for the recurrent product."""
        M, H = h.shape
        np.matmul(self.params["U"], h[:, :, None], uh)
        act += uh.reshape(M, 4, H).transpose(1, 0, 2)
        sig = act[:3]  # 1 / (1 + exp(-a))
        np.negative(sig, sig)
        np.exp(sig, sig)
        sig += 1.0
        np.divide(1.0, sig, sig)
        i, f, o, g = act[0], act[1], act[2], act[3]  # indexing is cheaper than iterating
        np.tanh(g, g)
        np.multiply(f, c, c_out)
        np.multiply(i, g, tc_out)
        c_out += tc_out
        np.tanh(c_out, tc_out)
        np.multiply(o, tc_out, h_out)

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
        X = np.empty((M, T, 1 + self.input_dim))
        X[:, :, 0], X[:, :, 1:] = inputs, fenc[:, None, :]
        A = np.matmul(X, p["W"].transpose(0, 2, 1)) + p["b"][:, None, :]
        # time-major caches, the activations also gate-major (T, 4, M, H);
        # Hs and Cs hold the seed state first
        acts = np.ascontiguousarray(A.reshape(M, T, 4, H).transpose(1, 2, 0, 3))
        Hs, Cs, tcs = np.empty((T + 1, M, H)), np.empty((T + 1, M, H)), np.empty((T, M, H))
        Hs[0], Cs[0] = self._seed_state(fenc)
        uh = np.empty((M, 4 * H, 1))
        for t in range(T):
            self._cell(acts[t], Hs[t], Cs[t], Cs[t + 1], tcs[t], Hs[t + 1], uh)
        ys = np.einsum("tmh,mh->mt", Hs[1:], p["w_y"]) + p["b_y"][:, None]
        err = np.where(np.arange(T) < lengths[:, None], ys - targets, 0.0)
        losses = np.sum(err * err, axis=1) / np.maximum(lengths, 1)
        return losses, (X, Hs, Cs, acts, tcs, err)

    def _gradients(self, fenc, inputs, targets, lengths):
        """Full-sequence backpropagation through time for every metric.

        Steps past a metric's length get no output gradient, so each metric's
        gradient is that of its own unpadded sequence. Returns the losses and
        the gradients in one fresh buffer laid out as flat_params (see _views).
        """
        p = self.params
        losses, (X, Hs, Cs, acts, tcs, err) = self._forward(fenc, inputs, targets, lengths)
        (M, T), H = inputs.shape, self.hidden_size
        dY = 2.0 * err / np.maximum(lengths, 1)[:, None]
        # every factor that needs only the forward caches, for all steps at
        # once; each gate's delta is ((lead * S2) * S3) * S4, lead being dc, or
        # dh for the o gate, as in ((dc * g) * i) * (1 - i)
        dYw = dY.T[:, :, None] * p["w_y"]
        dtanh = 1 - tcs * tcs
        S2, S3, S4 = np.empty((3, T, M, 4, H))
        S3[...] = acts.transpose(0, 2, 1, 3)  # the activations, metric-major
        np.subtract(1, S3, S4)
        S4[:, :, 3] = 1.0
        i, g = S3[:, :, 0], S3[:, :, 3]
        S2[:, :, 0], S2[:, :, 1], S2[:, :, 2], S2[:, :, 3] = g, Cs[:-1], tcs, i
        np.multiply(g, g, g)
        np.subtract(1, g, g)
        f, o = acts[:, 1], acts[:, 2]
        dA = np.empty((T, M, 4, H))
        dh_next, dc_next = np.zeros((2, M, H))
        for t in range(T - 1, -1, -1):
            # dh and dc read dh_next and dc_next before they are overwritten
            dh = dYw[t] + dh_next
            dc = dh * o[t]
            dc *= dtanh[t]
            dc += dc_next
            da, s2 = dA[t], S2[t]
            np.multiply(dc[:, None, :], s2, da)
            np.multiply(dh, s2[:, 2], da[:, 2])
            da *= S3[t]
            da *= S4[t]
            np.matmul(da.reshape(M, 1, 4 * H), p["U"], dh_next[:, None])
            np.multiply(dc, f[t], dc_next)
        dA = dA.reshape(T, M, 4 * H)
        dAt = dA.transpose(1, 2, 0)  # (M, 4H, T)
        flat = np.empty_like(self.flat_params)
        grads = self._views(flat)
        np.matmul(dAt, X, grads["W"])
        np.matmul(dAt, Hs[:-1].transpose(1, 0, 2), grads["U"])
        np.add.reduce(dA, 0, None, grads["b"])
        # the initial state came from the feature projection
        np.multiply(dh_next[:, :, None], fenc[:, None, :], grads["W_h0"])
        grads["b_h0"][...] = dh_next
        np.multiply(dc_next[:, :, None], fenc[:, None, :], grads["W_c0"])
        grads["b_c0"][...] = dc_next
        np.einsum("mt,tmh->mh", dY, Hs[1:], out=grads["w_y"])
        np.add.reduce(dY, 1, None, grads["b_y"])
        return losses, flat

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
        # RunningMinMax.observe rebinds its arrays, so shallow copies of the normalizers hold
        backup = (
            self.flat_params.copy(), copy.copy(self.value_norm),
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
            M = self.n_metrics
            sums = np.empty((len(self._spans), M))
            for _ in range(self.epochs_per_update):
                losses, g = self._gradients(fenc, inputs, targets, lengths)
                if not np.all(np.isfinite(losses)):
                    raise TrainingDivergedError(f"non-finite loss {losses.tolist()}")
                sq = g * g
                # each parameter's per-metric sum of squares, added parameter by
                # parameter: accumulate adds the rows in order for every M, where
                # reduce adds 8 rows pairwise when M is 1
                for j, (a, e) in enumerate(self._spans):
                    np.add.reduce(sq[a:e].reshape(M, -1), 1, None, sums[j])
                total = np.sqrt(np.add.accumulate(sums, 0)[-1])
                clipped = total > self.clip_norm
                scale = np.where(clipped, self.clip_norm / np.where(clipped, total, 1.0), 1.0)
                g *= np.repeat((self.learning_rate * scale)[self._block_metric], self._block_sizes)
                self.flat_params -= g
            if not np.isfinite(self.flat_params).all():
                raise TrainingDivergedError("non-finite parameters after update")
        except BaseException as exc:
            # in place, so that every params[k] stays a view of the buffer
            self.flat_params[...] = backup[0]
            (self.value_norm, self.feat_norm, self.len_sum, self.len_count) = backup[1:]
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
        M, H = self.n_metrics, self.hidden_size
        fenc = self.feat_norm.scale(self._feature_values(f))
        h, c = self._seed_state(fenc)
        h_next, c_next, tc = np.empty((3, M, H))

        def gate_major(a):
            return np.ascontiguousarray(a.reshape(M, 4, H).transpose(1, 0, 2))

        # the features are constant over the rollout; only the value input moves
        w_x = gate_major(p["W"][:, :, 0])
        a_feat = gate_major(_matvec(p["W"][:, :, 1:], fenc) + p["b"])
        act, uh = np.empty((4, M, H)), np.empty((M, 4 * H, 1))
        x = np.zeros(M)
        ys = np.empty((max(horizons), M))
        for t in range(len(ys)):
            np.multiply(w_x, x[:, None], act)
            act += a_feat
            self._cell(act, h, c, c_next, tc, h_next, uh)
            h, c, h_next, c_next = h_next, c_next, h, c
            x = ys[t]
            np.einsum("mh,mh->m", p["w_y"], h, out=x)
            x += p["b_y"]
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
        """The learned state, which restore reads back into a model
        constructed with the same arguments."""
        return {
            "flat_params": self.flat_params.tolist(),
            "value_norm": self.value_norm.to_dict(),
            "feat_norm": self.feat_norm.to_dict(),
            "len_sum": self.len_sum.tolist(),
            "len_count": self.len_count.tolist(),
        }

    def restore(self, d: dict) -> None:
        """Take on the learned state to_dict wrote; ValueError if its parameter
        count differs from this model's."""
        saved = np.array(d["flat_params"], dtype=float)
        if saved.shape != self.flat_params.shape:
            raise ValueError(f"{saved.size} parameters, expected {self.flat_params.size}")
        # in place, so that every params[k] stays a view of the buffer
        self.flat_params[...] = saved
        self.value_norm = RunningMinMax.from_dict(d["value_norm"])
        self.feat_norm = RunningMinMax.from_dict(d["feat_norm"])
        self.len_sum = np.array(d["len_sum"], dtype=np.int64)
        self.len_count = np.array(d["len_count"], dtype=np.int64)
