"""Online-trainable recurrent forecasters for the metrics of one task type.

One single-layer gated recurrent cell per metric (input/forget/output gates
plus a candidate memory path), all stepped together on a leading metric axis
with no shared parameters. The encoded pre-runtime features seed the initial
state and join the previous (normalized) value in every step's input. Gates
are fused in the stacked order i, f, o, c: W (M, 4H, 1+F), U (M, 4H, H).

One cell, built once a pass by `SequenceModel._stepper`, serves training and
forecasting. It steps a contiguous (5, M, H) block in place, the gates
gate-major and then c, and writes c, tanh(c) and h into the caller's arrays.
Training keeps one block per step, time-major, and the backward pass forms
every gate delta of a step in place from factors computed before its loop.

A training pass carves its large caches from one float64 scratch that this module
owns (_pass_caches), valid until the next pass of any model: training is not
re-entrant. Losses, gradients and forecasts are fresh; past _SCRATCH_CAP, caches too.

All parameters live in one flat float64 buffer, stored parameter by
parameter; each `params[k]` is a contiguous (M, ...) view into it. The
gradients fill a fresh buffer of the same layout. An update backs the buffer
up with one copy, steps it with one multiply and one subtract, and on failure
restores it in place, so the views stay bound. A gradient too small for
any metric to be clipped skips the per-metric norms (see update_all).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
# the C call np.einsum makes, without its Python dispatch (about 1 us a call)
from numpy._core.multiarray import c_einsum as _einsum

from .domain import B, MetricKind, SeriesBlock, check_within_b

_SCRATCH_CAP = 8 << 20  # bytes; 13 metrics at H 10 and T up to about 260
_scratch, _carvings = np.empty(0), {}


def _pass_caches(M: int, T: int, H: int, F: int) -> tuple:
    """_forward's X, A, cells, Hs, tcs, then _gradients' dYw, dtanh, S, dA, (dh, dc, dh_next,
    dc_next): C-contiguous carvings at 64-byte offsets of the scratch, cached per shape."""
    global _scratch
    got = _carvings.get((M, T, H, F))
    if got is None:
        shapes = ((M, T, 1 + F), (M, T, 4 * H), (T + 1, 5, M, H), (T + 1, M, H), (T, M, H),
                  (T, M, H), (T, M, H), (3, T, M, 4, H), (T, M, 4, H), (4, M, H))
        ends = np.cumsum([-(-math.prod(s) // 8) * 8 for s in shapes]).tolist()
        if ends[-1] * 8 > _SCRATCH_CAP:
            return tuple(map(np.empty, shapes))
        if ends[-1] > _scratch.size:  # and drop the carvings, which hold the old buffer
            _scratch = np.empty(ends[-1])
            _carvings.clear()
        got = _carvings[M, T, H, F] = tuple(
            _scratch[a:a + math.prod(s)].reshape(s) for a, s in zip([0] + ends[:-1], shapes)
        )
    return got


class TrainingDivergedError(RuntimeError):
    """An update produced non-finite values; the model was rolled back."""


def _cell_views(cell: np.ndarray) -> tuple:
    """What a step reads of a (5, M, H) cell block: gates, sigmoids, o, g, (i, f), (g, c)."""
    return cell[:4], cell[:3], cell[2], cell[3], cell[:2], cell[3:]


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-metric matrix-vector product: (M, R, C) times (M, C) -> (M, R)."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


class RunningMinMax:
    """Element-wise running min/max used to map inputs into [0, 1]."""

    def __init__(self, shape):
        self._bind(np.full(shape, np.inf), np.full(shape, -np.inf))

    def _bind(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Set the bounds and the terms scale and unscale read. A bound is within
        [-B, B], or +inf (lo) and -inf (hi) where unobserved: a range is at most 2B."""
        self.lo, self.hi = lo, hi
        rng = hi - lo
        self._seen = rng > 0  # False where unobserved, as rng is -inf there
        self._den = np.where(self._seen, rng, 1.0)
        # where lo is unobserved, y * 1.0 + -0.0 gives back any y bit for bit
        observed = np.isfinite(lo)
        self._lo, self._rng = np.where(observed, lo, -0.0), np.where(observed, rng, 1.0)

    def observe(self, lo: np.ndarray, hi: np.ndarray):
        """Fold in observed element-wise bounds; +inf/-inf leave an element as is.

        The terms _bind sets are a function of the bounds' bits, so they are
        set again only when some bit moves; comparing bytes, not values, keeps
        a 0.0 bound that becomes -0.0 a change."""
        lo, hi = np.minimum(self.lo, lo), np.maximum(self.hi, hi)
        if lo.tobytes() != self.lo.tobytes() or hi.tobytes() != self.hi.tobytes():
            self._bind(lo, hi)

    def scale(self, x: np.ndarray) -> np.ndarray:
        return np.where(self._seen, (x - self._lo) / self._den, 0.0)

    def unscale(self, y: np.ndarray) -> np.ndarray:
        # inverse of scale along the trailing axes; an unobserved element passes y
        # through. y comes from the unbounded parameters: clamped at B, as inputs are
        with np.errstate(over="ignore"):
            x = y * self._rng + self._lo
        return np.minimum(np.maximum(x, -B, out=x), B, out=x)

    def to_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "RunningMinMax":
        n = cls(0)
        n._bind(np.array(d["lo"], dtype=float), np.array(d["hi"], dtype=float))
        return n


def _one_row(s: SeriesBlock) -> Tuple[np.ndarray, np.ndarray]:
    """The block and lengths of a one-metric example; ValueError for another metric count."""
    if len(s.metrics) != 1:
        raise ValueError(f"a one-metric block is needed, got {len(s.metrics)} metrics")
    return s.samples[None, :], np.array(s.lengths)


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

    def _stepper(self):
        """The cell of one pass, U and its scratch bound. step(cell, h, c_out, tc_out, h_out)
        steps every metric once. cell is _cell_views of a contiguous (5, M, H) block: the
        step input's projection plus the bias, gate-major, which becomes the activations
        i, f, o, g, and then c. h is the (M, H, 1) view of the state. The new c, tanh(c) and
        h go to c_out, tc_out and h_out (M, H); c is read before c_out, and h before h_out."""
        M, H, U = self.n_metrics, self.hidden_size, self.params["U"]
        uh, ig_fc = np.empty((M, 4 * H, 1)), np.empty((2, M, H))
        uh_gates, ig, fc = uh.reshape(M, 4, H).transpose(1, 0, 2), ig_fc[0], ig_fc[1]

        def step(cell, h, c_out, tc_out, h_out):
            act, sig, o, g, i_f, g_c = cell
            np.matmul(U, h, uh)
            act += uh_gates
            np.negative(sig, sig)  # sigmoid: 1 / (1 + exp(-a))
            np.exp(sig, sig)
            sig += 1.0
            np.reciprocal(sig, sig)
            np.tanh(g, g)
            np.multiply(i_f, g_c, ig_fc)
            np.add(fc, ig, c_out)
            np.tanh(c_out, tc_out)
            np.multiply(o, tc_out, h_out)

        return step

    def _seed_state(self, fenc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p = self.params
        return _matvec(p["W_h0"], fenc) + p["b_h0"], _matvec(p["W_c0"], fenc) + p["b_c0"]

    def _feature_values(self, f: Sequence[float]) -> np.ndarray:
        """f, the input_dim encoded features, as a float array; ValueError for
        another width, DomainError for a value outside [-B, B]."""
        x = np.asarray(f, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"feature shape {x.shape} != ({self.input_dim},)")
        check_within_b(f, map("feature {}".format, range(self.input_dim)))
        return x

    # -- training ----------------------------------------------------------

    def _training_data(self, fx: np.ndarray, block: np.ndarray, lengths: np.ndarray):
        """Normalized teacher-forcing arrays for one example: fenc (M, F),
        inputs and targets (M, T), and each metric's length. fx is the
        feature array that _feature_values returned."""
        fenc = self.feat_norm.scale(fx)
        targets = self.value_norm.scale(block.T).T
        # one-step-ahead: a zero start token, then each observed value
        inputs = np.zeros_like(targets)
        inputs[:, 1:] = targets[:, :-1]
        return fenc, inputs, targets, np.asarray(lengths)

    def _forward(self, fenc, inputs, targets, lengths):
        """Teacher-forced pass over one example; returns fresh per-metric losses (mean
        squared error over each metric's own length) and caches in the scratch."""
        p = self.params
        (M, T), H = inputs.shape, self.hidden_size
        X, A, cells, Hs, tcs = _pass_caches(M, T, H, self.input_dim)[:5]
        X[:, :, 0], X[:, :, 1:] = inputs, fenc[:, None, :]
        np.add(np.matmul(X, p["W"].transpose(0, 2, 1), A), p["b"][:, None, :], A)
        # time-major caches: Hs, and the cell blocks, whose c is the state each step starts from
        cells[:T, :4] = A.reshape(M, T, 4, H).transpose(1, 2, 0, 3)
        Hs[0], cells[0, 4] = self._seed_state(fenc)
        step = self._stepper()
        for cell, h, c_out, tc, h_out in zip(cells, Hs[:, :, :, None], cells[1:, 4], tcs, Hs[1:]):
            step(_cell_views(cell), h, c_out, tc, h_out)
        acts, Cs = cells[:T, :4], cells[:, 4]
        ys = _einsum("tmh,mh->mt", Hs[1:], p["w_y"]) + p["b_y"][:, None]
        err = np.where(np.arange(T) < lengths[:, None], ys - targets, 0.0)
        losses = np.add.reduce(err * err, 1) / np.maximum(lengths, 1)
        return losses, (X, Hs, Cs, acts, tcs, err)

    def _gradients(self, fenc, inputs, targets, lengths):
        """Full-sequence backpropagation through time for every metric.

        Steps past a metric's length get no output gradient, so each metric's
        gradient is that of its own unpadded sequence. Returns the losses and
        the gradients in one fresh buffer laid out as flat_params (see _views).
        """
        p, U = self.params, self.params["U"]
        losses, (X, Hs, Cs, acts, tcs, err) = self._forward(fenc, inputs, targets, lengths)
        (M, T), H = inputs.shape, self.hidden_size
        dYw, dtanh, (S2, S3, S4), dA, dhc = _pass_caches(M, T, H, self.input_dim)[5:]
        dY = 2.0 * err / np.maximum(lengths, 1)[:, None]
        # every factor that needs only the forward caches, for all steps at
        # once; each gate's delta is ((lead * S2) * S3) * S4, lead being dc, or
        # dh for the o gate, as in ((dc * g) * i) * (1 - i)
        np.multiply(dY.T[:, :, None], p["w_y"], dYw)
        np.subtract(1, np.multiply(tcs, tcs, dtanh), dtanh)
        S3[...] = acts.transpose(0, 2, 1, 3)  # the activations, metric-major
        np.subtract(1, S3, S4)
        S4[:, :, 3] = 1.0
        i, g = S3[:, :, 0], S3[:, :, 3]
        S2[:, :, 0], S2[:, :, 1], S2[:, :, 2], S2[:, :, 3] = g, Cs[:-1], tcs, i
        np.multiply(g, g, g)
        np.subtract(1, g, g)
        dh, dc, dh_next, dc_next = dhc
        dhc[2:] = 0.0  # dh_next and dc_next, which each step reads before it overwrites them
        dc_gates, dh_next_row = dc[:, None, :], dh_next[:, None]
        views = (dYw, acts[:, 2], dtanh, S2, S2[:, :, 2], S3, S4, dA, dA[:, :, 2],
                 dA.reshape(T, M, 1, 4 * H), acts[:, 1])
        for dyw, o, dt, s2, s2_o, s3, s4, da, da_o, da_row, f in zip(*(v[::-1] for v in views)):
            np.add(dyw, dh_next, dh)
            np.multiply(dh, o, dc)
            dc *= dt
            dc += dc_next
            np.multiply(dc_gates, s2, da)
            np.multiply(dh, s2_o, da_o)
            da *= s3
            da *= s4
            np.matmul(da_row, U, dh_next_row)
            np.multiply(dc, f, dc_next)
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
        _einsum("mt,tmh->mh", dY, Hs[1:], out=grads["w_y"])
        np.add.reduce(dY, 1, None, grads["b_y"])
        return losses, flat

    def update_all(self, f: Sequence[float], block: np.ndarray, lengths: np.ndarray) -> None:
        """Train every metric on one example: row m of block (M, T) holds
        metric m's first lengths[m] values, then zeros. A metric of length 0,
        which the example lacks, is left untouched.

        Refreshes the running normalizers, then runs epochs_per_update passes,
        each clipped per metric by the global norm of that metric's gradients.
        Any failure restores every metric's parameters, normalizers and length
        statistics; a value outside [-B, B] raises DomainError, a non-finite
        result TrainingDivergedError, and a length statistic that would reach
        2**53 ValueError.

        A pass whose n gradients' squares sum below lim**2 (1 - 1e-15 n) -
        1e-300, lim = min(clip_norm, 1e150), clips no metric: in any order, a
        sum of n squares is within a relative n*u (u = 2**-53; 1e-15 n is ~9n*u)
        plus n * 2**-1075 for underflow of its true sum. It steps by
        learning_rate, the exact clip's step at scale 1.0; NaN or inf go exact.
        """
        fx = self._feature_values(f)
        if len(block) != self.n_metrics:
            raise ValueError(f"{len(block)} series for {self.n_metrics} metrics")
        lengths = np.asarray(lengths)
        present = (lengths > 0)[:, None]
        vn, fn = self.value_norm, self.feat_norm
        # RunningMinMax.observe rebinds its bounds, so the bounds held here restore both
        backup = (
            self.flat_params.copy(), vn.lo, vn.hi, fn.lo, fn.hi,
            self.len_sum.copy(), self.len_count.copy(),
        )
        try:
            held = np.arange(block.shape[1]) < lengths[:, None]
            lo = np.minimum.reduce(block, 1, where=held, initial=np.inf)
            hi = np.maximum.reduce(block, 1, where=held, initial=-np.inf)
            # each row's largest magnitude: 0.0 for an absent row, NaN for a NaN
            check_within_b(np.maximum(np.maximum(hi, -lo), 0.0).tolist(),
                           (f"{getattr(m, 'value', 'a')} series" for m in self.metrics))
            vn.observe(lo, hi)
            fn.observe(np.where(present, fx, np.inf), np.where(present, fx, -np.inf))
            fenc, inputs, targets, lengths = self._training_data(fx, block, lengths)
            self.len_sum += lengths
            self.len_count += present[:, 0]
            if max(self.len_sum.max(), self.len_count.max()) >= 2**53:
                raise ValueError("a length statistic would reach 2**53, which restore refuses")
            M = self.n_metrics
            bound = min(self.clip_norm, 1e150) ** 2 * (1 - 1e-15 * self.flat_params.size) - 1e-300
            for _ in range(self.epochs_per_update):
                losses, g = self._gradients(fenc, inputs, targets, lengths)
                if not np.isfinite(losses).all():
                    raise TrainingDivergedError(f"non-finite loss {losses.tolist()}")
                if _einsum("i,i->", g, g) < bound:
                    g *= self.learning_rate
                else:
                    # each parameter's per-metric sum of squares, added parameter
                    # by parameter: accumulate adds the rows in order for every
                    # M, where reduce adds 8 rows pairwise when M is 1
                    sq = g * g
                    sums = np.empty((len(self._spans), M))
                    for j, (a, e) in enumerate(self._spans):
                        np.add.reduce(sq[a:e].reshape(M, -1), 1, None, sums[j])
                    total = np.sqrt(np.add.accumulate(sums, 0)[-1])
                    clipped = total > self.clip_norm
                    scale = np.where(clipped, self.clip_norm / np.where(clipped, total, 1.0), 1.0)
                    step = self.learning_rate * scale
                    for v in self._views(g).values():
                        v *= step.reshape((M,) + (1,) * (v.ndim - 1))
                self.flat_params -= g
            if not np.isfinite(self.flat_params).all():
                raise TrainingDivergedError("non-finite parameters after update")
        except BaseException as exc:
            # in place, so that every params[k] stays a view of the buffer
            self.flat_params[...] = backup[0]
            vn._bind(*backup[1:3])
            fn._bind(*backup[3:5])
            self.len_sum, self.len_count = backup[5:]
            if isinstance(exc, FloatingPointError):
                raise TrainingDivergedError("floating point failure during update") from exc
            raise

    # -- inference ---------------------------------------------------------

    def default_horizons(self) -> np.ndarray:
        """Per metric: max(1, ceil(len_sum / max(len_count, 1))), the running mean observed
        length rounded up as Python divides ints; update_all and restore keep both < 2**53."""
        s, n = self.len_sum, np.maximum(self.len_count, 1)
        return np.ceil(np.maximum(s, 1) / n).astype(np.int64)  # 1 where s is 0

    def forecast_all(
        self, f: Sequence[float], n: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Autoregressive forecast of every metric, denormalized, padding kept.

        Metric m runs n steps, or its own default horizon when n is None.
        Returns the block (M, T) and the horizons, an int array: row m's
        forecast is its first horizons[m] values; T is the longest horizon.
        """
        if n is not None and n < 1:
            raise ValueError(f"forecast horizon must be >= 1, got {n}")
        p = self.params
        M, H = self.n_metrics, self.hidden_size
        horizons = self.default_horizons() if n is None else np.full(M, n)
        fenc = self.feat_norm.scale(self._feature_values(f))
        # one cell block [i, f, o, g, c] and one h, stepped in place
        cell, tc = np.empty((5, M, H)), np.empty((M, H))
        h, cell[4] = self._seed_state(fenc)

        def gate_major(a):
            return np.ascontiguousarray(a.reshape(M, 4, H).transpose(1, 0, 2))

        # the features are constant over the rollout; only the value input moves
        w_x = gate_major(p["W"][:, :, 0])
        a_feat = gate_major(_matvec(p["W"][:, :, 1:], fenc) + p["b"])
        act, step = cell[:4], self._stepper()
        args = (_cell_views(cell), h[:, :, None], cell[4], tc, h)
        # step t reads the column ys[t] (M, 1), 0 at first, and writes ys[t + 1]
        ys, w_y, b_y = np.zeros((max(horizons.tolist()) + 1, M, 1)), p["w_y"], p["b_y"]
        for x, y in zip(ys, ys[1:, :, 0]):
            np.multiply(w_x, x, act)
            act += a_feat
            step(*args)
            _einsum("mh,mh->m", w_y, h, out=y)
            y += b_y
        return self.value_norm.unscale(ys[1:, :, 0]).T, horizons

    def update(self, f: Sequence[float], observed: SeriesBlock) -> None:
        self.update_all(f, *_one_row(observed))

    def loss(self, f: Sequence[float], observed: SeriesBlock) -> float:
        """Mean squared error on one example, with the normalizers as they stand."""
        data = self._training_data(self._feature_values(f), *_one_row(observed))
        return float(self._forward(*data)[0][0])

    def default_horizon(self) -> int:
        return int(self.default_horizons()[0])

    def forecast(self, f: Sequence[float], n: Optional[int] = None) -> np.ndarray:
        """The first metric's autoregressive forecast, denormalized: n values,
        or its default horizon's."""
        block, horizons = self.forecast_all(f, n)
        return block[0, :horizons[0]]

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
        """Take on the learned state to_dict wrote; ValueError if its parameter count
        or a statistic's shape differs from this model's, a parameter is not finite,
        a normalizer bound is past B and not unobserved (lo +inf, hi -inf), or a
        length statistic is not a list of integers in [0, 2**53)."""
        saved = np.array(d["flat_params"], dtype=float)
        if saved.shape != self.flat_params.shape:
            raise ValueError(f"{saved.size} parameters, expected {self.flat_params.size}")
        if not np.isfinite(saved).all():
            raise ValueError("a parameter is not finite")
        value_norm = RunningMinMax.from_dict(d["value_norm"])
        feat_norm = RunningMinMax.from_dict(d["feat_norm"])
        lens = []
        for k in ("len_sum", "len_count"):
            v = d[k]
            if type(v) is not list or any(type(x) is not int or not 0 <= x < 2**53 for x in v):
                raise ValueError(f"{k} is not a list of integers in [0, 2**53)")
            lens.append(np.array(v, dtype=np.int64))
        M, F = self.n_metrics, self.input_dim
        bounds = (value_norm.lo, value_norm.hi, feat_norm.lo, feat_norm.hi)
        shapes = [a.shape for a in (*bounds, *lens)]
        if shapes != [(M,), (M,), (M, F), (M, F), (M,), (M,)]:
            raise ValueError(f"normalizer and length statistics of shapes {shapes} for {M} metrics")
        names = ("value_norm lo", "value_norm hi", "feat_norm lo", "feat_norm hi")
        for name, v, unseen in zip(names, bounds, (np.inf, -np.inf) * 2):
            if not ((np.abs(v) <= B) | (v == unseen)).all():
                raise ValueError(f"a {name} bound is outside [-B, B], B = 2**64")
        # in place, so that every params[k] stays a view of the buffer
        self.flat_params[...] = saved
        self.value_norm, self.feat_norm = value_norm, feat_norm
        self.len_sum, self.len_count = lens
