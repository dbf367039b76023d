"""Recurrent forecaster: gradients, training, inference, persistence."""

import copy
import json
import math
from typing import List, Optional, Tuple

import numpy as np
import pytest

from wfpredict.domain import FeatureVector, MetricKind, MetricSeries
from wfpredict.forecaster import RunningMinMax, SequenceModel, TrainingDivergedError
from wfpredict.pipeline import _model_seed

GATES = ("i", "f", "o", "c")


def _fv(values):
    return FeatureVector(
        names=tuple(f"f{i}" for i in range(len(values))), values=tuple(values)
    )


def _series(values, tau=1):
    return MetricSeries(metric=MetricKind.utime, interval_seconds=tau, values=tuple(values))


def _block(series):
    """update_all's block and lengths for per-metric series, None where absent."""
    lengths = np.array([0 if s is None else len(s) for s in series])
    block = np.zeros((len(series), lengths.max()))
    for m, s in enumerate(series):
        block[m, :lengths[m]] = s or ()
    return block, lengths


class ReferenceModel:
    """The per-metric, per-gate cell the bank replaces, kept as its oracle:
    one metric, one gate at a time, one outer product per gate and step."""

    def __init__(self, input_dim, hidden_size, learning_rate, clip_norm, seed):
        rng = np.random.default_rng(seed)
        H, F = hidden_size, input_dim

        def u(*shape):
            return rng.uniform(-0.08, 0.08, size=shape)

        self.lr, self.clip_norm = learning_rate, clip_norm
        self.p = {}
        for g in GATES:
            self.p[f"W_{g}"] = u(H, 1 + F)
            self.p[f"U_{g}"] = u(H, H)
            self.p[f"b_{g}"] = np.ones(H) if g == "f" else np.zeros(H)
        self.p["W_h0"], self.p["b_h0"] = u(H, F), np.zeros(H)
        self.p["W_c0"], self.p["b_c0"] = u(H, F), np.zeros(H)
        self.p["w_y"], self.p["b_y"] = u(H), np.zeros(1)
        self.v_lo, self.v_hi = math.inf, -math.inf
        self.f_lo, self.f_hi = np.full(F, np.inf), np.full(F, -np.inf)
        self.len_sum = self.len_count = 0

    def _fenc(self, fx):
        rng = self.f_hi - self.f_lo
        seen = np.isfinite(rng) & (rng > 0)
        out = np.zeros_like(fx)
        out[seen] = (fx[seen] - self.f_lo[seen]) / rng[seen]
        return out

    def _step(self, xv, h, c):
        p = self.p
        i = 1 / (1 + np.exp(-(p["W_i"] @ xv + p["U_i"] @ h + p["b_i"])))
        f = 1 / (1 + np.exp(-(p["W_f"] @ xv + p["U_f"] @ h + p["b_f"])))
        o = 1 / (1 + np.exp(-(p["W_o"] @ xv + p["U_o"] @ h + p["b_o"])))
        g = np.tanh(p["W_c"] @ xv + p["U_c"] @ h + p["b_c"])
        c_new = f * c + i * g
        return o * np.tanh(c_new), c_new, (i, f, o, g)

    def update(self, fx, raw):
        raw = np.asarray(raw, dtype=float)
        self.v_lo, self.v_hi = min(self.v_lo, raw.min()), max(self.v_hi, raw.max())
        self.f_lo, self.f_hi = np.minimum(self.f_lo, fx), np.maximum(self.f_hi, fx)
        self.len_sum += len(raw)
        self.len_count += 1
        fenc, p, T = self._fenc(fx), self.p, len(raw)
        rng = self.v_hi - self.v_lo
        targets = (raw - self.v_lo) / rng if rng > 0 else np.zeros_like(raw)
        inputs = np.concatenate([[0.0], targets[:-1]])
        h, c = p["W_h0"] @ fenc + p["b_h0"], p["W_c0"] @ fenc + p["b_c0"]
        cache = []
        for t in range(T):
            xv = np.concatenate([[inputs[t]], fenc])
            h_new, c_new, gates = self._step(xv, h, c)
            cache.append((xv, h, c, gates, c_new, h_new))
            h, c = h_new, c_new
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dh_next, dc_next = np.zeros_like(h), np.zeros_like(c)
        for t in range(T - 1, -1, -1):
            xv, h_prev, c_prev, (i, f, o, g), c, h = cache[t]
            dy = 2.0 * (p["w_y"] @ h + p["b_y"][0] - targets[t]) / T
            grads["w_y"] += dy * h
            grads["b_y"][0] += dy
            dh = dy * p["w_y"] + dh_next
            tc = np.tanh(c)
            dc = dh * o * (1 - tc * tc) + dc_next
            das = {
                "i": dc * g * i * (1 - i),
                "f": dc * c_prev * f * (1 - f),
                "o": dh * tc * o * (1 - o),
                "c": dc * i * (1 - g * g),
            }
            for name, da in das.items():
                grads[f"W_{name}"] += np.outer(da, xv)
                grads[f"U_{name}"] += np.outer(da, h_prev)
                grads[f"b_{name}"] += da
            dh_next = sum(p[f"U_{name}"].T @ da for name, da in das.items())
            dc_next = dc * f
        grads["W_h0"] += np.outer(dh_next, fenc)
        grads["b_h0"] += dh_next
        grads["W_c0"] += np.outer(dc_next, fenc)
        grads["b_c0"] += dc_next
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        scale = self.clip_norm / total if total > self.clip_norm else 1.0
        for k in p:
            p[k] -= self.lr * scale * grads[k]
        return scale < 1.0

    def forecast(self, fx):
        n = max(1, math.ceil(self.len_sum / self.len_count))
        fenc, p = self._fenc(fx), self.p
        h, c = p["W_h0"] @ fenc + p["b_h0"], p["W_c0"] @ fenc + p["b_c0"]
        x, out = 0.0, []
        for _ in range(n):
            h, c, _ = self._step(np.concatenate([[x], fenc]), h, c)
            x = float(p["w_y"] @ h + p["b_y"][0])
            out.append(x * (self.v_hi - self.v_lo) + self.v_lo)
        return np.array(out)

    def fused(self):
        """This metric's parameters in the bank's layout."""
        p = self.p
        return {
            "W": np.concatenate([p[f"W_{g}"] for g in GATES]),
            "U": np.concatenate([p[f"U_{g}"] for g in GATES]),
            "b": np.concatenate([p[f"b_{g}"] for g in GATES]),
            "W_h0": p["W_h0"], "b_h0": p["b_h0"], "W_c0": p["W_c0"], "b_c0": p["b_c0"],
            "w_y": p["w_y"], "b_y": p["b_y"][0],
        }


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _matvec(a, x):
    return np.matmul(a, x[:, :, None])[:, :, 0]


class StridedOracle(SequenceModel):
    """The metric-axis kernel that the gate-major one replaced, kept verbatim
    as its bit-exact oracle: gates sliced as (M, 4H) columns, a copy into the
    caches per step, and an SGD step, clip and backup per parameter."""

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


class RebindingMinMax(RunningMinMax):
    """RunningMinMax as it was before observe skipped unchanged bounds, kept
    verbatim as its bit-exact oracle."""

    def observe(self, lo: np.ndarray, hi: np.ndarray):
        """Fold in observed element-wise bounds; +inf/-inf leave an element as is."""
        self._bind(np.minimum(self.lo, lo), np.maximum(self.hi, hi))


def max_param_gradient_error(model, fenc, inputs, targets, lengths=None, step=1e-5):
    """Worst per-tensor relative error between analytic and numeric gradients.

    fenc is (M, F), inputs and targets (M, T); lengths defaults to T for
    every metric. The numeric side differentiates the summed per-metric loss,
    which for each metric's parameters is that metric's own loss.
    """
    if lengths is None:
        lengths = np.full(len(inputs), inputs.shape[1])
    analytic = model._views(model._gradients(fenc, inputs, targets, lengths)[1])
    worst = 0.0
    for name, grad in analytic.items():
        numeric = np.zeros_like(grad)
        flat_n = numeric.reshape(-1)
        flat_p = model.params[name].reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + step
            plus = model._forward(fenc, inputs, targets, lengths)[0].sum()
            flat_p[j] = orig - step
            minus = model._forward(fenc, inputs, targets, lengths)[0].sum()
            flat_p[j] = orig
            flat_n[j] = (plus - minus) / (2 * step)
        denom = np.linalg.norm(grad) + np.linalg.norm(numeric)
        if denom > 0:
            worst = max(worst, float(np.linalg.norm(grad - numeric)) / denom)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(5):
        model = SequenceModel(input_dim=3, hidden_size=4, seeds=(trial,))
        fenc = rng.uniform(0, 1, size=(1, 3))
        inputs = rng.uniform(0, 1, size=(1, 5))
        targets = rng.uniform(0, 1, size=(1, 5))
        assert max_param_gradient_error(model, fenc, inputs, targets) < 1e-4


def test_gradients_match_finite_differences_for_unequal_lengths():
    # three metrics whose series end at different steps: steps past a
    # metric's end must contribute nothing to its loss or its gradients
    rng = np.random.default_rng(43)
    for trial in range(3):
        model = SequenceModel(input_dim=3, hidden_size=4, seeds=(trial, trial + 10, trial + 20))
        fenc = rng.uniform(0, 1, size=(3, 3))
        inputs = rng.uniform(0, 1, size=(3, 6))
        targets = rng.uniform(0, 1, size=(3, 6))
        lengths = np.array([6, 3, 1])
        assert max_param_gradient_error(model, fenc, inputs, targets, lengths) < 1e-4
        padded = targets.copy()
        padded[1, 3:] = 100.0
        padded[2, 1:] = -100.0
        a = model._forward(fenc, inputs, targets, lengths)[0]
        b = model._forward(fenc, inputs, padded, lengths)[0]
        assert np.array_equal(a, b)


def test_bank_matches_per_metric_reference():
    metrics = tuple(MetricKind)
    seeds = [_model_seed(0, "align", m.value) for m in metrics]
    # a small clip norm so that some metrics are clipped and others are not
    kw = dict(input_dim=8, hidden_size=10, learning_rate=0.2, clip_norm=0.2)
    bank = SequenceModel(seeds=seeds, metrics=metrics, tau=5, **kw)
    refs = [
        ReferenceModel(8, 10, kw["learning_rate"], kw["clip_norm"], seed) for seed in seeds
    ]
    for m, ref in enumerate(refs):
        for k, v in ref.fused().items():
            assert np.array_equal(bank.params[k][m], v), (m, k)

    rng = np.random.default_rng(44)
    fx = rng.uniform(1, 9, size=8)
    series = [tuple(rng.uniform(0, 50, size=int(rng.integers(1, 12)))) for _ in metrics]
    series[4] = None  # a metric the record lacks is left untouched
    bank.update_all(_fv(fx.tolist()), *_block(series))
    clipped = [ref.update(fx, s) for ref, s in zip(refs, series) if s is not None]
    assert any(clipped) and not all(clipped)
    forecasts, horizons = bank.forecast_all(_fv(fx.tolist()))
    for m, (ref, s) in enumerate(zip(refs, series)):
        for k, v in ref.fused().items():
            assert np.allclose(bank.params[k][m], v, rtol=0, atol=1e-12), (m, k)
        if s is not None:
            forecast = forecasts[m, :horizons[m]]
            assert np.allclose(forecast, ref.forecast(fx), rtol=1e-12, atol=1e-12), m
    assert bank.len_count.tolist() == [int(s is not None) for s in series]
    assert horizons[4] == 1



def test_gate_major_kernel_matches_the_strided_oracle_bit_for_bit():
    metrics = tuple(MetricKind)
    kw = dict(
        input_dim=8, hidden_size=10, learning_rate=0.2, clip_norm=0.2, tau=5, metrics=metrics,
        seeds=[_model_seed(3, "align", m.value) for m in metrics],
    )
    bank, oracle = SequenceModel(**kw), StridedOracle(**kw)
    clipped = []

    def recorded(fenc, inputs, targets, lengths):
        losses, grads = StridedOracle._gradients(oracle, fenc, inputs, targets, lengths)
        total = np.sqrt(sum(np.sum((g * g).reshape(len(g), -1), axis=1) for g in grads.values()))
        clipped.extend((total > oracle.clip_norm)[lengths > 0].tolist())
        return losses, grads

    oracle._gradients = recorded
    rng = np.random.default_rng(46)
    for step in range(20):
        fv = _fv(rng.uniform(1, 9, size=8).tolist())
        # unequal lengths, and one metric the record lacks
        series = [tuple(rng.uniform(0, 50, size=int(rng.integers(1, 14)))) for _ in metrics]
        series[step % len(metrics)] = None
        bank.update_all(fv, *_block(series))
        oracle.update_all(fv, *_block(series))
        for k, v in oracle.params.items():
            assert bank.params[k].tobytes() == v.tobytes(), (step, k)
        (a, ha), (b, hb) = bank.forecast_all(fv), oracle.forecast_all(fv)
        assert ha == hb and a.tobytes() == b.tobytes(), step
    assert any(clipped) and not all(clipped)
    assert json.dumps(bank.to_dict()) == json.dumps(oracle.to_dict())


@pytest.mark.parametrize("n_metrics", [1, 2])
def test_small_banks_match_the_strided_oracle_bit_for_bit(n_metrics):
    # a metric axis of length 1 or 2, which the 13-metric test never has
    kw = dict(
        input_dim=3, hidden_size=4, learning_rate=0.3, clip_norm=0.05, tau=5,
        seeds=range(7, 7 + n_metrics),
    )
    bank, oracle = SequenceModel(**kw), StridedOracle(**kw)
    rng = np.random.default_rng(47)
    for step in range(30):
        fv = _fv(rng.uniform(1, 9, size=3).tolist())
        series = [tuple(rng.uniform(0, 50, size=int(rng.integers(1, 9)))) for _ in range(n_metrics)]
        bank.update_all(fv, *_block(series))
        oracle.update_all(fv, *_block(series))
        assert bank.flat_params.tobytes() == oracle.flat_params.tobytes(), step
        (a, ha), (b, hb) = bank.forecast_all(fv), oracle.forecast_all(fv)
        assert ha == hb and a.tobytes() == b.tobytes(), step
    assert json.dumps(bank.to_dict()) == json.dumps(oracle.to_dict())


@pytest.mark.parametrize("n_metrics", [1, 2, 13])
def test_clip_adds_the_per_parameter_sums_in_parameter_order(n_metrics):
    # with one metric the per-parameter sums form a (9, 1) array, which a
    # pairwise reduce adds in another order than one parameter after the other
    rng = np.random.default_rng(48)
    model = SequenceModel(input_dim=3, hidden_size=4, clip_norm=1.0, seeds=range(n_metrics))
    for trial in range(50):
        grads = {
            k: rng.uniform(-1, 1, v.shape) * 10.0 ** rng.integers(-4, 4)
            for k, v in model.params.items()
        }
        g = np.concatenate([v.reshape(-1) for v in grads.values()])
        model._gradients = lambda *args: (np.zeros(n_metrics), g.copy())
        before = {k: v.copy() for k, v in model.params.items()}
        model.update_all(_fv([1.0, 2.0, 3.0]), *_block([(1.0, 2.0)] * n_metrics))
        # the StridedOracle's clip and step
        total = np.sqrt(sum(np.sum((v * v).reshape(n_metrics, -1), axis=1) for v in grads.values()))
        clipped = total > model.clip_norm
        scale = np.where(clipped, model.clip_norm / np.where(clipped, total, 1.0), 1.0)
        for k, v in grads.items():
            step = (model.learning_rate * scale).reshape((-1,) + (1,) * (v.ndim - 1))
            assert model.params[k].tobytes() == (before[k] - step * v).tobytes(), (trial, k)


def test_params_stay_views_of_the_flat_buffer():
    def bound(model):
        return all(
            v.flags.c_contiguous and np.shares_memory(v, model.flat_params)
            for v in model.params.values()
        ) and sum(v.size for v in model.params.values()) == model.flat_params.size

    def restored(state):
        again = SequenceModel(input_dim=1, seeds=(2, 3))
        again.restore(state)
        return again

    model = SequenceModel(input_dim=1, seeds=(2, 3))
    model.update_all(_fv([1.0]), *_block([(1.0, 2.0), (4.0,)]))
    assert bound(model)
    before = json.dumps(model.to_dict())
    model.params["w_y"][1] = 1e300  # a write through a view reaches the buffer
    assert model.flat_params.max() == 1e300
    with pytest.raises(TrainingDivergedError), np.errstate(over="ignore", invalid="ignore"):
        model.update_all(_fv([3.0]), *_block([(0.0, 9.0, 2.0), (7.0, 1.0)]))
    assert bound(model)
    assert model.params["w_y"][1, 0] == 1e300
    model.params["w_y"][1] = restored(json.loads(before)).params["w_y"][1]
    assert json.dumps(model.to_dict()) == before
    again = restored(json.loads(before))
    assert bound(again) and json.dumps(again.to_dict()) == before


def test_update_reduces_loss_on_repeated_series():
    model = SequenceModel(input_dim=2, hidden_size=10, learning_rate=0.3, seeds=(3,))
    f = _fv([1.0, 2.0])
    s = _series([2.0, 3.0, 5.0, 8.0])
    model.update(f, s)
    first = model.loss(f, s)
    for _ in range(299):
        model.update(f, s)
    assert model.loss(f, s) < first / 10


def test_update_with_zero_epochs_is_a_no_op_on_parameters():
    model = SequenceModel(input_dim=2, epochs_per_update=0, seeds=(1,))
    before = {k: v.copy() for k, v in model.params.items()}
    model.update(_fv([1.0, 2.0]), _series([1.0, 4.0, 2.0]))
    assert math.isfinite(model.loss(_fv([1.0, 2.0]), _series([1.0, 4.0, 2.0])))
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])
    # the normalizers and length statistics still advance
    assert model.len_count[0] == 1
    assert model.value_norm.lo[0] == 1.0
    assert model.value_norm.hi[0] == 4.0


def test_same_seed_gives_identical_initialization():
    a = SequenceModel(input_dim=4, seeds=(77,))
    b = SequenceModel(input_dim=4, seeds=(77,))
    c = SequenceModel(input_dim=4, seeds=(78,))
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_forget_gate_bias_starts_at_one():
    model = SequenceModel(input_dim=2, hidden_size=6, seeds=(0, 1))
    b = model.params["b"]  # gates stacked i, f, o, c
    assert np.array_equal(b[:, 6:12], np.ones((2, 6)))
    assert np.array_equal(b[:, :6], np.zeros((2, 6)))
    assert np.array_equal(b[:, 12:], np.zeros((2, 12)))


def test_default_horizon_tracks_mean_observed_length():
    model = SequenceModel(input_dim=1, seeds=(0,))
    assert model.default_horizon() == 1
    model.update(_fv([1.0]), _series([1.0, 2.0, 3.0]))
    model.update(_fv([1.0]), _series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert model.default_horizon() == math.ceil((3 + 6) / 2)


def test_forecast_length_and_interval():
    model = SequenceModel(input_dim=1, tau=5, seeds=(0,))
    model.update(_fv([1.0]), _series([2.0, 6.0, 4.0], tau=5))
    out = model.forecast(_fv([1.0]), 7)
    assert out.interval_seconds == 5
    assert 1 <= len(out.values) <= 7
    with pytest.raises(ValueError):
        model.forecast(_fv([1.0]), 0)


def test_forecast_is_deterministic():
    model = SequenceModel(input_dim=2, learning_rate=0.05, seeds=(9,))
    f = _fv([0.5, 1.5])
    for _ in range(20):
        model.update(f, _series([1.0, 3.0, 2.0, 5.0]))
    a = model.forecast(f, 6)
    b = model.forecast(f, 6)
    assert a.values == b.values


def test_serialization_round_trip_is_bit_exact():
    model = SequenceModel(
        input_dim=2, learning_rate=0.05, seeds=(4,), metrics=(MetricKind.vmRSS,)
    )
    f = _fv([0.5, 1.5])
    for _ in range(10):
        model.update(f, _series([1.0, 3.0, 2.0]))
    again = SequenceModel(
        input_dim=2, learning_rate=0.05, seeds=(4,), metrics=(MetricKind.vmRSS,)
    )
    again.restore(json.loads(json.dumps(model.to_dict())))
    assert all(np.array_equal(model.params[k], again.params[k]) for k in model.params)
    assert again.forecast(f, 5).values == model.forecast(f, 5).values
    # both keep training alike
    for _ in range(3):
        model.update(f, _series([2.0, 1.0, 4.0]))
        again.update(f, _series([2.0, 1.0, 4.0]))
    assert json.dumps(again.to_dict()) == json.dumps(model.to_dict())


def test_restore_rejects_a_parameter_count_mismatch():
    state = SequenceModel(input_dim=2, seeds=(4, 5)).to_dict()
    with pytest.raises(ValueError, match="parameters, expected"):
        SequenceModel(input_dim=2, seeds=(4,)).restore(state)
    with pytest.raises(ValueError, match="parameters, expected"):
        SequenceModel(input_dim=2, hidden_size=9, seeds=(4, 5)).restore(state)


def test_diverged_update_rolls_back_parameters():
    model = SequenceModel(input_dim=1, seeds=(2, 3))
    model.update_all(_fv([1.0]), *_block([(1.0, 2.0), (4.0,)]))

    def explode(fenc, inputs, targets, lengths):
        losses = np.array([0.5, math.inf])  # only the second metric diverges
        return losses, np.zeros_like(model.flat_params)

    before = json.dumps(model.to_dict())
    model._gradients = explode
    with pytest.raises(TrainingDivergedError):
        model.update_all(_fv([3.0]), *_block([(0.0, 9.0, 2.0), (7.0, 1.0)]))
    # parameters, normalizers and length statistics of both metrics
    assert json.dumps(model.to_dict()) == before


def test_running_min_max_scales_into_unit_interval():
    n = RunningMinMax(1)
    for v in (4.0, 10.0, 6.0):
        n.observe(np.array([v]), np.array([v]))
    assert n.scale(np.array([4.0]))[0] == 0.0
    assert n.scale(np.array([10.0]))[0] == 1.0
    assert abs(n.unscale(n.scale(np.array([6.0])))[0] - 6.0) < 1e-12


def test_running_min_max_unseen_dimension_maps_to_zero():
    n = RunningMinMax(2)
    out = n.scale(np.array([3.0, 4.0]))
    assert np.array_equal(out, np.zeros(2))


def test_running_min_max_matches_the_plain_formulas_on_ranges_that_fit():
    # the formulas scale and unscale used before ranges near the float64 maximum
    # were handled; every range that fits must give the same bits
    rng = np.random.default_rng(561)
    for _ in range(200):
        exp = rng.integers(-320, 300)
        lo = rng.uniform(-1, 1, 7) * 10.0 ** exp
        hi = lo + rng.uniform(0, 2, 7) * 10.0 ** exp
        n = RunningMinMax(7)
        n.observe(lo, hi)
        x = rng.uniform(-1, 3, 7) * 10.0 ** exp
        y = rng.uniform(-3, 3, 7)
        rng_ = hi - lo
        seen = rng_ > 0
        want = np.where(seen, (x - lo) / np.where(seen, rng_, 1.0), 0.0)
        assert n.scale(x).tobytes() == want.tobytes()
        assert n.unscale(y).tobytes() == (y * rng_ + lo).tobytes()
    # an element never observed passes y through, the sign of a zero included
    y = np.array([-0.0, 0.0, 1.5, -2.0, 5e-324])
    assert RunningMinMax(5).unscale(y).tobytes() == y.tobytes()


def _terms(n):
    return [getattr(n, k).tobytes() for k in ("lo", "hi", "_f", "_seen", "_den", "_lo", "_rng")]


def test_running_min_max_observe_matches_the_rebinding_oracle_bit_for_bit():
    rng = np.random.default_rng(563)
    big = np.finfo(np.float64).max
    pool = np.array([0.0, -0.0, np.inf, -np.inf, big, -big, 1.0, -1.0, 5e-324])
    for trial in range(200):
        shape = (3, 4) if trial % 2 else 5
        a, b = RunningMinMax(shape), RebindingMinMax(shape)
        for step in range(12):
            if step % 3 == 2:  # bounds already held: nothing moves
                lo, hi = a.lo.copy(), a.hi.copy()
            else:
                lo = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                              rng.uniform(-1e3, 1e3, shape))
                hi = np.where(rng.random(shape) < 0.3, rng.choice(pool, shape), lo)
            with np.errstate(over="ignore", invalid="ignore"):
                a.observe(lo, hi)
                b.observe(lo, hi)
                x, y = rng.choice(pool, shape), rng.uniform(-2, 2, shape)
                assert _terms(a) == _terms(b), (trial, step)
                assert a.scale(x).tobytes() == b.scale(x).tobytes(), (trial, step)
                assert a.unscale(y).tobytes() == b.unscale(y).tobytes(), (trial, step)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_running_min_max_observe_keeps_the_sign_of_a_zero_bound(first, second):
    n = RunningMinMax(2)
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    for v in (first, second):
        bound = np.array([v, -1.0])
        n.observe(bound, bound)
        lo, hi = np.minimum(lo, bound), np.maximum(hi, bound)
    # json.dumps tells -0.0 from 0.0, which == does not
    assert json.dumps(n.to_dict()) == json.dumps({"lo": lo.tolist(), "hi": hi.tolist()})
    assert _terms(n) == _terms(RebindingMinMax.from_dict(n.to_dict()))


def test_running_min_max_range_past_the_float64_maximum():
    big = np.finfo(np.float64).max
    n = RunningMinMax(2)
    n.observe(np.array([-big, 0.0]), np.array([big, big]))
    assert n.scale(np.array([-big, 0.0])).tolist() == [0.0, 0.0]
    assert n.scale(np.array([big, big])).tolist() == [1.0, 1.0]
    assert n.scale(np.array([0.0, big / 2])).tolist() == [0.5, 0.5]
    assert n.unscale(np.array([0.5, 0.5])).tolist() == [0.0, big / 2]
    # a forecast past the observed range saturates at the float64 limit
    assert n.unscale(np.array([2.0, -2.0])).tolist() == [big, -big]
