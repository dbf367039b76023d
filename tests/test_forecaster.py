"""Recurrent forecaster: gradients, training, inference, persistence."""

import copy
import json
import math
import tracemalloc
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from conftest import PAST_B, series_block
from wfpredict import forecaster
from wfpredict.domain import B, DomainError, MetricKind
from wfpredict.forecaster import RunningMinMax, SequenceModel, TrainingDivergedError
from wfpredict.pipeline import _model_seed

GATES = ("i", "f", "o", "c")


def _series(values):
    return series_block({MetricKind.utime: values})


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

    def update_all(self, f: Sequence[float], block: np.ndarray, lengths: np.ndarray) -> None:
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
            # in place, so that every params[k] stays a view of flat_params
            for k, v in backup[0].items():
                self.params[k][...] = v
            (self.value_norm, self.feat_norm, self.len_sum, self.len_count) = backup[1:]
            if isinstance(exc, FloatingPointError):
                raise TrainingDivergedError("floating point failure during update") from exc
            raise

    def forecast_all(
        self, f: Sequence[float], n: Optional[int] = None
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
    bank = SequenceModel(seeds=seeds, metrics=metrics, **kw)
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
    bank.update_all(fx.tolist(), *_block(series))
    clipped = [ref.update(fx, s) for ref, s in zip(refs, series) if s is not None]
    assert any(clipped) and not all(clipped)
    forecasts, horizons = bank.forecast_all(fx.tolist())
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
        input_dim=8, hidden_size=10, learning_rate=0.2, clip_norm=0.2, metrics=metrics,
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
        fv = rng.uniform(1, 9, size=8).tolist()
        # unequal lengths, and one metric the record lacks
        series = [tuple(rng.uniform(0, 50, size=int(rng.integers(1, 14)))) for _ in metrics]
        series[step % len(metrics)] = None
        bank.update_all(fv, *_block(series))
        oracle.update_all(fv, *_block(series))
        for k, v in oracle.params.items():
            assert bank.params[k].tobytes() == v.tobytes(), (step, k)
        (a, ha), (b, hb) = bank.forecast_all(fv), oracle.forecast_all(fv)
        assert np.array_equal(ha, hb) and a.tobytes() == b.tobytes(), step
    assert any(clipped) and not all(clipped)
    assert json.dumps(bank.to_dict()) == json.dumps(oracle.to_dict())


@pytest.mark.parametrize("n_metrics", [1, 2])
def test_small_banks_match_the_strided_oracle_bit_for_bit(n_metrics):
    # a metric axis of length 1 or 2, which the 13-metric test never has
    kw = dict(
        input_dim=3, hidden_size=4, learning_rate=0.3, clip_norm=0.05,
        seeds=range(7, 7 + n_metrics),
    )
    bank, oracle = SequenceModel(**kw), StridedOracle(**kw)
    rng = np.random.default_rng(47)
    for step in range(30):
        fv = rng.uniform(1, 9, size=3).tolist()
        series = [tuple(rng.uniform(0, 50, size=int(rng.integers(1, 9)))) for _ in range(n_metrics)]
        bank.update_all(fv, *_block(series))
        oracle.update_all(fv, *_block(series))
        assert bank.flat_params.tobytes() == oracle.flat_params.tobytes(), step
        (a, ha), (b, hb) = bank.forecast_all(fv), oracle.forecast_all(fv)
        assert np.array_equal(ha, hb) and a.tobytes() == b.tobytes(), step
    assert json.dumps(bank.to_dict()) == json.dumps(oracle.to_dict())


def _zero_gates(model, rng):
    """Signed zeros in every weight and bias of the i and o gates: each of
    their pre-activations is an exact zero, summed from terms of both signs."""
    H = model.hidden_size
    for g in (0, 2):
        for k in ("W", "U", "b"):
            v = model.params[k][:, g * H:(g + 1) * H]
            v[...] = rng.choice([0.0, -0.0], v.shape)


def _saturated_gates(model, rng):
    """Biases of 710 to 900 of either sign, where exp overflows."""
    b = model.params["b"]
    b[...] = rng.uniform(710, 900, b.shape) * rng.choice([-1.0, 1.0], b.shape)


def _first_forecast_zero_in_i_and_o(pre, H):
    # the first forecast, before any update, steps from the edited parameters
    return all(not a[:, :H].any() and not a[:, 2 * H:3 * H].any() for a in pre[:2])


def _overflows_both_ways(pre, H):
    a = np.concatenate(pre)
    return (a <= -710).any() and (a >= 710).any()


_STEPPER_CASES = {
    # name: (metrics, hidden size, edit of both models' parameters, check of
    # the oracle's pre-activations a + Uh)
    "zero-pre-activations": (3, 4, _zero_gates, _first_forecast_zero_in_i_and_o),
    "exp-overflowing-pre-activations": (3, 4, _saturated_gates, _overflows_both_ways),
    "one-metric-one-unit": (1, 1, lambda model, rng: None, lambda pre, H: True),
}


@pytest.mark.parametrize("case", list(_STEPPER_CASES))
def test_the_stepper_matches_the_strided_oracle_on_edge_cases_bit_for_bit(case):
    M, H, edit, check = _STEPPER_CASES[case]
    kw = dict(input_dim=3, hidden_size=H, learning_rate=0.3, clip_norm=0.5,
              seeds=range(11, 11 + M))
    bank, oracle = SequenceModel(**kw), StridedOracle(**kw)
    for model in (bank, oracle):
        edit(model, np.random.default_rng(52))
    pre, cell, U = [], oracle._cell, oracle.params["U"]
    oracle._cell = lambda a_in, h, c: pre.append(a_in + _matvec(U, h)) or cell(a_in, h, c)
    rng = np.random.default_rng(53)
    longest = 1
    with np.errstate(over="ignore"):
        for step in range(8):
            fv = rng.uniform(1, 9, 3).tolist()
            # horizon 1, the default horizons, and a horizon past every trained length
            for n in (1, None, 3 * longest):
                (a, ha), (b, hb) = bank.forecast_all(fv, n), oracle.forecast_all(fv, n)
                assert np.array_equal(ha, hb) and a.tobytes() == b.tobytes(), (step, n)
            series = [tuple(rng.uniform(0, 50, size=int(rng.integers(1, 7)))) for _ in range(M)]
            longest = max(longest, *map(len, series))
            bank.update_all(fv, *_block(series))
            oracle.update_all(fv, *_block(series))
            assert bank.flat_params.tobytes() == oracle.flat_params.tobytes(), step
    assert check(pre, H)
    assert json.dumps(bank.to_dict()) == json.dumps(oracle.to_dict())


def test_training_and_forecasting_step_through_one_cell():
    """_forward and forecast_all each take one step of _stepper's cell per time step."""
    model = SequenceModel(input_dim=3, hidden_size=4, seeds=range(2))
    steps = []
    stepper = model._stepper

    def counted():
        step = stepper()
        return lambda *args: steps.append(1) or step(*args)

    model._stepper = counted
    model.update_all([1.0, 2.0, 3.0], *_block([(1.0, 2.0, 3.0, 4.0), (5.0,)]))
    assert len(steps) == 4
    model.forecast_all([1.0, 2.0, 3.0], 6)
    assert len(steps) == 10


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
        model.update_all([1.0, 2.0, 3.0], *_block([(1.0, 2.0)] * n_metrics))
        # the StridedOracle's clip and step
        total = np.sqrt(sum(np.sum((v * v).reshape(n_metrics, -1), axis=1) for v in grads.values()))
        clipped = total > model.clip_norm
        scale = np.where(clipped, model.clip_norm / np.where(clipped, total, 1.0), 1.0)
        for k, v in grads.items():
            step = (model.learning_rate * scale).reshape((-1,) + (1,) * (v.ndim - 1))
            assert model.params[k].tobytes() == (before[k] - step * v).tobytes(), (trial, k)


def _exact_steps(model, g, epochs):
    """The flat parameters after epochs steps on the gradient g, each clipped
    per metric as the StridedOracle clips; the model is left as it is."""
    M, flat, grads = model.n_metrics, model.flat_params.copy(), model._views(g)
    with np.errstate(over="ignore"):
        total = np.sqrt(sum(np.sum((v * v).reshape(M, -1), axis=1) for v in grads.values()))
    clipped = total > model.clip_norm
    scale = np.where(clipped, model.clip_norm / np.where(clipped, total, 1.0), 1.0)
    step = g.copy()
    for v in model._views(step).values():
        v *= (model.learning_rate * scale).reshape((-1,) + (1,) * (v.ndim - 1))
    for _ in range(epochs):
        flat -= step
    return flat, clipped


def _near_the_bound(factor):
    """A gradient whose sum of squares is factor * clip_norm**2 * (1 - 1e-15 n)."""
    def make(model, g):
        bound = model.clip_norm ** 2 * (1 - 1e-15 * g.size)
        return g * math.sqrt(factor * bound / np.einsum("i,i->", g, g))
    return make


def _one_metric_at(value):
    """Tiny everywhere, and value in metric 0's first parameter."""
    def make(model, g):
        g = g * 1e-30
        g[0] = value(model.clip_norm)
        return g
    return make


_CLIP_CASES = {
    # name: (clip_norm, epochs, gradient, takes the fast path, metric 0 clipped)
    "global-norm-just-under-the-bound": (5.0, 1, _near_the_bound(1 - 1e-13), True, False),
    "global-norm-just-over-the-bound": (5.0, 1, _near_the_bound(1 + 1e-13), False, False),
    "global-norm-at-clip-norm": (5.0, 1, _near_the_bound(1 / (1 - 1e-15 * 543)), False, False),
    "one-metric-at-clip-norm": (5.0, 1, _one_metric_at(lambda c: c), False, False),
    "one-metric-just-over-clip-norm": (
        5.0, 1, _one_metric_at(lambda c: np.nextafter(c, np.inf)), False, True),
    "3-epochs-under-the-bound": (5.0, 3, _near_the_bound(0.3), True, False),
    "3-epochs-one-metric-over": (5.0, 3, _one_metric_at(lambda c: 2 * c), False, True),
    "clip-norm-1e308-unit-gradient": (1e308, 1, lambda model, g: g, True, False),
    "clip-norm-1e308-gradient-1e140": (1e308, 1, lambda model, g: g * 1e140, True, False),
    # every square overflows: the exact path clips every metric to a step of 0
    "clip-norm-1e308-gradient-1e200": (1e308, 1, lambda model, g: g * 1e200, False, True),
}


@pytest.mark.parametrize("case", list(_CLIP_CASES))
def test_the_unclipped_fast_path_steps_as_the_exact_clip_bit_for_bit(case):
    clip_norm, epochs, make, fast, metric_0_clipped = _CLIP_CASES[case]
    model = SequenceModel(
        input_dim=3, hidden_size=4, clip_norm=clip_norm, epochs_per_update=epochs, seeds=range(3),
    )
    assert model.flat_params.size == 543
    g = make(model, np.random.default_rng(49).uniform(-1, 1, model.flat_params.size))
    expected, clipped = _exact_steps(model, g, epochs)
    assert clipped[0] == metric_0_clipped
    model._gradients = lambda *args: (np.zeros(3), g.copy())
    # the exact path reads the gradient's per-parameter views; the fast path none
    exact_calls = []
    views = model._views
    model._views = lambda flat: exact_calls.append(1) or views(flat)
    with np.errstate(over="ignore"):
        model.update_all([1.0, 2.0, 3.0], *_block([(1.0, 2.0)] * 3))
    assert len(exact_calls) == (0 if fast else epochs)
    assert model.flat_params.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_gradient_still_diverges_and_rolls_back(bad):
    model = SequenceModel(input_dim=3, hidden_size=4, seeds=range(3))
    model.update_all([1.0, 2.0, 3.0], *_block([(1.0, 2.0)] * 3))
    before, forecast = json.dumps(model.to_dict()), model.forecast_all([1.0, 2.0, 3.0])[0]
    g = np.random.default_rng(50).uniform(-1e-3, 1e-3, model.flat_params.size)
    g[100] = bad
    model._gradients = lambda *args: (np.zeros(3), g.copy())
    # new values and features, so that both normalizers move before the failure
    with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
        model.update_all([7.0, -2.0, 3.0], *_block([(9.0, -4.0, 2.0)] * 3))
    assert json.dumps(model.to_dict()) == before
    assert model.forecast_all([1.0, 2.0, 3.0])[0].tobytes() == forecast.tobytes()


def test_forecasts_match_a_fresh_restore_after_every_change_of_state():
    kw = dict(input_dim=3, hidden_size=4, learning_rate=0.3, seeds=range(3))
    model, f = SequenceModel(**kw), [1.0, 2.0, 3.0]

    def assert_as_restored():
        again = SequenceModel(**kw)
        again.restore(json.loads(json.dumps(model.to_dict())))
        for n in (None, 4):
            (a, ha), (b, hb) = model.forecast_all(f, n), again.forecast_all(f, n)
            assert np.array_equal(ha, hb) and a.tobytes() == b.tobytes()

    model.update_all(f, *_block([(1.0, 4.0, 2.0), (3.0,), None]))
    assert_as_restored()
    saved = json.loads(json.dumps(model.to_dict()))
    # rolled back after both normalizers and the length statistics moved
    model._gradients = lambda *args: (np.array([0.1, math.nan, 0.2]), np.zeros_like(model.flat_params))
    with pytest.raises(TrainingDivergedError):
        model.update_all([9.0, -4.0, 0.5], *_block([(50.0, -7.0), (8.0, 1.0, 2.0, 5.0), (2.0,)]))
    del model._gradients
    assert model.to_dict() == saved
    assert_as_restored()
    model.update_all([2.0, 0.0, 4.0], *_block([(5.0, 3.0), (1.0, 1.0, 6.0), (2.0, 8.0)]))
    assert_as_restored()
    model.restore(saved)
    assert_as_restored()
    model.params["w_y"][1] = 0.25
    assert_as_restored()


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
    model.update_all([1.0], *_block([(1.0, 2.0), (4.0,)]))
    assert bound(model)
    before = json.dumps(model.to_dict())
    model.params["w_y"][1] = 1e300  # a write through a view reaches the buffer
    assert model.flat_params.max() == 1e300
    with pytest.raises(TrainingDivergedError), np.errstate(over="ignore", invalid="ignore"):
        model.update_all([3.0], *_block([(0.0, 9.0, 2.0), (7.0, 1.0)]))
    assert bound(model)
    assert model.params["w_y"][1, 0] == 1e300
    model.params["w_y"][1] = restored(json.loads(before)).params["w_y"][1]
    assert json.dumps(model.to_dict()) == before
    again = restored(json.loads(before))
    assert bound(again) and json.dumps(again.to_dict()) == before


def _past_the_cap(M, H):
    """A block width whose training pass needs more than the scratch's cap:
    S and dA alone hold 16 T M H float64s."""
    return forecaster._SCRATCH_CAP // (8 * 16 * M * H) + 1


def test_the_shared_scratch_never_aliases_what_outlives_a_pass():
    """Two banks of other shapes take turns on the one scratch; every update,
    forecast and loss of each matches the StridedOracle's, which allocates afresh."""
    shapes = {"wide": (13, 10, 8), "narrow": (2, 3, 8)}
    pairs = {
        name: tuple(cls(input_dim=F, hidden_size=H, learning_rate=0.3, clip_norm=0.5,
                        seeds=range(M)) for cls in (SequenceModel, StridedOracle))
        for name, (M, H, F) in shapes.items()
    }
    rng = np.random.default_rng(55)
    big = _past_the_cap(*shapes["wide"][:2])

    def lengths_for(name, kind):
        M = shapes[name][0]
        return {
            "no-series": [0] * M, "one": [1] * M, "seven": [7] * M,
            "unequal": rng.integers(0, 8, M).tolist(), "past-the-cap": [big] * M,
        }[kind]

    def assert_alike(name, fv, where):
        bank, oracle = pairs[name]
        assert json.dumps(bank.to_dict()) == json.dumps(oracle.to_dict()), where
        for n in (None, 3):
            (a, ha), (b, hb) = bank.forecast_all(fv, n), oracle.forecast_all(fv, n)
            assert np.array_equal(ha, hb) and a.tobytes() == b.tobytes(), where

    def losses(model, fv, block, lengths):
        return model._forward(*model._training_data(np.array(fv), block, lengths))[0]

    kinds = ["no-series", "one", "seven", "unequal", "diverged", "unequal", "seven"]
    steps = [(kind, name) for kind in kinds for name in shapes] + [("past-the-cap", "wide")]
    for step, (kind, name) in enumerate(steps):
        bank, oracle = pairs[name]
        fv = rng.uniform(1, 9, 8).tolist()
        lens = lengths_for(name, "unequal" if kind == "diverged" else kind)
        block, lens = _block([tuple(rng.choice([0.0, -0.0, 3.0, 40.0], n)) or None for n in lens])
        if kind == "diverged":
            for model in (bank, oracle):
                real = model._gradients
                model._gradients = lambda *a, real=real: (real(*a)[0] * math.nan, real(*a)[1])
                with pytest.raises(TrainingDivergedError), np.errstate(invalid="ignore"):
                    model.update_all(fv, block, lens)
                del model._gradients
        else:
            bank.update_all(fv, block, lens)
            oracle.update_all(fv, block, lens)
        where = (step, kind, name)
        assert_alike(name, fv, where)
        # a loss of each bank between the updates of the other
        other = pairs["narrow" if name == "wide" else "wide"]
        M = other[0].n_metrics
        oblock, olens = _block([tuple(rng.uniform(0, 9, 5))] * M)
        first = losses(other[0], fv, oblock, olens)
        kept = first.tobytes()
        assert kept == losses(other[1], fv, oblock, olens).tobytes(), where
        # the losses outlive the next pass, one of the same shape
        losses(other[0], fv, *_block([tuple(rng.uniform(0, 9, 5))] * M))
        assert first.tobytes() == kept, where
        g = bank._gradients(*bank._training_data(np.array(fv), block, lens))[1]
        assert not np.may_share_memory(g, forecaster._scratch), where
        assert_alike(name, fv, where)


def test_a_warm_update_allocates_no_large_caches():
    M, H, F = 13, 10, 8
    model = SequenceModel(input_dim=F, hidden_size=H, seeds=range(M))
    rng = np.random.default_rng(56)

    def update(T):
        model.update_all(rng.uniform(1, 9, F).tolist(), *_block([tuple(rng.uniform(0, 9, T))] * M))

    update(40)
    tracemalloc.start()
    try:
        update(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S and dA alone take 666 KB at T = 40, and fresh caches about 1.3 MB
    assert peak < 400_000
    size, big = forecaster._scratch.size, _past_the_cap(M, H)
    update(big)
    assert forecaster._scratch.size == size and (M, big, H, F) not in forecaster._carvings


def test_update_reduces_loss_on_repeated_series():
    model = SequenceModel(input_dim=2, hidden_size=10, learning_rate=0.3, seeds=(3,))
    f = [1.0, 2.0]
    s = _series([2.0, 3.0, 5.0, 8.0])
    model.update(f, s)
    first = model.loss(f, s)
    for _ in range(299):
        model.update(f, s)
    assert model.loss(f, s) < first / 10


def test_update_with_zero_epochs_is_a_no_op_on_parameters():
    model = SequenceModel(input_dim=2, epochs_per_update=0, seeds=(1,))
    before = {k: v.copy() for k, v in model.params.items()}
    model.update([1.0, 2.0], _series([1.0, 4.0, 2.0]))
    assert math.isfinite(model.loss([1.0, 2.0], _series([1.0, 4.0, 2.0])))
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])
    # the normalizers and length statistics still advance
    assert model.len_count[0] == 1
    assert model.value_norm.lo[0] == 1.0
    assert model.value_norm.hi[0] == 4.0


def test_update_of_a_one_metric_block_leaves_the_bytes_of_update_all_on_its_row():
    one, block = (SequenceModel(input_dim=2, seeds=(5,)) for _ in range(2))
    f = [0.5, 1.5]
    for values in ([1.0, 3.0, 2.0], [2.0, 7.0, 4.0, 1.0, 0.0], [-3.0]):
        one.update(f, _series(values))
        block.update_all(f, np.array([values]), np.array([len(values)]))
        assert json.dumps(one.to_dict()) == json.dumps(block.to_dict())


@pytest.mark.parametrize("rows", [
    {}, {MetricKind.utime: (1.0, 2.0), MetricKind.stime: (3.0,)},
], ids=["0-metrics", "2-metrics"])
def test_update_and_loss_refuse_a_block_of_another_metric_count(rows):
    model = SequenceModel(input_dim=2, seeds=(4,))
    model.update([0.5, 1.5], _series([1.0, 3.0, 2.0]))
    before = json.dumps(model.to_dict())
    error = f"^a one-metric block is needed, got {len(rows)} metrics$"
    for call in (model.update, model.loss):
        with pytest.raises(ValueError, match=error):
            call([0.5, 1.5], series_block(rows))
    assert json.dumps(model.to_dict()) == before


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


def test_default_horizons_round_the_mean_length_up_as_python_does_in_every_state():
    """max(1, ceil(s / max(n, 1))) with Python's int / int, for sums and
    counts over the whole range restore takes, [0, 2**53), counts of 0 among them."""
    model = SequenceModel(input_dim=1, seeds=range(6))
    rng = np.random.default_rng(54)
    edges = [0, 1, 2, 7, 2**52, 2**53 - 2, 2**53 - 1, 10 * 2**50 + 1]
    for trial in range(400):
        s = [int(rng.choice(edges)) if rng.random() < 0.3 else int(rng.integers(0, 2**53))
             for _ in range(6)]
        n = [int(rng.choice([0, 1, 3, 2**50, 2**53 - 1, int(rng.integers(0, 2**53))]))
             for _ in range(6)]
        if trial % 4 == 1:  # lengths as updates count them
            n = [int(rng.integers(0, 50)) for _ in range(6)]
            s = [int(rng.integers(c, 40 * c + 1)) for c in n]
        model.len_sum, model.len_count = np.array(s, dtype=np.int64), np.array(n, dtype=np.int64)
        want = [max(1, math.ceil(a / max(b, 1))) for a, b in zip(s, n)]
        assert model.default_horizons().tolist() == want, (s, n)
    # 10 + 2**-50 rounds to 10 as a float64, where the exact ceiling is 11
    model.len_sum[:], model.len_count[:] = 10 * 2**50 + 1, 2**50
    assert model.default_horizons().tolist() == [10] * 6


def test_default_horizon_tracks_mean_observed_length():
    model = SequenceModel(input_dim=1, seeds=(0,))
    assert model.default_horizon() == 1
    model.update([1.0], _series([1.0, 2.0, 3.0]))
    model.update([1.0], _series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert model.default_horizon() == math.ceil((3 + 6) / 2)


def test_forecast_gives_n_values_trailing_zeros_included():
    """forecast is row 0 of forecast_all, cut at its horizon: a bank trained
    once on six 0.0 samples forecasts zeros, and keeps all n of them."""
    model = SequenceModel(input_dim=2, seeds=(0,))
    model.update([1.0, 2.0], _series([0.0] * 6))
    block = model.forecast_all([1.0, 2.0], 5)[0]
    out = model.forecast([1.0, 2.0], 5)
    assert out.dtype == np.float64 and out.tolist() == block[0].tolist() == [0.0] * 5
    assert len(model.forecast([1.0, 2.0])) == model.default_horizon() == 6
    model.update([1.0, 2.0], _series([2.0, 6.0, 4.0]))
    assert len(model.forecast([1.0, 2.0], 7)) == 7
    with pytest.raises(ValueError):
        model.forecast([1.0, 2.0], 0)


def test_forecast_is_deterministic():
    model = SequenceModel(input_dim=2, learning_rate=0.05, seeds=(9,))
    f = [0.5, 1.5]
    for _ in range(20):
        model.update(f, _series([1.0, 3.0, 2.0, 5.0]))
    a = model.forecast(f, 6)
    b = model.forecast(f, 6)
    assert a.tobytes() == b.tobytes()


def test_serialization_round_trip_is_bit_exact():
    model = SequenceModel(
        input_dim=2, learning_rate=0.05, seeds=(4,), metrics=(MetricKind.vmRSS,)
    )
    f = [0.5, 1.5]
    for _ in range(10):
        model.update(f, _series([1.0, 3.0, 2.0]))
    again = SequenceModel(
        input_dim=2, learning_rate=0.05, seeds=(4,), metrics=(MetricKind.vmRSS,)
    )
    again.restore(json.loads(json.dumps(model.to_dict())))
    assert all(np.array_equal(model.params[k], again.params[k]) for k in model.params)
    assert again.forecast(f, 5).tobytes() == model.forecast(f, 5).tobytes()
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
    model.update_all([1.0], *_block([(1.0, 2.0), (4.0,)]))

    def explode(fenc, inputs, targets, lengths):
        losses = np.array([0.5, math.inf])  # only the second metric diverges
        return losses, np.zeros_like(model.flat_params)

    before = json.dumps(model.to_dict())
    model._gradients = explode
    with pytest.raises(TrainingDivergedError):
        model.update_all([3.0], *_block([(0.0, 9.0, 2.0), (7.0, 1.0)]))
    # parameters, normalizers and length statistics of both metrics
    assert json.dumps(model.to_dict()) == before


def test_a_floating_point_failure_in_an_update_diverges_and_rolls_back():
    """numpy raises FloatingPointError under an errstate of "raise": the
    update is rolled back whole and reported as a divergence."""
    model = SequenceModel(input_dim=1, seeds=(2, 3))
    model.update_all([1.0], *_block([(1.0, 2.0), (4.0,)]))
    before = json.dumps(model.to_dict())

    def fail(*args):
        raise FloatingPointError("overflow encountered in multiply")

    model._gradients = fail
    with pytest.raises(TrainingDivergedError, match="^floating point failure during update") as e:
        model.update_all([3.0], *_block([(0.0, 9.0, 2.0), (7.0, 1.0)]))
    assert isinstance(e.value.__cause__, FloatingPointError)
    del model._gradients
    assert json.dumps(model.to_dict()) == before


@pytest.mark.parametrize("kw, error", [
    (dict(seeds=()), "need one or more seeds and one metric each, got 0 seeds"),
    (dict(seeds=(4, 5), metrics=(MetricKind.utime,)),
     "need one or more seeds and one metric each, got 2 seeds"),
    # PipelineConfig refuses it first; a direct caller meets this check
    (dict(hidden_size=0), "hidden_size must be >= 1, got 0"),
])
def test_the_bank_refuses_a_shape_it_cannot_build(kw, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        SequenceModel(input_dim=2, **kw)


@pytest.mark.parametrize("series", [
    # one row broadcasts over both normalizers
    [(9.0, -4.0)],
    # three rows broadcast over neither, and once met numpy's error first
    [(9.0, -4.0), (1.0,), (2.0, 2.0)],
])
def test_an_update_of_another_row_count_is_refused_and_rolls_back(series):
    """The row count is checked before the normalizers see the block."""
    model = SequenceModel(input_dim=2, seeds=(4, 5))
    model.update_all([1.0, 2.0], *_block([(1.0, 2.0), (3.0,)]))
    before = json.dumps(model.to_dict())
    with pytest.raises(ValueError, match=f"^{len(series)} series for 2 metrics$"):
        model.update_all([5.0, -2.0], *_block(series))
    assert json.dumps(model.to_dict()) == before


@pytest.mark.parametrize("f, error", [
    ([1.0], ValueError),
    ([1.0, 2.0, 3.0], ValueError),
    ([[1.0, 2.0]], ValueError),
    ([math.nan, 2.0], DomainError),
    ([1.0, math.inf], DomainError),
    ([-math.inf, 2.0], DomainError),
    ([PAST_B, 2.0], DomainError),
    ([1.0, -1e308], DomainError),
])
def test_features_are_checked_before_any_change(f, error):
    """update, forecast and loss refuse features of another width or with a
    value outside [-B, B], and an update refused so changes nothing."""
    model = SequenceModel(input_dim=2, seeds=(4,))
    model.update([0.5, 1.5], _series([1.0, 3.0, 2.0]))
    before = json.dumps(model.to_dict())
    with pytest.raises(error):
        model.update(f, _series([2.0, 1.0, 4.0]))
    with pytest.raises(error):
        model.forecast(f, 3)
    with pytest.raises(error):
        model.loss(f, _series([2.0, 1.0, 4.0]))
    assert json.dumps(model.to_dict()) == before


@pytest.mark.parametrize("value", [PAST_B, -1e308, math.inf, math.nan])
def test_update_all_refuses_an_observed_value_past_b_before_any_change(value):
    """A held value outside [-B, B] is refused, naming its metric's series and
    B, with parameters, normalizers and length statistics as they were."""
    model = SequenceModel(input_dim=2, seeds=(4, 5), metrics=(MetricKind.utime, MetricKind.stime))
    model.update_all([0.5, 1.5], np.array([[1.0, 3.0, 2.0], [2.0, B, 0.0]]), np.array([3, 2]))
    before = json.dumps(model.to_dict())
    with pytest.raises(DomainError, match=r"^stime series .* is outside \[-B, B\], B = 2\*\*64$"):
        block = np.array([[1.0, 2.0, 0.0], [3.0, value, 1.0]])
        model.update_all([0.5, 1.5], block, np.array([2, 3]))
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


def test_running_min_max_matches_the_plain_formulas_on_ranges_within_b():
    # bounds within [-B, B], as update_all and restore hold them: scale and
    # unscale are the plain formulas, bit for bit, and no unscale here reaches B
    rng = np.random.default_rng(561)
    for _ in range(200):
        exp = rng.integers(-320, 19)
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
    return [getattr(n, k).tobytes() for k in ("lo", "hi", "_seen", "_den", "_lo", "_rng")]


def test_running_min_max_observe_matches_the_rebinding_oracle_bit_for_bit():
    """Bounds within [-B, B], or unobserved (a lo of +inf, a hi of -inf), as
    update_all and restore hold them. Only a scale may overflow: B over a range
    of 5e-324 is past the float64 maximum, as the bound limits values, not quotients."""
    rng = np.random.default_rng(563)
    pool = np.array([0.0, -0.0, B, -B, 1.0, -1.0, 5e-324])
    for trial in range(200):
        shape = (3, 4) if trial % 2 else 5
        a, b = RunningMinMax(shape), RebindingMinMax(shape)
        for step in range(12):
            if step % 3 == 2:  # bounds already held: nothing moves
                lo, hi = a.lo.copy(), a.hi.copy()
            else:
                lo = np.where(rng.random(shape) < 0.5, rng.choice([*pool, np.inf], shape),
                              rng.uniform(-1e3, 1e3, shape))
                hi = np.where(rng.random(shape) < 0.3, rng.choice([*pool, -np.inf], shape), lo)
                hi[lo == np.inf] = -np.inf  # an element is observed on both sides or neither
            a.observe(lo, hi)
            b.observe(lo, hi)
            x, y = rng.choice(pool, shape), rng.uniform(-2, 2, shape)
            assert _terms(a) == _terms(b), (trial, step)
            with np.errstate(over="ignore"):
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


def test_running_min_max_range_of_2b_and_a_forecast_clamped_at_b():
    """A range of 2B, the widest that bounds within [-B, B] make, scales as any
    other; a forecast past B, inf or past the float64 maximum included, is
    clamped at B without a warning, as an observed value is bounded by B."""
    n = RunningMinMax(2)
    n.observe(np.array([-B, 0.0]), np.array([B, B]))
    assert n.scale(np.array([-B, 0.0])).tolist() == [0.0, 0.0]
    assert n.scale(np.array([B, B])).tolist() == [1.0, 1.0]
    assert n.scale(np.array([0.0, B / 2])).tolist() == [0.5, 0.5]
    assert n.unscale(np.array([0.5, 0.5])).tolist() == [0.0, B / 2]
    assert n.unscale(np.array([2.0, -2.0])).tolist() == [B, -B]
    assert n.unscale(np.array([1e308, -np.inf])).tolist() == [B, -B]
    assert RunningMinMax(1).unscale(np.array([np.inf])).tolist() == [B]


@pytest.mark.parametrize("key, side, value", [
    ("value_norm", "lo", PAST_B), ("value_norm", "hi", -1e308), ("value_norm", "hi", np.inf),
    ("feat_norm", "lo", -np.inf), ("feat_norm", "hi", PAST_B), ("feat_norm", "lo", np.nan),
])
def test_restore_refuses_a_normalizer_bound_past_b(key, side, value):
    """A bound outside [-B, B] is refused, naming its normalizer and B, other
    than an unobserved one (a lo of +inf, a hi of -inf), which a fresh model saves."""
    model = SequenceModel(input_dim=2, seeds=(0, 1))
    model.update_all([1.0, 2.0], np.array([[1.0, B], [-B, 0.0]]), np.array([2, 1]))
    saved = json.loads(json.dumps(model.to_dict()))
    again = SequenceModel(input_dim=2, seeds=(0, 1))
    again.restore(json.loads(json.dumps(SequenceModel(input_dim=2, seeds=(0, 1)).to_dict())))
    again.restore(saved)
    saved[key][side][0] = value if key == "value_norm" else [value, 0.0]
    with pytest.raises(ValueError, match=rf"^a {key} {side} bound is outside \[-B, B\], B = 2"):
        again.restore(saved)
