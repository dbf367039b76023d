"""Recurrent forecaster: gradients, training, inference, persistence."""

import math

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


def max_param_gradient_error(model, fenc, inputs, targets, lengths=None, step=1e-5):
    """Worst per-tensor relative error between analytic and numeric gradients.

    fenc is (M, F), inputs and targets (M, T); lengths defaults to T for
    every metric. The numeric side differentiates the summed per-metric loss,
    which for each metric's parameters is that metric's own loss.
    """
    if lengths is None:
        lengths = np.full(len(inputs), inputs.shape[1])
    _, analytic = model._gradients(fenc, inputs, targets, lengths)
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
    bank.update_all(_fv(fx.tolist()), series)
    clipped = [ref.update(fx, s) for ref, s in zip(refs, series) if s is not None]
    assert any(clipped) and not all(clipped)
    forecasts = bank.forecast_all(_fv(fx.tolist()))
    for m, (ref, s) in enumerate(zip(refs, series)):
        for k, v in ref.fused().items():
            assert np.allclose(bank.params[k][m], v, rtol=0, atol=1e-12), (m, k)
        if s is not None:
            assert np.allclose(forecasts[m], ref.forecast(fx), rtol=1e-12, atol=1e-12), m
    assert bank.len_count.tolist() == [int(s is not None) for s in series]
    assert len(forecasts[4]) == 1


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
    again = SequenceModel.loads(model.dumps())
    assert all(np.array_equal(model.params[k], again.params[k]) for k in model.params)
    assert again.metrics == (MetricKind.vmRSS,)
    assert again.forecast(f, 5).values == model.forecast(f, 5).values


def test_loads_rejects_foreign_payloads():
    with pytest.raises(ValueError):
        SequenceModel.loads('{"magic": "something-else"}')


def test_diverged_update_rolls_back_parameters():
    model = SequenceModel(input_dim=1, seeds=(2, 3))
    model.update_all(_fv([1.0]), [(1.0, 2.0), (4.0,)])

    def explode(fenc, inputs, targets, lengths):
        losses = np.array([0.5, math.inf])  # only the second metric diverges
        return losses, {k: np.zeros_like(v) for k, v in model.params.items()}

    before = model.dumps()
    model._gradients = explode
    with pytest.raises(TrainingDivergedError):
        model.update_all(_fv([3.0]), [(0.0, 9.0, 2.0), (7.0, 1.0)])
    # parameters, normalizers and length statistics of both metrics
    assert model.dumps() == before


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
