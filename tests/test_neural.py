import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridcast import neural
from hybridcast.errors import DataError, ParameterError, ShapeError
from hybridcast.jsonio import from_json, read_json, write_json
from hybridcast.neural import (
    Conv2dLayer,
    ForecastModel,
    LstmParams,
    ModelConfig,
    adam_init,
    adam_step,
    dense_backward,
    dense_forward,
    lstm_backward,
    lstm_forward,
    lstm_step,
    lstm_zero_state,
    mse_loss,
    receptive_field,
)
from hybridcast.numcore import generator


class TestReceptiveField:
    @pytest.mark.parametrize("d,expected", [(1, 3), (2, 5), (3, 7), (4, 9)])
    def test_dilation_sequence(self, d, expected):
        assert receptive_field(3, d) == expected

    def test_invalid_dilation(self):
        with pytest.raises(ParameterError):
            receptive_field(3, 0)


def reference_conv2d(kernel, bias, x, padding, dilation=1):
    """Direct nested-loop dilated convolution, as an independent oracle."""
    out_c, in_c, k, _ = kernel.shape
    b, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = h + 2 * padding - dilation * (k - 1)
    w_out = w + 2 * padding - dilation * (k - 1)
    out = np.zeros((b, out_c, h_out, w_out))
    for bi in range(b):
        for o in range(out_c):
            for y in range(h_out):
                for xx in range(w_out):
                    acc = bias[o]
                    for i in range(in_c):
                        for u in range(k):
                            for v in range(k):
                                acc += kernel[o, i, u, v] * xp[bi, i, y + u * dilation, xx + v * dilation]
                    out[bi, o, y, xx] = acc
    return out


def per_tap_conv2d(kernel, bias, x, padding, dilation):
    """Forward and backward as a sum of one einsum per dilated tap.

    Returns (out, backward) where backward(grad_out) gives
    (grad_x, grad_kernel, grad_bias).
    """
    k, d, p = kernel.shape[2], dilation, padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    h_out = x.shape[2] + 2 * p - d * (k - 1)
    w_out = x.shape[3] + 2 * p - d * (k - 1)
    taps = [(u, v, (slice(None), slice(None), slice(u * d, u * d + h_out), slice(v * d, v * d + w_out)))
            for u in range(k) for v in range(k)]
    out = bias.reshape(1, -1, 1, 1) + sum(
        np.einsum("oi,bihw->bohw", kernel[:, :, u, v], xp[view]) for u, v, view in taps
    )

    def backward(grad_out):
        grad_kernel = np.zeros_like(kernel)
        grad_xp = np.zeros_like(xp)
        for u, v, view in taps:
            grad_kernel[:, :, u, v] = np.einsum("bohw,bihw->oi", grad_out, xp[view])
            grad_xp[view] += np.einsum("oi,bohw->bihw", kernel[:, :, u, v], grad_out)
        grad_x = grad_xp[:, :, p : p + x.shape[2], p : p + x.shape[3]]
        return grad_x, grad_kernel, grad_out.sum(axis=(0, 2, 3))

    return out, backward


class TestConv2d:
    def test_all_ones_overlap_counts(self):
        conv = Conv2dLayer(np.ones((1, 1, 3, 3)), np.zeros(1), dilation=1, padding=1)
        out, _ = conv.forward(np.ones((1, 1, 5, 5)))
        assert out[0, 0, 0, 0] == 4.0  # corner: 2x2 taps inside
        assert out[0, 0, 0, 2] == 6.0  # edge: 2x3
        assert out[0, 0, 2, 2] == 9.0  # interior: full kernel

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_delta_kernel_identity(self, d, rng):
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        conv = Conv2dLayer(kernel, np.zeros(1), dilation=d, padding=d)
        x = rng.standard_normal((2, 1, 5, 7))
        out, _ = conv.forward(x)
        assert out.shape == x.shape  # shape-preserving mode
        assert np.allclose(out, x, atol=1e-15)

    def test_zero_input_gives_bias(self):
        conv = Conv2dLayer(np.ones((2, 1, 3, 3)), np.array([1.5, -2.0]), dilation=1, padding=1)
        out, _ = conv.forward(np.zeros((1, 1, 4, 4)))
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_input_too_small(self):
        conv = Conv2dLayer(np.ones((1, 1, 3, 3)), np.zeros(1), dilation=2, padding=0)
        with pytest.raises(ShapeError):
            conv.forward(np.ones((1, 1, 4, 4)))

    def test_matches_reference_oracle(self, rng):
        kernel = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 6, 5))
        conv = Conv2dLayer(kernel, bias, dilation=1, padding=1)
        out, _ = conv.forward(x)
        ref = reference_conv2d(kernel, bias, x, padding=1)
        assert np.allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("in_channels", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("pad", ["zero", "dilation"])
    def test_dilated_matches_reference_oracle(self, d, pad, in_channels, rng):
        padding = 0 if pad == "zero" else d
        kernel = rng.standard_normal((3, in_channels, 3, 3))
        bias = rng.standard_normal(3)
        x = rng.standard_normal((2, in_channels, 8, 11))
        out, _ = Conv2dLayer(kernel, bias, dilation=d, padding=padding).forward(x)
        ref = reference_conv2d(kernel, bias, x, padding=padding, dilation=d)
        assert out.shape == ref.shape == (2, 3, 8 + 2 * padding - 2 * d, 11 + 2 * padding - 2 * d)
        assert np.allclose(out, ref, rtol=0, atol=1e-12)

    def test_gradients_match_central_differences(self, rng):
        """Two input channels, dilation 2: the model itself only ever has one."""
        conv = Conv2dLayer(rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), dilation=2, padding=2)
        x = rng.standard_normal((2, 2, 5, 6))
        weights = rng.standard_normal((2, 3, 5, 6))
        out, cache = conv.forward(x)
        grad_x, grad_kernel, grad_bias = conv.backward(cache, weights)

        def loss():
            return float(np.sum(conv.forward(x)[0] * weights))

        h = 1e-6
        for arr, grad in ((x, grad_x), (conv.kernel, grad_kernel), (conv.bias, grad_bias)):
            numeric = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + h
                up = loss()
                arr[idx] = saved - h
                down = loss()
                arr[idx] = saved
                numeric[idx] = (up - down) / (2 * h)
            assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-6)

    def test_parity_with_per_tap_einsum_at_training_shapes(self, rng):
        """The tap-matrix GEMM equals a per-tap einsum sum at B=64, T=5, F=36, C=16, d=2,
        to 1e-12 of the largest entry (the kernel gradient sums 11,520 products)."""
        kernel = rng.standard_normal((16, 1, 3, 3))
        bias = rng.standard_normal(16)
        x = rng.standard_normal((64, 1, 5, 36))
        grad_out = rng.standard_normal((64, 16, 5, 36))
        conv = Conv2dLayer(kernel, bias, dilation=2, padding=2)
        out, cache = conv.forward(x)
        got = conv.backward(cache, grad_out)
        ref_out, ref_backward = per_tap_conv2d(kernel, bias, x, padding=2, dilation=2)
        for a, b in zip((out, *got), (ref_out, *ref_backward(grad_out))):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_backward_zero_grad(self, rng):
        conv = Conv2dLayer(rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2), 1, 1)
        x = rng.standard_normal((1, 1, 4, 4))
        out, cache = conv.forward(x)
        gx, gk, gb = conv.backward(cache, np.zeros_like(out))
        assert not gx.any() and not gk.any() and not gb.any()

    def test_backward_single_tap(self):
        # 1x1 input, p=1: only the kernel center overlaps the input pixel
        conv = Conv2dLayer(np.zeros((1, 1, 3, 3)), np.zeros(1), dilation=1, padding=1)
        x = np.full((1, 1, 1, 1), 3.0)
        out, cache = conv.forward(x)
        grad_out = np.zeros_like(out)
        grad_out[0, 0, 0, 0] = 2.0
        _, gk, gb = conv.backward(cache, grad_out)
        assert gk[0, 0, 1, 1] == 6.0  # input value * grad
        assert gb[0] == 2.0

    def test_backward_shape_check(self, rng):
        conv = Conv2dLayer(rng.standard_normal((1, 1, 3, 3)), np.zeros(1), 1, 1)
        _, cache = conv.forward(rng.standard_normal((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            conv.backward(cache, np.zeros((1, 1, 3, 3)))


def zero_lstm(hidden, inp):
    return LstmParams.from_gates(
        *[np.zeros((hidden, hidden + inp)) for _ in range(4)],
        *[np.zeros(hidden) for _ in range(4)],
    )


def input_preacts(params, x):
    """The input side x_t @ W_x.T + b of the gates: (B, I) -> (B, 4H), (B, T, I) -> (T, B, 4H).

    Reads the gate arrays as they are now, so in-place edits to them count.
    """
    hidden = params.hidden_size
    w_x = np.concatenate([params.w_f, params.w_i, params.w_g, params.w_o])[:, hidden:]
    b = np.concatenate([params.b_f, params.b_i, params.b_g, params.b_o])
    return (x.transpose(1, 0, 2) if x.ndim == 3 else x) @ w_x.T + b


def lstm_grads(params, x, grad_h):
    """lstm_forward and lstm_backward over x (B, T, I), with the input side's gradients added.

    Returns (states, gradients keyed W_f ... b_o, gradient w.r.t. x).
    """
    states, _ = lstm_forward(params, input_preacts(params, x))
    da, grad_w_h, grad_b = lstm_backward(params, states, grad_h)
    batch, t_steps, inp = x.shape
    hidden = params.hidden_size
    grad_w = np.concatenate([grad_w_h, da.T @ x.transpose(1, 0, 2).reshape(-1, inp)], axis=1)
    grad_x = (da @ params.w[:, hidden:]).reshape(t_steps, batch, inp).transpose(1, 0, 2)
    grads = {}
    for k, gate in enumerate("figo"):
        grads[f"W_{gate}"] = grad_w[k * hidden : (k + 1) * hidden]
        grads[f"b_{gate}"] = grad_b[k * hidden : (k + 1) * hidden]
    return states, grads, grad_x


def test_sigmoid_matches_expit():
    """The numpy sigmoid is within 2.3e-16 of scipy's expit, from the origin to where expit underflows."""
    from scipy.special import expit  # the oracle only

    x = np.concatenate([[0.0, 1e-3, -1e-3, 40.0, -40.0, 745.0, -745.0], np.linspace(-50.0, 50.0, 200001)])
    with np.errstate(all="raise"):
        got = neural.sigmoid(x)
    assert np.max(np.abs(got - expit(x))) <= 2.3e-16


def test_neural_imports_no_scipy():
    tree = ast.parse(Path(neural.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


class TestLstm:
    def test_zero_params_zero_cell(self):
        params = zero_lstm(3, 2)
        state = lstm_step(params, input_preacts(params, np.zeros((1, 2))), lstm_zero_state(params, 1))
        assert np.allclose(state.f, 0.5) and np.allclose(state.i, 0.5) and np.allclose(state.o, 0.5)
        assert np.allclose(state.z, 0.0)
        assert np.allclose(state.c, 0.0) and np.allclose(state.h, 0.0)

    def test_zero_params_carry_cell(self):
        params = zero_lstm(3, 2)
        prev = lstm_zero_state(params, 1)
        v = np.array([[0.4, -1.0, 2.0]])
        prev.c = v.copy()
        state = lstm_step(params, input_preacts(params, np.zeros((1, 2))), prev)
        assert np.allclose(state.c, 0.5 * v)
        assert np.allclose(state.h, 0.5 * np.tanh(0.5 * v))

    def test_saturated_forget_gate_carries_memory(self):
        params = zero_lstm(2, 2)
        params.b_f += 10.0  # sigmoid(10) ~ 1
        prev = lstm_zero_state(params, 1)
        prev.c = np.array([[1.5, -2.5]])
        state = lstm_step(params, input_preacts(params, np.zeros((1, 2))), prev)
        assert np.allclose(state.f, 1.0, atol=1e-4)
        assert np.allclose(state.c, prev.c, atol=1e-3)

    def test_dimension_mismatch(self):
        params = zero_lstm(3, 2)
        with pytest.raises(ShapeError):
            lstm_step(params, np.zeros((1, 5)), lstm_zero_state(params, 1))

    def test_unbatched_input_rejected(self):
        params = zero_lstm(3, 2)
        with pytest.raises(ShapeError):
            lstm_step(params, np.zeros(2), lstm_zero_state(params, 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gate_ranges(self, seed):
        rng = generator(seed)
        params = LstmParams.from_gates(
            *[rng.normal(size=(3, 5)) for _ in range(4)],
            *[rng.normal(size=3) for _ in range(4)],
        )
        x = rng.normal(size=(2, 2, 2))
        states, _ = lstm_forward(params, input_preacts(params, x))
        for st_ in states:
            assert np.all((st_.f > 0) & (st_.f < 1))
            assert np.all((st_.i > 0) & (st_.i < 1))
            assert np.all((st_.o > 0) & (st_.o < 1))
            assert np.all((st_.z > -1) & (st_.z < 1))

    def test_gate_ranges_saturation_stays_bounded(self):
        # at float precision extreme pre-activations round onto the boundary
        params = zero_lstm(2, 2)
        params.b_f += 500.0
        params.b_g -= 500.0
        state = lstm_step(params, input_preacts(params, np.zeros((1, 2))), lstm_zero_state(params, 1))
        assert np.all((state.f >= 0) & (state.f <= 1))
        assert np.all((state.z >= -1) & (state.z <= 1))

    def test_backward_zero_grad(self, rng):
        params = LstmParams.from_gates(
            *[rng.standard_normal((3, 5)) * 0.3 for _ in range(4)],
            *[rng.standard_normal(3) * 0.3 for _ in range(4)],
        )
        x = rng.standard_normal((2, 4, 2))
        _, grads, grad_x = lstm_grads(params, x, np.zeros((2, 4, 3)))
        assert all(not g.any() for g in grads.values())
        assert not grad_x.any()

    def test_single_step_matches_analytic(self, rng):
        """T=1 BPTT equals the directly differentiated single cell."""
        hidden, inp = 3, 2
        params = LstmParams.from_gates(
            *[rng.standard_normal((hidden, hidden + inp)) * 0.5 for _ in range(4)],
            *[rng.standard_normal(hidden) * 0.5 for _ in range(4)],
        )
        x = rng.standard_normal((1, 1, inp))
        grad_h = rng.standard_normal((1, 1, hidden))
        states, grads, grad_x = lstm_grads(params, x, grad_h)

        # analytic single step: h = o * tanh(c), c = i*z (c_prev = 0, f irrelevant)
        st_ = states[0]
        concat = np.concatenate([np.zeros((1, hidden)), x[:, 0, :]], axis=1)  # [h_prev, x_t]
        g = grad_h[:, 0, :]
        do = g * st_.tanh_c
        dc = g * st_.o * (1 - st_.tanh_c**2)
        di, dz = dc * st_.z, dc * st_.i
        da = {
            "W_o": do * st_.o * (1 - st_.o),
            "W_i": di * st_.i * (1 - st_.i),
            "W_g": dz * (1 - st_.z**2),
        }
        for name, d in da.items():
            assert np.allclose(grads[name], d.T @ concat, atol=1e-12)
        assert np.allclose(grads["W_f"], 0.0)  # c_prev = 0 kills the forget path

    @pytest.mark.parametrize("batch,t_steps,hidden,inp", [(64, 5, 32, 560), (64, 5, 32, 96), (3, 1, 32, 7)])
    def test_backward_matches_per_gate_loop(self, batch, t_steps, hidden, inp, rng):
        """The stacked-gate BPTT equals the per-step, per-gate loop to 1e-12 of the largest entry."""
        params = LstmParams.from_gates(
            *[rng.standard_normal((hidden, hidden + inp)) * 0.1 for _ in range(4)],
            *[rng.standard_normal(hidden) * 0.1 for _ in range(4)],
        )
        x = rng.standard_normal((batch, t_steps, inp))
        grad_h = rng.standard_normal((batch, t_steps, hidden))
        states, grads, grad_x = lstm_grads(params, x, grad_h)
        ref_grads, ref_grad_x = per_gate_lstm_backward(params, states, grad_h, x)
        assert set(grads) == set(ref_grads)
        for got, want in [(grads[k], ref_grads[k]) for k in ref_grads] + [(grad_x, ref_grad_x)]:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def per_gate_lstm_backward(params, states, grad_h_seq, x_seq):
    """BPTT with two GEMMs per gate and step (weight and input gradient), as a reference."""
    t_steps = len(states)
    batch, hidden = states[-1].h.shape
    grads = {f"W_{gate}": np.zeros_like(getattr(params, f"w_{gate}")) for gate in "figo"}
    grads.update({f"b_{gate}": np.zeros_like(getattr(params, f"b_{gate}")) for gate in "figo"})
    grad_x = np.zeros_like(x_seq)
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in range(t_steps - 1, -1, -1):
        st_ = states[t]
        c_prev = states[t - 1].c if t > 0 else np.zeros((batch, hidden))
        h_prev = states[t - 1].h if t > 0 else np.zeros((batch, hidden))
        concat = np.concatenate([h_prev, x_seq[:, t, :]], axis=1)
        dh = grad_h_seq[:, t, :] + dh_next
        dc = dc_next + dh * st_.o * (1.0 - st_.tanh_c**2)
        da = {
            "f": dc * c_prev * st_.f * (1.0 - st_.f),
            "i": dc * st_.z * st_.i * (1.0 - st_.i),
            "g": dc * st_.i * (1.0 - st_.z**2),
            "o": dh * st_.tanh_c * st_.o * (1.0 - st_.o),
        }
        dconcat = np.zeros((batch, concat.shape[1]))
        for gate, d in da.items():
            grads[f"W_{gate}"] += d.T @ concat
            grads[f"b_{gate}"] += d.sum(axis=0)
            dconcat += d @ getattr(params, f"w_{gate}")
        dh_next = dconcat[:, :hidden]
        grad_x[:, t, :] = dconcat[:, hidden:]
        dc_next = dc * st_.f
    return grads, grad_x


def unfolded_model(model, windows, grad_preds):
    """Predictions, parameter gradients and window gradient of a model, unfolded.

    cnn runs Conv2dLayer, flattens its (C, T, F) output and applies the
    dense head. The LSTM conv variants run Conv2dLayer, flatten each
    step's C x F outputs channel-major and feed [h, x_t] through the
    stacked gate GEMM; lstm feeds the window rows. Backward retraces the
    same steps.
    """
    p, cfg = model.params, model.config
    if cfg.variant == "cnn":
        conv = Conv2dLayer(p["conv_kernel"], p["conv_bias"], dilation=1, padding=1)
        conv_out, conv_cache = conv.forward(windows[:, None, :, :])
        flat = conv_out.reshape(len(windows), -1)
        grads = {"dense_w": flat.T @ grad_preds, "dense_b": grad_preds.sum()}
        grad_out = np.outer(grad_preds, p["dense_w"]).reshape(conv_out.shape)
        grad_img, grads["conv_kernel"], grads["conv_bias"] = conv.backward(conv_cache, grad_out)
        return flat @ p["dense_w"] + p["dense_b"], grads, grad_img[:, 0, :, :]
    hidden = cfg.hidden_size
    w = np.concatenate([p[f"W_{gate}"] for gate in "figo"])
    b = np.concatenate([p[f"b_{gate}"] for gate in "figo"])
    batch, t_steps, n_feat = windows.shape
    if cfg.variant == "lstm":
        seq = windows
    else:
        conv = Conv2dLayer(p["conv_kernel"], p["conv_bias"], dilation=cfg.dilation, padding=cfg.dilation)
        conv_out, conv_cache = conv.forward(windows[:, None, :, :])
        seq = conv_out.transpose(0, 2, 1, 3).reshape(batch, t_steps, -1)

    h, c, steps = np.zeros((batch, hidden)), np.zeros((batch, hidden)), []
    for t in range(t_steps):
        concat = np.concatenate([h, seq[:, t, :]], axis=1)
        a = concat @ w.T + b
        f, i, o = (1.0 / (1.0 + np.exp(-a[:, k * hidden : (k + 1) * hidden])) for k in (0, 1, 3))
        z = np.tanh(a[:, 2 * hidden : 3 * hidden])
        steps.append((concat, c, f, i, z, o))
        c = f * c + i * z
        h = o * np.tanh(c)
    preds = h @ p["dense_w"] + p["dense_b"]

    grads = {"dense_w": h.T @ grad_preds, "dense_b": grad_preds.sum()}
    grad_w, grad_b, grad_seq = np.zeros_like(w), np.zeros_like(b), np.zeros_like(seq)
    dh, dc_next = np.outer(grad_preds, p["dense_w"]), np.zeros((batch, hidden))
    for t in range(t_steps - 1, -1, -1):
        concat, c_prev, f, i, z, o = steps[t]
        tanh_c = np.tanh(f * c_prev + i * z)
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        da = np.concatenate(
            [dc * c_prev * f * (1 - f), dc * z * i * (1 - i), dc * i * (1 - z**2), dh * tanh_c * o * (1 - o)], axis=1
        )
        grad_w += da.T @ concat
        grad_b += da.sum(axis=0)
        dconcat = da @ w
        dh, dc_next = dconcat[:, :hidden], dc * f
        grad_seq[:, t, :] = dconcat[:, hidden:]
    for k, gate in enumerate("figo"):
        grads[f"W_{gate}"] = grad_w[k * hidden : (k + 1) * hidden]
        grads[f"b_{gate}"] = grad_b[k * hidden : (k + 1) * hidden]
    if cfg.variant == "lstm":
        return preds, grads, grad_seq
    grad_out = grad_seq.reshape(batch, t_steps, -1, n_feat).transpose(0, 2, 1, 3)
    grad_img, grads["conv_kernel"], grads["conv_bias"] = conv.backward(conv_cache, grad_out)
    return preds, grads, grad_img[:, 0, :, :]


class TestFoldedInput:
    """The model's composed input weights against the unfolded conv -> LSTM or head.

    The fold is exact only while nothing nonlinear sits between the conv
    and the weights after it (LSTM gates or cnn head); these tests are the guard.
    """

    WIRINGS = [("cnn", 1), ("cnn_lstm", 1), ("dilated_cnn_lstm", 2), ("dilated_cnn_lstm", 3), ("lstm", 1)]

    @pytest.mark.parametrize("variant,dilation", WIRINGS)
    def test_matches_unfolded_model(self, variant, dilation, rng):
        self.check(variant, dilation, rng)

    @pytest.mark.parametrize("variant,dilation", WIRINGS)
    @pytest.mark.parametrize(
        "shape",
        [{"out_channels": 1}, {"n_features": 1}, {"hidden_size": 1}, {"batch": 1}, {"zero_conv_bias": True}],
        ids=["one-channel", "one-feature", "one-unit", "one-window", "zero-conv-bias"],
    )
    def test_degenerate_shapes_match_unfolded_model(self, variant, dilation, shape, rng):
        self.check(variant, dilation, rng, **shape)

    @pytest.mark.parametrize(
        "variant,dilation,window",
        [("dilated_cnn_lstm", d, w) for d in (2, 3, 5) for w in (1, 2, 3)]
        + [(variant, 1, w) for variant in ("cnn_lstm", "cnn", "lstm") for w in (1, 2)],
    )
    def test_short_windows_match_unfolded_model(self, variant, dilation, window, rng):
        """Windows no longer than the dilation: some or all of the outer kernel rows read only padding."""
        self.check(variant, dilation, rng, window=window)

    @staticmethod
    def check(
        variant, dilation, rng, out_channels=16, n_features=35, hidden_size=32, batch=64, zero_conv_bias=False, window=5
    ):
        cfg = ModelConfig(
            variant=variant, dilation=dilation, window=window, hidden_size=hidden_size, out_channels=out_channels, seed=7
        )
        model = ForecastModel(cfg, n_features=n_features)
        if zero_conv_bias and "conv_bias" in model.params:
            model.params["conv_bias"][:] = 0.0
        windows = rng.standard_normal((batch, window, n_features))
        grad_preds = rng.standard_normal(batch)
        preds, cache = model.forward(windows)
        grads, grad_x = model.backward(cache, grad_preds, window_grad=True)
        ref_preds, ref_grads, ref_grad_x = unfolded_model(model, windows, grad_preds)
        assert set(grads) == set(ref_grads) == set(model.params)
        predicted = model.predict(windows)  # the inference pass, step by step, against training's forward
        assert predicted.shape == preds.shape
        assert np.max(np.abs(predicted - preds)) <= 1e-15 * np.max(np.abs(preds))
        pairs = [(preds, ref_preds), (predicted, ref_preds), (grad_x, ref_grad_x)]
        pairs += [(grads[k], ref_grads[k]) for k in model.params]
        for got, want in pairs:
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDense:
    def test_constant_head(self):
        out, _ = dense_forward(np.zeros(4), 3.0, np.ones((2, 4)))
        assert out == pytest.approx([3.0, 3.0])

    def test_selector(self):
        w = np.array([1.0, 0.0, 0.0])
        out, _ = dense_forward(w, 0.0, np.array([[7.0, 1.0, 2.0]]))
        assert out == pytest.approx([7.0])

    def test_gradients_exact(self, rng):
        w = rng.standard_normal(5)
        x = rng.standard_normal((3, 5))
        out, cache = dense_forward(w, 0.3, x)
        g = rng.standard_normal(3)
        gx, gw, gb = dense_backward(w, cache, g)
        assert np.allclose(gw, x.T @ g)
        assert gb == pytest.approx(g.sum())
        assert np.allclose(gx, np.outer(g, w))


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert not grad.any()

    def test_single_point(self):
        loss, grad = mse_loss(np.array([0.0]), np.array([2.0]))
        assert loss == 4.0
        assert grad == pytest.approx([-4.0])

    def test_two_points(self):
        loss, _ = mse_loss(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
        assert loss == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty(self):
        with pytest.raises(ParameterError):
            mse_loss(np.array([]), np.array([]))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"p": np.array([1.0, -1.0, 2.0])}
        grads = {"p": np.array([0.2, -3.0, 1e-3])}
        state = adam_init(params)
        adam_step(state, params, grads, lr=0.001)
        update = params["p"] - np.array([1.0, -1.0, 2.0])
        assert update == pytest.approx(-0.001 * np.sign(grads["p"]), rel=1e-4)

    def test_zero_gradient_keeps_params(self):
        params = {"p": np.array([1.0, 2.0])}
        state = adam_init(params)
        for _ in range(5):
            adam_step(state, params, {"p": np.zeros(2)})
        assert params["p"] == pytest.approx([1.0, 2.0])

    def test_bitwise_determinism(self):
        def run():
            params = {"p": np.array([0.5, -0.5])}
            state = adam_init(params)
            for t in range(10):
                adam_step(state, params, {"p": np.array([0.1 * t, -0.2])})
            return params["p"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"p": np.zeros(3)}
        state = adam_init(params)
        with pytest.raises(ShapeError):
            adam_step(state, params, {"p": np.zeros(2)})

    def test_matches_textbook_update(self, rng):
        """100 steps on a 0-d block, a 1-d block and a row-block view of a gate stack, against Kingma & Ba's Algorithm 1."""
        lr, beta1, beta2, eps = 0.01, neural.ADAM_BETA1, neural.ADAM_BETA2, neural.ADAM_EPS
        stack = rng.standard_normal((8, 5))  # (4H, H+I) with H = 2, I = 3
        untouched = np.delete(stack, [2, 3], axis=0)
        params = {"dense_b": np.array(0.3), "dense_w": rng.standard_normal(4), "W_i": stack[2:4]}
        ref = {k: np.array(p, copy=True) for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        state = adam_init(params)
        for t in range(1, 101):
            grads = {k: np.asarray(rng.standard_normal(np.shape(p))) for k, p in ref.items()}
            adam_step(state, params, grads, lr)
            for k, g in grads.items():
                m[k] = beta1 * m[k] + (1.0 - beta1) * g
                v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
                m_hat = m[k] / (1.0 - beta1**t)
                v_hat = v[k] / (1.0 - beta2**t)
                ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k, want in ref.items():
            assert np.shape(params[k]) == np.shape(want)
            assert np.max(np.abs(params[k] - want)) <= 1e-14 * np.max(np.abs(want))
        assert params["W_i"].base is stack
        assert np.array_equal(stack[2:4], params["W_i"])
        assert np.array_equal(np.delete(stack, [2, 3], axis=0), untouched)


class TestModelConfig:
    def test_dilated_default_dilation(self):
        assert ModelConfig(variant="dilated_cnn_lstm").dilation == 2

    def test_dilated_rejects_rate_one(self):
        with pytest.raises(ParameterError):
            ModelConfig(variant="dilated_cnn_lstm", dilation=1)

    def test_cnn_lstm_requires_rate_one(self):
        with pytest.raises(ParameterError):
            ModelConfig(variant="cnn_lstm", dilation=2)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            ModelConfig(variant="transformer")


def tiny_config(variant, **kw):
    kw.setdefault("window", 5)
    kw.setdefault("hidden_size", 4)
    kw.setdefault("out_channels", 3)
    kw.setdefault("seed", 11)
    return ModelConfig(variant=variant, **kw)


class TestForecastModel:
    @pytest.mark.parametrize("variant", neural.VARIANTS)
    def test_zero_init_predicts_zero(self, variant, rng):
        """A model whose every block is zeroed in place predicts 0 (the standardized train-span mean)."""
        model = ForecastModel(tiny_config(variant), n_features=4)
        for p in model.params.values():
            p[...] = 0.0
        preds = model.predict(rng.standard_normal((6, 5, 4)))
        assert not preds.any()

    @pytest.mark.parametrize("variant", ["dilated_cnn_lstm", "lstm"])
    def test_predict_keeps_no_training_cache(self, variant, rng):
        """predict holds one step's rows and state where forward holds every step's: half forward's peak or less."""
        model = ForecastModel(ModelConfig(variant=variant), n_features=35)
        windows = rng.standard_normal((1055, 5, 35))
        peaks = []
        for run in (model.predict, model.forward):
            run(windows)  # warm-up
            tracemalloc.start()
            try:
                run(windows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.5 * peaks[1], peaks

    @pytest.mark.parametrize("variant", neural.VARIANTS)
    def test_deterministic_init(self, variant):
        a = ForecastModel(tiny_config(variant), n_features=4)
        b = ForecastModel(tiny_config(variant), n_features=4)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_window_shape_check(self):
        model = ForecastModel(tiny_config("lstm"), n_features=4)
        with pytest.raises(ShapeError):
            model.predict(np.zeros((2, 5, 3)))
        for run in (model.predict, model.forward):  # one window is a batch of one, not a 2-d array
            with pytest.raises(ShapeError):
                run(np.zeros((5, 4)))

    def test_cnn_lstm_delta_kernel_matches_tiled_lstm(self, rng):
        """Identity conv kernels reduce cnn_lstm to plain lstm over tiled features."""
        n_feat, hidden, channels = 4, 6, 3
        lstm_cfg = tiny_config("lstm", hidden_size=hidden)
        lstm_model = ForecastModel(lstm_cfg, n_features=n_feat)

        hyb_cfg = tiny_config("cnn_lstm", hidden_size=hidden, out_channels=channels)
        hyb = ForecastModel(hyb_cfg, n_features=n_feat)
        hyb.params["conv_kernel"][:] = 0.0
        hyb.params["conv_kernel"][:, 0, 1, 1] = 1.0  # every channel copies its input
        hyb.params["conv_bias"][:] = 0.0
        for gate in ("f", "i", "g", "o"):
            w = lstm_model.params[f"W_{gate}"]
            w_h, w_x = w[:, :hidden], w[:, hidden:]
            tiled = np.concatenate([w_h] + [w_x / channels] * channels, axis=1)
            hyb.params[f"W_{gate}"][:] = tiled
            hyb.params[f"b_{gate}"][:] = lstm_model.params[f"b_{gate}"]
        hyb.params["dense_w"][:] = lstm_model.params["dense_w"]
        hyb.params["dense_b"][...] = lstm_model.params["dense_b"]

        windows = rng.standard_normal((8, 5, n_feat))
        assert np.allclose(hyb.predict(windows), lstm_model.predict(windows), atol=1e-9)

    @pytest.mark.parametrize("variant", neural.VARIANTS)
    def test_window_gradient_is_optional(self, variant, rng):
        """Without the window gradient, backward returns None for it and the same parameter gradients, byte for byte."""
        model = ForecastModel(tiny_config(variant), n_features=4)
        _, cache = model.forward(rng.standard_normal((6, 5, 4)))
        grad_preds = rng.standard_normal(6)
        with_x, grad_x = model.backward(cache, grad_preds, window_grad=True)
        without_x, none = model.backward(cache, grad_preds)
        assert grad_x.shape == (6, 5, 4) and none is None
        assert list(without_x) == list(with_x)
        for name, g in with_x.items():
            assert np.asarray(without_x[name]).tobytes() == np.asarray(g).tobytes(), name

    @pytest.mark.parametrize("variant", ["lstm", "cnn_lstm", "dilated_cnn_lstm"])
    def test_gate_blocks_are_read_in_place(self, variant, rng):
        """An in-place edit of params["W_g"] changes the next predict, to what a model built with it predicts."""
        model = ForecastModel(tiny_config(variant), n_features=4)
        x = rng.standard_normal((6, 5, 4))
        before = model.predict(x)
        model.params["W_g"][0] += 0.25
        after = model.predict(x)
        assert not np.array_equal(after, before)
        rebuilt = ForecastModel(tiny_config(variant), 4, params={k: p.copy() for k, p in model.params.items()})
        assert np.array_equal(rebuilt.predict(x), after)

    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("variant", neural.VARIANTS)
    def test_stacked_predict_is_per_replica_predict(self, variant, replicas, rng):
        """A model whose blocks lead with a replica axis predicts (S, B): row s is model s's predict, bit for bit."""
        models = [ForecastModel(tiny_config(variant, seed=20 + s), n_features=4) for s in range(replicas)]
        stacked = ForecastModel(tiny_config(variant), 4, params={k: np.stack([m.params[k] for m in models])
                                                                 for k in models[0].params})
        x = rng.standard_normal((6, 5, 4))
        preds = stacked.predict(x)
        assert stacked.replicas == (replicas,) and preds.shape == (replicas, 6)
        for row, model in zip(preds, models):
            assert row.tobytes() == model.predict(x).tobytes()

    @pytest.mark.parametrize("variant", neural.VARIANTS)
    def test_only_predict_reads_the_replica_axis(self, variant, rng):
        """forward, backward and checkpoints reject a stacked model; a stacked checkpoint is a data error."""
        model = ForecastModel(tiny_config(variant), n_features=4)
        stacked = ForecastModel(tiny_config(variant), 4, params={k: np.stack([p, p]) for k, p in model.params.items()})
        x = rng.standard_normal((6, 5, 4))
        _, cache = model.forward(x)
        with pytest.raises(ShapeError):
            stacked.forward(x)
        with pytest.raises(ShapeError):
            stacked.backward(cache, np.ones(6))
        with pytest.raises(ShapeError):
            neural.model_to_dict(stacked)
        params = {k: neural.encode_array(np.stack([p, p])) for k, p in model.params.items()}
        with pytest.raises(DataError, match="checkpoint.params"):
            neural.model_from_dict(model.config, 4, params)

    def test_replica_axis_must_lead_every_block(self):
        model = ForecastModel(tiny_config("cnn_lstm"), n_features=4)
        params = {k: np.stack([p, p]) for k, p in model.params.items()}
        params["W_g"] = model.params["W_g"]
        with pytest.raises(ShapeError):
            ForecastModel(tiny_config("cnn_lstm"), 4, params=params)

    @pytest.mark.parametrize("variant", neural.VARIANTS)
    def test_checkpoint_roundtrip_bit_exact(self, variant, tmp_path):
        """A model's config and encoded blocks, after an Adam step, predict through JSON what the model does, bit for bit."""
        model = ForecastModel(tiny_config(variant), n_features=3)
        preds, cache = model.forward(generator(6).normal(size=(4, 5, 3)))
        grads, _ = model.backward(cache, mse_loss(preds, np.ones(4))[1])
        adam_step(adam_init(model.params), model.params, grads, lr=0.01)
        write_json(tmp_path / "m.json", {"config": model.config, "params": neural.model_to_dict(model)})
        raw = read_json(tmp_path / "m.json", "checkpoint", DataError)
        config = from_json(ModelConfig, raw["config"], "checkpoint.config", DataError)
        params = from_json(dict[str, neural.EncodedArray], raw["params"], "checkpoint.params", DataError)
        again = neural.model_from_dict(config, 3, params)
        assert again.config == model.config
        for name in model.params:
            assert np.array_equal(again.params[name], model.params[name]), name
        x = generator(5).normal(size=(2, 5, 3))
        assert np.array_equal(model.predict(x), again.predict(x))
