"""Neural forecaster built from scratch on numpy: dilated 2-d convolution,
an LSTM cell with backpropagation through time, a linear head, and Adam.

Four wirings of the same pieces are supported (see ForecastModel):

  lstm             window rows -> LSTM -> linear head
  cnn              window as 1xTxF image -> conv(d=1) -> flatten -> head
  cnn_lstm         conv(d=1, shape-preserving) -> per-step flatten -> LSTM -> head
  dilated_cnn_lstm same, with dilation d >= 2 and padding p = d

The conv never runs as a layer. Nothing nonlinear sits between it and the
weights that read its output (the LSTM input weights, or the cnn head as T
rows of C*F weights, one per step), so the two are one linear map of the
padded window, composed once per forward (ForecastModel._input_weights);
an activation after the conv would break this. Conv2dLayer is the unfolded
conv the tests check the fold against. Checkpoints keep the unfolded blocks.

Everything is float64 and deterministic for a fixed seed; analytic
gradients are validated against central finite differences (see
gradcheck).
"""
from __future__ import annotations

import base64
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import expit as sigmoid

from .errors import DataError, ParameterError, ShapeError
from .jsonio import from_json
from .numcore import Rng

VARIANTS = ("cnn", "lstm", "cnn_lstm", "dilated_cnn_lstm")
LSTM_KEYS = ("W_f", "W_i", "W_g", "W_o", "b_f", "b_i", "b_g", "b_o")
KERNEL_SIZE = 3


def receptive_field(kernel_size: int, dilation: int) -> int:
    """Input span covered by one output of a dilated convolution."""
    if kernel_size < 1:
        raise ParameterError(f"kernel_size must be >= 1, got {kernel_size}")
    if dilation < 1:
        raise ParameterError(f"dilation must be >= 1, got {dilation}")
    return dilation * (kernel_size - 1) + 1


# ---------------------------------------------------------------------------
# layers


def _tap_offsets(dilation: int, h_out: int, w_out: int):
    """(u, v, row slice, column slice) of each of the nine dilated taps."""
    d = dilation
    return [
        (u, v, slice(u * d, u * d + h_out), slice(v * d, v * d + w_out))
        for u in range(KERNEL_SIZE)
        for v in range(KERNEL_SIZE)
    ]


def _dilated_taps(xp: np.ndarray, dilation: int, h_out: int, w_out: int) -> np.ndarray:
    """Tap matrix (in*9, B*H'*W') of a padded input (B, in, H, W).

    Row i*9 + u*3 + v holds the dilated tap xp[:, i, u*d : u*d+H', v*d : v*d+W']
    flattened over (B, H', W'), so kernel.reshape(out, -1) @ taps is the
    convolution with output columns in (B, H', W') order.
    """
    b, c_in = xp.shape[:2]
    taps = np.empty((c_in * KERNEL_SIZE * KERNEL_SIZE, b * h_out * w_out))
    blocks = taps.reshape(c_in, KERNEL_SIZE, KERNEL_SIZE, b, h_out, w_out)
    for u, v, rows, cols in _tap_offsets(dilation, h_out, w_out):
        blocks[:, u, v] = xp[:, :, rows, cols].transpose(1, 0, 2, 3)
    return taps


@dataclass
class Conv2dLayer:
    """3x3 convolution with dilation, stride 1, zero padding.

    kernel is (out_channels, in_channels, 3, 3); with padding == dilation
    the spatial extent is preserved.
    """

    kernel: np.ndarray
    bias: np.ndarray
    dilation: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.dilation < 1:
            raise ParameterError(f"dilation must be >= 1, got {self.dilation}")
        if self.padding < 0:
            raise ParameterError(f"padding must be >= 0, got {self.padding}")
        if self.kernel.ndim != 4 or self.kernel.shape[2:] != (KERNEL_SIZE, KERNEL_SIZE):
            raise ShapeError(f"kernel must be (out, in, 3, 3), got {self.kernel.shape}")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ShapeError(f"bias must be ({self.kernel.shape[0]},), got {self.bias.shape}")

    def out_extent(self, n: int) -> int:
        return n + 2 * self.padding - self.dilation * (KERNEL_SIZE - 1)

    def forward(self, x: np.ndarray):
        """x is (B, in_channels, H, W); returns ((B, out, H', W'), cache)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.kernel.shape[1]:
            raise ShapeError(
                f"conv input must be (B, {self.kernel.shape[1]}, H, W), got {x.shape}"
            )
        h_out, w_out = self.out_extent(x.shape[2]), self.out_extent(x.shape[3])
        if h_out < 1 or w_out < 1:
            raise ShapeError(
                f"input {x.shape[2]}x{x.shape[3]} too small for kernel span "
                f"{receptive_field(KERNEL_SIZE, self.dilation)} with padding {self.padding}"
            )
        p = self.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        taps = _dilated_taps(xp, self.dilation, h_out, w_out)
        out = self.kernel.reshape(self.kernel.shape[0], -1) @ taps
        out += self.bias[:, None]
        out = out.reshape(-1, x.shape[0], h_out, w_out).transpose(1, 0, 2, 3)
        cache = {"xp": xp, "in_shape": x.shape, "out_shape": out.shape}
        return out, cache

    def backward(self, cache: dict, grad_out: np.ndarray):
        """Gradients w.r.t. (input, kernel, bias) for a scalar loss."""
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != cache["out_shape"]:
            raise ShapeError(f"grad_out shape {grad_out.shape} != forward output {cache['out_shape']}")
        xp = cache["xp"]
        p, d = self.padding, self.dilation
        _, c_out, h_out, w_out = grad_out.shape
        go = grad_out.transpose(1, 0, 2, 3).reshape(c_out, -1)
        kmat = self.kernel.reshape(c_out, -1)
        grad_kernel = (go @ _dilated_taps(xp, d, h_out, w_out).T).reshape(self.kernel.shape)
        blocks = (kmat.T @ go).reshape(xp.shape[1], KERNEL_SIZE, KERNEL_SIZE, xp.shape[0], h_out, w_out)
        grad_xp = np.zeros_like(xp)
        for u, v, rows, cols in _tap_offsets(d, h_out, w_out):
            grad_xp[:, :, rows, cols] += blocks[:, u, v].transpose(1, 0, 2, 3)
        grad_bias = go.sum(axis=1)
        h_in, w_in = cache["in_shape"][2], cache["in_shape"][3]
        grad_x = grad_xp[:, :, p : p + h_in, p : p + w_in]
        return grad_x, grad_kernel, grad_bias


@dataclass
class LstmParams:
    """Gate weights over the concatenated [h_prev, x_t] plus biases.

    w and b stack the four gates in f, i, g, o order as (4*hidden,
    hidden+input) and (4*hidden,). They are copies taken at construction,
    so build a new LstmParams after changing a gate array.
    """

    w_f: np.ndarray
    w_i: np.ndarray
    w_g: np.ndarray
    w_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_g: np.ndarray
    b_o: np.ndarray
    w: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        hidden = self.w_f.shape[0]
        for name in ("w_f", "w_i", "w_g", "w_o"):
            w = getattr(self, name)
            if w.ndim != 2 or w.shape != self.w_f.shape:
                raise ShapeError(f"{name} must be (hidden, hidden+input), got {w.shape}")
        for name in ("b_f", "b_i", "b_g", "b_o"):
            b = getattr(self, name)
            if b.shape != (hidden,):
                raise ShapeError(f"{name} must be ({hidden},), got {b.shape}")
        self.w = np.concatenate([self.w_f, self.w_i, self.w_g, self.w_o])
        self.b = np.concatenate([self.b_f, self.b_i, self.b_g, self.b_o])

    @property
    def hidden_size(self) -> int:
        return self.w_f.shape[0]


@dataclass
class LstmState:
    """One timestep of the recurrence with the gate activations cached."""

    h: np.ndarray
    c: np.ndarray
    f: np.ndarray
    i: np.ndarray
    z: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray = field(repr=False, default=None)


def lstm_zero_state(params: LstmParams, batch: int) -> LstmState:
    zeros = np.zeros((batch, params.hidden_size))
    return LstmState(h=zeros, c=zeros.copy(), f=None, i=None, z=None, o=None)


def lstm_step(params: LstmParams, a_t: np.ndarray, prev: LstmState) -> LstmState:
    """One recurrence step from the step's input pre-activations.

    a_t (B, 4*hidden) is the input side x_t @ W_x.T + b of the four gates
    in f, i, g, o order; the step adds the recurrent side h_prev @ W_h.T.
    f/i/o are sigmoid gates, z the tanh candidate; the cell update is
    c = f*c_prev + i*z and the hidden output h = o*tanh(c).
    """
    a_t = np.asarray(a_t, dtype=np.float64)
    hidden = params.hidden_size
    if a_t.ndim != 2 or a_t.shape[1] != 4 * hidden:
        raise ShapeError(f"a_t must be (B, {4 * hidden}), got {a_t.shape}")
    if prev.h.shape[0] != a_t.shape[0]:
        raise ShapeError(f"batch mismatch: h has {prev.h.shape[0]} rows, a_t {a_t.shape[0]}")

    a = a_t + prev.h @ params.w[:, :hidden].T
    f, i, o = (sigmoid(a[:, k * hidden : (k + 1) * hidden]) for k in (0, 1, 3))
    z = np.tanh(a[:, 2 * hidden : 3 * hidden])
    c = f * prev.c + i * z
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return LstmState(h=h, c=c, f=f, i=i, z=z, o=o, tanh_c=tanh_c)


def lstm_forward(params: LstmParams, a_x: np.ndarray):
    """Run the cell over input pre-activations (T, B, 4*hidden); returns (states per step, h_T)."""
    a_x = np.asarray(a_x, dtype=np.float64)
    if a_x.ndim != 3:
        raise ShapeError(f"a_x must be (T, B, {4 * params.hidden_size}), got {a_x.shape}")
    state = lstm_zero_state(params, a_x.shape[1])
    states = []
    for a_t in a_x:
        state = lstm_step(params, a_t, state)
        states.append(state)
    return states, states[-1].h


def lstm_backward(params: LstmParams, states: list[LstmState], grad_h_seq: np.ndarray):
    """Backpropagation through time.

    grad_h_seq is (B, T, hidden): the loss gradient w.r.t. each step's
    hidden output (zeros except the last step when only h_T feeds the
    head). Returns (da, grad_w_h, grad_b): the gate pre-activation
    gradients (T*B, 4*hidden), rows in (t, b) order and gates in f, i, g,
    o order, and the gradients of W_h = w[:, :hidden] and of b. The input
    side is the caller's, so its gradients are da.T @ inputs and da @ W_x.
    Only dh runs step by step; the W_h gradient is one GEMM after the loop.
    """
    grad_h_seq = np.asarray(grad_h_seq, dtype=np.float64)
    t_steps = len(states)
    batch, hidden = states[-1].h.shape
    if grad_h_seq.shape != (batch, t_steps, hidden):
        raise ShapeError(f"grad_h_seq must be {(batch, t_steps, hidden)}, got {grad_h_seq.shape}")

    w_h = params.w[:, :hidden]
    da = np.empty((t_steps, batch, 4 * hidden))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in range(t_steps - 1, -1, -1):
        st = states[t]
        c_prev = states[t - 1].c if t > 0 else np.zeros((batch, hidden))
        dh = grad_h_seq[:, t, :] + dh_next
        dc = dc_next + dh * st.o * (1.0 - st.tanh_c**2)
        da_f, da_i, da_g, da_o = np.split(da[t], 4, axis=1)
        da_f[:] = dc * c_prev * st.f * (1.0 - st.f)
        da_i[:] = dc * st.z * st.i * (1.0 - st.i)
        da_g[:] = dc * st.i * (1.0 - st.z**2)
        da_o[:] = dh * st.tanh_c * st.o * (1.0 - st.o)
        dh_next = da[t] @ w_h
        dc_next = dc * st.f

    da = da.reshape(t_steps * batch, 4 * hidden)
    h_prev = np.concatenate([np.zeros((batch, hidden))] + [st.h for st in states[:-1]])
    return da, da.T @ h_prev, da.sum(axis=0)


def dense_forward(w: np.ndarray, b: float, x: np.ndarray):
    """Scalar head w.x + b over a batch; returns ((B,), cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense input must be (B, {w.shape[0]}), got {x.shape}")
    return x @ w + b, x


def dense_backward(w: np.ndarray, cache: np.ndarray, grad_out: np.ndarray):
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (cache.shape[0],):
        raise ShapeError(f"grad_out must be ({cache.shape[0]},), got {grad_out.shape}")
    grad_w = cache.T @ grad_out
    grad_b = float(grad_out.sum())
    grad_x = np.outer(grad_out, w)
    return grad_x, grad_w, grad_b


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ParameterError("mse_loss needs at least one element")
    diff = pred - target
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / pred.size
    return loss, grad


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    state: AdamState,
    params: dict,
    grads: dict,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update, applied to params in place."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != np.shape(p):
            raise ShapeError(f"grad shape {np.shape(g)} != param shape {np.shape(p)} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# model configuration and the variant wirings


@dataclass
class ModelConfig:
    """Architecture variant plus training hyperparameters."""

    variant: str = "dilated_cnn_lstm"
    dilation: int | None = None
    window: int = 5
    hidden_size: int = 32
    out_channels: int = 16
    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    loss: str = "mse"
    init_scheme: str = "uniform"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.dilation is None:
            self.dilation = 2 if self.variant == "dilated_cnn_lstm" else 1
        if self.variant == "dilated_cnn_lstm" and self.dilation < 2:
            raise ParameterError(f"dilated_cnn_lstm needs dilation >= 2, got {self.dilation}")
        if self.variant in ("cnn", "lstm", "cnn_lstm") and self.dilation != 1:
            raise ParameterError(f"variant {self.variant!r} requires dilation 1, got {self.dilation}")
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if self.hidden_size < 1 or self.out_channels < 1:
            raise ParameterError("hidden_size and out_channels must be >= 1")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.loss != "mse":
            raise ParameterError(f"only mse loss is supported, got {self.loss!r}")
        if self.init_scheme not in ("uniform", "zeros"):
            raise ParameterError(f"init_scheme must be 'uniform' or 'zeros', got {self.init_scheme!r}")


class ForecastModel:
    """One of the four variant networks over a T x F window.

    Parameters live in a flat name -> array dict, which is what Adam
    updates in place and what checkpoints serialize; every forward reads
    them afresh.
    """

    def __init__(self, config: ModelConfig, n_features: int, params: dict | None = None):
        if n_features < 1:
            raise ParameterError(f"n_features must be >= 1, got {n_features}")
        self.config = config
        self.n_features = n_features
        self.rng = Rng(config.seed)

        self._uses_conv = config.variant != "lstm"
        self._uses_lstm = config.variant != "cnn"

        expected = self._block_shapes()
        if params is None:
            params = self._init_params(expected)
        else:
            got = {k: np.shape(p) for k, p in params.items()}
            want = {k: tuple(s) for k, s in expected.items()}
            if got != want:
                raise ShapeError(f"parameter blocks {got} do not match expected {want}")
        self.params = params

    # parameter blocks, in a fixed order so seeded init is reproducible
    def _block_shapes(self) -> dict:
        cfg = self.config
        shapes = {}
        if self._uses_conv:
            shapes["conv_kernel"] = (cfg.out_channels, 1, KERNEL_SIZE, KERNEL_SIZE)
            shapes["conv_bias"] = (cfg.out_channels,)
        if self._uses_lstm:
            lstm_in = cfg.out_channels * self.n_features if self._uses_conv else self.n_features
            for name in LSTM_KEYS:
                shapes[name] = (cfg.hidden_size, cfg.hidden_size + lstm_in) if name[0] == "W" else (cfg.hidden_size,)
            head_in = cfg.hidden_size
        else:
            head_in = cfg.out_channels * cfg.window * self.n_features
        shapes["dense_w"] = (head_in,)
        shapes["dense_b"] = ()
        return shapes

    @staticmethod
    def _fan_in(name: str, shapes: dict) -> int:
        if name.startswith("conv"):
            return int(np.prod(shapes["conv_kernel"][1:]))  # in_channels x 3 x 3
        if name.startswith(("W_", "b_")):
            return shapes["W_f"][1]  # hidden state + LSTM input
        return shapes["dense_w"][0]

    def _init_params(self, shapes: dict) -> dict:
        params = {}
        for name, shape in shapes.items():
            if self.config.init_scheme == "zeros":
                params[name] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(self._fan_in(name, shapes))
                params[name] = self.rng.uniform(shape, -bound, bound)
            params[name] = np.asarray(params[name], dtype=np.float64).reshape(shape)
        return params

    def _check_windows(self, windows: np.ndarray) -> np.ndarray:
        w = np.asarray(windows, dtype=np.float64)
        if w.ndim == 2:
            w = w[None, :, :]
        if w.ndim != 3 or w.shape[1] != self.config.window or w.shape[2] != self.n_features:
            raise ShapeError(
                f"windows must be (B, {self.config.window}, {self.n_features}), got {np.shape(windows)}"
            )
        return w

    def _input_rows(self, x: np.ndarray) -> np.ndarray:
        """What the weights after the conv multiply at every step: (T*B, K), rows in (t, b) order.

        lstm: the window row x[b, t]. Conv variants: the three dilated rows
        xp[b, t + u*d] of the zero-padded window, u = 0, 1, 2, side by side.
        """
        b, t_steps, f = x.shape
        if not self._uses_conv:
            return x.transpose(1, 0, 2).reshape(t_steps * b, f)
        d = self.config.dilation
        xp = np.zeros((t_steps + 2 * d, b, f + 2 * d))  # time-major padded window
        xp[d : d + t_steps, :, d : d + f] = x.transpose(1, 0, 2)
        rows = np.empty((t_steps, b, KERNEL_SIZE, f + 2 * d))
        for u in range(KERNEL_SIZE):
            rows[:, :, u] = xp[u * d : u * d + t_steps]
        return rows.reshape(t_steps * b, -1)

    def _input_weights(self, w_x: np.ndarray):
        """(E, e0, cache) with rows @ E.T + e0 equal to the (G, C*F) weights w_x applied to the conv output.

        lstm: no conv, so E = w_x and e0 = 0. Conv variants: E[g, u, f'] =
        sum_{c,v} w_x[g, c, f'-v*d] K[c, u, v] (G, 3, F+2d) and e0 = w_x.sum(f) @ conv_bias.
        """
        if not self._uses_conv:
            return w_x, 0.0, None
        d, f = self.config.dilation, self.n_features
        kernel = self.params["conv_kernel"].reshape(-1, KERNEL_SIZE * KERNEL_SIZE)  # (C, 9)
        # w_x with the channel first: w_t[c, g*F + f] = w_x[g, c*F + f]
        w_t = w_x.reshape(len(w_x), -1, f).transpose(1, 0, 2).reshape(len(kernel), -1)
        taps = (kernel.T @ w_t).reshape(KERNEL_SIZE, KERNEL_SIZE, len(w_x), f)
        e = np.zeros((len(w_x), KERNEL_SIZE, f + 2 * d))
        for v in range(KERNEL_SIZE):
            e[:, :, v * d : v * d + f] += taps[:, v].transpose(1, 0, 2)
        w_sums = w_t.reshape(len(kernel), len(w_x), f).sum(axis=2)  # (C, G)
        return e.reshape(len(w_x), -1), self.params["conv_bias"] @ w_sums, (w_t, w_sums)

    def forward(self, windows: np.ndarray):
        """Predictions (B,) for a batch of standardized windows, plus cache."""
        x = self._check_windows(windows)
        b, t_steps, f = x.shape
        rows = self._input_rows(x)
        if self._uses_lstm:
            lstm = LstmParams(*(self.params[k] for k in LSTM_KEYS))
            w_x = lstm.w[:, lstm.hidden_size :]
        else:  # dense_w over the (C, T, F) conv output, as one row of C*F weights per step
            w_x = self.params["dense_w"].reshape(-1, t_steps, f).transpose(1, 0, 2).reshape(t_steps, -1)
        e, e0, w_cache = self._input_weights(w_x)
        cache = {"shape": x.shape, "rows": rows, "e": e, "w_cache": w_cache}
        if not self._uses_lstm:  # step t's rows meet only row t of E
            step_sums = np.einsum("tbk,tk->b", rows.reshape(t_steps, b, -1), e)
            return step_sums + (e0.sum() + float(self.params["dense_b"])), cache
        a_x = rows @ e.T
        a_x += lstm.b + e0
        states, head_in = lstm_forward(lstm, a_x.reshape(t_steps, b, -1))
        cache.update(lstm=lstm, states=states)
        preds, cache["dense"] = dense_forward(self.params["dense_w"], float(self.params["dense_b"]), head_in)
        return preds, cache

    def backward(self, cache: dict, grad_preds: np.ndarray):
        """Parameter gradients (same keys as params) and window gradients."""
        b, t_steps, f = cache["shape"]
        hidden, grads = self.config.hidden_size, {}
        if self._uses_lstm:
            grad_head, grads["dense_w"], gb = dense_backward(self.params["dense_w"], cache["dense"], grad_preds)
            grad_h_seq = np.zeros((b, t_steps, hidden))
            grad_h_seq[:, -1, :] = grad_head
            da, grad_w_h, grad_b = lstm_backward(cache["lstm"], cache["states"], grad_h_seq)
        else:
            grad_preds = np.asarray(grad_preds, dtype=np.float64)
            if grad_preds.shape != (b,):
                raise ShapeError(f"grad_preds must be ({b},), got {grad_preds.shape}")
            gb = grad_preds.sum()
            # d pred[b] / d (rows[t, b] . E[t']) is 1 where t' == t, else 0
            da = (np.eye(t_steps)[:, None, :] * grad_preds[:, None]).reshape(t_steps * b, t_steps)
            grad_b = da.sum(axis=0)
        grads["dense_b"] = np.asarray(gb, dtype=np.float64).reshape(())
        grad_e = da.T @ cache["rows"]
        grad_rows = da @ cache["e"]
        if self._uses_conv:
            grad_w_x, grads["conv_kernel"], grads["conv_bias"], grad_x = self._conv_backward(
                cache["w_cache"], grad_e, grad_b, grad_rows, cache["shape"]
            )
        else:
            grad_w_x = grad_e
            grad_x = grad_rows.reshape(t_steps, b, f).transpose(1, 0, 2)
        if not self._uses_lstm:
            grads["dense_w"] = grad_w_x.reshape(t_steps, -1, f).transpose(1, 0, 2).reshape(-1)
            return grads, grad_x
        grad_w = np.concatenate([grad_w_h, grad_w_x], axis=1)
        for k, gate in enumerate("figo"):
            gate_rows = slice(k * hidden, (k + 1) * hidden)
            grads[f"W_{gate}"] = grad_w[gate_rows]
            grads[f"b_{gate}"] = grad_b[gate_rows]
        return grads, grad_x

    def _conv_backward(self, w_cache, grad_e, grad_b, grad_rows, shape):
        """Map the gradients of E, e0 and the rows back to (w_x, kernel, conv_bias, window)."""
        (w_t, w_sums), (b, t_steps, f) = w_cache, shape
        d, n_gates = self.config.dilation, len(grad_b)
        kernel = self.params["conv_kernel"].reshape(-1, KERNEL_SIZE * KERNEL_SIZE)
        grad_e = grad_e.reshape(n_gates, KERNEL_SIZE, f + 2 * d)
        grad_taps = np.empty((KERNEL_SIZE, KERNEL_SIZE, n_gates, f))
        for v in range(KERNEL_SIZE):
            grad_taps[:, v] = grad_e[:, :, v * d : v * d + f].transpose(1, 0, 2)
        grad_taps = grad_taps.reshape(KERNEL_SIZE * KERNEL_SIZE, -1)
        grad_kernel = (w_t @ grad_taps.T).reshape(self.params["conv_kernel"].shape)
        grad_w_t = (kernel @ grad_taps).reshape(len(kernel), n_gates, f)
        grad_w_t += self.params["conv_bias"][:, None, None] * grad_b[None, :, None]  # through e0
        grad_w_x = grad_w_t.transpose(1, 0, 2).reshape(n_gates, -1)
        grad_rows = grad_rows.reshape(t_steps, b, KERNEL_SIZE, f + 2 * d)
        grad_xp = np.zeros((t_steps + 2 * d, b, f + 2 * d))
        for u in range(KERNEL_SIZE):
            grad_xp[u * d : u * d + t_steps] += grad_rows[:, :, u]
        grad_x = grad_xp[d : d + t_steps, :, d : d + f].transpose(1, 0, 2)
        return grad_w_x, grad_kernel, w_sums @ grad_b, grad_x

    def predict(self, windows: np.ndarray) -> np.ndarray:
        preds, _ = self.forward(windows)
        return preds


# ---------------------------------------------------------------------------
# checkpoint (de)serialization: JSON with base64-encoded little-endian f64


CHECKPOINT_VERSION = 1


def encode_array(a: np.ndarray) -> dict:
    shape = list(np.shape(a))  # before ascontiguousarray, which promotes 0-d to 1-d
    arr = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": shape,
        "dtype": "<f8",
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


@dataclass
class EncodedArray:
    """A checkpoint parameter block as encode_array writes it."""

    shape: list[int]
    dtype: str
    data: str


def decode_array(enc: EncodedArray, where: str) -> np.ndarray:
    if enc.dtype != "<f8":
        raise DataError(f"{where}.dtype: expected '<f8', got {enc.dtype!r}")
    try:
        raw = base64.b64decode(enc.data, validate=True)
        return np.frombuffer(raw, dtype="<f8").reshape(enc.shape).copy()
    except ValueError as exc:  # bad base64, or bytes that do not fill the shape
        raise DataError(f"{where}.data: {exc}") from exc


def model_to_dict(model: ForecastModel) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "seed": model.config.seed,
        "n_features": model.n_features,
        "params": {name: encode_array(p) for name, p in model.params.items()},
    }


def model_from_dict(d: dict) -> ForecastModel:
    """Rebuild a model_to_dict model; a malformed or unsupported checkpoint raises DataError."""
    version = d.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint.format_version: expected {CHECKPOINT_VERSION}, got {version!r}")
    config = from_json(ModelConfig, d.get("config"), "checkpoint.config", DataError)
    n_features = from_json(int, d.get("n_features"), "checkpoint.n_features", DataError)
    params = from_json(dict[str, EncodedArray], d.get("params"), "checkpoint.params", DataError)
    arrays = {name: decode_array(enc, f"checkpoint.params.{name}") for name, enc in params.items()}
    if n_features < 1:
        raise DataError(f"checkpoint.n_features: expected >= 1, got {n_features}")
    try:
        return ForecastModel(config, n_features, params=arrays)
    except ShapeError as exc:
        raise DataError(f"checkpoint.params: {exc}") from exc
