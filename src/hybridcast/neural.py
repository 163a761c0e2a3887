"""Neural forecaster built from scratch on numpy: dilated 2-d convolution,
an LSTM cell with backpropagation through time, a linear head, and Adam.

Four wirings of the same pieces are supported (see ForecastModel):

  lstm             window rows -> LSTM -> linear head
  cnn              window as 1xTxF image -> conv(d=1) -> flatten -> head
  cnn_lstm         conv(d=1, shape-preserving) -> per-step flatten -> LSTM -> head
  dilated_cnn_lstm same, with dilation d >= 2 and padding p = d

d is ModelConfig.dilation, the dilated variant's rate. ForecastModel reads
it once into conv_dilation, which is 1 for every other variant.

The conv never runs as a layer. Nothing nonlinear sits between it and the
weights that read its output (the LSTM input weights, or the cnn head as T
rows of C*F weights, one per step), so the two are one linear map of the
window, composed once per forward (ForecastModel._input_weights) into one
block per kernel row that skips the zero padding. An activation after the
conv would break this. Conv2dLayer is the unfolded conv the tests check
the fold against. Checkpoints keep the unfolded blocks: model_to_dict and
model_from_dict encode and decode them, and pipeline.Checkpoint, the
checkpoint document, holds them beside the config and the input column
names.

The LSTM weights live in one (4H, H+I) gate stack and one (4H,) bias
stack (LstmParams); the W_f ... b_o parameter blocks are row-block views
of them, so Adam, checkpoints and in-place probes all read and write the
memory the forward pass reads. The sigmoid is computed with numpy's
tanh, so this module imports numpy alone. backward computes the window
gradient only when asked: training does not need it.

Training and inference take two paths through the LSTM variants, over
one gate helper (_lstm_cell). forward, which backward follows, takes
every step's input pre-activations in one tall GEMM per block and keeps
every step's gate activations (lstm_step). predict takes one step's
inputs at a time and keeps only (h, c): half forward's peak memory or
less. Each is the slower path on the other's workload. Only predict
reads a replica axis: a model whose blocks all lead with one axis S is S
models, predicted as one (gradcheck probes a block this way).

Everything is float64 and deterministic for a fixed seed; analytic
gradients are validated against central finite differences (see
gradcheck).
"""
from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .numcore import generator

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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as 0.5 + 0.5*tanh(x/2): within 2.3e-16 of 1/(1 + e^-x), and no overflow at any x."""
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


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
    """The four gates' weights over the concatenated [h_prev, x_t], and their biases.

    w (4*hidden, hidden+input) and b (4*hidden,), after any replica axis,
    stack the gates in f, i, g, o order; w_f ... b_o are row-block views
    of them, so a change made in place to either is a change to both.
    from_gates copies separate gate arrays into a new stack.
    """

    w: np.ndarray
    b: np.ndarray
    w_f: np.ndarray = field(init=False, repr=False)
    w_i: np.ndarray = field(init=False, repr=False)
    w_g: np.ndarray = field(init=False, repr=False)
    w_o: np.ndarray = field(init=False, repr=False)
    b_f: np.ndarray = field(init=False, repr=False)
    b_i: np.ndarray = field(init=False, repr=False)
    b_g: np.ndarray = field(init=False, repr=False)
    b_o: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.w.ndim < 2 or self.w.shape[-2] % 4 or self.b.shape != self.w.shape[:-1]:
            raise ShapeError(
                f"w must be (4*hidden, hidden+input) and b (4*hidden,), got {self.w.shape} and {self.b.shape}"
            )
        hidden = self.hidden_size
        for k, gate in enumerate("figo"):
            rows = slice(k * hidden, (k + 1) * hidden)
            setattr(self, f"w_{gate}", self.w[..., rows, :])
            setattr(self, f"b_{gate}", self.b[..., rows])

    @classmethod
    def from_gates(cls, w_f, w_i, w_g, w_o, b_f, b_i, b_g, b_o) -> "LstmParams":
        """A new stack holding copies of the eight gate arrays."""
        return cls(np.concatenate([w_f, w_i, w_g, w_o], axis=-2), np.concatenate([b_f, b_i, b_g, b_o], axis=-1))

    @property
    def hidden_size(self) -> int:
        return self.b.shape[-1] // 4


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
    return LstmState(*_lstm_cell(params.w[:, :hidden], a_t, prev.h, prev.c))


def _lstm_cell(w_h: np.ndarray, a_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """lstm_step's gate math, over any leading axes: (h, c, f, i, z, o, tanh_c) from W_h (..., 4H, H)."""
    hidden = w_h.shape[-1]
    a = a_t + h_prev @ w_h.swapaxes(-1, -2)
    f_i = sigmoid(a[..., : 2 * hidden])  # f and i are side by side
    f, i = f_i[..., :hidden], f_i[..., hidden:]
    o = sigmoid(a[..., 3 * hidden :])
    z = np.tanh(a[..., 2 * hidden : 3 * hidden])
    c = f * c_prev + i * z
    tanh_c = np.tanh(c)
    return o * tanh_c, c, f, i, z, o, tanh_c


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
        da_t = da[t]
        da_t[:, :hidden] = dc * c_prev * st.f * (1.0 - st.f)
        da_t[:, hidden : 2 * hidden] = dc * st.z * st.i * (1.0 - st.i)
        da_t[:, 2 * hidden : 3 * hidden] = dc * st.i * (1.0 - st.z**2)
        da_t[:, 3 * hidden :] = dh * st.tanh_c * st.o * (1.0 - st.o)
        dh_next = da_t @ w_h
        dc_next = dc * st.f

    da = da.reshape(t_steps * batch, 4 * hidden)
    h_prev = np.concatenate([np.zeros((batch, hidden))] + [st.h for st in states[:-1]])
    return da, da.T @ h_prev, da.sum(axis=0)


def dense_forward(w: np.ndarray, b, x: np.ndarray):
    """Scalar head w.x + b over a batch x (..., B, K), any leading axes on w and b too; returns ((..., B), cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"dense input must be (B, {w.shape[-1]}), got {x.shape}")
    return (x @ w[..., None])[..., 0] + np.asarray(b)[..., None], x


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

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults; only lr is configurable


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


def adam_step(state: AdamState, params: dict, grads: dict, lr: float = 0.001) -> None:
    """Bias-corrected Adam update, applied to params in place.

    p -= lr/bc1 * m / (sqrt(v)/sqrt(bc2) + ADAM_EPS), each block's
    arithmetic in place through one scratch array.
    """
    state.t += 1
    step = lr / (1.0 - ADAM_BETA1**state.t)
    root_bc2 = np.sqrt(1.0 - ADAM_BETA2**state.t)
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != np.shape(p):
            raise ShapeError(f"grad shape {np.shape(g)} != param shape {np.shape(p)} for {name!r}")
        m, v, s = state.m[name], state.v[name], np.empty_like(p)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        v += np.multiply(np.square(g, out=s), 1.0 - ADAM_BETA2, out=s)
        np.divide(np.sqrt(v, out=s), root_bc2, out=s)
        s += ADAM_EPS
        p -= np.multiply(np.divide(m, s, out=s), step, out=s)


# ---------------------------------------------------------------------------
# model configuration and the variant wirings


@dataclass
class ModelConfig:
    """Architecture variant plus training hyperparameters; Adam uses the fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    dilation is the dilated_cnn_lstm conv's rate, whatever the variant:
    the other variants' conv is always undilated.
    """

    variant: str = "dilated_cnn_lstm"
    dilation: int = 2
    window: int = 5
    hidden_size: int = 32
    out_channels: int = 16
    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.dilation < 2:
            raise ParameterError(f"dilation is the dilated variant's rate and must be >= 2, got {self.dilation}")
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


def _overlap(n: int, offset: int, scale: int = 1):
    """(dst, src) slices, times scale, of the dst in range(n) whose src = dst + offset is in range(n) too."""
    lo = max(0, -offset)
    hi = max(lo, min(n, n - offset))
    return slice(lo * scale, hi * scale), slice((lo + offset) * scale, (hi + offset) * scale)


class ForecastModel:
    """One of the four variant networks over a T x F window.

    Parameters live in a flat name -> array dict, which is what Adam
    updates in place and what checkpoints serialize; every forward reads
    them afresh. The gate blocks W_f ... b_o are row-block views of one
    LstmParams stack (self.lstm), which the LSTM reads, so change them in
    place: an array put in their place would go unread.
    """

    def __init__(self, config: ModelConfig, n_features: int, params: dict | None = None):
        if n_features < 1:
            raise ParameterError(f"n_features must be >= 1, got {n_features}")
        self.config = config
        self.n_features = n_features
        self.rng = generator(config.seed)

        self._uses_conv = config.variant != "lstm"
        self._uses_lstm = config.variant != "cnn"
        self.conv_dilation = config.dilation if config.variant == "dilated_cnn_lstm" else 1
        # (u, offset) per (G, F) block E[u] of the input weights, centre first: step t reads window row t + offset
        self._taps = [(1, 0), (0, -self.conv_dilation), (2, self.conv_dilation)] if self._uses_conv else [(0, 0)]

        expected = self._block_shapes()
        self.replicas = ()  # or (S,): the replica axis that leads every block, read by predict alone
        if params is None:
            params = self._init_params(expected)
        else:
            got = {k: np.shape(p) for k, p in params.items()}
            self.replicas = got.get("dense_b", ())[:1]  # dense_b is 0-d without the axis
            want = {k: self.replicas + tuple(s) for k, s in expected.items()}
            if got != want:
                raise ShapeError(f"parameter blocks {got} do not match expected {want}")
        self.params = dict(params)
        if self._uses_lstm:
            self.lstm = LstmParams.from_gates(*(self.params[k] for k in LSTM_KEYS))
            self.params.update((k, getattr(self.lstm, k.lower())) for k in LSTM_KEYS)

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
            bound = 1.0 / np.sqrt(self._fan_in(name, shapes))
            params[name] = self.rng.uniform(-bound, bound, size=shape)
        return params

    def _require_single(self, what: str) -> None:
        if self.replicas:
            raise ShapeError(f"{what} needs a model without a replica axis, got {self.replicas[0]} replicas")

    def _check_windows(self, windows: np.ndarray) -> np.ndarray:
        w = np.asarray(windows, dtype=np.float64)
        if w.ndim != 3 or w.shape[1] != self.config.window or w.shape[2] != self.n_features:
            raise ShapeError(
                f"windows must be (B, {self.config.window}, {self.n_features}), got {np.shape(windows)}"
            )
        return w

    def _tap_products(self, rows: np.ndarray, weights: np.ndarray, t_steps: int, reverse: bool = False):
        """out[t] = sum_u rows[t + offset_u] @ weights[u], rows (T*B, K) in (t, b) order; reverse negates offset_u.

        One tall GEMM per block, centre first, over the steps whose shifted row is inside the window.
        weights (..., U, K, N) and out (..., T*B, N) may lead with the replica axis.
        """
        (u, _), *sides = self._taps
        out, batch = rows @ weights[..., u, :, :], len(rows) // t_steps
        for u, offset in sides:
            dst, src = _overlap(t_steps, -offset if reverse else offset, batch)
            out[..., dst, :] += rows[src] @ weights[..., u, :, :]
        return out

    def _kernel_and_bias(self) -> np.ndarray:
        """[kernel | conv_bias] (..., C, 10): the bias is a tenth tap, one that reads a constant 1."""
        bias = self.params["conv_bias"]
        return np.concatenate([self.params["conv_kernel"].reshape(*bias.shape, -1), bias[..., None]], axis=-1)

    def _input_weights(self, w_x: np.ndarray):
        """(E, e0): the weights w_x applied to the conv output, as blocks E[u] (G, F) for _taps.

        lstm: no conv, so E = w_x[None] (1, G, F) and e0 = 0. Conv variants:
        w_x is (G, C, F); one small GEMM per gate g gives taps[g] = [K |
        conv_bias].T @ w_x[g] (G, 10, F), then E[u, g, f] = sum_v taps[g,
        3u+v, f + (1-v)d] over the columns inside the window (3, G, F), and
        e0[g] = taps[g, 9].sum(). No W_x-sized array is copied or transposed.
        The replica axis, if any, leads w_x, E and e0.
        """
        if not self._uses_conv:
            return w_x[..., None, :, :], 0.0
        d, f, n_gates = self.conv_dilation, self.n_features, w_x.shape[-3]
        taps = np.matmul(self._kernel_and_bias().swapaxes(-1, -2)[..., None, :, :], w_x)
        per_tap = taps[..., :-1, :].reshape(*taps.shape[:-2], KERNEL_SIZE, KERNEL_SIZE, f)
        per_tap = per_tap.swapaxes(-4, -3)  # (u, g, v, f)
        e = np.zeros((*taps.shape[:-3], KERNEL_SIZE, n_gates, f))
        for v in range(KERNEL_SIZE):
            cols, src = _overlap(f, (1 - v) * d)
            e[..., cols] += per_tap[..., v, src]
        return e, taps[..., -1, :].sum(axis=-1)

    def _weights_after_conv(self) -> np.ndarray:
        """The weights that read the conv output (or, for lstm, the window), as _input_weights takes them."""
        t_steps, f = self.config.window, self.n_features
        if not self._uses_lstm:  # dense_w over the (C, T, F) conv output, as one (C, F) block of weights per step
            w = self.params["dense_w"]
            return w.reshape(*w.shape[:-1], -1, t_steps, f).swapaxes(-3, -2)
        w_x = self.lstm.w[..., self.config.hidden_size :]
        return w_x.reshape(*w_x.shape[:-1], -1, f) if self._uses_conv else w_x

    def _cnn_head(self, a_x: np.ndarray, e0, t_steps: int) -> np.ndarray:
        """cnn's predictions (..., B) from _tap_products: of its G = T weight rows, step t's rows meet only row t."""
        step_sums = np.einsum("...tbt->...b", a_x.reshape(*a_x.shape[:-2], t_steps, -1, t_steps))
        return step_sums + (e0.sum(axis=-1) + self.params["dense_b"])[..., None]

    def forward(self, windows: np.ndarray):
        """Predictions (B,) for a batch of standardized windows, plus the cache backward reads."""
        self._require_single("forward")
        x = self._check_windows(windows)
        b, t_steps, f = x.shape
        rows = x.transpose(1, 0, 2).reshape(t_steps * b, f)  # time-major: (t, b) order
        w_x = self._weights_after_conv()
        e, e0 = self._input_weights(w_x)
        cache = {"shape": x.shape, "rows": rows, "e": e, "w_x": w_x}
        a_x = self._tap_products(rows, e.transpose(0, 2, 1), t_steps)
        if not self._uses_lstm:
            return self._cnn_head(a_x, e0, t_steps), cache
        a_x += self.lstm.b + e0
        states, head_in = lstm_forward(self.lstm, a_x.reshape(t_steps, b, -1))
        cache["states"] = states
        preds, cache["dense"] = dense_forward(self.params["dense_w"], float(self.params["dense_b"]), head_in)
        return preds, cache

    def backward(self, cache: dict, grad_preds: np.ndarray, window_grad: bool = False):
        """Parameter gradients (same keys as params), and the window gradient if window_grad, else None.

        Training reads only the parameter gradients; the window gradient
        costs one more GEMM per block of E.
        """
        self._require_single("backward")
        b, t_steps, f = cache["shape"]
        hidden, grads = self.config.hidden_size, {}
        if self._uses_lstm:
            grad_head, grads["dense_w"], gb = dense_backward(self.params["dense_w"], cache["dense"], grad_preds)
            grad_h_seq = np.zeros((b, t_steps, hidden))
            grad_h_seq[:, -1, :] = grad_head
            da, grad_w_h, grad_b = lstm_backward(self.lstm, cache["states"], grad_h_seq)
            grad_w = np.empty_like(self.lstm.w)  # its row blocks are the W_f ... W_o gradients
            grad_w[:, :hidden] = grad_w_h
            for k, gate in enumerate("figo"):
                gate_rows = slice(k * hidden, (k + 1) * hidden)
                grads[f"W_{gate}"] = grad_w[gate_rows]
                grads[f"b_{gate}"] = grad_b[gate_rows]
        else:
            grad_preds = np.asarray(grad_preds, dtype=np.float64)
            if grad_preds.shape != (b,):
                raise ShapeError(f"grad_preds must be ({b},), got {grad_preds.shape}")
            gb = grad_preds.sum()
            # d pred[b] / d (rows[t, b] . E[u, t']) is 1 where t' == t, else 0
            da = (np.eye(t_steps)[:, None, :] * grad_preds[:, None]).reshape(t_steps * b, t_steps)
            grad_b = da.sum(axis=0)
        grads["dense_b"] = np.asarray(gb, dtype=np.float64).reshape(())
        e = cache["e"]
        grad_e = np.empty((len(e), len(grad_b), f))
        for u, offset in self._taps:
            dst, src = _overlap(t_steps, offset, b)
            grad_e[u] = da[dst].T @ cache["rows"][src]
        grad_x = None
        if window_grad:
            grad_x = self._tap_products(da, e, t_steps, reverse=True).reshape(t_steps, b, f).transpose(1, 0, 2)
        if not self._uses_conv:  # lstm: E[0] is w_x itself
            grad_w[:, hidden:] = grad_e[0]
            return grads, grad_x
        if self._uses_lstm:  # the w_x gradient as (gates, C, F), the layout of w_x
            grad_w_x = grad_w[:, hidden:].reshape(len(grad_b), -1, f)
        else:
            grads["dense_w"] = np.empty_like(self.params["dense_w"])
            grad_w_x = grads["dense_w"].reshape(-1, t_steps, f).transpose(1, 0, 2)
        grads["conv_kernel"], grads["conv_bias"] = self._conv_backward(cache["w_x"], grad_e, grad_b, grad_w_x)
        return grads, grad_x

    def _conv_backward(self, w_x, grad_e, grad_b, grad_w_x):
        """Map the gradients of E and e0 back to (kernel, conv_bias), and to w_x in grad_w_x.

        grad_taps (G, 10, F), gathered from the E and e0 gradients, is the
        gradient of _input_weights' taps; where a tap would read a padding
        column it is zero. The w_x gradient [K | conv_bias] @ grad_taps[g]
        goes into grad_w_x (G, C, F), as one small GEMM per gate g; sum_g
        w_x[g] @ grad_taps[g].T is the [K | conv_bias] gradient.
        """
        d, n_gates, f = self.conv_dilation, len(grad_b), grad_e.shape[2]
        grad_taps = np.zeros((n_gates, KERNEL_SIZE**2 + 1, f))
        per_tap = grad_taps[:, :-1].reshape(n_gates, KERNEL_SIZE, KERNEL_SIZE, f).transpose(1, 0, 2, 3)  # a view
        for v in range(KERNEL_SIZE):
            cols, src = _overlap(f, (1 - v) * d)
            per_tap[:, :, v, src] = grad_e[:, :, cols]
        grad_taps[:, -1] = grad_b[:, None]
        np.matmul(self._kernel_and_bias(), grad_taps, out=grad_w_x)
        grad_kb = np.matmul(w_x, grad_taps.transpose(0, 2, 1)).sum(axis=0)
        return grad_kb[:, :-1].reshape(self.params["conv_kernel"].shape), grad_kb[:, -1]

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Predictions (B,) for a batch of standardized windows: the inference pass.

        The LSTM variants take step t's input side alone, sum_u x[:, t +
        offset_u] @ E[u].T + b + e0 in forward's order on views of the
        window, and run lstm_step's gate math (_lstm_cell) on a state of
        only (h, c); no backward follows, so forward's rows, pre-activations
        and gate activations are never held. cnn runs forward's _cnn_head.
        With a replica axis S leading every block, predict returns (S, B):
        row s is model s's predict, bit for bit, through broadcast matmuls.
        """
        x = self._check_windows(windows)
        e, e0 = self._input_weights(self._weights_after_conv())
        if not self._uses_lstm:
            rows = x.transpose(1, 0, 2).reshape(-1, x.shape[2])  # time-major, as forward's
            return self._cnn_head(self._tap_products(rows, e.swapaxes(-1, -2), x.shape[1]), e0, x.shape[1])
        bias = (self.lstm.b + e0)[..., None, :]
        w_h = self.lstm.w[..., : self.config.hidden_size]
        (centre, _), *sides = self._taps
        h = c = np.zeros((*self.replicas, len(x), self.config.hidden_size))
        for t in range(x.shape[1]):
            a_t = x[:, t] @ e[..., centre, :, :].swapaxes(-1, -2)
            for u, offset in sides:
                if 0 <= t + offset < x.shape[1]:
                    a_t += x[:, t + offset] @ e[..., u, :, :].swapaxes(-1, -2)
            a_t += bias
            h, c = _lstm_cell(w_h, a_t, h, c)[:2]
        return dense_forward(self.params["dense_w"], self.params["dense_b"], h)[0]


# ---------------------------------------------------------------------------
# parameter blocks as JSON: base64-encoded little-endian f64 (pipeline.Checkpoint holds them)


@dataclass
class EncodedArray:
    """A checkpoint parameter block as encode_array writes it."""

    shape: list[int]
    dtype: str
    data: str


def encode_array(a: np.ndarray) -> EncodedArray:
    shape = list(np.shape(a))  # before ascontiguousarray, which promotes 0-d to 1-d
    arr = np.ascontiguousarray(a, dtype="<f8")
    return EncodedArray(shape, "<f8", base64.b64encode(arr.tobytes()).decode("ascii"))


def decode_array(enc: EncodedArray, where: str) -> np.ndarray:
    if enc.dtype != "<f8":
        raise DataError(f"{where}.dtype: expected '<f8', got {enc.dtype!r}")
    try:
        raw = base64.b64decode(enc.data, validate=True)
        arr = np.frombuffer(raw, dtype="<f8").reshape(enc.shape).copy()
    except ValueError as exc:  # bad base64, or bytes that do not fill the shape
        raise DataError(f"{where}.data: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{where}.data: {int(np.sum(~np.isfinite(arr)))} of {arr.size} values are not finite")
    return arr


def model_to_dict(model: ForecastModel) -> dict[str, EncodedArray]:
    """The model's parameter blocks, encoded."""
    model._require_single("model_to_dict")
    return {name: encode_array(p) for name, p in model.params.items()}


def model_from_dict(config: ModelConfig, n_features: int, params: dict[str, EncodedArray]) -> ForecastModel:
    """The model of model_to_dict's blocks; a bad block, or one the config and width do not fit, raises DataError."""
    arrays = {name: decode_array(enc, f"checkpoint.params.{name}") for name, enc in params.items()}
    try:
        model = ForecastModel(config, n_features, params=arrays)
        model._require_single("a checkpoint")
    except ShapeError as exc:
        raise DataError(f"checkpoint.params: {exc}") from exc
    return model
