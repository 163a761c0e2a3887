"""Finite-difference validation of every analytic gradient.

The numeric side only ever calls forward passes, so it stays independent
of the backward code it is checking. Each block's probes run as one
stacked forward pass: the replicas of a stacked model (ForecastModel.predict)
or one batch of probed windows, so a full run makes 42 predict calls, not
one per probe (1,532). Errors are elementwise |analytic - numeric| /
max(|analytic|, |numeric|), falling back to the absolute difference when
both are ~0; a non-finite entry on either side makes the error inf.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .neural import ForecastModel, ModelConfig, VARIANTS, mse_loss
from .numcore import generator

DEFAULT_STEP = 1e-5
TOLERANCE = 1e-4


def central_difference(f, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. every element of x (not written), from one call of f.

    f maps the stack (2*x.size, *x.shape) of probed copies of x to their values:
    probe 2k holds orig + step at flat element k, probe 2k+1 orig - step.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    probes = np.repeat(x.reshape(1, n), 2 * n, axis=0)
    k, orig = np.arange(n), x.reshape(n)
    probes[2 * k, k] = orig + step
    probes[2 * k + 1, k] = orig - step
    v = np.asarray(f(probes.reshape(2 * n, *x.shape)))
    return ((v[0::2] - v[1::2]) / (2.0 * step)).reshape(x.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    n = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {n.shape}")
    if not (np.isfinite(a).all() and np.isfinite(n).all()):
        return float("inf")  # not NaN, which Python's max() over blocks would skip
    diff = np.abs(a - n)
    scale = np.maximum(np.abs(a), np.abs(n))
    rel = np.where(scale > 1e-8, diff / np.where(scale > 1e-8, scale, 1.0), diff)
    return float(rel.max()) if rel.size else 0.0


@dataclass
class BlockCheck:
    block: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= TOLERANCE


def _tiny_config(variant: str, seed: int) -> ModelConfig:
    return ModelConfig(variant=variant, hidden_size=4, out_channels=2, seed=seed)


def numeric_gradients(model: ForecastModel, windows: np.ndarray, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Central differences of the MSE w.r.t. every parameter block and the windows ("input"), one predict per block.

    A parameter block's probes are the replicas of a stacked model, its
    other blocks broadcast; the windows' probes are one batch.
    """

    def loss(name, stack):  # mse_loss's loss, per probe
        if name == "input":
            preds = model.predict(stack.reshape(-1, *windows.shape[1:])).reshape(len(stack), -1)
        else:
            params = {k: stack if k == name else np.broadcast_to(p, (len(stack), *np.shape(p)))
                      for k, p in model.params.items()}
            preds = ForecastModel(model.config, model.n_features, params).predict(windows)
        return np.mean((preds - targets) ** 2, axis=-1)

    return {name: central_difference(partial(loss, name), x) for name, x in dict(model.params, input=windows).items()}


def model_block_errors(
    config: ModelConfig, n_features: int = 3, batch: int = 3, seed: int = 1234
) -> dict[str, float]:
    """Per-block max relative error for one model, including the input block."""
    model = ForecastModel(config, n_features)
    data_rng = generator(seed)
    windows = data_rng.normal(size=(batch, config.window, n_features))
    targets = data_rng.normal(size=batch)

    preds, cache = model.forward(windows)
    _, grad_pred = mse_loss(preds, targets)
    grads, grad_windows = model.backward(cache, grad_pred, window_grad=True)
    grads["input"] = grad_windows
    return {name: max_relative_error(grads[name], num)
            for name, num in numeric_gradients(model, windows, targets).items()}


def run_gradient_checks(seed: int = 0) -> list[BlockCheck]:
    """All per-block checks for each architecture variant (tiny dimensions)."""
    checks = []
    for variant in VARIANTS:
        config = _tiny_config(variant, seed)
        for block, err in model_block_errors(config, seed=seed + 17).items():
            checks.append(BlockCheck(f"{variant}/{block}", err))
    return checks
