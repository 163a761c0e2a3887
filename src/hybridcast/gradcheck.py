"""Finite-difference validation of every analytic gradient.

The numeric side only ever calls forward passes, so it stays independent
of the backward code it is checking. Errors are elementwise
|analytic - numeric| / max(|analytic|, |numeric|), falling back to the
absolute difference when both are ~0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import ForecastModel, ModelConfig, VARIANTS, mse_loss
from .numcore import Rng

DEFAULT_STEP = 1e-5
TOLERANCE = 1e-4


def central_difference(f, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. every element of x.

    f takes no arguments and must read x by reference; x is restored
    after probing.
    """
    x = np.atleast_1d(np.asarray(x))
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        f_plus = f()
        x[idx] = orig - step
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    n = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {n.shape}")
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
    return ModelConfig(
        variant=variant,
        dilation=2 if variant == "dilated_cnn_lstm" else None,
        window=5,
        hidden_size=4,
        out_channels=2,
        seed=seed,
    )


def model_block_errors(
    config: ModelConfig, n_features: int = 3, batch: int = 3, seed: int = 1234
) -> dict[str, float]:
    """Per-block max relative error for one model, including the input block."""
    model = ForecastModel(config, n_features)
    data_rng = Rng(seed)
    windows = data_rng.normal(batch * config.window * n_features).reshape(
        batch, config.window, n_features
    )
    targets = data_rng.normal(batch)

    preds, cache = model.forward(windows)
    _, grad_pred = mse_loss(preds, targets)
    grads, grad_windows = model.backward(cache, grad_pred, window_grad=True)

    def loss() -> float:
        return mse_loss(model.predict(windows), targets)[0]

    errors = {}
    for name, p in model.params.items():
        numeric = central_difference(loss, p)
        errors[name] = max_relative_error(np.atleast_1d(grads[name]), numeric)
    errors["input"] = max_relative_error(grad_windows, central_difference(loss, windows))
    return errors


def run_gradient_checks(seed: int = 0) -> list[BlockCheck]:
    """All per-block checks for each architecture variant (tiny dimensions)."""
    checks = []
    for variant in VARIANTS:
        config = _tiny_config(variant, seed)
        for block, err in model_block_errors(config, seed=seed + 17).items():
            checks.append(BlockCheck(f"{variant}/{block}", err))
    return checks
