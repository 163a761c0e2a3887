"""Computations made apart from hybridcast, used to check its outputs.

Nothing here calls into the package: each function restates the method
from its definition in plain numpy (normal equations, SCAD optimality
conditions, a direct-loop forward pass, central differences, forward
fill, error metrics) so that the benchmark checks the program against
the method rather than against a stored copy of an earlier output.
"""
from __future__ import annotations

import csv
import math
from datetime import date

import numpy as np


def lagged_design(columns: dict, target: str, lag: int = 1):
    """Exogenous columns at t against the target at t + lag, in column order."""
    names = [n for n in columns if n != target]
    x = np.column_stack([columns[n] for n in names])[:-lag]
    y = np.asarray(columns[target])[lag:]
    return x, y, names


def ridge_normal_equation_residual(x, y, lam: float, beta_std) -> float:
    """Relative residual of (XᵀX + λI)β = Xᵀy on the sample-standardized design.

    ``beta_std`` are the program's slopes on that design (the reported
    coefficients times the column standard deviations).
    """
    xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    yc = y - y.mean()
    lhs = (xs.T @ xs + lam * np.eye(xs.shape[1])) @ beta_std
    rhs = xs.T @ yc
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def scad_derivative(t: np.ndarray, lam: float, a: float) -> np.ndarray:
    """p'_λ(t) for t >= 0: λ up to λ, then (aλ - t)₊ / (a - 1)."""
    return np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1.0))


def scad_kkt(x, y, beta_orig, lam: float, a: float) -> float:
    """Largest violation of coordinatewise optimality of a SCAD fit.

    On the population-standardized design, with g = Xᵀr/n: |g_j| <= λ
    where β_j = 0 and g_j = sign(β_j) p'(|β_j|) elsewhere.
    """
    n = len(y)
    sd = np.sqrt(np.mean((x - x.mean(axis=0)) ** 2, axis=0))
    xs = (x - x.mean(axis=0)) / sd
    beta = np.asarray(beta_orig) * sd
    r = (y - y.mean()) - xs @ beta
    g = xs.T @ r / n
    zero = beta == 0.0
    viol_zero = np.maximum(np.abs(g[zero]) - lam, 0.0)
    viol_nonzero = np.abs(g[~zero] - np.sign(beta[~zero]) * scad_derivative(np.abs(beta[~zero]), lam, a))
    return float(max(viol_zero.max(initial=0.0), viol_nonzero.max(initial=0.0)))


# ---------------------------------------------------------------------------
# dilated CNN -> LSTM -> dense, written out loop by loop


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def forward_conv_lstm(params: dict, dilation: int, windows: np.ndarray) -> np.ndarray:
    """Predictions of the conv -> LSTM -> dense wiring for (N, T, F) windows.

    The 3x3 convolution has one input channel, zero padding equal to the
    dilation (so the T x F extent is kept), and is summed tap by tap.
    Each time step's C x F conv outputs, channel-major, feed a four-gate
    LSTM over [h, x_t]; the last hidden state feeds the linear head.
    """
    n, t_steps, f = windows.shape
    kernel, bias = params["conv_kernel"], params["conv_bias"]
    channels = kernel.shape[0]
    d = dilation
    padded = np.zeros((n, t_steps + 2 * d, f + 2 * d))
    padded[:, d : d + t_steps, d : d + f] = windows
    conv = np.empty((n, channels, t_steps, f))
    for o in range(channels):
        acc = np.full((n, t_steps, f), bias[o])
        for u in range(3):
            for v in range(3):
                acc = acc + kernel[o, 0, u, v] * padded[:, u * d : u * d + t_steps, v * d : v * d + f]
        conv[:, o] = acc

    hidden = params["W_f"].shape[0]
    h = np.zeros((n, hidden))
    c = np.zeros((n, hidden))
    for t in range(t_steps):
        x_t = conv[:, :, t, :].reshape(n, channels * f)
        z = np.concatenate([h, x_t], axis=1)
        forget = _sigmoid(z @ params["W_f"].T + params["b_f"])
        inp = _sigmoid(z @ params["W_i"].T + params["b_i"])
        cand = np.tanh(z @ params["W_g"].T + params["b_g"])
        out = _sigmoid(z @ params["W_o"].T + params["b_o"])
        c = forget * c + inp * cand
        h = out * np.tanh(c)
    return h @ params["dense_w"] + float(params["dense_b"])


def sampled_central_differences(loss, params: dict, rng, per_block: int, step: float = 1e-5) -> dict:
    """Central differences of ``loss()`` at ``per_block`` sampled entries of each block.

    ``loss`` reads the parameter arrays by reference; every probed entry
    is restored. Returns {block: (flat indices, numeric derivatives)}.
    """
    out = {}
    for name, p in params.items():
        flat = p.reshape(-1)
        if not np.shares_memory(flat, p):
            raise ValueError(f"parameter block {name!r} is not contiguous")
        idx = rng.choice(flat.size, size=min(per_block, flat.size), replace=False)
        numeric = np.empty(len(idx))
        for k, j in enumerate(idx):
            orig = flat[j]
            flat[j] = orig + step
            up = loss()
            flat[j] = orig - step
            down = loss()
            flat[j] = orig
            numeric[k] = (up - down) / (2.0 * step)
        out[name] = (idx, numeric)
    return out


# ---------------------------------------------------------------------------
# CSV panels


def read_csv_columns(path, date_column: str = "date") -> tuple[list[date], dict[str, list[float]]]:
    """Dates and columns of one CSV; an empty cell is None (missing)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    d_idx = header.index(date_column)
    dates = [date.fromisoformat(r[d_idx]) for r in body]
    cols = {
        name: [float(r[j]) if r[j] != "" else None for r in body]
        for j, name in enumerate(header) if j != d_idx
    }
    return dates, cols


def forward_fill(paths: list, target: str, date_column: str = "date") -> tuple[list[date], dict[str, np.ndarray]]:
    """Every column of every file on the target's dates, last observation carried forward.

    Leading target dates on which some column has no observation yet are
    dropped. Column order: the target, then each file's columns in order.
    """
    tables = [read_csv_columns(p, date_column) for p in paths]
    t_dates, t_cols = next(tbl for tbl in tables if target in tbl[1])
    filled = {target: list(t_cols[target])}
    for dates, cols in tables:
        order = sorted(range(len(dates)), key=lambda i: dates[i])
        for name, values in cols.items():
            if name == target:
                continue
            series, last, k = [], None, 0
            for td in t_dates:
                while k < len(order) and dates[order[k]] <= td:
                    if values[order[k]] is not None:
                        last = values[order[k]]
                    k += 1
                series.append(last)
            filled[name] = series
    first = max(next(i for i, v in enumerate(s) if v is not None) for s in filled.values())
    return t_dates[first:], {n: np.array(s[first:], dtype=np.float64) for n, s in filled.items()}


def error_metrics(actual: np.ndarray, predicted: np.ndarray) -> dict:
    """MSE, MAE and MAPE, with MAPE as the mean of |error| / |actual|."""
    err = actual - predicted
    return {
        "mse": float(np.mean(err**2)),
        "mae": float(np.mean(np.abs(err))),
        "mape": float(np.mean(np.abs(err) / np.abs(actual))),
    }


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))
