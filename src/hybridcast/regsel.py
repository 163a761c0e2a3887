"""Penalized linear regression: OLS, ridge, lasso, and SCAD estimators.

All fits report coefficients on the caller's input scale. The sparse
estimators (lasso/scad) standardize predictors internally to zero mean
and unit population variance, which makes every cyclic coordinate-descent
update an exact univariate minimization via the matching threshold rule.

Conventions:
  * ridge objective:      sum (y_i - b0 - x_i.b)^2 + lam * ||b||^2
  * sparse objective:     (1/2n) ||y - Xb||^2 + sum p_lam(|b_j|)
With unit-variance columns the sparse lambda has the usual "max |X'y|/n
zeroes everything" scaling.

The selection rule is fixed here: a fit's support is what its report
selects (select_features). Ridge and OLS fits support the slopes whose
t-test clears ALPHA; lasso and SCAD fits their nonzero coefficients,
SCAD with Fan & Li's (2001) shape SCAD_A.

A SelectionReport is a jsonio document whose n_features, n_selected and
selected_names are derived from its rows (init=False fields); a report
read back must agree with its rows.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.special import stdtr

from . import numcore
from .errors import ParameterError, ShapeError, SingularityError
from .jsonio import csv_text

PENALTY_KINDS = ("none", "ridge", "lasso", "scad")
TOL, MAX_ITER = 1e-7, 1000  # coordinate descent: convergence threshold on a sweep's largest move, sweep limit
VAL_FRACTION, PARSIMONY_RATIO = 0.1, 1.15  # tune_penalized: held-out share of rows, slack on the least validation MSE
ALPHA = 0.05  # level of the ridge/OLS slope t-tests that decide their support
SCAD_A = 3.7  # SCAD shape parameter, Fan & Li's (2001) choice


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family and strength; `a` only matters for kind='scad'."""

    kind: str
    lam: float = 0.0
    a: float = SCAD_A

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ParameterError(f"unknown penalty kind {self.kind!r}, expected one of {PENALTY_KINDS}")
        if not 0 <= self.lam < math.inf:  # NaN fails both
            raise ParameterError(f"penalty strength must be a finite number >= 0, got {self.lam}")
        if self.kind == "scad" and self.a <= 2:
            raise ParameterError(f"scad shape parameter must be > 2, got {self.a}")


@dataclass
class RegressionFit:
    """Result of one regression fit.

    beta/beta0 are on the scale of the x/y passed in. Ridge and OLS fits
    carry the slope t statistics and p-values of _least_squares; sparse
    fits leave them None and record their sweeps' objective values.
    """

    beta: np.ndarray
    beta0: float
    penalty: PenaltySpec
    support: tuple[int, ...]
    converged: bool
    iterations: int
    objective_history: list[float] = field(default_factory=list)
    t_stats: np.ndarray | None = None
    p_values: np.ndarray | None = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = numcore.as_matrix(x, "x")
        return self.beta0 + x @ self.beta


# ---------------------------------------------------------------------------
# threshold rules and the SCAD penalty family


def soft_threshold(z: float, lam: float) -> float:
    """sign(z) * max(|z| - lam, 0); lam is assumed non-negative."""
    return math.copysign(max(abs(z) - lam, 0.0), z)


def scad_penalty(beta_abs: float, lam: float, a: float = SCAD_A) -> float:
    """Piecewise SCAD penalty value at |beta|.

    Linear (lam*|b|) near zero, quadratic blend on [lam, a*lam), then the
    constant cap (a+1)*lam^2/2 -- large coefficients are not penalized
    further.
    """
    if a <= 2:
        raise ParameterError(f"scad shape parameter must be > 2, got {a}")
    if beta_abs < 0:
        raise ParameterError(f"beta_abs must be >= 0, got {beta_abs}")
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if beta_abs < lam:
        return lam * beta_abs
    if beta_abs < a * lam:
        return -(beta_abs * beta_abs - 2.0 * a * lam * beta_abs + lam * lam) / (2.0 * (a - 1.0))
    return (a + 1.0) * lam * lam / 2.0


def scad_penalty_derivative(beta_abs: float, lam: float, a: float = SCAD_A) -> float:
    """Derivative of scad_penalty w.r.t. |beta|: lam, then a linear decay to 0."""
    if a <= 2:
        raise ParameterError(f"scad shape parameter must be > 2, got {a}")
    if beta_abs < 0:
        raise ParameterError(f"beta_abs must be >= 0, got {beta_abs}")
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if beta_abs <= lam:
        return lam
    return max(a * lam - beta_abs, 0.0) / (a - 1.0)


def scad_threshold(z: float, lam: float, a: float = SCAD_A) -> float:
    """Univariate SCAD estimate given the unpenalized estimate z.

    Soft-thresholds small z, linearly relaxes the shrinkage on
    (2*lam, a*lam), and returns z unchanged from a*lam on; continuous in z.
    The first branch uses the positive-part soft threshold, which is the
    continuous completion of the rule (a literal |z - lam| kink would
    break continuity at z = 0).
    """
    if a <= 2:
        raise ParameterError(f"scad shape parameter must be > 2, got {a}")
    az = abs(z)
    if az <= 2.0 * lam:
        return soft_threshold(z, lam)
    if az < a * lam:  # at |z| = a*lam this branch equals z only up to rounding
        return ((a - 1.0) * z - math.copysign(a * lam, z)) / (a - 2.0)
    return z


# ---------------------------------------------------------------------------
# dense fits


def _check_xy(x, y):
    x = numcore.as_matrix(x, "x")
    y = numcore.as_vector(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    return x, y


def _least_squares(x, y, penalty: PenaltySpec, center: bool, dof: int) -> RegressionFit:
    """(X'X + lam I)^-1 X'y with slope t statistics and p-values; lam = 0 is OLS.

    Var(b) = sigma2 * W G W with G = X'X and W = (G + lam I)^-1, which is
    the exact OLS covariance at lam = 0 and approximate for ridge;
    sigma2 is the residual sum of squares over `dof` (at least 1).
    """
    m = x.shape[1]
    if center:
        x_mean, y_mean = x.mean(axis=0), float(y.mean())
        x, y = x - x_mean, y - y_mean
    gram = x.T @ x
    penalized = gram + penalty.lam * np.eye(m)
    # one factorization for the coefficients and W
    solved = numcore.solve_spd(penalized, np.column_stack([x.T @ y, np.eye(m)]))
    beta, w = solved[:, 0], solved[:, 1:]
    beta0 = y_mean - float(x_mean @ beta) if center else 0.0
    resid = y - x @ beta
    dof = max(dof, 1)
    sigma2 = float(resid @ resid) / dof

    se = np.sqrt(np.clip(np.diag(sigma2 * (w @ gram @ w.T)), 0.0, None))
    t = beta / np.maximum(se, 1e-300)
    p = 2.0 * stdtr(dof, -np.abs(t))  # two-sided Student-t p-value; stdtr is the t(dof) CDF
    support = tuple(int(j) for j in np.nonzero(p < ALPHA)[0])
    return RegressionFit(beta, beta0, penalty, support, converged=True, iterations=1, t_stats=t, p_values=p)


def ols_fit(x, y, intercept: bool = True) -> RegressionFit:
    """Least-squares fit via the normal equations.

    Raises SingularityError (suggesting ridge) when X'X is rank deficient.
    """
    x, y = _check_xy(x, y)
    n, m = x.shape
    n_params = m + (1 if intercept else 0)
    if n < n_params:
        raise ParameterError(f"need at least as many rows as parameters: n={n}, parameters={n_params}")
    try:
        return _least_squares(x, y, PenaltySpec("none"), intercept, n - n_params)
    except SingularityError as exc:
        raise SingularityError(
            "ols_fit: X'X is singular (collinear or duplicated columns); consider ridge_fit"
        ) from exc


def ridge_fit(x, y, lam: float, center: bool = True) -> RegressionFit:
    """Ridge closed form (X'X + lam I)^-1 X'y; intercept (if any) unpenalized.

    With center=True the slopes are solved on centered data and the
    intercept is recovered from the means; callers that want penalized
    inference on comparable coefficients should standardize x first.
    """
    x, y = _check_xy(x, y)
    if not lam > 0:  # NaN too
        raise ParameterError(f"ridge requires lam > 0, got {lam}; use ols_fit for lam=0")
    return _least_squares(x, y, PenaltySpec("ridge", lam), center, x.shape[0] - x.shape[1])


# ---------------------------------------------------------------------------
# cyclic coordinate descent for lasso / scad


@dataclass(frozen=True)
class _Standardized:
    """A design standardized once, shared by every fit on the same rows.

    Columns are centered and scaled to unit population variance (so
    xs'xs = n); constant columns stay zero and out of `active`.
    """

    x_mean: np.ndarray
    x_sd: np.ndarray
    active: np.ndarray
    xs: np.ndarray
    y_mean: float
    yc: np.ndarray
    cov_rows: list  # rows of G = xs'xs/n, the covariance-update operands
    c: np.ndarray  # xs'yc/n
    yy: float  # yc'yc

    def to_input_scale(self, beta: np.ndarray) -> tuple[np.ndarray, float]:
        """Standardized coefficients -> (coefficients on the input scale, intercept)."""
        beta_orig = np.zeros(len(beta))
        beta_orig[self.active] = beta[self.active] / self.x_sd[self.active]
        return beta_orig, self.y_mean - float(self.x_mean @ beta_orig)

    def lambda_max(self) -> float:
        """Smallest lambda that zeroes every lasso coefficient.

        Formed from a copy of the active columns rather than as max|c|:
        the copy is F-ordered, so BLAS takes another path for xs'yc than
        on the C-ordered xs, and max|c| differs in the last bits.
        """
        if not self.active.any():
            raise ParameterError("all columns are constant")
        return float(np.max(np.abs(self.xs[:, self.active].T @ self.yc)) / len(self.yc))


def _standardize(x: np.ndarray, y: np.ndarray) -> _Standardized:
    n = x.shape[0]
    x_mean = x.mean(axis=0)
    centered = x - x_mean
    x_sd = np.sqrt(np.mean(centered**2, axis=0))  # population scaling: xs'xs = n
    active = x_sd > 0
    # elementwise, so each active column has the bits of a masked copy; xs
    # keeps x's memory layout, which decides the BLAS path of xs'xs and xs'yc
    xs = np.divide(centered, np.where(active, x_sd, 1.0), out=np.empty_like(x))
    xs[:, ~active] = 0.0
    y_mean = float(y.mean())
    yc = y - y_mean
    return _Standardized(x_mean, x_sd, active, xs, y_mean, yc, list(xs.T @ xs / n), xs.T @ yc / n, float(yc @ yc))


def _descend(
    d: _Standardized, penalty: PenaltySpec, tol: float, max_iter: int, beta_init: np.ndarray | None
) -> tuple[np.ndarray, int, bool, list[float]]:
    """Cyclic coordinate descent with covariance updates on a standardized design.

    beta_init is on the input scale. Returns (standardized coefficients,
    sweeps, converged, objective history).
    """
    n, m = d.xs.shape
    beta = np.zeros(m)
    if beta_init is not None:
        beta_init = numcore.as_vector(np.asarray(beta_init, dtype=np.float64), "beta_init")
        if beta_init.shape[0] != m:
            raise ShapeError(f"beta_init has {beta_init.shape[0]} entries, expected {m}")
        beta[d.active] = beta_init[d.active] * d.x_sd[d.active]

    resid = d.yc - d.xs @ beta
    g = d.xs.T @ resid / n
    lam, a, scad = penalty.lam, penalty.a, penalty.kind == "scad"
    c, yy, two_n = d.c, d.yy, 2.0 * n
    # the scalar loop runs on Python floats: NumPy scalar arithmetic is
    # slower, and the memoryview reads g_j as a float while daxpy updates g
    # in place
    coef = beta.tolist()
    g_j = memoryview(g)
    if scad:
        # one scad_penalty term per coordinate (+0.0 for a zero coefficient on
        # every branch), rewritten whenever the sweep sets that coordinate, so
        # a sweep sums the terms without re-evaluating all m of them
        terms = np.zeros(m)
        term_j = memoryview(terms)
        for j in np.flatnonzero(beta).tolist():
            term_j[j] = scad_penalty(abs(coef[j]), lam, a)
        # scad_penalty's blend with its constants hoisted; dividing by -2(a-1)
        # gives the bits of negating and dividing by 2(a-1)
        slope, lam_sq, denom, cap = 2.0 * a * lam, lam * lam, -2.0 * (a - 1.0), (a + 1.0) * lam * lam / 2.0

    def objective(resid_sq_sum: float, beta: np.ndarray) -> float:
        """(1/2n) r'r + sum p_lam(|b_j|)."""
        return resid_sq_sum / two_n + (float(terms.sum()) if scad else lam * float(np.abs(beta).sum()))

    history = [objective(float(resid @ resid), beta)]
    # soft_threshold and scad_threshold inlined with the same float
    # expressions; the lasso is the SCAD rule with its soft-threshold branch
    # extended to every |z|
    soft_limit = 2.0 * lam if scad else math.inf
    a_lam, a_m1, a_m2 = a * lam, a - 1.0, a - 2.0
    cov_rows, copysign = d.cov_rows, math.copysign
    active_idx = np.nonzero(d.active)[0].tolist()

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in active_idx:
            old = coef[j]
            z = g_j[j] + old
            az = abs(z)
            if az <= lam:
                if old == 0.0:
                    continue  # both rules keep a zero coefficient at zero
                new = copysign(0.0, z)
            elif az <= soft_limit:
                new = z - lam if z > 0.0 else z + lam
            elif az < a_lam:  # at |z| = a*lam this branch equals z only up to rounding
                new = (a_m1 * z - copysign(a_lam, z)) / a_m2
            else:
                new = z
            if new != old:
                delta = new - old
                # g -= G[j] * delta as one BLAS call without a temporary, about
                # 3x cheaper than the NumPy expression at m = 53; positional,
                # because f2py's keyword parsing costs 1.6x (350 against 215 ns)
                daxpy(cov_rows[j], g, m, -delta)
                coef[j] = new
                if scad:  # scad_penalty at b = |new|
                    b = abs(new)
                    term_j[j] = lam * b if b < lam else (b * b - slope * b + lam_sq) / denom if b < a_lam else cap
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        beta = np.array(coef)
        # r'r in O(m): with r = yc - xs b and g = xs'r/n, r'r = yc'yc - n (c + g)'b
        obj = objective(yy - n * float((c + g) @ beta), beta)
        if obj > history[-1] + 1e-10 * max(1.0, abs(history[-1])):
            # exact coordinate minimization should never do this; flags
            # a numerical problem (scad branches are non-convex)
            warnings.warn(
                f"penalized_fit: objective increased on sweep {sweeps} "
                f"({history[-1]:.6e} -> {obj:.6e})",
                RuntimeWarning,
            )
        history.append(obj)
        if max_delta < tol:
            converged = True
            break
    return beta, sweeps, converged, history


def penalized_fit(
    x,
    y,
    penalty: PenaltySpec,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
    beta_init: np.ndarray | None = None,
) -> RegressionFit:
    """Lasso or SCAD fit by cyclic coordinate descent with covariance updates.

    Each coordinate update solves its univariate subproblem exactly
    (soft_threshold resp. scad_threshold applied to the partial-residual
    estimate), so the objective is non-increasing sweep over sweep.
    The partial-residual estimate comes from the correlations
    g = xs'r/n, kept current through the Gram matrix G = xs'xs/n
    (Friedman, Hastie & Tibshirani 2010), so an update costs O(m)
    rather than O(n), and so does the per-sweep objective.
    Convergence is declared when no standardized coefficient moves more
    than `tol` in a sweep; hitting max_iter returns converged=False
    rather than raising.
    """
    if penalty.kind not in ("lasso", "scad"):
        raise ParameterError(f"penalized_fit handles lasso/scad, got {penalty.kind!r}")
    return _fit(_sparse_design(x, y), penalty, tol, max_iter, beta_init)


def _sparse_design(x, y) -> _Standardized:
    x, y = _check_xy(x, y)
    if x.shape[0] < 2:
        raise ParameterError("need at least 2 observations")
    return _standardize(x, y)


def _fit(d: _Standardized, penalty: PenaltySpec, tol: float, max_iter: int, beta_init) -> RegressionFit:
    """One coordinate-descent fit on a standardized design, reported on the input scale."""
    beta, sweeps, converged, history = _descend(d, penalty, tol, max_iter, beta_init)
    beta_orig, beta0 = d.to_input_scale(beta)
    support = tuple(int(j) for j in np.nonzero(beta != 0.0)[0])
    return RegressionFit(beta_orig, beta0, penalty, support, converged, sweeps, objective_history=history)


def _lasso_then(d: _Standardized, kind: str, lam: float, tol: float, max_iter: int, lasso_init) -> tuple:
    """(lasso at lam from lasso_init, fit of kind at lam); SCAD starts from that lasso to tame its non-convexity."""
    lasso = _fit(d, PenaltySpec("lasso", lam), tol, max_iter, lasso_init)
    return lasso, (lasso if kind == "lasso" else _fit(d, PenaltySpec("scad", lam), tol, max_iter, lasso.beta))


def scad_fit(x, y, lam: float, tol: float = TOL, max_iter: int = MAX_ITER) -> RegressionFit:
    """SCAD at a fixed lambda, warm-started from the lasso at that lambda on the same standardized design."""
    return _lasso_then(_sparse_design(x, y), "scad", lam, tol, max_iter, None)[1]


def lambda_max(x, y) -> float:
    """Smallest lambda that zeroes every lasso coefficient (standardized x)."""
    return _standardize(*_check_xy(x, y)).lambda_max()


def tune_penalized(
    x,
    y,
    kind: str,
    n_points: int = 20,
) -> tuple[RegressionFit, float, np.ndarray, np.ndarray]:
    """Pick lambda on a warm-started path, scored by chronological validation MSE.

    The last VAL_FRACTION of the rows is held out (the data is assumed
    time ordered). The training rows are standardized once; the grid is
    `n_points` log-spaced values from their lambda_max down to
    1e-3 * lambda_max, and every path fit runs on that design, giving the
    iterates penalized_fit would give at the same lambda and warm start;
    each SCAD fit starts from the lasso at its lambda, as in scad_fit.
    Among grid points whose validation MSE is within PARSIMONY_RATIO of
    the minimum, the largest lambda wins (a one-standard-error-style
    rule). Every fit runs to TOL within MAX_ITER sweeps.
    Returns (refit on all rows at the winning lambda, winning lambda,
    grid, validation MSEs).
    """
    if kind not in ("lasso", "scad"):
        raise ParameterError(f"tune_penalized handles lasso/scad, got {kind!r}")
    if n_points < 1:
        raise ParameterError(f"n_points must be >= 1, got {n_points}")
    x, y = _check_xy(x, y)
    n = x.shape[0]
    n_val = max(1, int(round(VAL_FRACTION * n)))
    if n - n_val < 2:
        raise ParameterError(f"not enough rows ({n}) to hold out {n_val} for validation")
    x_tr, y_tr = x[: n - n_val], y[: n - n_val]
    x_val, y_val = x[n - n_val :], y[n - n_val :]

    d = _standardize(x_tr, y_tr)
    lmax = d.lambda_max()
    grid = np.zeros(n_points) if lmax == 0.0 else np.geomspace(lmax, lmax * 1e-3, n_points)
    val_mse = np.empty(len(grid))
    path_betas = []
    lasso_warm = None
    for i, lam in enumerate(grid):
        # warm starts pass through the input scale, as with penalized_fit
        lasso, fit = _lasso_then(d, kind, float(lam), TOL, MAX_ITER, lasso_warm)
        lasso_warm = lasso.beta
        err = y_val - (fit.beta0 + x_val @ fit.beta)
        val_mse[i] = float(np.mean(err**2))
        path_betas.append(fit.beta)

    cutoff = float(val_mse.min()) * PARSIMONY_RATIO
    best = int(np.argmax(val_mse <= cutoff))  # grid is descending, so first hit = largest lambda
    best_lam = float(grid[best])
    final = penalized_fit(x, y, PenaltySpec(kind, best_lam), beta_init=path_betas[best])
    return final, best_lam, grid, val_mse


# ---------------------------------------------------------------------------
# selection reports


@dataclass
class SelectionRow:
    name: str
    coef: float
    t: float | None
    p: float | None
    selected: bool


@dataclass
class SelectionReport:
    """Per-feature selection outcome for one penalty: the selection JSON document, with a CSV twin."""

    rows: list[SelectionRow]
    penalty: PenaltySpec
    dataset_label: str
    alpha: float | None = None
    n_features: int = field(init=False)
    n_selected: int = field(init=False)
    selected_names: list[str] = field(init=False)

    def __post_init__(self):
        names = [r.name for r in self.rows]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ParameterError(f"{repeated} are listed more than once")
        self.n_features = len(self.rows)
        self.selected_names = [r.name for r in self.rows if r.selected]
        self.n_selected = len(self.selected_names)

    def to_csv_text(self) -> str:
        rows = (
            [r.name, repr(r.coef), "" if r.t is None else repr(r.t), "" if r.p is None else repr(r.p),
             str(r.selected).lower()]
            for r in self.rows
        )
        return csv_text(["name", "coef", "t", "p", "selected"], rows)


def select_features(
    fit: RegressionFit,
    names: list[str],
    dataset_label: str = "",
    feature_scale: np.ndarray | None = None,
) -> SelectionReport:
    """Turn a fit into a per-feature report that selects the fit's support.

    Sparse fits support their nonzero coefficients, ridge/OLS fits the
    slopes whose approximate t-test clears ALPHA (see _least_squares),
    and their rows also carry t and p. If the fit was run on
    standardized features, pass the standard deviations as
    feature_scale so reported coefficients land on the original scale.
    """
    if len(names) != len(fit.beta):
        raise ShapeError(f"{len(names)} names for {len(fit.beta)} coefficients")
    scale = np.ones(len(names)) if feature_scale is None else np.asarray(feature_scale, dtype=np.float64)
    coefs = fit.beta / np.where(scale == 0, 1.0, scale)
    in_support = set(fit.support)
    rows = [
        SelectionRow(
            name, float(coefs[j]),
            None if fit.t_stats is None else float(fit.t_stats[j]),
            None if fit.p_values is None else float(fit.p_values[j]),
            j in in_support,
        )
        for j, name in enumerate(names)
    ]
    return SelectionReport(rows=rows, penalty=fit.penalty, dataset_label=dataset_label, alpha=ALPHA)
