import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats  # the oracle for the ridge p-values; the package itself never loads it
from hypothesis import example, given, settings, strategies as st

from hybridcast import numcore, regsel
from hybridcast.errors import DataError, ParameterError, SingularityError
from hybridcast.jsonio import from_json, read_json, write_json
from hybridcast.pipeline import lagged_design
from hybridcast.regsel import PenaltySpec, RegressionFit
from hybridcast.synth import SyntheticSpec, generate_synthetic_panel
from scipy.linalg.blas import daxpy
from scipy.special import stdtr


class TestPenaltySpec:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            PenaltySpec("lasso", -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_lambda_that_is_not_finite_rejected(self, lam):
        with pytest.raises(ParameterError, match="finite number >= 0"):
            PenaltySpec("lasso", lam)

    def test_scad_needs_a_above_two(self):
        with pytest.raises(ParameterError):
            PenaltySpec("scad", 1.0, a=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            PenaltySpec("elastic", 1.0)


class TestOls:
    def test_identity_design_no_intercept(self):
        fit = regsel.ols_fit(np.eye(2), [2.0, 4.0], intercept=False)
        assert fit.beta == pytest.approx([2.0, 4.0])

    def test_exact_recovery(self, rng):
        x = rng.standard_normal((40, 4))
        beta_true = np.array([1.5, -2.0, 0.5, 3.0])
        y = 2.0 + x @ beta_true
        fit = regsel.ols_fit(x, y)
        assert fit.beta == pytest.approx(beta_true, abs=1e-9)
        assert fit.beta0 == pytest.approx(2.0, abs=1e-9)

    def test_residual_orthogonality(self, rng):
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        fit = regsel.ols_fit(x, y)
        resid = y - fit.predict(x)
        assert np.max(np.abs(x.T @ resid)) <= 1e-8

    def test_duplicated_column_is_singular(self, rng):
        col = rng.standard_normal(20)
        x = np.column_stack([col, col, rng.standard_normal(20)])
        with pytest.raises(SingularityError, match="ridge"):
            regsel.ols_fit(x, rng.standard_normal(20))


class TestRidge:
    def test_identity_design_halves(self):
        fit = regsel.ridge_fit(np.eye(2), [2.0, 4.0], lam=1.0, center=False)
        assert fit.beta == pytest.approx([1.0, 2.0])

    def test_total_shrinkage(self, rng):
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        fit = regsel.ridge_fit(x, y, lam=1e9, center=False)
        assert np.linalg.norm(fit.beta) < 1e-6

    def test_lambda_zero_rejected(self):
        with pytest.raises(ParameterError):
            regsel.ridge_fit(np.eye(2), [1.0, 2.0], lam=0.0)

    def test_lambda_nan_rejected(self):
        with pytest.raises(ParameterError, match="ridge requires lam > 0, got nan"):
            regsel.ridge_fit(np.eye(2), [1.0, 2.0], lam=float("nan"))

    def test_normal_equation_residual(self, rng):
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        lam = 0.7
        fit = regsel.ridge_fit(x, y, lam, center=False)
        resid = (x.T @ x + lam * np.eye(5)) @ fit.beta - x.T @ y
        assert np.max(np.abs(resid)) <= 1e-8

    def test_stationarity_centered(self, rng):
        x = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        lam = 2.5
        fit = regsel.ridge_fit(x, y, lam)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        stat = xc.T @ (xc @ fit.beta - yc) + lam * fit.beta
        assert np.max(np.abs(stat)) <= 1e-8

    def test_matches_ols_at_tiny_lambda(self, rng):
        x = rng.standard_normal((60, 4))
        y = x @ np.array([1.0, -1.0, 2.0, 0.5]) + 0.1 * rng.standard_normal(60)
        ols = regsel.ols_fit(x, y)
        ridge = regsel.ridge_fit(x, y, lam=1e-8)
        assert ridge.beta == pytest.approx(ols.beta, abs=1e-6)
        assert ridge.beta0 == pytest.approx(ols.beta0, abs=1e-6)

    def test_shrinkage_monotone_in_lambda(self, rng):
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        norms = [np.linalg.norm(regsel.ridge_fit(x, y, lam).beta) for lam in (0.1, 1.0, 10.0)]
        assert norms[0] >= norms[1] >= norms[2]

    @pytest.mark.parametrize("dof", [1, 2, 3, 10, 50, 500, 1000, 1049, 100000])
    def test_p_value_formula_is_student_t_sf_bit_for_bit(self, dof):
        """2*stdtr(dof, -|t|) gives scipy.stats' two-sided t p-value, byte for byte."""
        edges = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan]
        grid = np.linspace(-40.0, 40.0, 2001)
        tiny_to_huge = np.geomspace(1e-12, 1e12, 500)
        t = np.concatenate([edges, grid, tiny_to_huge, -tiny_to_huge])
        oracle = 2.0 * scipy.stats.t.sf(np.abs(t), df=dof)
        assert (2.0 * stdtr(dof, -np.abs(t))).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n,m,noise", [(80, 5, 1.0), (6, 5, 1.0), (4, 6, 1.0), (1100, 53, 0.3), (40, 4, 0.0)],
                             ids=["n80-m5", "dof1", "wide", "default-panel-shape", "exact-fit"])
    def test_ridge_p_values_are_student_t_sf_bit_for_bit(self, rng, n, m, noise):
        """ridge_fit's p-values equal scipy.stats.t.sf on its t statistics at the residual dof max(n - m, 1)."""
        x = rng.standard_normal((n, m))
        x[:, -1] = 0.0  # a zero column: beta 0, se 0, t 0, p 1
        y = x @ np.linspace(-1.0, 1.0, m) + noise * rng.standard_normal(n)
        fit = regsel.ridge_fit(x, y, lam=0.5)
        oracle = 2.0 * scipy.stats.t.sf(np.abs(fit.t_stats), df=max(n - m, 1))
        assert fit.p_values.tobytes() == oracle.tobytes()
        assert fit.p_values[-1] == 1.0


class TestSoftThreshold:
    @pytest.mark.parametrize("z,lam,expected", [(3, 1, 2), (-0.5, 1, 0), (-3, 1, -2)])
    def test_examples(self, z, lam, expected):
        assert regsel.soft_threshold(z, lam) == pytest.approx(expected)

    @given(st.floats(-100, 100), st.floats(0, 50))
    def test_shrinks_toward_zero(self, z, lam):
        out = regsel.soft_threshold(z, lam)
        assert abs(out) <= abs(z)
        assert out * z >= 0  # never flips sign


A_DEFAULT = 3.7


class TestScadPenalty:
    @pytest.mark.parametrize("b,expected", [(0.5, 0.5), (1.0, 1.0), (3.7, 2.35)])
    def test_examples(self, b, expected):
        assert regsel.scad_penalty(b, 1.0, A_DEFAULT) == pytest.approx(expected)

    @pytest.mark.parametrize("lam,a", [(1.0, 3.7), (0.37, 2.5), (2.4, 5.0)])
    def test_continuity_at_breakpoints(self, lam, a):
        for point in (lam, a * lam):
            below = regsel.scad_penalty(np.nextafter(point, 0.0), lam, a)
            at = regsel.scad_penalty(point, lam, a)
            assert abs(at - below) <= 1e-12

    def test_bad_a(self):
        with pytest.raises(ParameterError):
            regsel.scad_penalty(1.0, 1.0, a=2.0)

    def test_derivative_matches_finite_differences(self, rng):
        lam, a, h = 1.3, 3.7, 1e-6
        checked = 0
        while checked < 100:
            b = float(rng.uniform(h, 2 * a * lam))
            if min(abs(b - lam), abs(b - a * lam)) < 10 * h:
                continue  # stay off the breakpoints
            fd = (regsel.scad_penalty(b + h, lam, a) - regsel.scad_penalty(b - h, lam, a)) / (2 * h)
            assert regsel.scad_penalty_derivative(b, lam, a) == pytest.approx(fd, abs=1e-6)
            checked += 1


class TestScadDerivative:
    @pytest.mark.parametrize("b,expected", [(0.5, 1.0), (2.0, 1.7 / 2.7), (5.0, 0.0)])
    def test_examples(self, b, expected):
        assert regsel.scad_penalty_derivative(b, 1.0, A_DEFAULT) == pytest.approx(expected)

    def test_bad_a(self):
        with pytest.raises(ParameterError):
            regsel.scad_penalty_derivative(1.0, 1.0, a=1.5)


class TestScadThreshold:
    @pytest.mark.parametrize(
        "z,expected",
        [(0.5, 0.0), (3.0, (2.7 * 3.0 - 3.7) / 1.7), (5.0, 5.0), (2.0, 1.0)],
    )
    def test_examples(self, z, expected):
        assert regsel.scad_threshold(z, 1.0, A_DEFAULT) == pytest.approx(expected)

    @pytest.mark.parametrize("lam,a", [(1.0, 3.7), (0.8, 2.2), (2.0, 6.0)])
    def test_continuity_at_branch_points(self, lam, a):
        for point in (2 * lam, a * lam):
            lo = regsel.scad_threshold(np.nextafter(point, 0), lam, a)
            hi = regsel.scad_threshold(np.nextafter(point, np.inf), lam, a)
            assert abs(lo - hi) <= 1e-12

    @given(
        st.floats(-50, 50),
        st.floats(0.01, 10),
        st.floats(2.01, 10),
    )
    @example(2.01, 1.0, 2.01)  # |z| = a*lam exactly: must return z, not z*(1+1e-14)
    def test_odd_nonexpansive_identity(self, z, lam, a):
        out = regsel.scad_threshold(z, lam, a)
        assert regsel.scad_threshold(-z, lam, a) == pytest.approx(-out, abs=1e-12)
        assert abs(out) <= abs(z) + 1e-12
        if abs(z) >= a * lam:
            assert out == z

    def test_bad_a(self):
        with pytest.raises(ParameterError):
            regsel.scad_threshold(1.0, 1.0, a=2.0)


def orthonormal_standardized_design(rng, n, m):
    """Columns with zero mean and x_j'x_j = n, mutually orthogonal."""
    x = rng.standard_normal((n, m))
    x -= x.mean(axis=0)
    q, _ = np.linalg.qr(x)
    return q * np.sqrt(n)


class TestPenalizedFit:
    def test_orthonormal_lasso_equals_soft_threshold(self, rng):
        n, m, lam = 200, 6, 0.4
        x = orthonormal_standardized_design(rng, n, m)
        y = rng.standard_normal(n) * 2.0
        yc = y - y.mean()
        beta0_hat = x.T @ yc / n  # per-coordinate unpenalized estimate
        fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", lam), tol=1e-10)
        expected = [regsel.soft_threshold(b, lam) for b in beta0_hat]
        assert fit.beta == pytest.approx(expected, abs=1e-8)

    def test_orthonormal_scad_equals_scad_threshold(self, rng):
        n, m, lam, a = 200, 6, 0.4, 3.7
        x = orthonormal_standardized_design(rng, n, m)
        y = rng.standard_normal(n) * 2.0
        yc = y - y.mean()
        beta0_hat = x.T @ yc / n
        fit = regsel.penalized_fit(x, y, PenaltySpec("scad", lam, a), tol=1e-10)
        expected = [regsel.scad_threshold(b, lam, a) for b in beta0_hat]
        assert fit.beta == pytest.approx(expected, abs=1e-8)

    def test_full_shrinkage_at_lambda_max(self, rng):
        x = rng.standard_normal((50, 8))
        y = rng.standard_normal(50)
        lam = regsel.lambda_max(x, y)
        fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", lam * 1.0001))
        assert np.all(fit.beta == 0.0)
        assert fit.support == ()

    def test_lasso_objective_non_increasing(self, rng):
        x = rng.standard_normal((60, 10))
        y = x @ rng.standard_normal(10) + rng.standard_normal(60)
        fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", 0.05))
        hist = np.array(fit.objective_history)
        assert np.all(np.diff(hist) <= 1e-10 * np.maximum(1.0, np.abs(hist[:-1])))

    def test_max_iter_flags_unconverged(self, rng):
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", 1e-4), tol=1e-14, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1

    def test_wrong_kind_rejected(self, rng):
        with pytest.raises(ParameterError):
            regsel.penalized_fit(np.eye(3), [1.0, 2.0, 3.0], PenaltySpec("ridge", 1.0))

    def test_original_scale_prediction(self, rng):
        # un-standardized input: coefficients come back on the raw scale
        x = rng.standard_normal((80, 3)) * np.array([10.0, 0.1, 1.0]) + np.array([5.0, -2.0, 0.0])
        beta_true = np.array([0.3, -4.0, 1.0])
        y = 1.0 + x @ beta_true + 0.01 * rng.standard_normal(80)
        fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", 1e-4), tol=1e-12, max_iter=5000)
        assert fit.predict(x) == pytest.approx(y, abs=0.1)
        assert fit.beta == pytest.approx(beta_true, abs=0.05)

    def test_constant_column_gets_zero_coefficient(self, rng):
        x = rng.standard_normal((60, 3))
        x[:, 1] = 4.0  # constant: cannot carry signal, must stay at zero
        y = 2.0 * x[:, 0] + 0.1 * rng.standard_normal(60)
        fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", 0.01))
        assert fit.beta[1] == 0.0
        assert 1 not in fit.support
        assert 0 in fit.support

    def test_lasso_kkt_conditions_on_general_designs(self, rng):
        """Subgradient optimality on correlated designs, not just orthonormal ones.

        On the internally standardized scale: |x_j'r/n| <= lam at zeros,
        and x_j'r/n = lam * sign(beta_j) on the support.
        """
        for trial in range(5):
            base = rng.standard_normal((120, 1))
            x = 0.6 * base + rng.standard_normal((120, 6))  # correlated columns
            y = x @ rng.standard_normal(6) + rng.standard_normal(120)
            lam = 0.2
            fit = regsel.penalized_fit(x, y, PenaltySpec("lasso", lam), tol=1e-12, max_iter=5000)
            assert fit.converged

            xs = (x - x.mean(axis=0)) / np.sqrt(np.mean((x - x.mean(axis=0)) ** 2, axis=0))
            beta_std = fit.beta * np.sqrt(np.mean((x - x.mean(axis=0)) ** 2, axis=0))
            r = (y - y.mean()) - xs @ beta_std
            corr = xs.T @ r / len(y)
            for j in range(6):
                if beta_std[j] == 0.0:
                    assert abs(corr[j]) <= lam + 1e-8
                else:
                    assert corr[j] == pytest.approx(lam * np.sign(beta_std[j]), abs=1e-8)


    def test_scad_objective_non_increasing(self, rng):
        x = 0.6 * rng.standard_normal((80, 1)) + rng.standard_normal((80, 10))
        y = x @ rng.standard_normal(10) + rng.standard_normal(80)
        lasso = regsel.penalized_fit(x, y, PenaltySpec("lasso", 0.05))
        fit = regsel.penalized_fit(x, y, PenaltySpec("scad", 0.05), beta_init=lasso.beta)
        for f in (fit, regsel.penalized_fit(x, y, PenaltySpec("scad", 0.05))):
            hist = np.array(f.objective_history)
            assert np.all(np.diff(hist) <= 1e-10 * np.maximum(1.0, np.abs(hist[:-1])))


def residual_update_cd(x, y, penalty, tol=1e-7, max_iter=1000, beta_init=None):
    """Plain cyclic coordinate descent that keeps the residual, O(n) per update.

    Same standardization, sweep order and stopping rule as penalized_fit;
    returns (coefficients on the input scale, sweeps).
    """
    n, m = x.shape
    x_sd = np.sqrt(np.mean((x - x.mean(axis=0)) ** 2, axis=0))
    xs = (x - x.mean(axis=0)) / x_sd
    beta = np.zeros(m) if beta_init is None else beta_init * x_sd
    resid = (y - y.mean()) - xs @ beta
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(m):
            old = beta[j]
            z = float(xs[:, j] @ resid) / n + old
            if penalty.kind == "lasso":
                new = regsel.soft_threshold(z, penalty.lam)
            else:
                new = regsel.scad_threshold(z, penalty.lam, penalty.a)
            if new != old:
                resid -= xs[:, j] * (new - old)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            break
    return beta / x_sd, sweeps


class TestCovarianceUpdates:
    """penalized_fit against the residual-update reference on correlated designs."""

    @pytest.mark.parametrize("kind", ["lasso", "scad"])
    def test_matches_residual_update_reference(self, rng, kind):
        for trial in range(4):
            n, m = 150, 12
            x = 0.7 * rng.standard_normal((n, 1)) + rng.standard_normal((n, m))
            x = x * rng.uniform(0.5, 3.0, m) + rng.uniform(-2.0, 2.0, m)
            y = x[:, :4] @ rng.standard_normal(4) + rng.standard_normal(n)
            lmax = regsel.lambda_max(x, y)
            for lam in (0.5 * lmax, 0.1 * lmax, 0.02 * lmax):
                penalty = PenaltySpec(kind, lam)
                warm = None
                if kind == "scad":
                    warm = regsel.penalized_fit(x, y, PenaltySpec("lasso", lam)).beta
                fit = regsel.penalized_fit(x, y, penalty, beta_init=warm)
                ref_beta, ref_sweeps = residual_update_cd(x, y, penalty, beta_init=warm)
                assert fit.support == tuple(np.nonzero(ref_beta)[0])
                assert fit.iterations == ref_sweeps
                assert np.max(np.abs(fit.beta - ref_beta)) <= 1e-12


def standardized(x, y):
    """The design penalized_fit standardizes to, written out: (xs, yc, x_sd)."""
    x_sd = np.sqrt(np.mean((x - x.mean(axis=0)) ** 2, axis=0))
    return (x - x.mean(axis=0)) / x_sd, y - y.mean(), x_sd


class TestSweepObjective:
    @pytest.mark.parametrize("kind", ["lasso", "scad"])
    def test_last_objective_matches_explicit_residual(self, rng, kind):
        """The per-sweep objective from the correlations equals the one from r = yc - xs b."""
        for trial in range(4):
            n, m = 150, 12
            x = 0.7 * rng.standard_normal((n, 1)) + rng.standard_normal((n, m))
            x = x * rng.uniform(0.5, 3.0, m) + rng.uniform(-2.0, 2.0, m)
            y = 5.0 + x[:, :4] @ rng.standard_normal(4) + rng.standard_normal(n)
            for frac in (0.3, 0.05):
                penalty = PenaltySpec(kind, frac * regsel.lambda_max(x, y))
                fit = regsel.penalized_fit(x, y, penalty)
                xs, yc, x_sd = standardized(x, y)
                beta_std = fit.beta * x_sd
                r = yc - xs @ beta_std
                expected = keyword_objective(float(r @ r), beta_std, penalty, n)
                assert fit.objective_history[-1] == pytest.approx(expected, rel=1e-12, abs=0.0)


def keyword_objective(resid_sq_sum, beta, penalty, n):
    """The sweep objective with its constants re-derived on every call and np.sum over the terms."""
    lam, b = penalty.lam, np.abs(beta)
    if penalty.kind == "lasso":
        pen = lam * float(np.sum(b))
    else:
        a = penalty.a
        blend = -(b * b - 2.0 * a * lam * b + lam * lam) / (2.0 * (a - 1.0))
        cap = (a + 1.0) * lam * lam / 2.0
        pen = float(np.sum(np.where(b < lam, lam * b, np.where(b < a * lam, blend, cap))))
    return resid_sq_sum / (2.0 * n) + pen


def keyword_descend(d, penalty, tol, max_iter, beta_init):
    """regsel._descend written with scipy's keyword daxpy call and keyword_objective.

    The same float expressions in the same order, so it must give the
    same bits: (standardized beta, sweeps, converged, objective history).
    """
    n, m = d.xs.shape
    beta = np.zeros(m)
    if beta_init is not None:
        beta[d.active] = beta_init[d.active] * d.x_sd[d.active]
    resid = d.yc - d.xs @ beta
    g = d.xs.T @ resid / n
    history = [keyword_objective(float(resid @ resid), beta, penalty, n)]
    lam = penalty.lam
    soft_limit = 2.0 * lam if penalty.kind == "scad" else math.inf
    a_lam, a_m1, a_m2 = penalty.a * lam, penalty.a - 1.0, penalty.a - 2.0
    coef = beta.tolist()
    converged, sweeps = False, 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in np.nonzero(d.active)[0].tolist():
            old = coef[j]
            z = float(g[j]) + old
            if abs(z) <= lam:
                if old == 0.0:
                    continue
                new = math.copysign(0.0, z)
            elif abs(z) <= soft_limit:
                new = z - lam if z > 0.0 else z + lam
            elif abs(z) < a_lam:
                new = (a_m1 * z - math.copysign(a_lam, z)) / a_m2
            else:
                new = z
            if new != old:
                daxpy(d.cov_rows[j], g, a=-(new - old))
                max_delta = max(max_delta, abs(new - old))
                coef[j] = new
        beta = np.array(coef)
        history.append(keyword_objective(d.yy - n * float((d.c + g) @ beta), beta, penalty, n))
        if max_delta < tol:
            converged = True
            break
    return beta, sweeps, converged, history


class TestDescentOracle:
    """regsel._descend and the ridge solve give the bits of the plain scipy calls they replace."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_warm_started_path_matches_keyword_descent(self, seed):
        frame, _ = generate_synthetic_panel(SyntheticSpec(n_days=300, seed=seed))
        x, y, _ = lagged_design(frame)
        d = regsel._standardize(x, y)
        lmax = d.lambda_max()
        warm, unconverged = None, 0
        for lam in np.geomspace(lmax, lmax * 1e-3, 12):
            # the path of tune_penalized: lasso from the last lasso, SCAD from the lasso at its lambda
            lasso_init = warm
            for kind, max_iter in (("lasso", 1000), ("scad", 1000), ("scad", 3)):
                penalty = PenaltySpec(kind, float(lam))
                init = lasso_init if kind == "lasso" else warm
                beta, sweeps, converged, history = regsel._descend(d, penalty, 1e-7, max_iter, init)
                ref_beta, ref_sweeps, ref_converged, ref_history = keyword_descend(d, penalty, 1e-7, max_iter, init)
                assert beta.tobytes() == ref_beta.tobytes()
                assert (sweeps, converged) == (ref_sweeps, ref_converged)
                assert np.array(history).tobytes() == np.array(ref_history).tobytes()
                unconverged += not converged
                if kind == "lasso":
                    warm = d.to_input_scale(beta)[0]
        assert unconverged > 0  # some fits stop at max_iter

    @pytest.mark.parametrize("case", ["constant-column", "scad-at-zero-lambda", "warm-start-on-breakpoints"])
    def test_edge_cases_match_keyword_descent(self, case):
        """The per-coordinate SCAD terms at the edges: an inactive column, lam = 0, and |b_j| on a breakpoint."""
        frame, _ = generate_synthetic_panel(SyntheticSpec(n_days=300, seed=3))
        x, y, _ = lagged_design(frame)
        a = 3.7
        if case == "constant-column":
            x[:, [4, 17]] = 2.5
        d = regsel._standardize(x, y)
        lmax = d.lambda_max()
        runs = []  # (penalty, max_iter, beta_init on the input scale)
        if case == "constant-column":
            assert not d.active[4] and not d.active[17]
            warm = np.full(x.shape[1], 0.3)  # the inactive columns' entries must be ignored
            for lam in np.geomspace(lmax, lmax * 1e-3, 6):
                runs += [(PenaltySpec(kind, float(lam), a), max_iter, warm)
                         for kind in ("lasso", "scad") for max_iter in (1000, 3)]
        elif case == "scad-at-zero-lambda":
            lasso = regsel.penalized_fit(x, y, PenaltySpec("lasso", 0.05 * lmax))
            runs = [(PenaltySpec(kind, 0.0, a), max_iter, init)
                    for kind in ("scad", "lasso") for init in (None, lasso.beta) for max_iter in (300, 2)]
        else:
            lam = 0.05 * lmax
            # input-scale entries whose standardized value is exactly +-lam, +-2 lam, +-a lam
            init, placed = np.zeros(x.shape[1]), 0
            targets = [lam, -lam, 2.0 * lam, -2.0 * lam, a * lam, -a * lam]
            for j in range(x.shape[1]):
                if placed == len(targets):
                    break
                v = targets[placed] / d.x_sd[j]
                for cand in (v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)):
                    if cand * d.x_sd[j] == targets[placed]:
                        init[j], placed = cand, placed + 1
                        break
            assert placed == len(targets)
            runs = [(PenaltySpec(kind, lam, a), max_iter, init) for kind in ("scad", "lasso") for max_iter in (1000, 1)]
        for penalty, max_iter, init in runs:
            beta, sweeps, converged, history = regsel._descend(d, penalty, 1e-7, max_iter, init)
            ref_beta, ref_sweeps, ref_converged, ref_history = keyword_descend(d, penalty, 1e-7, max_iter, init)
            assert beta.tobytes() == ref_beta.tobytes()
            assert (sweeps, converged) == (ref_sweeps, ref_converged)
            assert np.array(history).tobytes() == np.array(ref_history).tobytes()

    def test_ridge_solve_matches_per_column_cho_solve(self, rng):
        """numcore.solve_spd on the ridge fit's system: 53 slopes, right-hand side [x'y, I]."""
        n, m = 400, 53
        x = 0.6 * rng.standard_normal((n, 1)) + rng.standard_normal((n, m))
        x = x - x.mean(axis=0)
        y = x[:, :5] @ rng.standard_normal(5) + rng.standard_normal(n)
        a = x.T @ x + 3.0 * np.eye(m)
        b = np.column_stack([x.T @ y, np.eye(m)])
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
        expected = np.column_stack([scipy.linalg.cho_solve(factor, col, check_finite=False) for col in b.T])
        solved = numcore.solve_spd(a, b)
        assert solved.shape == (m, m + 1) and solved.flags.c_contiguous
        assert solved.tobytes() == expected.tobytes()
        assert numcore.solve_spd(a, b[:, 0]).tobytes() == expected[:, 0].tobytes()


@st.composite
def correlated_designs(draw):
    """Unscaled, uncentred designs with a shared factor; a lambda inside the path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(20, 120)), draw(st.integers(2, 10))
    rho = draw(st.floats(0.0, 0.95))
    x = rho * rng.standard_normal((n, 1)) + np.sqrt(1.0 - rho**2) * rng.standard_normal((n, m))
    x = x * rng.uniform(0.1, 10.0, m) + rng.uniform(-5.0, 5.0, m)
    k = max(1, m // 3)
    y = x[:, :k] @ rng.standard_normal(k) + draw(st.floats(0.1, 2.0)) * rng.standard_normal(n)
    return x, y, draw(st.floats(0.01, 0.9)) * regsel.lambda_max(x, y)


def masked_standardize(x, y):
    """_standardize's design by masked column copies, written out: (xs, cov_rows, c, active)."""
    n = x.shape[0]
    x_mean = x.mean(axis=0)
    x_sd = np.sqrt(np.mean((x - x_mean) ** 2, axis=0))
    active = x_sd > 0
    xs = np.zeros_like(x)
    xs[:, active] = (x[:, active] - x_mean[active]) / x_sd[active]
    yc = y - float(y.mean())
    return xs, list(xs.T @ xs / n), xs.T @ yc / n, active


class TestStandardize:
    @given(correlated_designs(), st.sampled_from(["none", "one", "all-but-one"]),
           st.sampled_from([0.0, 1.0, -2.5, "underflow"]), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_masked_copies(self, design, constants, value, fortran, random):
        """Every byte of xs, G's rows, c and active, and xs's memory layout, as with masked column copies.

        An "underflow" column varies by about 1e-170, so its squared deviations
        round to 0 and its sd is 0 while its deviations are not.
        """
        x, y, _ = design
        n, m = x.shape
        constant = random.sample(range(m), {"none": 0, "one": 1, "all-but-one": m - 1}[constants])
        for j in constant:
            x[:, j] = [random.uniform(-1e-170, 1e-170) for _ in range(n)] if value == "underflow" else value
        if fortran:
            x = np.asfortranarray(x)
        d = regsel._standardize(x, y)
        xs, cov_rows, c, active = masked_standardize(x, y)
        assert d.active.tobytes() == active.tobytes()
        assert not d.active[constant].any()
        assert d.xs.tobytes() == xs.tobytes()
        assert (d.xs.strides, d.xs.flags.f_contiguous) == (xs.strides, fortran)
        assert np.array(d.cov_rows).tobytes() == np.array(cov_rows).tobytes()
        assert d.c.tobytes() == c.tobytes()


class TestOptimalityProperty:
    @given(correlated_designs(), st.floats(2.5, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_lasso_kkt_and_scad_coordinatewise_optimality(self, design, a):
        """At the fixed point x_j'r/n is the penalty's (sub)gradient, within 1e-6.

        Lasso: |x_j'r/n| <= lam at zeros and lam*sign(b_j) on the support.
        SCAD: |x_j'r/n| <= lam at zeros and p'(|b_j|)*sign(b_j) on the
        support, the condition each coordinate's univariate minimum meets.
        """
        x, y, lam = design
        xs, yc, x_sd = standardized(x, y)
        lasso = regsel.penalized_fit(x, y, PenaltySpec("lasso", lam, a), tol=1e-10, max_iter=20000)
        scad = regsel.penalized_fit(x, y, PenaltySpec("scad", lam, a), tol=1e-10, max_iter=20000, beta_init=lasso.beta)
        for fit, grad in (
            (lasso, lambda b: lam),
            (scad, lambda b: regsel.scad_penalty_derivative(b, lam, a)),
        ):
            assert fit.converged
            beta_std = fit.beta * x_sd
            corr = xs.T @ (yc - xs @ beta_std) / len(y)
            for j, b in enumerate(beta_std):
                if b == 0.0:
                    assert abs(corr[j]) <= lam + 1e-6
                else:
                    assert abs(corr[j] - np.sign(b) * grad(abs(b))) <= 1e-6


class TestTunePenalized:
    @pytest.mark.parametrize("kind", ["lasso", "scad"])
    def test_path_fits_equal_independent_penalized_fits(self, rng, monkeypatch, kind):
        """The path runs on one standardized design; each fit keeps penalized_fit's bits."""
        n, m, n_points = 200, 9, 8
        x = 0.7 * rng.standard_normal((n, 1)) + rng.standard_normal((n, m))
        x = x * rng.uniform(0.5, 3.0, m) + rng.uniform(-2.0, 2.0, m)
        y = x[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)

        path = []
        descend = regsel._descend

        def recording(d, penalty, tol, max_iter, beta_init):
            beta, sweeps, converged, history = descend(d, penalty, tol, max_iter, beta_init)
            path.append((penalty, d.to_input_scale(beta)[0], sweeps, converged))
            return beta, sweeps, converged, history

        monkeypatch.setattr(regsel, "_descend", recording)
        final, best_lam, grid, val_mse = regsel.tune_penalized(x, y, kind, n_points=n_points)
        monkeypatch.setattr(regsel, "_descend", descend)

        n_tr = n - int(round(0.1 * n))
        x_tr, y_tr = x[:n_tr], y[:n_tr]
        expected, scored, warm = [], [], None
        for lam in grid:
            lasso = regsel.penalized_fit(x_tr, y_tr, PenaltySpec("lasso", float(lam)), beta_init=warm)
            warm = lasso.beta
            expected.append(lasso)
            if kind == "scad":
                expected.append(
                    regsel.penalized_fit(x_tr, y_tr, PenaltySpec("scad", float(lam)), beta_init=lasso.beta)
                )
            scored.append(expected[-1])

        assert len(path) == len(expected) + 1  # the path, then the refit on all rows
        for (penalty, beta, sweeps, converged), fit in zip(path, expected):
            assert penalty == fit.penalty
            assert beta.tobytes() == fit.beta.tobytes()
            assert (sweeps, converged) == (fit.iterations, fit.converged)
        for i, fit in enumerate(scored):
            assert val_mse[i] == float(np.mean((y[n_tr:] - fit.predict(x[n_tr:])) ** 2))
        best = list(grid).index(best_lam)
        refit = regsel.penalized_fit(x, y, PenaltySpec(kind, best_lam), beta_init=scored[best].beta)
        assert final.beta.tobytes() == refit.beta.tobytes()
        assert (final.iterations, final.converged) == (refit.iterations, refit.converged)

    def test_grid_spans_lambda_max_of_training_rows(self):
        """Bit for bit, the grid is geomspace from lambda_max = max|xs'yc|/n over the
        non-constant columns of the population-standardized training rows.

        Taken as max|xs'yc/n| with the full C-ordered standardized design
        (the correlations the descent starts from), lambda_max differs in
        its last bits on this panel.
        """
        frame, _ = generate_synthetic_panel(SyntheticSpec(seed=0))
        x, y, _ = lagged_design(frame)
        n_tr = len(y) - int(round(0.1 * len(y)))
        x_tr, y_tr = x[:n_tr], y[:n_tr]
        x_mean = x_tr.mean(axis=0)
        x_sd = np.sqrt(np.mean((x_tr - x_mean) ** 2, axis=0))
        active = x_sd > 0
        xs = (x_tr[:, active] - x_mean[active]) / x_sd[active]
        lmax = float(np.max(np.abs(xs.T @ (y_tr - y_tr.mean()))) / n_tr)

        _, _, grid, _ = regsel.tune_penalized(x, y, "lasso", n_points=20)
        assert grid.tobytes() == np.geomspace(lmax, lmax * 1e-3, 20).tobytes()
        assert regsel.lambda_max(x_tr, y_tr) == lmax

    def test_grid_shape_and_choice(self, rng):
        x = rng.standard_normal((100, 6))
        y = x[:, 0] * 2.0 + 0.3 * rng.standard_normal(100)
        fit, lam, grid, val_mse = regsel.tune_penalized(x, y, "lasso", n_points=10)
        assert len(grid) == len(val_mse) == 10
        assert lam in grid
        assert 0 in fit.support  # the true predictor survives

    def test_sparse_recovery_scad(self, rng):
        x = rng.standard_normal((150, 10))
        y = x[:, 2] * 1.5 - x[:, 7] * 2.0 + 0.2 * rng.standard_normal(150)
        fit, _, _, _ = regsel.tune_penalized(x, y, "scad")
        assert set(fit.support) >= {2, 7}
        assert len(fit.support) <= 6


class TestSelectFeatures:
    def test_scad_support_selection(self):
        fit = RegressionFit(
            beta=np.array([0.0, 1.2, 0.0, -0.4]), beta0=0.0,
            penalty=PenaltySpec("scad", 1.0), support=(1, 3), converged=True, iterations=3,
        )
        report = regsel.select_features(fit, ["a", "b", "c", "d"], dataset_label="scad")
        assert report.selected_names == ["b", "d"]
        assert report.rows[0].t is None

    def test_ridge_report_selects_the_fit_support(self):
        """The report reads the fit's support and carries t and p; it does not test p again."""
        fit = RegressionFit(
            beta=np.array([1.0, 2.0, 3.0]), beta0=0.0, penalty=PenaltySpec("ridge", 1.0), support=(1,),
            converged=True, iterations=1, t_stats=np.array([9.0, 0.1, 5.0]), p_values=np.array([0.001, 0.9, 0.02]),
        )
        report = regsel.select_features(fit, ["a", "b", "c"], dataset_label="rr")
        assert report.selected_names == ["b"]
        assert [(r.t, r.p) for r in report.rows] == [(9.0, 0.001), (0.1, 0.9), (5.0, 0.02)]
        assert report.alpha == regsel.ALPHA

    def test_ridge_report_covers_all_features(self, rng):
        x = rng.standard_normal((100, 4))
        y = x @ np.array([3.0, 0.0, -3.0, 0.0]) + 0.5 * rng.standard_normal(100)
        fit = regsel.ridge_fit(x, y, lam=1.0)
        report = regsel.select_features(fit, list("abcd"), dataset_label="rr")
        assert len(report.rows) == 4
        assert all(r.p is not None for r in report.rows)
        selected = set(report.selected_names)
        assert {"a", "c"} <= selected

    def test_ridge_report_reuses_fit_inference(self, rng, monkeypatch):
        """The slope covariance is solved once, in ridge_fit; the report reads it."""
        x = rng.standard_normal((80, 5))
        y = x @ np.array([2.0, 0.0, -1.0, 0.0, 0.5]) + rng.standard_normal(80)
        solves = []
        real_solve = regsel.numcore.solve_spd
        monkeypatch.setattr(regsel.numcore, "solve_spd", lambda a, b: solves.append(1) or real_solve(a, b))
        fit = regsel.ridge_fit(x, y, lam=3.0)
        assert len(solves) == 1  # the coefficients and the slope covariance share one factor
        report = regsel.select_features(fit, list("abcde"), dataset_label="rr")
        assert len(solves) == 1

        xc, yc = x - x.mean(axis=0), y - y.mean()
        gram = xc.T @ xc
        resid = yc - xc @ fit.beta
        sigma2 = float(resid @ resid) / (80 - 5)  # ridge residual dof: n - m
        w = np.linalg.inv(gram + 3.0 * np.eye(5))
        se = np.sqrt(np.diag(sigma2 * w @ gram @ w))
        assert np.allclose(fit.t_stats, fit.beta / se, rtol=1e-10)
        assert [r.t for r in report.rows] == [float(t) for t in fit.t_stats]
        assert [r.p for r in report.rows] == [float(p) for p in fit.p_values]
        assert fit.support == tuple(j for j, p in enumerate(fit.p_values) if p < regsel.ALPHA)
        assert report.selected_names == [n for n, p in zip("abcde", fit.p_values) if p < 0.05]

    def test_json_roundtrip(self, tmp_path):
        fit = RegressionFit(
            beta=np.array([0.5, 0.0]), beta0=0.1, penalty=PenaltySpec("lasso", 0.2),
            support=(0,), converged=True, iterations=2,
        )
        report = regsel.select_features(fit, ["u", "v"], dataset_label="scad")
        path = tmp_path / "sel.json"
        write_json(path, report)
        loaded = from_json(regsel.SelectionReport, read_json(path, "selection", DataError), "sel", DataError)
        for f in dataclasses.fields(report):
            assert getattr(loaded, f.name) == getattr(report, f.name), f.name
        assert (loaded.n_features, loaded.n_selected, loaded.selected_names) == (2, 1, ["u"])

    def test_repeated_row_name_is_rejected(self):
        """Selected or not, a name listed twice is an error: the report no longer maps names to rows."""
        rows = [regsel.SelectionRow(name, 0.1, None, None, name == "u") for name in ("u", "v", "w", "v")]
        with pytest.raises(ParameterError, match=r"^\['v'\] are listed more than once$"):
            regsel.SelectionReport(rows, PenaltySpec("lasso", 0.2), "scad")

    def test_csv_columns(self):
        fit = RegressionFit(
            beta=np.array([0.5]), beta0=0.0, penalty=PenaltySpec("lasso", 0.2),
            support=(0,), converged=True, iterations=1,
        )
        report = regsel.select_features(fit, ["u"], dataset_label="scad")
        lines = report.to_csv_text().splitlines()
        assert lines[0] == "name,coef,t,p,selected"
        assert lines[1].startswith("u,") and lines[1].endswith(",true")
