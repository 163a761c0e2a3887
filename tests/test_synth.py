import numpy as np
import pytest

from hybridcast import regsel, synth
from hybridcast.errors import ParameterError
from hybridcast.pipeline import lagged_design
from hybridcast.synth import GroundTruth, SyntheticSpec, generate_synthetic_panel


class TestSpecValidation:
    def test_support_in_range(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(true_support=(60,))

    def test_too_few_days(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(n_days=5)

    def test_weights_length_checked(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(true_support=(1, 2), weights=(1.0,))

    def test_negative_noise_sd(self):
        """The one check on the target noise's sd: generate_synthetic_panel draws it from numpy unchecked."""
        with pytest.raises(ParameterError):
            SyntheticSpec(noise_sd=-1.0)


class TestGeneration:
    def test_same_seed_identical(self):
        f1, t1 = generate_synthetic_panel(SyntheticSpec(n_days=40, seed=5))
        f2, t2 = generate_synthetic_panel(SyntheticSpec(n_days=40, seed=5))
        for name in f1.columns:
            assert np.array_equal(f1.columns[name], f2.columns[name])
        assert t1 == t2

    def test_different_seed_differs(self):
        f1, _ = generate_synthetic_panel(SyntheticSpec(n_days=40, seed=5))
        f2, _ = generate_synthetic_panel(SyntheticSpec(n_days=40, seed=6))
        assert not np.array_equal(f1.columns["price"], f2.columns["price"])

    def test_weekday_dates_from_fixed_start(self):
        frame, _ = generate_synthetic_panel(SyntheticSpec(n_days=12, seed=1))
        assert frame.dates[0].isoformat() == "2017-04-28"
        assert all(d.weekday() < 5 for d in frame.dates)
        assert all(a < b for a, b in zip(frame.dates, frame.dates[1:]))

    def test_shape_and_invariants(self):
        frame, _ = generate_synthetic_panel(SyntheticSpec(n_days=30, seed=2))
        assert len(frame.feature_names) == 53
        assert frame.target_name == "price"
        for col in frame.columns.values():
            assert np.all(np.isfinite(col))

    def test_deterministic_copy_when_noiseless(self):
        spec = SyntheticSpec(
            n_days=30, seed=4, true_support=(7,), weights=(1.0,),
            noise_sd=0.0, target_ar=0.0, target_base=0.0,
        )
        frame, truth = generate_synthetic_panel(spec)
        x = frame.columns[truth.support_names[0]]
        y = frame.columns["price"]
        assert y[1:] == pytest.approx(x[:-1], abs=1e-15)

    def test_ground_truth_names_match_indices(self):
        frame, truth = generate_synthetic_panel(SyntheticSpec(n_days=30, seed=2))
        names = frame.feature_names
        assert truth.support_names == [names[j] for j in truth.support_indices]
        assert set(truth.weights) == set(truth.support_names)


class TestOlsSupportDominance:
    def test_support_coefficients_dominate(self):
        """OLS on all 53 lagged features puts the big coefficients on the support."""
        hits = 0
        for seed in range(20):
            frame, truth = generate_synthetic_panel(SyntheticSpec(seed=seed))
            x, y, names = lagged_design(frame)
            fit = regsel.ols_fit(x, y)
            support = set(truth.support_indices)
            in_support = np.array([abs(fit.beta[j]) for j in sorted(support)])
            outside = np.array([abs(fit.beta[j]) for j in range(53) if j not in support])
            if in_support.min() > outside.max():
                hits += 1
        assert hits >= 16  # 80% of 20 seeds


class TestRidgeKeepsBroadSet:
    def test_majority_significant_on_predictive_panel(self, default_panel):
        """Heavy-shrinkage ridge t-tests flag most of the correlated universe."""
        frame, _ = default_panel
        x, y, names = lagged_design(frame)
        xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        fit = regsel.ridge_fit(xs, y, lam=float(len(y)))
        report = regsel.select_features(fit, names, dataset_label="rr")
        assert len(report.rows) == 53  # ridge reports every feature
        assert report.n_selected > 53 // 2


class TestScoring:
    def test_score_selection(self):
        truth = GroundTruth(
            support_indices=(0, 1), support_names=["a", "b"], weights={"a": 1.0, "b": -1.0},
            lag=1, target_ar=0.3, noise_sd=0.5, target_base=50.0, seed=0,
        )
        report = regsel.SelectionReport(
            rows=[
                regsel.SelectionRow("a", 1.0, None, None, True),
                regsel.SelectionRow("b", 0.0, None, None, False),
                regsel.SelectionRow("c", 0.5, None, None, True),
            ],
            penalty=regsel.PenaltySpec("scad", 1.0),
            dataset_label="scad",
        )
        score = synth.score_selection(report, truth)
        assert score["precision"] == pytest.approx(0.5)
        assert score["recall"] == pytest.approx(0.5)
        assert not score["covers_support"]
