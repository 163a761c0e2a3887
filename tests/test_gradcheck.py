import numpy as np
import pytest

from hybridcast import gradcheck
from hybridcast.neural import VARIANTS, ForecastModel, mse_loss
from hybridcast.numcore import generator

REQUIRED_BLOCKS = (
    "conv_kernel", "conv_bias",
    "W_f", "W_i", "W_g", "W_o",
    "b_f", "b_i", "b_g", "b_o",
    "dense_w", "dense_b",
)


def test_central_difference_quadratic():
    x = np.array([1.0, -2.0, 0.5])
    grad = gradcheck.central_difference(lambda probes: np.sum(probes**2, axis=1), x)
    assert grad == pytest.approx(2 * x, abs=1e-8)


def sequential_central_difference(loss, x, step=gradcheck.DEFAULT_STEP):
    """The one-probe-at-a-time loop: loss() reads x by reference, and x is restored after each element."""
    grad = np.zeros(x.shape)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + step
        f_plus = loss()
        x[idx] = orig - step
        f_minus = loss()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_probes_match_sequential_probes_bit_for_bit(variant):
    """Every block's central differences, the 0-d dense_b and the input block included, are the sequential loop's bits."""
    model = ForecastModel(gradcheck._tiny_config(variant, seed=5), 3)
    data = generator(22)
    windows, targets = data.normal(size=(3, 5, 3)), data.normal(size=3)
    before = {name: p.copy() for name, p in model.params.items()}
    numeric = gradcheck.numeric_gradients(model, windows, targets)

    def loss():
        return mse_loss(model.predict(windows), targets)[0]

    assert list(numeric) == list(model.params) + ["input"]
    for name, x in list(model.params.items()) + [("input", windows)]:
        reference = sequential_central_difference(loss, x)
        assert numeric[name].shape == np.shape(x), name
        assert numeric[name].tobytes() == reference.tobytes(), name
    for name, p in model.params.items():  # probing wrote nothing into the model
        assert p.tobytes() == before[name].tobytes(), name


def test_max_relative_error_zero_for_equal():
    a = np.array([1.0, -2.0])
    assert gradcheck.max_relative_error(a, a.copy()) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_relative_error_is_inf_for_a_non_finite_entry(bad):
    """max over the elementwise errors would skip a NaN and report the largest finite error."""
    a = np.array([1.0, -2.0, 0.5])
    b = a.copy()
    b[1] = bad
    assert gradcheck.max_relative_error(b, a) == np.inf
    assert gradcheck.max_relative_error(a, b) == np.inf


def test_max_relative_error_absolute_fallback_near_zero():
    assert gradcheck.max_relative_error(np.array([0.0]), np.array([1e-12])) == pytest.approx(1e-12)


@pytest.mark.parametrize("variant", ["cnn", "lstm", "cnn_lstm", "dilated_cnn_lstm"])
def test_every_block_within_tolerance(variant):
    config = gradcheck._tiny_config(variant, seed=0)
    errors = gradcheck.model_block_errors(config, seed=99)
    assert all(err <= gradcheck.TOLERANCE for err in errors.values()), errors


def test_full_run_covers_required_block_names():
    checks = gradcheck.run_gradient_checks(seed=0)
    names = {c.block for c in checks}
    for block in REQUIRED_BLOCKS:
        assert f"dilated_cnn_lstm/{block}" in names
    assert all(c.passed for c in checks)


def test_corrupted_gradient_detected(offset_gradient):
    offset_gradient("W_f")
    checks = gradcheck.run_gradient_checks(seed=0)
    assert [c.block for c in checks if not c.passed] == ["dilated_cnn_lstm/W_f"]
