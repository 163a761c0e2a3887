import numpy as np
import pytest

from hybridcast import gradcheck

REQUIRED_BLOCKS = (
    "conv_kernel", "conv_bias",
    "W_f", "W_i", "W_g", "W_o",
    "b_f", "b_i", "b_g", "b_o",
    "dense_w", "dense_b",
)


def test_central_difference_quadratic():
    x = np.array([1.0, -2.0, 0.5])
    grad = gradcheck.central_difference(lambda: float(np.sum(x**2)), x)
    assert grad == pytest.approx(2 * x, abs=1e-8)


def test_max_relative_error_zero_for_equal():
    a = np.array([1.0, -2.0])
    assert gradcheck.max_relative_error(a, a.copy()) == 0.0


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
