import numpy as np
import pytest

from hybridcast.neural import ForecastModel
from hybridcast.synth import SyntheticSpec, generate_synthetic_panel


@pytest.fixture(scope="session")
def default_panel():
    """Full-size default panel (1060 weekdays, 53 indicators), seed 0."""
    return generate_synthetic_panel(SyntheticSpec(seed=0))


@pytest.fixture(scope="session")
def small_panel():
    """Short panel for training tests: same 53 indicators, 90 weekdays."""
    return generate_synthetic_panel(SyntheticSpec(n_days=90, seed=3))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def offset_gradient(monkeypatch):
    """offset_gradient(block, by=0.5, variant="dilated_cnn_lstm") makes variant's backward pass return block's gradient plus by."""

    def offset(block: str, by: float = 0.5, variant: str = "dilated_cnn_lstm") -> None:
        backward = ForecastModel.backward

        def offset_backward(self, cache, grad_preds, window_grad=False):
            grads, grad_windows = backward(self, cache, grad_preds, window_grad)
            if self.config.variant == variant:
                grads[block] = grads[block] + by
            return grads, grad_windows

        monkeypatch.setattr(ForecastModel, "backward", offset_backward)

    return offset
