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
    """offset_gradient(block) makes the dilated_cnn_lstm backward pass return block's gradient off by 0.5."""

    def offset(block: str) -> None:
        backward = ForecastModel.backward

        def offset_backward(self, cache, grad_preds, window_grad=False):
            grads, grad_windows = backward(self, cache, grad_preds, window_grad)
            if self.config.variant == "dilated_cnn_lstm":
                grads[block] = grads[block] + 0.5
            return grads, grad_windows

        monkeypatch.setattr(ForecastModel, "backward", offset_backward)

    return offset
