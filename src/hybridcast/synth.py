"""Synthetic 53-indicator panel with a known sparse predictive support.

The panel mimics the paper's fixed three-cluster indicator universe:
CLUSTER_SIZES gives 13 macro, 25 finance and energy and 15 blockchain
indicators, named in FEATURE_NAMES, observed on consecutive weekdays from
START_DATE. Indicators are AR(1) processes (coefficient EXOG_AR) driven
by a cluster-level common factor plus idiosyncratic noise (equal
variances scaled by INNOVATION_SD, so within-cluster innovation
correlation is 0.5); the target, TARGET_NAME, is a fixed sparse
combination of the indicators LAG days earlier, an AR(1) carry-over
term, gaussian noise, and a positive base level so it behaves like a
price. The generating record is returned so selection quality can be
scored exactly. SyntheticSpec sets what the experiments vary: the
length, the seed, the support and its weights, and the target's noise,
AR coefficient and base level.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import ParameterError
from .numcore import generator
from .pipeline import TimeSeriesFrame
from .regsel import SelectionReport

CLUSTER_PREFIXES = ("macro", "fin", "chain")
CLUSTER_SIZES = (13, 25, 15)
FEATURE_NAMES = tuple(
    f"{prefix}_{i + 1:02d}" for prefix, size in zip(CLUSTER_PREFIXES, CLUSTER_SIZES) for i in range(size)
)
EXOG_AR = 0.95
INNOVATION_SD = 0.1
START_DATE = date(2017, 4, 28)
TARGET_NAME = "price"
LAG = 1
DEFAULT_WEIGHT_CYCLE = (1.2, -0.9, 1.0, 0.8, -1.1)


@dataclass
class SyntheticSpec:
    """Length, seed, support and target dynamics of the generated panel."""

    n_days: int = 1060
    true_support: tuple[int, ...] = (3, 17, 29, 41, 50)
    noise_sd: float = 0.5
    seed: int = 0
    target_ar: float = 0.3
    target_base: float = 50.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        self.true_support = tuple(int(j) for j in self.true_support)
        if not self.true_support:
            raise ParameterError("true_support must be nonempty")
        if any(j < 0 or j >= len(FEATURE_NAMES) for j in self.true_support):
            raise ParameterError(f"true_support indices must lie in [0, {len(FEATURE_NAMES)})")
        if len(set(self.true_support)) != len(self.true_support):
            raise ParameterError("true_support has duplicates")
        if self.noise_sd < 0:
            raise ParameterError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.n_days < LAG + 10:
            raise ParameterError(f"n_days must be >= {LAG + 10}, got {self.n_days}")
        if self.weights is not None:
            self.weights = tuple(float(w) for w in self.weights)
            if len(self.weights) != len(self.true_support):
                raise ParameterError(
                    f"{len(self.weights)} weights for {len(self.true_support)} support indices"
                )
            if any(w == 0 for w in self.weights):
                raise ParameterError("support weights must be nonzero")

@dataclass
class GroundTruth:
    """Generating record: which features drive the target, and how."""

    support_indices: tuple[int, ...]
    support_names: list[str]
    weights: dict[str, float]
    lag: int
    target_ar: float
    noise_sd: float
    target_base: float
    seed: int

def weekday_dates(start: date, n: int) -> list[date]:
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return dates


def support_weights(spec: SyntheticSpec) -> np.ndarray:
    if spec.weights is not None:
        return np.array(spec.weights, dtype=np.float64)
    cycle = DEFAULT_WEIGHT_CYCLE
    return np.array([cycle[i % len(cycle)] for i in range(len(spec.true_support))])


def generate_synthetic_panel(spec: SyntheticSpec) -> tuple[TimeSeriesFrame, GroundTruth]:
    """Generate the panel and its generating record.

    Draw order (common factors, idiosyncratic innovations, target noise)
    is fixed so a seed pins the panel bit for bit.
    """
    rng = generator(spec.seed)
    n, m = spec.n_days, len(FEATURE_NAMES)

    cluster_of = np.repeat(np.arange(3), CLUSTER_SIZES)
    common = rng.normal(size=(n, 3))
    idio = rng.normal(size=(n, m))
    eps = rng.normal(0.0, spec.noise_sd, n) if spec.noise_sd > 0 else np.zeros(n)

    innov = INNOVATION_SD * (common[:, cluster_of] + idio)
    x = np.empty((n, m))
    x[0] = innov[0]
    for t in range(1, n):
        x[t] = EXOG_AR * x[t - 1] + innov[t]

    weights = support_weights(spec)
    support = np.array(spec.true_support, dtype=int)
    signal = np.zeros(n)
    signal[LAG:] = x[: n - LAG, support] @ weights

    z = np.empty(n)
    z[0] = signal[0] + eps[0]
    for t in range(1, n):
        z[t] = signal[t] + spec.target_ar * z[t - 1] + eps[t]
    target = spec.target_base + z

    columns = {name: x[:, j].copy() for j, name in enumerate(FEATURE_NAMES)}
    columns[TARGET_NAME] = target
    frame = TimeSeriesFrame(
        dates=weekday_dates(START_DATE, n),
        columns=columns,
        target_name=TARGET_NAME,
    )
    truth = GroundTruth(
        support_indices=spec.true_support,
        support_names=[FEATURE_NAMES[j] for j in support],
        weights={FEATURE_NAMES[j]: float(w) for j, w in zip(support, weights)},
        lag=LAG,
        target_ar=spec.target_ar,
        noise_sd=spec.noise_sd,
        target_base=spec.target_base,
        seed=spec.seed,
    )
    return frame, truth


def score_selection(report: SelectionReport, truth: GroundTruth) -> dict:
    """Precision/recall of a selection against the generating support."""
    selected = set(report.selected_names)
    true = set(truth.support_names)
    tp = len(selected & true)
    precision = tp / len(selected) if selected else 0.0
    recall = tp / len(true)
    return {
        "precision": precision,
        "recall": recall,
        "n_selected": len(selected),
        "covers_support": true.issubset(selected),
    }
