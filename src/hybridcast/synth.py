"""Synthetic 53-indicator panel with a known sparse predictive support.

The panel mimics a three-cluster indicator universe (macro, finance and
energy, blockchain) observed on consecutive weekdays. Indicators are
AR(1) processes driven by a cluster-level common factor plus idiosyncratic
noise (equal variances, so within-cluster innovation correlation is 0.5);
the target is a fixed sparse combination of lagged indicators, an AR(1)
carry-over term, gaussian noise, and a positive base level so it behaves
like a price. The generating record is returned so selection quality can
be scored exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .errors import ParameterError
from .numcore import generator
from .pipeline import TimeSeriesFrame
from .regsel import SelectionReport

CLUSTER_PREFIXES = ("macro", "fin", "chain")
DEFAULT_WEIGHT_CYCLE = (1.2, -0.9, 1.0, 0.8, -1.1)


@dataclass
class SyntheticSpec:
    """Shape and dynamics of the generated panel."""

    n_days: int = 1060
    macro: int = 13
    financial_energy: int = 25
    blockchain: int = 15
    true_support: tuple[int, ...] = (3, 17, 29, 41, 50)
    noise_sd: float = 0.5
    lag: int = 1
    seed: int = 0
    exog_ar: float = 0.95
    target_ar: float = 0.3
    target_base: float = 50.0
    innovation_sd: float = 0.1
    weights: tuple[float, ...] | None = None
    start_date: date = field(default_factory=lambda: date(2017, 4, 28))
    target_name: str = "price"

    def __post_init__(self):
        self.true_support = tuple(int(j) for j in self.true_support)
        total = self.macro + self.financial_energy + self.blockchain
        if total != 53:
            raise ParameterError(f"cluster sizes must sum to 53, got {total}")
        if not self.true_support:
            raise ParameterError("true_support must be nonempty")
        if any(j < 0 or j >= total for j in self.true_support):
            raise ParameterError(f"true_support indices must lie in [0, {total})")
        if len(set(self.true_support)) != len(self.true_support):
            raise ParameterError("true_support has duplicates")
        if self.noise_sd < 0:
            raise ParameterError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.lag < 1:
            raise ParameterError(f"lag must be >= 1, got {self.lag}")
        if self.n_days < self.lag + 10:
            raise ParameterError(f"n_days must be >= lag + 10, got {self.n_days}")
        if self.weights is not None:
            self.weights = tuple(float(w) for w in self.weights)
            if len(self.weights) != len(self.true_support):
                raise ParameterError(
                    f"{len(self.weights)} weights for {len(self.true_support)} support indices"
                )
            if any(w == 0 for w in self.weights):
                raise ParameterError("support weights must be nonzero")

    @property
    def n_features(self) -> int:
        return self.macro + self.financial_energy + self.blockchain

    @property
    def cluster_sizes(self) -> tuple[int, int, int]:
        return (self.macro, self.financial_energy, self.blockchain)

    def feature_names(self) -> list[str]:
        names = []
        for prefix, size in zip(CLUSTER_PREFIXES, self.cluster_sizes):
            names.extend(f"{prefix}_{i + 1:02d}" for i in range(size))
        return names

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
    n, m = spec.n_days, spec.n_features
    names = spec.feature_names()

    cluster_of = np.repeat(np.arange(3), spec.cluster_sizes)
    common = rng.normal(size=(n, 3))
    idio = rng.normal(size=(n, m))
    eps = rng.normal(0.0, spec.noise_sd, n) if spec.noise_sd > 0 else np.zeros(n)

    innov = spec.innovation_sd * (common[:, cluster_of] + idio)
    x = np.empty((n, m))
    x[0] = innov[0]
    for t in range(1, n):
        x[t] = spec.exog_ar * x[t - 1] + innov[t]

    weights = support_weights(spec)
    support = np.array(spec.true_support, dtype=int)
    signal = np.zeros(n)
    signal[spec.lag :] = x[: n - spec.lag, support] @ weights

    z = np.empty(n)
    z[0] = signal[0] + eps[0]
    for t in range(1, n):
        z[t] = signal[t] + spec.target_ar * z[t - 1] + eps[t]
    target = spec.target_base + z

    columns = {name: x[:, j].copy() for j, name in enumerate(names)}
    columns[spec.target_name] = target
    frame = TimeSeriesFrame(
        dates=weekday_dates(spec.start_date, n),
        columns=columns,
        target_name=spec.target_name,
    )
    truth = GroundTruth(
        support_indices=spec.true_support,
        support_names=[names[j] for j in support],
        weights={names[j]: float(w) for j, w in zip(support, weights)},
        lag=spec.lag,
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
