"""Experiment configuration: one JSON document drives every subcommand.

Schema (all sections optional; defaults give the built-in synthetic
experiment):

    {
      "data": {
        "source": "synthetic" | "csv",
        "csv_paths": ["panel.csv", ...],     # csv source
        "date_column": "date",
        "target_column": "price",
        "synthetic": { ...SyntheticSpec fields... }
      },
      "selection": {
        "alpha": 0.05, "lag": 1,
        "ridge_lambda": null,                # null -> n (heavy shrinkage)
        "scad_lambda": null,                 # null -> validation-tuned path
        "scad_a": 3.7, "grid_points": 20
      },
      "model": { ...ModelConfig fields... },
      "seeds": [1, 2, 3],                    # comparison seeds, distinct
      "train_fraction": 0.9
    }
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .jsonio import from_json, read_json
from .neural import ModelConfig
from .pipeline import TimeSeriesFrame, align_series, load_csv_series
from .synth import GroundTruth, SyntheticSpec, generate_synthetic_panel


@dataclass
class DataConfig:
    source: str = "synthetic"
    csv_paths: list[str] = field(default_factory=list)
    date_column: str = "date"
    target_column: str = "price"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"data.source must be 'synthetic' or 'csv', got {self.source!r}")
        if self.source == "csv" and not self.csv_paths:
            raise ConfigError("data.source is 'csv' but data.csv_paths is empty")


@dataclass
class SelectionConfig:
    alpha: float = 0.05
    lag: int = 1
    ridge_lambda: float | None = None
    scad_lambda: float | None = None
    scad_a: float = 3.7
    grid_points: int = 20

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"selection.alpha must be in (0, 1), got {self.alpha}")
        if self.lag < 1:
            raise ConfigError(f"selection.lag must be >= 1, got {self.lag}")
        if self.scad_a <= 2:
            raise ConfigError(f"selection.scad_a must be > 2, got {self.scad_a}")
        if self.grid_points < 1:
            raise ConfigError(f"selection.grid_points must be >= 1, got {self.grid_points}")


@dataclass
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    train_fraction: float = 0.9

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be a nonempty list")
        repeated = next((s for i, s in enumerate(self.seeds) if s in self.seeds[:i]), None)
        if repeated is not None:
            raise ConfigError(f"seeds must be distinct: seed {repeated} is repeated")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def load_experiment_config(path: str | None) -> ExperimentConfig:
    """Parse a config file; None gives the all-defaults synthetic experiment.

    Every key is type-checked and unknown keys are rejected; a bad value
    raises ConfigError naming its dotted path, e.g. config.model.epochs.
    """
    if path is None:
        return ExperimentConfig()
    return from_json(ExperimentConfig, read_json(path, "config file", ConfigError), "config", ConfigError)


def load_panel(data: DataConfig) -> tuple[TimeSeriesFrame, GroundTruth | None]:
    """Materialize the panel a config points at.

    The synthetic source also returns the generating record; CSV panels
    return None for it. CSV files are aligned by align_series: the file
    holding the target column gives the dates, and every other column is
    forward-filled onto them.
    """
    if data.source == "synthetic":
        return generate_synthetic_panel(data.synthetic)
    fragments = [load_csv_series(p, date_column=data.date_column) for p in data.csv_paths]
    return align_series(fragments, data.target_column), None
