"""Experiment configuration: one JSON document drives every subcommand.

Schema (all sections optional; defaults give the built-in synthetic
experiment):

    {
      "data": {
        "source": "synthetic" | "csv",
        "csv_paths": ["panel.csv", ...],     # csv source only
        "date_column": "date",               # csv source only
        "target_column": "price",            # the synthetic panel's only target
        "synthetic": { ...SyntheticSpec fields... }   # synthetic source only
      },
      "selection": {                         # the rule itself is fixed in regsel
        "scad_lambda": null,                 # null -> validation-tuned path; else finite, >= 0
        "grid_points": 20                    # length of that path
      },
      "model": { ...ModelConfig fields... }, # dilation: the dilated variant's rate, >= 2
      "seeds": [1, 2, 3],                    # comparison seeds, distinct
      "train_fraction": 0.9
    }
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, ParameterError
from .jsonio import from_json, read_json
from .neural import ModelConfig
from .pipeline import TimeSeriesFrame, align_series, load_csv_series
from .synth import TARGET_NAME, GroundTruth, SyntheticSpec, generate_synthetic_panel


@dataclass
class DataConfig:
    source: str = "synthetic"
    csv_paths: list[str] = field(default_factory=list)
    date_column: str = "date"
    target_column: str = TARGET_NAME
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ParameterError(f"source must be 'synthetic' or 'csv', got {self.source!r}")
        if self.source == "csv" and not self.csv_paths:
            raise ParameterError("source is 'csv' but csv_paths is empty")
        if self.source == "csv" and self.synthetic != SyntheticSpec():  # it generates no panel
            raise ParameterError(f"synthetic must keep its defaults on the csv source, got {self.synthetic}")
        if self.source == "synthetic":  # it reads no CSV, and its panel's target is fixed
            for key, fixed in (("csv_paths", []), ("date_column", "date"), ("target_column", TARGET_NAME)):
                if getattr(self, key) != fixed:
                    raise ParameterError(f"{key} must be {fixed!r} on the synthetic source, "
                                         f"got {getattr(self, key)!r}")


@dataclass
class SelectionConfig:
    scad_lambda: float | None = None
    grid_points: int = 20

    def __post_init__(self):
        if self.scad_lambda is not None and not 0 <= self.scad_lambda < math.inf:  # NaN fails both
            raise ParameterError(f"scad_lambda must be a finite number >= 0, got {self.scad_lambda}")
        if self.grid_points < 1:
            raise ParameterError(f"grid_points must be >= 1, got {self.grid_points}")


@dataclass
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    train_fraction: float = 0.9

    def __post_init__(self):
        if not self.seeds:
            raise ParameterError("seeds must be a nonempty list")
        repeated = next((s for i, s in enumerate(self.seeds) if s in self.seeds[:i]), None)
        if repeated is not None:
            raise ParameterError(f"seeds must be distinct: seed {repeated} is repeated")
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def load_experiment_config(path: str | None) -> ExperimentConfig:
    """Parse a config file; None gives the all-defaults synthetic experiment.

    Every key is type-checked and unknown keys are rejected; a bad value
    raises ConfigError naming its dotted path, e.g. config.model.epochs,
    or, for a value a section's checks reject, the section and then the
    key, e.g. config.selection: grid_points must be >= 1.
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
