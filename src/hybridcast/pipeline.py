"""End-to-end forecasting pipeline over dated CSV panels.

Stages: load -> align (forward fill) -> standardize (train-span stats
only) -> window -> chronological split -> train -> predict ->
de-standardize -> evaluate. The comparison harness trains the five
labeled selection/architecture combinations and reports metrics in a
fixed table layout.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import warnings
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from . import neural, regsel
from .errors import (
    CoverageError,
    CsvFormatError,
    DataError,
    DivergenceError,
    DuplicateDateError,
    InsufficientDataError,
    MapeUndefinedError,
    MissingInputError,
    NumericalError,
    ParameterError,
    ScalingError,
    ShapeError,
)
from .jsonio import atomic_write_text, csv_text, from_json
from .neural import EncodedArray, ForecastModel, ModelConfig, adam_init, adam_step, mse_loss
from .regsel import SelectionReport

# (label, variant, which selection feeds it)
COMPARE_CELLS = (
    ("RR-CNN", "cnn", "rr"),
    ("RR-LSTM", "lstm", "rr"),
    ("RR-CNN-LSTM", "cnn_lstm", "rr"),
    ("RR-DILATED_CNN-LSTM", "dilated_cnn_lstm", "rr"),
    ("SCAD-DILATED_CNN-LSTM", "dilated_cnn_lstm", "scad"),
)
COMPARE_LABELS = tuple(label for label, _, _ in COMPARE_CELLS)
CELL_SEED_STRIDE = 7919  # per-cell rng offset inside one comparison seed


# ---------------------------------------------------------------------------
# panel types


def _check_dated_columns(dates: list[date], columns: dict[str, np.ndarray]) -> None:
    """Strictly increasing dates, and one row per date in every column."""
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise DuplicateDateError(f"dates must be strictly increasing; offending date {dates[i].isoformat()}")
    for name, col in columns.items():
        if len(col) != len(dates):
            raise ShapeError(f"column {name!r} has {len(col)} rows for {len(dates)} dates")


@dataclass
class SeriesFragment:
    """Dated columns fresh off one CSV; may still contain missing values (NaN).

    Dates must be strictly increasing, since the forward fill of
    align_series reads each fragment in order.
    """

    dates: list[date]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        _check_dated_columns(self.dates, self.columns)


@dataclass
class TimeSeriesFrame:
    """Aligned panel: strictly increasing dates, complete numeric columns."""

    dates: list[date]
    columns: dict[str, np.ndarray]
    target_name: str

    def __post_init__(self):
        if self.target_name not in self.columns:
            raise ParameterError(f"target column {self.target_name!r} not in panel")
        _check_dated_columns(self.dates, self.columns)
        for name, col in self.columns.items():
            if not np.all(np.isfinite(col)):
                raise ParameterError(f"column {name!r} contains missing/non-finite values")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def feature_names(self) -> list[str]:
        return [n for n in self.columns if n != self.target_name]

    @property
    def target(self) -> np.ndarray:
        return self.columns[self.target_name]

    def values(self, names: list[str]) -> np.ndarray:
        return np.column_stack([self.columns[n] for n in names])

    def subframe(self, names: list[str]) -> "TimeSeriesFrame":
        """The named columns, the target among them; the one check that a selection or checkpoint fits this panel."""
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise DataError(f"columns {missing} are not in the panel")
        if self.target_name not in names:
            raise DataError(f"the columns lack the panel's target {self.target_name!r}")
        return TimeSeriesFrame(
            dates=list(self.dates),
            columns={n: self.columns[n].copy() for n in names},
            target_name=self.target_name,
        )


def frame_to_csv_text(frame: TimeSeriesFrame, date_column: str = "date") -> str:
    names = list(frame.columns)
    rows = (
        [d.isoformat()] + [repr(float(frame.columns[n][i])) for n in names]
        for i, d in enumerate(frame.dates)
    )
    return csv_text([date_column] + names, rows)


def write_frame_csv(frame: TimeSeriesFrame, path, date_column: str = "date") -> None:
    atomic_write_text(path, frame_to_csv_text(frame, date_column))


# ---------------------------------------------------------------------------
# loading and alignment


def load_csv_series(path, date_column: str = "date") -> SeriesFragment:
    """Parse one CSV into a fragment; empty cells become NaN (missing).

    Rows are sorted by date; repeated header names, duplicate dates,
    unparseable cells and rows with more or fewer cells than the header
    raise with row/column context, and so does a file with no data rows.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise MissingInputError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise CsvFormatError(f"{path}: column {repeated[0]!r} appears more than once in the header")
        if date_column not in header:
            raise CsvFormatError(f"{path}: no {date_column!r} column in header {header}")
        date_idx = header.index(date_column)
        wanted = [h for h in header if h != date_column]
        col_idx = {c: header.index(c) for c in wanted}

        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}; "
                    "write a missing value as an empty cell"
                )
            raw_date = row[date_idx].strip()
            try:
                d = date.fromisoformat(raw_date)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {lineno}: cannot parse date {raw_date!r} (expected YYYY-MM-DD)"
                ) from None
            values = []
            for c in wanted:
                cell = row[col_idx[c]].strip()
                if cell == "":
                    values.append(math.nan)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {lineno}, column {c!r}: cannot parse {cell!r} as a number"
                    ) from None
            rows.append((d, values))
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for i in range(1, len(rows)):
        if rows[i][0] == rows[i - 1][0]:
            raise DuplicateDateError(f"{path}: duplicate date {rows[i][0].isoformat()}")
    dates = [r[0] for r in rows]
    data = np.array([r[1] for r in rows], dtype=np.float64).reshape(len(rows), len(wanted))
    return SeriesFragment(dates=dates, columns={c: data[:, j].copy() for j, c in enumerate(wanted)})


def align_series(fragments: list[SeriesFragment], target_name: str) -> TimeSeriesFrame:
    """Forward-fill every other column of the fragments onto the target's date index.

    The target's dates come from the fragment that holds the target
    column; a column name may appear in one fragment only. Markets trade
    on different calendars, so each value at a target date is the most
    recent observation at or before it. Leading target dates where some
    series has no observation yet are dropped; a series with no usable
    overlap at all raises CoverageError.
    """
    seen: set[str] = set()
    for frag in fragments:
        repeated = [name for name in frag.columns if name in seen]
        if repeated:
            raise DataError(f"column {repeated[0]!r} appears in more than one input file")
        seen.update(frag.columns)
    target = next((f for f in fragments if target_name in f.columns), None)
    if target is None:
        raise ParameterError(f"target column {target_name!r} not found in any input file")
    tgt = target.columns[target_name]
    if not np.all(np.isfinite(tgt)):
        raise CsvFormatError(f"target column {target_name!r} has missing values")

    # dates as int64 day ordinals, so the fill is one binary search per series
    target_days = np.array([d.toordinal() for d in target.dates], dtype=np.int64)
    aligned: dict[str, np.ndarray] = {target_name: tgt.copy()}
    first_valid = 0
    for frag in fragments:
        frag_days = np.array([d.toordinal() for d in frag.dates], dtype=np.int64)
        for name, col in frag.columns.items():
            if name == target_name:
                continue
            observed = np.isfinite(col)
            days, values = frag_days[observed], col[observed]
            if days.size == 0 or days[0] > target_days[-1]:
                raise CoverageError(f"series {name!r} has no observations within the target span")
            last = np.searchsorted(days, target_days, side="right") - 1  # latest obs at or before
            aligned[name] = np.where(last >= 0, values[last], math.nan)
            first_valid = max(first_valid, int(np.argmax(last >= 0)))

    dates = list(target.dates[first_valid:])
    columns = {name: col[first_valid:].copy() for name, col in aligned.items()}
    return TimeSeriesFrame(dates=dates, columns=columns, target_name=target_name)


# ---------------------------------------------------------------------------
# standardization


@dataclass
class StandardScaler:
    """Per-column z-score transform with statistics from the train span only."""

    names: list[str]
    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        if not len(self.mean) == len(self.sd) == len(self.names):
            raise ParameterError(f"mean and sd need one entry per name: {len(self.names)} names, "
                                 f"{len(self.mean)} means, {len(self.sd)} sds")
        bad = ~(np.isfinite(self.mean) & np.isfinite(self.sd) & (self.sd > 0))
        if bad.any():
            j = int(np.argmax(bad))
            raise ParameterError(f"column {self.names[j]!r} has mean {self.mean[j]} and sd {self.sd[j]}; "
                                 "a mean must be finite and an sd finite and > 0")

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParameterError(f"scaler knows nothing about column {name!r}") from None

    def transform(self, frame: TimeSeriesFrame) -> TimeSeriesFrame:
        columns = {}
        for name, col in frame.columns.items():
            j = self._index(name)
            columns[name] = (col - self.mean[j]) / self.sd[j]
        return TimeSeriesFrame(dates=list(frame.dates), columns=columns, target_name=frame.target_name)

    def inverse_column(self, name: str, values: np.ndarray) -> np.ndarray:
        j = self._index(name)
        return np.asarray(values, dtype=np.float64) * self.sd[j] + self.mean[j]


def fit_scaler(frame: TimeSeriesFrame, train_end_index: int) -> StandardScaler:
    """Column means/sds (ddof=1) over rows [0, train_end_index)."""
    if train_end_index < 2:
        raise ParameterError(f"train_end_index must be >= 2, got {train_end_index}")
    if train_end_index > len(frame):
        raise ParameterError(f"train_end_index {train_end_index} exceeds panel length {len(frame)}")
    names = list(frame.columns)
    mean = np.empty(len(names))
    sd = np.empty(len(names))
    for j, name in enumerate(names):
        span = frame.columns[name][:train_end_index]
        mean[j] = span.mean()
        sd[j] = span.std(ddof=1)
        if sd[j] <= 0:
            raise ScalingError(f"column {name!r} is constant on the training span")
    return StandardScaler(names=names, mean=mean, sd=sd)


# ---------------------------------------------------------------------------
# windowing and splitting


@dataclass
class WindowBatch:
    """Sliding one-step-ahead samples.

    inputs[i] holds standardized rows [i, i+window); its target is row
    i+window's target column, stored both standardized (for training)
    and on the original scale (for reporting).
    """

    inputs: np.ndarray  # (N, window, F)
    targets_std: np.ndarray
    targets_orig: np.ndarray
    target_dates: list[date]
    input_last_dates: list[date]

    def __len__(self) -> int:
        return len(self.targets_std)

    def check_no_lookahead(self) -> None:
        for last_in, tgt in zip(self.input_last_dates, self.target_dates):
            if not last_in < tgt:
                raise ParameterError(
                    f"lookahead: window ending {last_in.isoformat()} does not precede "
                    f"target {tgt.isoformat()}"
                )


def make_windows(
    frame: TimeSeriesFrame,
    window: int = 5,
    original: TimeSeriesFrame | None = None,
) -> WindowBatch:
    """Build N - window one-step-ahead samples from a standardized frame.

    `original` (the pre-scaling panel, same index) supplies the
    original-scale targets; without it they fall back to the
    standardized values.
    """
    if window < 1:
        raise ParameterError("window must be >= 1")
    n = len(frame)
    n_samples = n - window
    if n_samples < 1:
        raise InsufficientDataError(f"panel has {n} rows; need more than {window} for one sample")
    names = list(frame.columns)
    mat = frame.values(names)
    idx = np.arange(n_samples)[:, None] + np.arange(window)[None, :]
    inputs = mat[idx]  # (N, window, F)
    tgt_rows = np.arange(n_samples) + window
    targets_std = frame.target[tgt_rows].copy()
    if original is not None:
        if len(original) != n:
            raise ShapeError("original frame length differs from standardized frame")
        targets_orig = original.columns[frame.target_name][tgt_rows].copy()
    else:
        targets_orig = targets_std.copy()
    return WindowBatch(
        inputs=inputs,
        targets_std=targets_std,
        targets_orig=targets_orig,
        target_dates=[frame.dates[i] for i in tgt_rows],
        input_last_dates=[frame.dates[i + window - 1] for i in range(n_samples)],
    )


def split_index(n: int, train_fraction: float) -> int:
    """Training-sample count of n chronological samples: floor(train_fraction*n) in [1, n-1]."""
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples to split, got {max(n, 0)}")
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    return min(max(int(math.floor(train_fraction * n)), 1), n - 1)


def chrono_split(batch: WindowBatch, train_fraction: float = 0.9) -> tuple[WindowBatch, WindowBatch]:
    """First split_index(n, train_fraction) samples train, the rest test; order kept."""
    n = len(batch)
    k = split_index(n, train_fraction)

    def take(sl: slice) -> WindowBatch:
        return WindowBatch(
            inputs=batch.inputs[sl],
            targets_std=batch.targets_std[sl],
            targets_orig=batch.targets_orig[sl],
            target_dates=batch.target_dates[sl],
            input_last_dates=batch.input_last_dates[sl],
        )

    return take(slice(0, k)), take(slice(k, n))


def training_rows(n_rows: int, window: int, train_fraction: float) -> int:
    """Leading panel rows the training samples read, inputs and targets: the scaler's span."""
    return split_index(n_rows - window, train_fraction) + window


def training_span_sha256(frame: TimeSeriesFrame, names: list[str], window: int, train_fraction: float) -> str:
    """SHA-256 of the training_rows rows of the named columns, as little-endian f64 row by row.

    A checkpoint records it so that scoring it against a different
    training span fails loudly instead of reporting a shifted split.
    """
    rows = training_rows(len(frame), window, train_fraction)
    span = np.ascontiguousarray(frame.values(names)[:rows], dtype="<f8")
    return hashlib.sha256(span.tobytes()).hexdigest()


def prepare_split(
    frame: TimeSeriesFrame,
    names: list[str],
    window: int,
    train_fraction: float,
    scaler: StandardScaler | None = None,
) -> tuple[StandardScaler, WindowBatch, WindowBatch]:
    """Scale, window and chronologically split the named columns of the panel.

    Without a scaler, one is fitted on the rows the training samples
    read (their inputs and targets), so no test row informs it; pass the
    scaler of a trained model to rebuild exactly its training split.
    """
    sub = frame.subframe(names)
    if scaler is None:
        scaler = fit_scaler(sub, train_end_index=training_rows(len(sub), window, train_fraction))
    batch = make_windows(scaler.transform(sub), window=window, original=sub)
    batch.check_no_lookahead()
    train_b, test_b = chrono_split(batch, train_fraction)
    return scaler, train_b, test_b


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    mse: float
    mae: float
    mape: float


def evaluate(pred: np.ndarray, actual: np.ndarray) -> Metrics:
    """MSE, MAE, and MAPE (as a fraction, mean |err|/|actual|) on matching vectors.

    A non-finite prediction raises NumericalError, so no NaN metric is
    ever written. A zero actual makes MAPE undefined; the raised error
    still carries the MSE/MAE that remain well defined.
    """
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ShapeError(f"pred {pred.shape} and actual {actual.shape} must be equal-length vectors")
    if pred.size == 0:
        raise ParameterError("evaluate needs at least one point")
    bad = int(np.sum(~np.isfinite(pred)))
    if bad:
        raise NumericalError(f"{bad} of {pred.size} predictions are not finite")
    err = actual - pred
    mse = float(np.mean(err**2))
    mae = float(np.mean(np.abs(err)))
    if np.any(actual == 0.0):
        raise MapeUndefinedError("MAPE undefined: an actual value is zero", mse=mse, mae=mae)
    mape = float(np.mean(np.abs(err) / np.abs(actual)))
    return Metrics(mse=mse, mae=mae, mape=mape)


@dataclass
class MetricsRow:
    label: str
    mse: float
    mae: float
    mape: float
    seed: int


@dataclass
class MetricsReport:
    """Five-row comparison table plus per-seed detail and the win rate."""

    rows: list[MetricsRow]  # one per label, metrics averaged over seeds
    per_seed: list[MetricsRow]
    seeds: list[int]
    dilated_vs_plain_win_rate: float

    def to_text_table(self) -> str:
        width = max(len(r.label) for r in self.rows) + 2
        lines = [f"{'model':<{width}}{'MSE':>12}{'MAE':>12}{'MAPE':>12}"]
        for r in self.rows:
            lines.append(f"{r.label:<{width}}{r.mse:>12.6f}{r.mae:>12.6f}{r.mape:>12.6f}")
        lines.append(
            f"dilated-vs-plain win rate: {self.dilated_vs_plain_win_rate:.3f} over seeds {self.seeds}"
        )
        return "\n".join(lines) + "\n"

    def per_seed_csv_text(self) -> str:
        return csv_text(
            ["label", "seed", "mse", "mae", "mape"],
            ([r.label, r.seed, repr(r.mse), repr(r.mae), repr(r.mape)] for r in self.per_seed),
        )


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: ForecastModel
    scaler: StandardScaler
    history: list[float]
    metrics: MetricsRow
    dates: list[date]
    actuals: np.ndarray
    predictions: np.ndarray


DIVERGENCE_LOSS = 1e100  # standardized targets make any loss near this garbage


def fit_arrays(model: ForecastModel, inputs: np.ndarray, targets: np.ndarray) -> list[float]:
    """Mini-batch Adam over config.epochs; returns per-epoch training MSE.

    Batches are reshuffled every epoch from the model's seeded rng; the
    short final batch is kept. A non-finite (or absurdly large) batch
    loss raises DivergenceError naming the epoch and the batch, before
    that batch updates the weights; Adam's stepwise-bounded updates mean
    explosions show up as huge finite losses well before any float
    overflow.
    """
    cfg = model.config
    n = len(targets)
    if n == 0:
        raise ParameterError("no training samples")
    state = adam_init(model.params)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = model.rng.permutation(n)
        total = 0.0
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            preds, cache = model.forward(inputs[idx])
            loss, grad = mse_loss(preds, targets[idx])
            if not math.isfinite(loss) or loss > DIVERGENCE_LOSS:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {batch}", epoch=epoch, batch=batch
                )
            grads, _ = model.backward(cache, grad)
            adam_step(state, model.params, grads, cfg.learning_rate)
            total += loss * len(idx)
        history.append(total / n)
    return history


def restrict_features(frame: TimeSeriesFrame, selection: SelectionReport | None) -> list[str]:
    """Model input columns: the target, then the selection's features (every feature for None).

    prepare_split's subframe rejects any name the panel lacks.
    """
    chosen = list(frame.feature_names) if selection is None else selection.selected_names
    if not chosen:
        raise ParameterError("selection leaves no exogenous features")
    return [frame.target_name] + chosen


def score_forecasts(model: ForecastModel, split, target_name: str, label: str | None = None):
    """Test-span forecasts of a prepare_split result on the original scale, and their metrics row."""
    scaler, _, test_b = split
    with np.errstate(over="ignore", invalid="ignore"):  # evaluate reports non-finite forecasts
        preds = scaler.inverse_column(target_name, model.predict(test_b.inputs))
    m = evaluate(preds, test_b.targets_orig)
    row = MetricsRow(label or model.config.variant, m.mse, m.mae, m.mape, model.config.seed)
    return row, preds


def fit_and_score(config: ModelConfig, split, target_name: str, label: str | None = None) -> TrainResult:
    """Train a fresh model on the training part of a prepare_split result and score it."""
    scaler, train_b, test_b = split
    model = ForecastModel(config, n_features=len(scaler.names))
    history = fit_arrays(model, train_b.inputs, train_b.targets_std)
    row, preds = score_forecasts(model, split, target_name, label)
    return TrainResult(
        model=model,
        scaler=scaler,
        history=history,
        metrics=row,
        dates=list(test_b.target_dates),
        actuals=test_b.targets_orig.copy(),
        predictions=preds,
    )


def train_model(
    frame: TimeSeriesFrame,
    selection: SelectionReport | None,
    config: ModelConfig,
    label: str | None = None,
    train_fraction: float = 0.9,
) -> TrainResult:
    """Scale, window, split, train, and score one model on the panel."""
    split = prepare_split(frame, restrict_features(frame, selection), config.window, train_fraction)
    return fit_and_score(config, split, frame.target_name, label)


def compare_variants(
    frame: TimeSeriesFrame,
    rr_selection: SelectionReport,
    scad_selection: SelectionReport,
    base_config: ModelConfig,
    seeds: list[int],
    train_fraction: float = 0.9,
) -> MetricsReport:
    """Train the five labeled combinations per seed and aggregate.

    Each selection is prepared once and shared by its cells. Each
    (cell, seed) gets its own derived rng stream (seed plus a fixed
    per-cell offset), so cells are independent and reproducible. The win
    rate counts seeds where the dilated variant beats plain CNN-LSTM on
    test MSE (informational).
    """
    if not seeds:
        raise ParameterError("need at least one seed")
    splits = {
        key: prepare_split(frame, restrict_features(frame, sel), base_config.window, train_fraction)
        for key, sel in (("rr", rr_selection), ("scad", scad_selection))
    }

    per_seed: list[MetricsRow] = []
    for seed in seeds:
        for k, (label, variant, sel_key) in enumerate(COMPARE_CELLS):
            cfg = replace(
                base_config,
                variant=variant,
                dilation=base_config.dilation if variant == "dilated_cnn_lstm" else None,
                seed=seed + k * CELL_SEED_STRIDE,
            )
            result = fit_and_score(cfg, splits[sel_key], frame.target_name, label)
            per_seed.append(replace(result.metrics, seed=seed))

    by_label = {label: [r for r in per_seed if r.label == label] for label in COMPARE_LABELS}
    wins = sum(d.mse < p.mse for d, p in zip(by_label["RR-DILATED_CNN-LSTM"], by_label["RR-CNN-LSTM"]))

    rows = [
        MetricsRow(
            label=label,
            mse=float(np.mean([r.mse for r in by_label[label]])),
            mae=float(np.mean([r.mae for r in by_label[label]])),
            mape=float(np.mean([r.mape for r in by_label[label]])),
            seed=-1,
        )
        for label in COMPARE_LABELS
    ]
    return MetricsReport(
        rows=rows, per_seed=per_seed, seeds=list(seeds), dilated_vs_plain_win_rate=wins / len(seeds)
    )


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_VERSION = 2


@dataclass
class Checkpoint:
    """The checkpoint document. scaler.names are the model's input columns in order, the target first,
    so the model's width is len(scaler.names) and no other field can disagree with it."""

    format_version: int
    config: ModelConfig
    params: dict[str, EncodedArray]
    scaler: StandardScaler
    target_name: str
    train_fraction: float
    train_span_sha256: str


def make_checkpoint(result: TrainResult, frame: TimeSeriesFrame, train_fraction: float) -> Checkpoint:
    """The checkpoint of a train_model result on this panel and train_fraction."""
    config = result.model.config
    span = training_span_sha256(frame, result.scaler.names, config.window, train_fraction)
    params = neural.model_to_dict(result.model)
    return Checkpoint(CHECKPOINT_VERSION, config, params, result.scaler, frame.target_name, train_fraction, span)


def load_checkpoint(raw: dict, frame: TimeSeriesFrame, train_fraction: float):
    """The model of a make_checkpoint document, and its prepare_split of this panel.

    A malformed document, or one of another version, raises DataError naming its key; so does a panel
    or train_fraction that does not give the checkpoint's target and training span, naming what differs.
    """
    version = raw.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint.format_version: expected {CHECKPOINT_VERSION}, got {version!r}")
    ckpt = from_json(Checkpoint, raw, "checkpoint", DataError)
    if ckpt.target_name != frame.target_name:
        raise DataError(f"the panel's target {frame.target_name!r} differs from the checkpoint's {ckpt.target_name!r}")
    if ckpt.train_fraction != train_fraction:
        raise DataError(f"train_fraction {train_fraction} differs from the checkpoint's {ckpt.train_fraction}")
    names, window = ckpt.scaler.names, ckpt.config.window
    split = prepare_split(frame, names, window, train_fraction, ckpt.scaler)
    model = neural.model_from_dict(ckpt.config, len(names), ckpt.params)
    digest = training_span_sha256(frame, names, window, train_fraction)
    if digest != ckpt.train_span_sha256:
        raise DataError("the panel's training-span rows differ from those the checkpoint was trained on "
                        f"(SHA-256 {digest[:12]}... against {ckpt.train_span_sha256[:12]}...)")
    return model, split


# ---------------------------------------------------------------------------
# panel-level feature selection


def lagged_design(frame: TimeSeriesFrame, lag: int = 1) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Design matrix of exogenous features lagged by `lag` against the target."""
    if lag < 1:
        raise ParameterError(f"lag must be >= 1, got {lag}")
    if len(frame) <= lag + 2:
        raise InsufficientDataError(f"panel has {len(frame)} rows; too few for lag {lag}")
    names = frame.feature_names
    x = frame.values(names)[:-lag]
    y = frame.target[lag:]
    return x, y, names


def select_panel_features(
    frame: TimeSeriesFrame,
    lag: int = 1,
    alpha: float = 0.05,
    ridge_lambda: float | None = None,
    scad_lambda: float | None = None,
    scad_a: float = 3.7,
    grid_points: int = 20,
) -> tuple[SelectionReport, SelectionReport]:
    """Run the two selectors against the lagged panel.

    Ridge keeps every feature whose approximate t-test clears alpha; its
    default lambda is n (heavy shrinkage), which pools weight across
    correlated features so whole clusters stay significant. SCAD selects
    its nonzero support at a validation-tuned lambda unless one is fixed.
    A SCAD fit that stops at its sweep limit unconverged raises a
    RuntimeWarning naming lambda and the sweep count.
    """
    x, y, names = lagged_design(frame, lag)
    n = len(y)

    x_mean = x.mean(axis=0)
    x_sd = x.std(axis=0, ddof=1)
    if np.any(x_sd <= 0):
        bad = [names[j] for j in np.nonzero(x_sd <= 0)[0]]
        raise ScalingError(f"constant features cannot be standardized: {bad}")
    xs = (x - x_mean) / x_sd

    lam_r = float(n) if ridge_lambda is None else float(ridge_lambda)
    ridge = regsel.ridge_fit(xs, y, lam_r)
    rr_report = regsel.select_features(ridge, names, alpha, dataset_label="rr", feature_scale=x_sd)

    if scad_lambda is None:
        scad, _, _, _ = regsel.tune_penalized(x, y, "scad", a=scad_a, n_points=grid_points)
    else:
        scad = regsel.scad_fit(x, y, float(scad_lambda), scad_a)
    if not scad.converged:
        warnings.warn(
            f"SCAD fit at lambda={scad.penalty.lam:g} did not converge in {scad.iterations} sweeps; "
            "its selection may be incomplete",
            RuntimeWarning,
        )
    scad_report = regsel.select_features(scad, names, alpha, dataset_label="scad")
    return rr_report, scad_report


# ---------------------------------------------------------------------------
# prediction file


def predictions_csv_text(dates: list[date], actuals: np.ndarray, predictions: np.ndarray) -> str:
    rows = (
        [d.isoformat(), repr(float(a)), repr(float(p))] for d, a, p in zip(dates, actuals, predictions)
    )
    return csv_text(["date", "actual", "predicted"], rows)
