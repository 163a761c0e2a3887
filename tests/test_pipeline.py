import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridcast import pipeline
from hybridcast.errors import (
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
)
from hybridcast.jsonio import read_json, write_json
from hybridcast.neural import VARIANTS, ForecastModel, ModelConfig
from hybridcast.pipeline import (
    SeriesFragment,
    TimeSeriesFrame,
    align_series,
    chrono_split,
    evaluate,
    fit_scaler,
    load_checkpoint,
    load_csv_series,
    make_checkpoint,
    make_windows,
    score_forecasts,
    train_model,
)
from hybridcast.regsel import PenaltySpec, SelectionReport, SelectionRow


def days(n, start=date(2020, 1, 1)):
    return [start + timedelta(days=i) for i in range(n)]


def simple_frame(n=12, slope=1.0):
    d = days(n)
    t = np.arange(n, dtype=float)
    return TimeSeriesFrame(
        dates=d,
        columns={"price": 10.0 + slope * t, "x1": np.sin(t) + 2.0, "x2": t * 0.5 + 1.0},
        target_name="price",
    )


class TestFrameInvariants:
    def test_rejects_non_increasing_dates(self):
        d = days(3)
        with pytest.raises(DuplicateDateError):
            TimeSeriesFrame(
                dates=[d[0], d[2], d[1]], columns={"price": np.arange(3.0)}, target_name="price"
            )

    def test_rejects_missing_values(self):
        with pytest.raises(ParameterError):
            TimeSeriesFrame(
                dates=days(2), columns={"price": np.array([1.0, math.nan])}, target_name="price"
            )

    def test_rejects_unknown_target(self):
        with pytest.raises(ParameterError):
            TimeSeriesFrame(dates=days(2), columns={"x": np.ones(2)}, target_name="price")

    def test_rejects_ragged_columns(self):
        with pytest.raises(Exception):
            TimeSeriesFrame(
                dates=days(3),
                columns={"price": np.ones(3), "x": np.ones(2)},
                target_name="price",
            )


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price\n2020-01-02,1.5\n2020-01-01,1.0\n2020-01-03,2.0\n")
        frag = load_csv_series(p)
        assert [d.isoformat() for d in frag.dates] == ["2020-01-01", "2020-01-02", "2020-01-03"]
        assert frag.columns["price"] == pytest.approx([1.0, 1.5, 2.0])

    def test_duplicate_date_named(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price\n2020-01-01,1\n2020-01-01,2\n")
        with pytest.raises(DuplicateDateError, match="2020-01-01"):
            load_csv_series(p)

    @pytest.mark.parametrize("header", ["date,a,a", "date,a, a ", "date,a,date"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        p = tmp_path / "a.csv"
        p.write_text(f"{header}\n2020-01-01,1,3\n")
        repeated = header.split(",")[-1].strip()
        with pytest.raises(CsvFormatError, match=rf"a\.csv: column '{repeated}' appears more than once"):
            load_csv_series(p)

    def test_bad_cell_location(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price,vol\n2020-01-01,1.0,5\n2020-01-02,abc,6\n")
        with pytest.raises(CsvFormatError, match="row 3.*'price'.*'abc'"):
            load_csv_series(p)

    def test_bad_date(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price\n01/02/2020,1.0\n")
        with pytest.raises(CsvFormatError, match="01/02/2020"):
            load_csv_series(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError, match="nope.csv"):
            load_csv_series(tmp_path / "nope.csv")

    def test_empty_cells_become_missing(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price\n2020-01-01,1.0\n2020-01-02,\n2020-01-03,3.0\n")
        frag = load_csv_series(p)
        assert math.isnan(frag.columns["price"][1])

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price,vol\n2020-01-01,1.0,5\n2020-01-02,2.0\n")
        with pytest.raises(CsvFormatError, match=r"a\.csv: row 3 has 2 cells, expected 3"):
            load_csv_series(p)

    @pytest.mark.parametrize("text", ["date,price\n", "date,price\n\n,\n"], ids=["header-only", "blank-rows"])
    def test_no_data_rows_rejected(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(CsvFormatError, match=r"a\.csv: no data rows"):
            load_csv_series(p)

    def test_long_row_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,price\n2020-01-01,1.0,7\n2020-01-02,2.0\n")
        with pytest.raises(CsvFormatError, match=r"a\.csv: row 2 has 3 cells, expected 2"):
            load_csv_series(p)


class TestSeriesFragment:
    def test_rejects_unsorted_dates(self):
        # forward-filled in input order, this fragment gave [10, 10, 10, 10]
        # on 2020-01-01..04 instead of [10, 10, 10, 40]
        with pytest.raises(DuplicateDateError, match="2020-01-01"):
            SeriesFragment(dates=[date(2020, 1, 4), date(2020, 1, 1)], columns={"x": np.array([40.0, 10.0])})

    def test_rejects_repeated_dates(self):
        with pytest.raises(DuplicateDateError, match="2020-01-02"):
            SeriesFragment(dates=[date(2020, 1, 2), date(2020, 1, 2)], columns={"x": np.ones(2)})


class TestAlignSeries:
    def test_passthrough_on_matching_dates(self):
        d = days(3)
        target = SeriesFragment(dates=d, columns={"price": np.array([1.0, 2.0, 3.0])})
        exo = SeriesFragment(dates=d, columns={"x": np.array([5.0, 6.0, 7.0])})
        frame = align_series([target, exo], "price")
        assert frame.columns["x"] == pytest.approx([5.0, 6.0, 7.0])
        assert frame.target_name == "price"

    def test_forward_fill_gap(self):
        d = days(3)
        target = SeriesFragment(dates=d, columns={"price": np.array([1.0, 2.0, 3.0])})
        exo = SeriesFragment(dates=[d[0], d[2]], columns={"x": np.array([5.0, 9.0])})
        frame = align_series([target, exo], "price")
        assert frame.columns["x"] == pytest.approx([5.0, 5.0, 9.0])

    def test_leading_gap_drops_rows(self):
        d = days(4)
        target = SeriesFragment(dates=d, columns={"price": np.arange(4.0)})
        exo = SeriesFragment(dates=d[2:], columns={"x": np.array([7.0, 8.0])})
        frame = align_series([target, exo], "price")
        assert frame.dates == d[2:]
        assert frame.columns["price"] == pytest.approx([2.0, 3.0])

    def test_zero_overlap(self):
        target = SeriesFragment(dates=days(3), columns={"price": np.arange(3.0)})
        late = SeriesFragment(dates=days(2, start=date(2021, 1, 1)), columns={"x": np.ones(2)})
        with pytest.raises(CoverageError, match="'x'"):
            align_series([target, late], "price")

    def test_internal_missing_filled(self):
        d = days(3)
        target = SeriesFragment(dates=d, columns={"price": np.arange(3.0) + 1})
        exo = SeriesFragment(dates=d, columns={"x": np.array([4.0, math.nan, 6.0])})
        frame = align_series([target, exo], "price")
        assert frame.columns["x"] == pytest.approx([4.0, 4.0, 6.0])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_forward_fill(self, data):
        # own calendars per fragment: gaps, dates before and after the target
        # span, and missing cells anywhere (including leading ones)
        def calendar(lo, hi):
            offsets = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=20, unique=True))
            return [date(2020, 1, 1) + timedelta(days=i) for i in sorted(offsets)]

        target_dates = calendar(0, 30)
        target = SeriesFragment(dates=target_dates, columns={"price": np.arange(len(target_dates), dtype=float)})
        exo = []
        for f in range(data.draw(st.integers(1, 3))):
            frag_dates = calendar(-10, 40)
            cell = st.one_of(st.just(math.nan), st.floats(-100, 100))
            exo.append(SeriesFragment(dates=frag_dates, columns={
                f"x{f}_{c}": np.array(data.draw(st.lists(cell, min_size=len(frag_dates), max_size=len(frag_dates))))
                for c in range(data.draw(st.integers(1, 2)))
            }))

        expected = {}
        for frag in exo:
            for name, col in frag.columns.items():
                filled = []
                for d in target_dates:
                    seen = [v for fd, v in zip(frag.dates, col) if fd <= d and not math.isnan(v)]
                    filled.append(seen[-1] if seen else math.nan)
                expected[name] = np.array(filled)
        fragments = data.draw(st.permutations([target] + exo))
        if any(np.isnan(col[-1]) for col in expected.values()):
            with pytest.raises(CoverageError):
                align_series(fragments, "price")
            return
        start = max(int(np.argmax(~np.isnan(col))) for col in expected.values())
        frame = align_series(fragments, "price")
        assert frame.dates == target_dates[start:]
        assert np.array_equal(frame.columns["price"], target.columns["price"][start:])
        for name, col in expected.items():
            assert np.array_equal(frame.columns[name], col[start:]), name


class TestScaler:
    def test_hand_example(self):
        frame = TimeSeriesFrame(
            dates=days(2), columns={"price": np.array([1.0, 3.0])}, target_name="price"
        )
        scaler = fit_scaler(frame, 2)
        assert scaler.mean[0] == pytest.approx(2.0)
        assert scaler.sd[0] == pytest.approx(math.sqrt(2.0))
        std = scaler.transform(frame)
        assert std.columns["price"] == pytest.approx([-0.7071, 0.7071], abs=1e-4)

    def test_roundtrip(self):
        frame = simple_frame()
        scaler = fit_scaler(frame, 8)
        std = scaler.transform(frame)
        for name in frame.columns:
            back = scaler.inverse_column(name, std.columns[name])
            assert np.max(np.abs(back - frame.columns[name])) <= 1e-10

    def test_constant_column_rejected(self):
        frame = TimeSeriesFrame(
            dates=days(3),
            columns={"price": np.array([1.0, 2.0, 3.0]), "flat": np.array([5.0, 5.0, 5.0])},
            target_name="price",
        )
        with pytest.raises(ScalingError, match="'flat'"):
            fit_scaler(frame, 3)

    def test_train_span_only_leakage_canary(self):
        # trending data: including the test span must move the statistics
        frame = simple_frame(n=20, slope=2.0)
        train_only = fit_scaler(frame, 10)
        full = fit_scaler(frame, 20)
        assert train_only.mean[0] != full.mean[0]
        assert train_only.sd[0] != full.sd[0]


class TestMakeWindows:
    def test_sample_count(self):
        batch = make_windows(simple_frame(n=10), window=5)
        assert len(batch) == 5

    def test_single_sample_indexing(self):
        frame = simple_frame(n=6)
        batch = make_windows(frame, window=5)
        assert len(batch) == 1
        assert batch.inputs[0] == pytest.approx(frame.values(list(frame.columns))[0:5])
        assert batch.targets_std[0] == frame.target[5]
        assert batch.target_dates[0] == frame.dates[5]

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            make_windows(simple_frame(n=5), window=5)

    def test_no_lookahead_invariant(self):
        batch = make_windows(simple_frame(n=30), window=5)
        batch.check_no_lookahead()
        for last_in, tgt in zip(batch.input_last_dates, batch.target_dates):
            assert last_in < tgt

    @given(st.integers(6, 40), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_window_count_property(self, n, window):
        if n <= window:
            return
        batch = make_windows(simple_frame(n=n), window=window)
        assert len(batch) == n - window
        batch.check_no_lookahead()


class TestChronoSplit:
    def test_ninety_ten(self):
        batch = make_windows(simple_frame(n=105), window=5)  # 100 samples
        train, test = chrono_split(batch, 0.9)
        assert len(train) == 90 and len(test) == 10

    def test_floor_rule(self):
        batch = make_windows(simple_frame(n=15), window=5)  # 10 samples
        train, test = chrono_split(batch, 0.9)
        assert len(train) == 9 and len(test) == 1
        # boundaries: the floor is clamped so both parts keep at least one sample
        cases = [(2, 0.5, 1), (2, 1e-9, 1), (2, 1 - 1e-9, 1), (3, 0.67, 2), (10, 0.05, 1), (100, 0.999, 99)]
        for n, fraction, n_train in cases:
            assert pipeline.split_index(n, fraction) == n_train
            train, test = chrono_split(make_windows(simple_frame(n=n + 5), window=5), fraction)
            assert (len(train), len(test)) == (n_train, n - n_train)

    def test_order_and_partition(self):
        batch = make_windows(simple_frame(n=30), window=5)
        train, test = chrono_split(batch)
        assert max(train.target_dates) < min(test.target_dates)
        assert list(train.target_dates) + list(test.target_dates) == list(batch.target_dates)
        assert np.array_equal(np.vstack([train.inputs, test.inputs]), batch.inputs)

    def test_too_few_samples(self):
        batch = make_windows(simple_frame(n=6), window=5)
        with pytest.raises(InsufficientDataError):
            chrono_split(batch)
        with pytest.raises(InsufficientDataError):
            pipeline.prepare_split(simple_frame(n=6), ["price", "x1"], window=5, train_fraction=0.9)

    @given(
        window=st.integers(1, 10),
        train_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        extra_rows=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        edit=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_prepare_split_never_reads_the_test_span(self, window, train_fraction, extra_rows, seed, edit):
        """No window ends at or after its target, training targets precede test targets, and
        editing any row at or after n_train + window leaves the scaler and the training
        samples bit-identical."""
        n = window + extra_rows
        values = np.random.default_rng(seed).standard_normal((n, 3))
        names = ["price", "x1", "x2"]

        def split(mat):
            frame = TimeSeriesFrame(days(n), {c: mat[:, j].copy() for j, c in enumerate(names)}, "price")
            return pipeline.prepare_split(frame, names, window, train_fraction)

        scaler, train_b, test_b = split(values)
        for b in (train_b, test_b):
            assert all(last < tgt for last, tgt in zip(b.input_last_dates, b.target_dates))
        assert max(train_b.target_dates) < min(test_b.target_dates)

        row = edit.draw(st.integers(len(train_b) + window, n - 1), label="edited row")
        edited = values.copy()
        edited[row] = edit.draw(st.floats(-1e6, 1e6), label="new value")
        scaler2, train2, _ = split(edited)
        assert np.array_equal(scaler2.mean, scaler.mean) and np.array_equal(scaler2.sd, scaler.sd)
        assert np.array_equal(train2.inputs, train_b.inputs)
        assert np.array_equal(train2.targets_std, train_b.targets_std)


class TestEvaluate:
    def test_perfect(self):
        m = evaluate(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert (m.mse, m.mae, m.mape) == (0.0, 0.0, 0.0)

    def test_hand_triple(self):
        m = evaluate(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert m.mae == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert m.mse == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert m.mape == pytest.approx((1.0 + 0.0 + 1.0 / 3.0) / 3.0, abs=1e-9)

    def test_single_point(self):
        m = evaluate(np.array([110.0]), np.array([100.0]))
        assert (m.mse, m.mae, m.mape) == (100.0, 10.0, 0.1)

    def test_zero_actual_carries_partial_metrics(self):
        with pytest.raises(MapeUndefinedError) as exc:
            evaluate(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert exc.value.mse == pytest.approx((1.0 + 1.0) / 2.0)
        assert exc.value.mae == pytest.approx(1.0)

    def test_mape_divides_by_absolute_actual(self):
        m = evaluate(np.array([1.0, 1.0]), np.array([-2.0, 2.0]))
        assert m.mape == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            evaluate(np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_is_numerical_error(self, bad):
        with pytest.raises(NumericalError, match="1 of 2 predictions are not finite"):
            evaluate(np.array([1.0, bad]), np.array([1.0, 2.0]))

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_mape_scale_invariance_and_mae_homogeneity(self, k):
        rng = np.random.default_rng(7)
        actual = rng.uniform(1.0, 10.0, size=20)
        pred = actual + rng.standard_normal(20)
        base = evaluate(pred, actual)
        scaled = evaluate(k * pred, k * actual)
        assert scaled.mape == pytest.approx(base.mape, rel=1e-9)
        assert scaled.mae == pytest.approx(k * base.mae, rel=1e-9)

    def test_mse_equals_mae_squared_single_point(self):
        m = evaluate(np.array([3.0]), np.array([5.0]))
        assert m.mse == pytest.approx(m.mae**2)


def selection_of(frame, names):
    """A ridge-style report over the panel's features that selects `names`."""
    rows = [SelectionRow(n, 0.0, None, None, n in names) for n in frame.feature_names]
    return SelectionReport(rows=rows, penalty=PenaltySpec("ridge", 1.0), dataset_label="rr")


def tiny_train_config(**kw):
    kw.setdefault("variant", "dilated_cnn_lstm")
    kw.setdefault("hidden_size", 6)
    kw.setdefault("out_channels", 2)
    kw.setdefault("epochs", 3)
    kw.setdefault("batch_size", 16)
    kw.setdefault("seed", 7)
    return ModelConfig(**kw)


class TestTrainModel:
    def test_zero_init_zero_epochs_baseline(self, small_panel):
        frame, _ = small_panel
        cfg = tiny_train_config(epochs=0, init_scheme="zeros")
        result = train_model(frame, None, cfg)
        # prediction is the inverse-scaled 0 = train-span mean of the target
        expected = np.full_like(result.predictions, result.scaler.inverse_column("price", np.zeros(1))[0])
        assert result.predictions == pytest.approx(expected)
        assert math.isfinite(result.metrics.mse)
        assert result.history == []

    def test_learning_beats_no_training_baseline(self, small_panel):
        frame, _ = small_panel
        baseline = train_model(frame, None, tiny_train_config(epochs=0, init_scheme="zeros"))
        trained = train_model(frame, None, tiny_train_config(epochs=8))
        assert trained.history[-1] <= trained.history[0]
        baseline_train_mse = 1.0  # standardized targets have unit-ish variance; epoch-0 loss is ~1
        assert trained.history[-1] < baseline_train_mse
        assert trained.metrics.mse < baseline.metrics.mse

    def test_determinism(self, small_panel):
        frame, _ = small_panel
        r1 = train_model(frame, None, tiny_train_config())
        r2 = train_model(frame, None, tiny_train_config())
        assert r1.metrics == r2.metrics
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_divergence_reports_epoch(self, small_panel):
        # Adam moves each weight by about lr per step, so stacking two
        # multiplicative layers (cnn) with a huge lr sends the loss past
        # any sane magnitude within an epoch
        frame, _ = small_panel
        cfg = tiny_train_config(learning_rate=1e60, epochs=3, variant="cnn")
        with pytest.raises(DivergenceError) as exc, np.errstate(over="ignore"):
            train_model(frame, None, cfg)
        assert exc.value.epoch >= 0
        assert exc.value.batch >= 0

    def test_divergence_names_the_batch(self, rng):
        # one non-finite target poisons exactly the batch that draws it,
        # which must stop training before the epoch ends
        cfg = tiny_train_config(variant="lstm", epochs=2, batch_size=8)
        inputs = rng.standard_normal((40, cfg.window, 3))
        targets = rng.standard_normal(40)
        targets[21] = np.nan
        order = ForecastModel(cfg, n_features=3).rng.permutation(40)
        expected = int(np.nonzero(order == 21)[0][0]) // cfg.batch_size
        with pytest.raises(DivergenceError) as exc:
            pipeline.fit_arrays(ForecastModel(cfg, n_features=3), inputs, targets)
        assert (exc.value.epoch, exc.value.batch) == (0, expected)
        assert f"epoch 0, batch {expected}" in str(exc.value)

    def test_selection_restricts_features(self, small_panel):
        frame, _ = small_panel
        result = train_model(frame, selection_of(frame, ["macro_01", "fin_02"]), tiny_train_config(epochs=1))
        assert result.scaler.names == ["price", "macro_01", "fin_02"]

    def test_empty_selection_rejected(self, small_panel):
        frame, _ = small_panel
        with pytest.raises(ParameterError):
            train_model(frame, selection_of(frame, []), tiny_train_config())


class TestCheckpoint:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip_predicts_bit_for_bit(self, small_panel, variant, tmp_path):
        """make_checkpoint -> write_json -> load_checkpoint rebuilds the trained model and its split:
        the same config, parameters, scaler and test-span forecasts, bit for bit."""
        frame, _ = small_panel
        cfg = tiny_train_config(variant=variant, epochs=2)
        result = train_model(frame, selection_of(frame, ["macro_01", "fin_02"]), cfg, train_fraction=0.8)
        write_json(tmp_path / "checkpoint.json", make_checkpoint(result, frame, 0.8))
        raw = read_json(tmp_path / "checkpoint.json", "checkpoint", DataError)
        model, split = load_checkpoint(raw, frame, 0.8)
        assert model.config == result.model.config
        for name, p in result.model.params.items():
            assert model.params[name].tobytes() == p.tobytes(), name
        scaler, _, test_b = split
        assert scaler.names == result.scaler.names == ["price", "macro_01", "fin_02"]
        assert scaler.mean.tobytes() == result.scaler.mean.tobytes()
        assert scaler.sd.tobytes() == result.scaler.sd.tobytes()
        assert test_b.target_dates == result.dates
        _, preds = score_forecasts(model, split, frame.target_name)
        assert preds.tobytes() == result.predictions.tobytes()


class TestCompareVariants:
    def test_labels_and_determinism(self, small_panel):
        frame, _ = small_panel
        rr, scad = pipeline.select_panel_features(frame, grid_points=8)
        cfg = tiny_train_config(epochs=2)
        rep1 = pipeline.compare_variants(frame, rr, scad, cfg, seeds=[5])
        rep2 = pipeline.compare_variants(frame, rr, scad, cfg, seeds=[5])
        assert [r.label for r in rep1.rows] == list(pipeline.COMPARE_LABELS)
        assert 0.0 <= rep1.dilated_vs_plain_win_rate <= 1.0
        assert all(math.isfinite(v) for r in rep1.rows for v in (r.mse, r.mae, r.mape))
        assert rep1 == rep2

    @pytest.mark.parametrize("seeds", [[1], [1, 2, 3]])
    def test_prepares_each_selection_once(self, small_panel, monkeypatch, seeds):
        frame, _ = small_panel
        rr, scad = pipeline.select_panel_features(frame, grid_points=8)
        prepared = []
        prepare = pipeline.prepare_split

        def counting(frame, names, *args, **kwargs):
            prepared.append(names)
            return prepare(frame, names, *args, **kwargs)

        monkeypatch.setattr(pipeline, "prepare_split", counting)
        report = pipeline.compare_variants(frame, rr, scad, tiny_train_config(epochs=0), seeds=seeds)
        assert len(report.per_seed) == 5 * len(seeds)
        assert prepared == [["price"] + rr.selected_names, ["price"] + scad.selected_names]

    def test_empty_selection_rejected(self, small_panel):
        frame, _ = small_panel
        rr, _ = pipeline.select_panel_features(frame, grid_points=4)
        empty = pipeline.SelectionReport(rows=[], penalty=rr.penalty, dataset_label="scad")
        with pytest.raises(ParameterError):
            pipeline.compare_variants(frame, rr, empty, tiny_train_config(), seeds=[1])


class TestSelectPanelFeatures:
    def test_unconverged_scad_fit_warns(self, small_panel, monkeypatch):
        frame, _ = small_panel
        fit = pipeline.regsel.scad_fit

        def one_sweep(x, y, lam, a=3.7, tol=1e-7, max_iter=1000):
            return fit(x, y, lam, a, tol, 1)

        monkeypatch.setattr(pipeline.regsel, "scad_fit", one_sweep)
        with pytest.warns(RuntimeWarning, match=r"lambda=0\.05 did not converge in 1 sweeps"):
            pipeline.select_panel_features(frame, scad_lambda=0.05)
