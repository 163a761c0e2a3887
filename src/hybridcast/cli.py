"""Command-line surface: select | train | evaluate | compare | gradcheck | synth.

One experiment-config JSON drives everything; flags are overrides only.
Exit codes are a stable contract: 0 success, 1 usage/config error,
2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import gradcheck as gradcheck_mod
from . import neural, pipeline, synth
from .config import ExperimentConfig, SelectionConfig, load_experiment_config, load_panel
from .errors import (
    ConfigError,
    DataError,
    HybridcastError,
    MissingInputError,
    NumericalError,
)
from .pipeline import atomic_write_text, write_json
from .regsel import SelectionReport

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors on 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hybridcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON (defaults: built-in synthetic run)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, help="override the seed")

    p = sub.add_parser("select", help="run ridge and SCAD feature selection")
    common(p)
    p.add_argument("--lambda", dest="scad_lambda", type=float, help="fixed SCAD lambda (skips tuning)")
    p.add_argument("--ridge-lambda", type=float, help="fixed ridge lambda (default: n rows)")
    p.add_argument("--a", type=float, help="SCAD shape parameter (default 3.7)")
    p.add_argument("--alpha", type=float, help="significance level for the ridge report")

    p = sub.add_parser("train", help="train one model on the selected features")
    common(p)
    p.add_argument("--selection", help="selection report JSON (default: <out>/rr_selection.json)")
    p.add_argument("--all-features", action="store_true", help="ignore selection files, use every feature")
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--dilation", type=int, help="override dilation rate")
    p.add_argument("--variant", help="override architecture variant")
    p.add_argument("--lr", type=float, help="override learning rate")

    p = sub.add_parser("evaluate", help="re-score a trained checkpoint on the config's panel")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.json)")

    p = sub.add_parser("compare", help="train the five labeled variants and tabulate metrics")
    common(p)
    p.add_argument("--seeds", help="comma-separated comparison seeds (e.g. 1,2,3)")
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--dilation", type=int, help="override dilation rate")
    p.add_argument("--rr-selection", help="ridge selection JSON (default: <out>/rr_selection.json)")
    p.add_argument("--scad-selection", help="SCAD selection JSON (default: <out>/scad_selection.json)")

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-block", help=argparse.SUPPRESS)  # test hook

    p = sub.add_parser("synth", help="emit the synthetic panel CSV plus its ground truth")
    common(p)
    p.add_argument("--n-days", type=int, help="override panel length")

    return parser


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(args) -> ExperimentConfig:
    config = load_experiment_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        config.model.seed = args.seed
        config.data.synthetic.seed = args.seed
    return config


def _load_selection(path: str) -> SelectionReport:
    if not os.path.exists(path):
        raise MissingInputError(
            f"selection file not found: {path} (run `hybridcast select` first)"
        )
    with open(path) as fh:
        return SelectionReport.from_json_dict(json.load(fh))


_RESET = object()  # marks "put the field back to its resolved default"


def _override_model(config: ExperimentConfig, **overrides) -> None:
    """Apply flag overrides through the validating constructor."""
    d = config.model.to_json_dict()
    for key, value in overrides.items():
        if value is _RESET:
            d[key] = None
        elif value is not None:
            d[key] = value
    config.model = neural.ModelConfig.from_json_dict(d)


def _override_selection(config: ExperimentConfig, **overrides) -> None:
    d = {
        "alpha": config.selection.alpha,
        "lag": config.selection.lag,
        "ridge_lambda": config.selection.ridge_lambda,
        "scad_lambda": config.selection.scad_lambda,
        "scad_a": config.selection.scad_a,
        "grid_points": config.selection.grid_points,
    }
    for key, value in overrides.items():
        if value is not None:
            d[key] = value
    config.selection = SelectionConfig(**d)


def cmd_select(args) -> int:
    config = _load_config(args)
    out = _ensure_out(args.out)
    _override_selection(
        config,
        scad_lambda=args.scad_lambda,
        ridge_lambda=args.ridge_lambda,
        scad_a=args.a,
        alpha=args.alpha,
    )
    sel = config.selection

    frame, _ = load_panel(config.data)
    rr, scad = pipeline.select_panel_features(
        frame,
        lag=sel.lag,
        alpha=sel.alpha,
        ridge_lambda=sel.ridge_lambda,
        scad_lambda=sel.scad_lambda,
        scad_a=sel.scad_a,
        grid_points=sel.grid_points,
    )
    rr.write_json(os.path.join(out, "rr_selection.json"))
    rr.write_csv(os.path.join(out, "rr_selection.csv"))
    scad.write_json(os.path.join(out, "scad_selection.json"))
    scad.write_csv(os.path.join(out, "scad_selection.csv"))
    print(f"rr: selected {rr.n_selected} of {len(rr.rows)} features (lambda={rr.penalty.lam:g})")
    print(f"scad: selected {scad.n_selected} of {len(scad.rows)} features (lambda={scad.penalty.lam:g})")
    if scad.n_selected == 0:
        print("warning: SCAD selection is empty; lambda is likely too large", file=sys.stderr)
    return EXIT_OK


def _checkpoint_dict(result: pipeline.TrainResult, target_name: str) -> dict:
    d = neural.model_to_dict(result.model)
    d["scaler"] = result.scaler.to_json_dict()
    d["feature_names"] = list(result.feature_names)
    d["target_name"] = target_name
    return d


def _metrics_dict(row: pipeline.MetricsRow, extra: dict | None = None) -> dict:
    d = row.to_json_dict()
    if extra:
        d.update(extra)
    return d


def cmd_train(args) -> int:
    config = _load_config(args)
    out = _ensure_out(args.out)
    overrides = {"epochs": args.epochs, "learning_rate": args.lr, "dilation": args.dilation}
    if args.variant is not None:
        overrides["variant"] = args.variant
        if args.dilation is None:
            overrides["dilation"] = _RESET  # re-resolve the rate for the new variant
    _override_model(config, **overrides)

    if args.all_features:
        selection = None
    else:
        path = args.selection or os.path.join(out, "rr_selection.json")
        selection = _load_selection(path)

    frame, _ = load_panel(config.data)
    t0 = time.perf_counter()
    result = pipeline.train_model(
        frame, selection, config.model, train_fraction=config.train_fraction
    )
    runtime = time.perf_counter() - t0

    write_json(os.path.join(out, "checkpoint.json"), _checkpoint_dict(result, frame.target_name))
    write_json(
        os.path.join(out, "train_metrics.json"),
        _metrics_dict(result.metrics, {"n_features": len(result.feature_names) - 1,
                                       "epochs": config.model.epochs,
                                       "history": list(result.history),
                                       "final_train_loss": result.history[-1] if result.history else None}),
    )
    atomic_write_text(
        os.path.join(out, "predictions.csv"),
        pipeline.predictions_csv_text(result.dates, result.actuals, result.predictions),
    )
    m = result.metrics
    print(f"{m.label}: mse={m.mse:.6f} mae={m.mae:.6f} mape={m.mape:.6f} ({runtime:.1f}s)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    out = _ensure_out(args.out)
    ckpt_path = args.checkpoint or os.path.join(out, "checkpoint.json")
    if not os.path.exists(ckpt_path):
        raise MissingInputError(f"checkpoint not found: {ckpt_path}")
    with open(ckpt_path) as fh:
        ckpt = json.load(fh)
    model = neural.model_from_dict(ckpt)
    scaler = pipeline.StandardScaler.from_json_dict(ckpt["scaler"])
    feature_names = list(ckpt["feature_names"])

    frame, _ = load_panel(config.data)
    sub = frame.subframe(feature_names)
    sub_std = scaler.transform(sub)
    batch = pipeline.make_windows(sub_std, window=model.config.window, original=sub)
    batch.check_no_lookahead()
    _, test_b = pipeline.chrono_split(batch, config.train_fraction)

    preds = scaler.inverse_column(frame.target_name, model.predict(test_b.inputs))
    metrics = pipeline.evaluate(preds, test_b.targets_orig)
    row = pipeline.MetricsRow(
        label=model.config.variant, mse=metrics.mse, mae=metrics.mae,
        mape=metrics.mape, seed=model.config.seed,
    )
    write_json(os.path.join(out, "eval_metrics.json"), _metrics_dict(row))
    atomic_write_text(
        os.path.join(out, "eval_predictions.csv"),
        pipeline.predictions_csv_text(test_b.target_dates, test_b.targets_orig, preds),
    )
    print(f"{row.label}: mse={row.mse:.6f} mae={row.mae:.6f} mape={row.mape:.6f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config(args)
    out = _ensure_out(args.out)
    _override_model(config, epochs=args.epochs, dilation=args.dilation)
    if args.seeds is not None:
        try:
            config.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
        if not config.seeds:
            raise ConfigError("--seeds must name at least one seed")

    frame, _ = load_panel(config.data)

    rr_path = args.rr_selection or os.path.join(out, "rr_selection.json")
    scad_path = args.scad_selection or os.path.join(out, "scad_selection.json")
    if os.path.exists(rr_path) and os.path.exists(scad_path):
        rr, scad = _load_selection(rr_path), _load_selection(scad_path)
    else:
        print("selection files missing; running selection first")
        sel = config.selection
        rr, scad = pipeline.select_panel_features(
            frame, lag=sel.lag, alpha=sel.alpha, ridge_lambda=sel.ridge_lambda,
            scad_lambda=sel.scad_lambda, scad_a=sel.scad_a, grid_points=sel.grid_points,
        )
        rr.write_json(rr_path)
        scad.write_json(scad_path)

    report = pipeline.compare_variants(
        frame, rr, scad, config.model, config.seeds, config.train_fraction
    )
    write_json(os.path.join(out, "comparison.json"), report.to_json_dict())
    atomic_write_text(os.path.join(out, "comparison.txt"), report.to_text_table())

    import csv as _csv
    import io as _io

    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "seed", "mse", "mae", "mape"])
    for r in report.per_seed:
        writer.writerow([r.label, r.seed, repr(r.mse), repr(r.mae), repr(r.mape)])
    atomic_write_text(os.path.join(out, "comparison_per_seed.csv"), buf.getvalue())

    print(report.to_text_table(), end="")
    print(f"(total {report.runtime_seconds:.1f}s over {len(report.seeds)} seed(s))")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    checks = gradcheck_mod.run_gradient_checks(seed=args.seed, corrupt_block=args.corrupt_block)
    width = max(len(c.block) for c in checks) + 2
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"{c.block:<{width}}{c.max_rel_error:>12.3e}  {status}")
    failed = [c for c in checks if not c.passed]
    worst = max(c.max_rel_error for c in checks)
    print(f"worst relative error {worst:.3e} over {len(checks)} blocks ({time.perf_counter() - t0:.1f}s)")
    if failed:
        print("failing blocks: " + ", ".join(c.block for c in failed), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _load_config(args)
    out = _ensure_out(args.out)
    spec = config.data.synthetic
    if args.n_days is not None:
        d = spec.to_json_dict()
        d["n_days"] = args.n_days
        spec = synth.SyntheticSpec.from_json_dict(d)
    frame, truth = synth.generate_synthetic_panel(spec)
    pipeline.write_frame_csv(frame, os.path.join(out, "panel.csv"))
    synth.write_ground_truth(truth, os.path.join(out, "ground_truth.json"))
    print(
        f"panel.csv: {len(frame)} rows x {1 + len(frame.columns)} columns "
        f"(date + {len(frame.feature_names)} features + {frame.target_name!r})"
    )
    return EXIT_OK


COMMANDS = {
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HybridcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
