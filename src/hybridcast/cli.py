"""Command-line surface: select | train | evaluate | compare | gradcheck | synth.

One experiment-config JSON drives everything. A flag overrides a config
key only where a benchmark, a tool or a README recipe runs it; every other
setting is set through the config alone.
Exit codes are a stable contract: 0 success, 1 usage/config error,
2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import gradcheck as gradcheck_mod
from . import pipeline, synth
from .config import ExperimentConfig, load_experiment_config, load_panel
from .errors import ConfigError, DataError, HybridcastError, NumericalError
from .jsonio import atomic_write_text, from_json, read_json, write_json
from .regsel import SelectionReport

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no abbreviations: one spelling per flag, so `--seed` never passes as `--seeds`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); keep usage errors on 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hybridcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON (defaults: built-in synthetic run)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    p = sub.add_parser("select", help="run ridge and SCAD feature selection")
    common(p)
    p.add_argument("--lambda", dest="scad_lambda", type=float, help="fixed SCAD lambda (skips tuning)")

    p = sub.add_parser("train", help="train one model on the selected features")
    common(p)
    p.add_argument("--selection", help="selection report JSON (default: <out>/rr_selection.json)")
    p.add_argument("--all-features", action="store_true", help="ignore selection files, use every feature")
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--dilation", type=int, help="override dilation rate")
    p.add_argument("--variant", help="override architecture variant")

    p = sub.add_parser("evaluate", help="re-score a trained checkpoint on the config's panel")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.json)")

    p = sub.add_parser("compare", help="train the five labeled variants and tabulate metrics")
    common(p)
    p.add_argument("--seeds", help="comma-separated comparison seeds (e.g. 1,2,3)")
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--rr-selection", help="ridge selection JSON (default: <out>/rr_selection.json)")
    p.add_argument("--scad-selection", help="SCAD selection JSON (default: <out>/scad_selection.json)")

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient block")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="emit the synthetic panel CSV plus its ground truth")
    common(p)

    return parser


def _ensure_out(out: str) -> str:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def _load_selection(path: str) -> SelectionReport:
    raw = read_json(path, "selection file", DataError)
    return from_json(SelectionReport, raw, os.path.splitext(os.path.basename(path))[0], DataError)


def _override(obj, **flags):
    """A copy of a config dataclass with every flag that was given; __post_init__ re-validates."""
    return dataclasses.replace(obj, **{k: v for k, v in flags.items() if v is not None})


def _run_selection(config: ExperimentConfig, frame, rr_path: str, scad_path: str):
    """Ridge and SCAD selection; writes each JSON report and its CSV twin."""
    rr, scad = pipeline.select_panel_features(frame, **dataclasses.asdict(config.selection))
    for report, path in ((rr, rr_path), (scad, scad_path)):
        atomic_write_text(os.path.splitext(path)[0] + ".csv", report.to_csv_text())
        write_json(path, report)  # last, so it wins if `path` itself ends in .csv
    print(f"rr: selected {rr.n_selected} of {len(rr.rows)} features (lambda={rr.penalty.lam:g})")
    print(f"scad: selected {scad.n_selected} of {len(scad.rows)} features (lambda={scad.penalty.lam:g})")
    if scad.n_selected == 0:
        print("warning: SCAD selection is empty; lambda is likely too large", file=sys.stderr)
    return rr, scad


def cmd_select(args) -> int:
    config = load_experiment_config(args.config)
    out = _ensure_out(args.out)
    config.selection = _override(config.selection, scad_lambda=args.scad_lambda)
    frame, _ = load_panel(config.data)
    _run_selection(
        config, frame, os.path.join(out, "rr_selection.json"), os.path.join(out, "scad_selection.json")
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_experiment_config(args.config)
    out = _ensure_out(args.out)
    if args.variant is not None and args.dilation is None:
        config.model.dilation = None  # re-resolved for the new variant by __post_init__
    config.model = _override(config.model, epochs=args.epochs, dilation=args.dilation, variant=args.variant)

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

    write_json(os.path.join(out, "checkpoint.json"), pipeline.make_checkpoint(result, frame, config.train_fraction))
    write_json(
        os.path.join(out, "train_metrics.json"),
        dataclasses.asdict(result.metrics) | {
            "n_features": len(result.scaler.names) - 1,
            "epochs": config.model.epochs,
            "history": list(result.history),
            "final_train_loss": result.history[-1] if result.history else None,
        },
    )
    atomic_write_text(
        os.path.join(out, "predictions.csv"), pipeline.predictions_csv_text(result.test, result.predictions)
    )
    m = result.metrics
    print(f"{m.label}: mse={m.mse:.6f} mae={m.mae:.6f} mape={m.mape:.6f} ({runtime:.1f}s)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_experiment_config(args.config)
    out = _ensure_out(args.out)
    raw = read_json(args.checkpoint or os.path.join(out, "checkpoint.json"), "checkpoint", DataError)
    frame, _ = load_panel(config.data)
    model, split = pipeline.load_checkpoint(raw, frame, config.train_fraction)
    row, preds = pipeline.score_forecasts(model, split, frame.target_name)
    _, _, test_b = split
    write_json(os.path.join(out, "eval_metrics.json"), row)
    atomic_write_text(os.path.join(out, "eval_predictions.csv"), pipeline.predictions_csv_text(test_b, preds))
    print(f"{row.label}: mse={row.mse:.6f} mae={row.mae:.6f} mape={row.mape:.6f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = load_experiment_config(args.config)
    out = _ensure_out(args.out)
    if config.model.variant != "dilated_cnn_lstm":  # each cell sets its variant; the dilated cells take this config
        config.model = dataclasses.replace(config.model, variant="dilated_cnn_lstm", dilation=None)
    config.model = _override(config.model, epochs=args.epochs)
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
        config = _override(config, seeds=seeds)

    frame, _ = load_panel(config.data)

    rr_path = args.rr_selection or os.path.join(out, "rr_selection.json")
    scad_path = args.scad_selection or os.path.join(out, "scad_selection.json")
    if args.rr_selection or args.scad_selection or os.path.exists(rr_path) or os.path.exists(scad_path):
        rr, scad = _load_selection(rr_path), _load_selection(scad_path)
    else:  # selection writes only the default files in --out, and only when neither exists
        print("selection files missing; running selection first")
        rr, scad = _run_selection(config, frame, rr_path, scad_path)

    t0 = time.perf_counter()
    report = pipeline.compare_variants(
        frame, rr, scad, config.model, config.seeds, config.train_fraction
    )
    write_json(os.path.join(out, "comparison.json"), report)
    atomic_write_text(os.path.join(out, "comparison.txt"), report.to_text_table())
    atomic_write_text(os.path.join(out, "comparison_per_seed.csv"), report.per_seed_csv_text())
    print(report.to_text_table(), end="")
    print(f"(total {time.perf_counter() - t0:.1f}s over {len(report.seeds)} seed(s))")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    checks = gradcheck_mod.run_gradient_checks(seed=args.seed)
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
    config = load_experiment_config(args.config)
    out = _ensure_out(args.out)
    frame, truth = synth.generate_synthetic_panel(config.data.synthetic)
    pipeline.write_frame_csv(frame, os.path.join(out, "panel.csv"))
    write_json(os.path.join(out, "ground_truth.json"), truth)
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
    except HybridcastError as exc:  # ConfigError, DataError and NumericalError are disjoint
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DataError):
            return EXIT_DATA
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
