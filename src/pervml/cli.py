"""Command-line interface.

Subcommands: stats, sensitivity, tune, train, evaluate, importance,
reproduce. Exit codes: 0 success, 1 usage error, 2 data/model error,
3 reproduce --strict with a failed acceptance band.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from . import __version__
from .analysis import importance as compute_importance
from .analysis import sensitivity_table
from .data import (
    ALL_COLUMNS,
    EMPTY_TEST_SIDE,
    TARGET_COLUMNS,
    DatasetError,
    describe,
    load_bundled,
    load_csv,
)
from .metrics import EvalReport
from .modelio import ModelIOError
from .pipeline import (
    IMPORTANCE_FIELDS,
    REPRO_SEED,
    importance_rows,
    published_params,
    reproduce,
    resolve_split,
    run_model,
    slices,
    write_cv_results_csv,
    write_importance_csv,
    write_metrics_csv,
    write_predictions_csv,
    write_repro_csv,
    write_sensitivity_csv,
)
from .tuning import (
    FAMILIES,
    default_grid,
    grid_search,
    make_params,
    read_grid_file,
    read_params_file,
    refit_best,
)

USAGE_EXIT = 1
DATA_EXIT = 2
STRICT_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_data_arg(sub):
    sub.add_argument("data", nargs="?", default=None, help="mixture CSV (default: bundled table)")
    sub.add_argument("--data", dest="data_flag", default=None, help=argparse.SUPPRESS)


def _add_common(sub, with_model=True):
    _add_data_arg(sub)
    sub.add_argument("--target", choices=TARGET_COLUMNS, default="compressive")
    if with_model:
        sub.add_argument("--model", choices=tuple(FAMILIES), default="gbrt")
    sub.add_argument(
        "--split",
        default="paper",
        help="paper | random:<seed> | ids:<file> (default: paper)",
    )
    sub.add_argument("--scaler", choices=("full", "train"), default="full")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--out", default="out", help="output directory")


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The `pervml` argument parser, built once per process: parsing leaves
    it unchanged, and usage errors and --version write to the sys.stderr and
    sys.stdout current at the call."""
    parser = _Parser(prog="pervml", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pervml {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("stats", help="per-column summary statistics")
    _add_data_arg(sub)

    sub = subs.add_parser("sensitivity", help="input/output correlation table")
    _add_data_arg(sub)
    sub.add_argument("--out", default="out")

    sub = subs.add_parser("tune", help="grid search with 5-fold cross validation")
    _add_common(sub)
    sub.add_argument("--grid", default=None, help="grid config file (default: shipped grid)")
    sub.add_argument("--folds", type=int, default=5)

    sub = subs.add_parser("train", help="fit one model and save it")
    _add_common(sub)
    sub.add_argument("--params", default=None, help="key=value parameter file")

    sub = subs.add_parser("evaluate", help="evaluate a model on both split phases")
    _add_common(sub)
    sub.add_argument("--params", default=None, help="key=value parameter file")
    sub.add_argument("--model-file", default=None, help="saved model to load instead of fitting")

    sub = subs.add_parser("importance", help="gain/weight/cover feature ranking")
    _add_common(sub, with_model=False)
    sub.add_argument("--params", default=None, help="key=value parameter file")
    sub.add_argument("--model-file", default=None, help="saved gbrt model to rank")

    sub = subs.add_parser("reproduce", help="rerun the full 8-model experiment")
    _add_data_arg(sub)
    sub.add_argument("--scaler", choices=("full", "train"), default="full")
    sub.add_argument("--seed", type=int, default=REPRO_SEED)
    sub.add_argument("--out", default="out")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when any acceptance band fails",
    )
    return parser


def _load(args):
    if args.data is not None and args.data_flag is not None:
        raise DatasetError("pass the data file either positionally or via --data, not both")
    path = args.data if args.data is not None else args.data_flag
    return load_bundled() if path is None else load_csv(path)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _test_ids(ds, args) -> frozenset:
    """The test ids --split names. An empty test side is reported here as
    one line; `run` silences the library's warning about it."""
    test_ids = resolve_split(ds, args.split)
    if not test_ids:
        print(f"pervml: warning: {EMPTY_TEST_SIDE}", file=sys.stderr)
    return test_ids


def _run(args, family: str, model=None):
    """Fit (unless `model` is given) and evaluate one model as `args` say:
    the --params file, or the published setting for --target."""
    ds = _load(args)
    test_ids = _test_ids(ds, args)
    if model is not None:
        params = None
    elif args.params:
        params = make_params(family, read_params_file(args.params, family), seed=args.seed)
    else:
        params = published_params(family, args.target, args.seed)
    return run_model(ds, args.target, family, params, test_ids, args.scaler, model=model)


def _print_report(label: str, report: EvalReport | None):
    if report is None:
        print(f"{label}: (empty)")
        return
    r2 = "undefined" if report.r2 is None else f"{report.r2:.4f}"
    print(
        f"{label}: R2 {r2}  RMSE {report.rmse:.4f}  "
        f"MAE {report.mae:.4f}  MAPE {report.mape:.4f}  (n={report.n})"
    )


def cmd_stats(args) -> int:
    ds = _load(args)
    stats = describe(ds)
    header = ("column", "count", "mean", "std", "min", "25%", "50%", "75%", "max")
    print(("{:<16}" + "{:>12}" * 8).format(*header))
    for name in ALL_COLUMNS:
        s = stats[name]
        cells = (s.mean, s.std, s.minimum, s.q25, s.q50, s.q75, s.maximum)
        print(
            "{:<16}{:>12d}".format(name, s.count)
            + "".join(f"{v:>12.3f}" for v in cells)
            + ("   (constant)" if s.constant else "")
        )
    return 0


def cmd_sensitivity(args) -> int:
    ds = _load(args)
    table = sensitivity_table(ds)
    out = _ensure_out(args.out)
    path = os.path.join(out, "sensitivity.csv")
    write_sensitivity_csv(path, table)
    print(("{:<16}" + "{:>14}" * 4).format("input", *table.outputs))
    for i, name in enumerate(table.inputs):
        print("{:<16}".format(name) + "".join(f"{v:>14.4f}" for v in table.values[i]))
    print(f"wrote {path}")
    return 0


def cmd_tune(args) -> int:
    ds = _load(args)
    _, train, _ = slices(ds, args.target, _test_ids(ds, args), args.scaler)
    if args.grid:
        grids = read_grid_file(args.grid)
        if args.model not in grids:
            raise DatasetError(f"{args.grid}: no [{args.model}] section")
        grid = grids[args.model]
    else:
        grid = default_grid(args.model)
    print(
        f"searching {grid.n_combinations} combination(s) of {len(grid.axes)} axis(es), "
        f"{args.folds}-fold CV, fold seed {args.seed}"
    )
    best, results = grid_search(train, grid, k=args.folds, seed=args.seed)
    out = _ensure_out(args.out)
    cv_path = os.path.join(out, f"cv_results_{args.model}_{args.target}.csv")
    write_cv_results_csv(cv_path, list(grid.axes), results)
    best_path = os.path.join(out, f"best_params_{args.model}_{args.target}.txt")
    with open(best_path, "w", encoding="utf-8") as fh:
        fh.write(f"# best of {grid.n_combinations} combinations; ")
        fh.write(f"CV mean MSE {min(results, key=lambda r: r.rank).mean_mse!r}; ")
        fh.write(f"fold seed {args.seed}\n")
        for key, value in best.items():
            fh.write(f"{key} = {value}\n")
    model = refit_best(train, args.model, best, seed=args.seed)
    model_path = os.path.join(out, f"model_{args.model}_{args.target}.json")
    FAMILIES[args.model].module.save_model(model, model_path)
    print(f"best combination: {best}")
    print(f"wrote {cv_path}, {best_path}, {model_path}")
    return 0


def cmd_train(args) -> int:
    run = _run(args, args.model)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"model_{args.model}_{args.target}.json")
    FAMILIES[args.model].module.save_model(run.model, path)
    _print_report("train", run.train_report)
    print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    model = None
    if args.model_file:
        model = FAMILIES[args.model].module.load_model(args.model_file)
    run = _run(args, args.model, model)
    out = _ensure_out(args.out)
    metrics_path = os.path.join(out, f"metrics_{args.model}_{args.target}.csv")
    write_metrics_csv(metrics_path, {"train": run.train_report, "test": run.test_report})
    preds_path = os.path.join(out, f"predictions_{args.model}_{args.target}.csv")
    write_predictions_csv(preds_path, run.rows)
    _print_report("train", run.train_report)
    _print_report("test", run.test_report)
    print(f"wrote {metrics_path}, {preds_path}")
    return 0


def cmd_importance(args) -> int:
    if args.model_file:
        model = FAMILIES["gbrt"].module.load_model(args.model_file)
    else:
        model = _run(args, "gbrt").model
    report = compute_importance(model)
    out = _ensure_out(args.out)
    path = os.path.join(out, f"importance_{args.target}.csv")
    write_importance_csv(path, report)
    if report.degenerate:
        print("ensemble has no splits; ranking is degenerate")
    specs = (".5f", ".0f", ".3f", "d", "d", "d", ".2f")  # one per IMPORTANCE_FIELDS
    print(("{:<16}" + "{:>12}" * len(specs)).format("feature", *IMPORTANCE_FIELDS))
    for name, *values in importance_rows(report):
        print(f"{name:<16}" + "".join(format(v, f">12{spec}") for v, spec in zip(values, specs)))
    print(f"wrote {path}")
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(_load(args), args.scaler, args.seed)
    out = _ensure_out(args.out)
    report_path = os.path.join(out, "repro_report.csv")
    write_repro_csv(report_path, report)
    for (family, target), run in report.runs.items():
        write_predictions_csv(
            os.path.join(out, f"predictions_{family}_{target}.csv"), run.rows
        )
    for target, imp in report.importances.items():
        write_importance_csv(os.path.join(out, f"importance_{target}.csv"), imp)

    print(f"seed {args.seed}, scaler mode {args.scaler}")
    for (family, target), run in report.runs.items():
        ref_rmse = report.reference[family][target]["test"]["rmse"]
        print(
            f"{family}_{target}: test RMSE {run.test_report.rmse:.4f} "
            f"(reference {ref_rmse:.4f})"
        )
    print(f"gbrt beats svr on test RMSE for {report.rmse_wins}/4 targets")
    print(
        f"cement: best mean importance rank in {report.cement_mean_rank_wins}/4 models, "
        f"gain rank 1 in {report.cement_gain_rank1_wins}/4"
    )
    if report.band_failures:
        for failure in report.band_failures:
            print(f"BAND FAILURE: {failure}")
    else:
        print("all acceptance bands pass")
    print(f"wrote {report_path} and per-model CSVs to {out}/")
    if args.strict and report.band_failures:
        return STRICT_EXIT
    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "sensitivity": cmd_sensitivity,
    "tune": cmd_tune,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "importance": cmd_importance,
    "reproduce": cmd_reproduce,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", EMPTY_TEST_SIDE)
            return _COMMANDS[args.command](args)
    except (DatasetError, ModelIOError, OSError, ValueError, RuntimeError) as exc:
        print(f"pervml {args.command}: error: {exc}", file=sys.stderr)
        return DATA_EXIT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
