"""Command-line front end.

Subcommands mirror the pipeline stages: ``rank``, ``cluster``, ``optimize``,
``evaluate``, ``pipeline``, ``experiment``, ``baseline``.  Each one loads
the data, merges its options and makes one call into ``pipeline``, which
alone knows the stage seed offsets and how sizes are clamped.  Options may
also be supplied through a JSON config file; explicit flags win over the
file, and the file wins over built-in defaults.

Exit codes: 0 success, 1 usage or bad option values, 2 unreadable or
malformed data, 3 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys

import numpy as np

from .classifier import mean_metrics
from .data import DataError, load_csv
# read by perfbench/tracing.py, which wraps these names in this module
from .feature_space import build_feature_space, cluster_features  # noqa: F401
from .ga import write_convergence_csv
from .pipeline import (
    PipelineConfig,
    baseline_report,
    build_evaluator,
    build_stages,
    evaluate,
    experiment_report,
    pipeline_report,
    random_baseline,
    report_text,
    run_experiment,
    run_pipeline,
    search,
    write_json,
)
from .rankers import METHODS, keep_count, order_by_score, score_features

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# The config-file keys, each with the type of its flag.
_CONFIG_FIELDS = {
    f.name: {"int": int, "float": float, "str": str}[f.type]
    for f in dataclasses.fields(PipelineConfig)
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValueError: ``main`` prints one line, exit 1."""

    def error(self, message):
        raise ValueError(message)


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def _merge_config(args) -> PipelineConfig:
    """Flags beat config-file entries beat defaults; flags default to None
    so an unset flag never shadows the file."""
    from_file = _load_config_file(args.config) if args.config else {}
    merged = {}
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
        elif name in from_file:
            merged[name] = from_file[name]
    return PipelineConfig(**merged)


def _check_output_dirs(args) -> None:
    """Fail before any work if an output file's directory is missing, or
    the output path is itself a directory, with the error ``open`` would
    raise once the work is done."""
    for path in (args.output, getattr(args, "convergence", None)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if path and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _emit(report: dict, args) -> None:
    if args.output:
        write_json(report, args.output)
    else:
        sys.stdout.write(report_text(report))


# Every flag's help text, a format string filled with the subcommand's unit
# of --n-runs.  A flag named after a config field takes that field's type;
# the other flags' types, defaults and choices are in _OPTIONS.
_HELP = {
    "label-column": "label column name (default: last column)",
    "config": "JSON file of option defaults",
    "output": "write the JSON report here instead of stdout",
    "seed": "master seed (default 0)",
    "keep-fraction": "fraction of features to retain",
    "method": "scoring method",
    "q": "cluster count / candidate pool size",
    "n-restarts": "clustering restarts",
    "n-var": "selected subset size",
    "n-pop": "population size",
    "stagnation-limit": "stagnant iterations before stopping",
    "max-iterations": "hard iteration cap",
    "convergence": "write the per-iteration log CSV here",
    "n-splits": "repeated holdout count",
    "test-fraction": "holdout fraction",
    "features": "comma-separated feature indices (default: all)",
    "n-runs": "number of {} (default 3)",
}
_OPTIONS = {"method": {"choices": METHODS}, "n-runs": {"type": int, "default": 3}}
_RUNS_UNIT = {"experiment": "repeats", "baseline": "draws"}
_SCREEN = ("keep-fraction", "method", "q", "n-restarts")
_EVAL = ("n-splits", "test-fraction")
_FULL = (*_SCREEN, "n-var", "n-pop", "stagnation-limit", "max-iterations", "convergence", *_EVAL)
# name: (help, flags after the common ones); the handler is ``_cmd_<name>``
_COMMANDS = {
    "rank": ("score features and list the retained ones", ("keep-fraction", "method")),
    "cluster": ("group retained features and sample a pool", _SCREEN),
    "optimize": ("search the pool for the best subset", _FULL),
    "evaluate": ("score a feature subset on repeated splits", (*_EVAL, "features")),
    "pipeline": ("full run with before/after comparison", _FULL),
    "experiment": ("repeat the pipeline over shifted seeds", (*_FULL, "n-runs")),
    "baseline": ("random subsets from the same pool", (*_SCREEN, "n-var", *_EVAL, "n-runs")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dmc-gawar", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("data", help="CSV file: header row, numeric features, label column")
        for flag in ("label-column", "config", "output", "seed", *flags):
            option = {"type": _CONFIG_FIELDS.get(flag.replace("-", "_")), **_OPTIONS.get(flag, {})}
            sub.add_argument("--" + flag, help=_HELP[flag].format(_RUNS_UNIT.get(name)), **option)
        sub.set_defaults(handler=globals()["_cmd_" + name])
    return parser


def _inputs(args):
    """The data, then the merged config: a data error is reported first."""
    matrix, labels = load_csv(args.data, args.label_column)
    return matrix, labels, _merge_config(args)


def _cmd_rank(args) -> dict:
    matrix, labels, config = _inputs(args)
    scores = score_features(matrix, labels, config.method)
    order = order_by_score(scores)
    retained = order[: keep_count(matrix.m, config.keep_fraction)]
    return {
        "method": config.method,
        "keep_fraction": config.keep_fraction,
        "n_features": matrix.m,
        "n_retained": len(retained),
        "retained": [
            {"feature": int(j), "name": matrix.feature_names[j], "score": float(scores[j])}
            for j in retained
        ],
    }


def _cmd_cluster(args) -> dict:
    stages = build_stages(*_inputs(args))
    return {
        "n_retained": len(stages.retained),
        "q": int(stages.model.n_clusters),
        "inertia": stages.model.inertia,
        "n_iterations": stages.model.n_iterations,
        "assignments": {int(f): int(c) for f, c in zip(stages.retained, stages.model.assignments)},
        "space": [int(j) for j in stages.space],
    }


def _cmd_optimize(args) -> dict:
    matrix, labels, config = _inputs(args)
    stages = build_stages(matrix, labels, config)
    result = search(matrix, labels, config, stages, build_evaluator(matrix, labels, config))
    if args.convergence:
        write_convergence_csv(result.history, args.convergence)
    return {
        "space": [int(j) for j in stages.space],
        "selected": list(result.best_genes),
        "best_fitness": result.best_fitness,
        "nfe": result.nfe,
        "n_iterations": result.n_iterations,
        "search_space_size": result.search_space_size,
    }


def _parse_features(text: str, m: int) -> np.ndarray:
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse feature list {text!r}") from None
    if not indices:
        raise ValueError("feature list is empty")
    if min(indices) < 0 or max(indices) >= m:  # on Python ints: int64 overflows at 2**63
        raise ValueError(f"feature indices must lie in 0..{m - 1}")
    arr = np.array(indices, dtype=int)
    if len(np.unique(arr)) != len(arr):
        raise ValueError("feature indices must be distinct")
    return arr


def _cmd_evaluate(args) -> dict:
    matrix, labels, config = _inputs(args)
    features = (
        _parse_features(args.features, matrix.m)
        if args.features is not None
        else np.arange(matrix.m)
    )
    mean_overall, per_split = evaluate(matrix, labels, config, features)
    return {
        "features": [int(j) for j in features],
        "n_splits": config.n_splits,
        "test_fraction": config.test_fraction,
        "mean_overall": mean_overall,
        "mean": mean_metrics(per_split),
        "per_split": [m.as_dict() for m in per_split],
    }


def _cmd_pipeline(args) -> dict:
    result = run_pipeline(*_inputs(args))
    if args.convergence:
        write_convergence_csv(result.ga.history, args.convergence)
    return pipeline_report(result)


def _cmd_experiment(args) -> dict:
    result = run_experiment(*_inputs(args), n_runs=args.n_runs)
    if args.convergence:
        write_convergence_csv(result.runs[0].ga.history, args.convergence)
    return experiment_report(result)


def _cmd_baseline(args) -> dict:
    return baseline_report(random_baseline(*_inputs(args), n_runs=args.n_runs))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output_dirs(args)
        report = args.handler(args)
        _emit(report, args)
    except (DataError, OSError) as exc:
        print(f"dmc-gawar: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"dmc-gawar: invalid option: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything else is a fault: one line, no traceback
        print(f"dmc-gawar: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
