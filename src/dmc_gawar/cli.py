"""Command-line front end.

Subcommands mirror the pipeline stages: ``rank``, ``cluster``, ``optimize``,
``evaluate``, ``pipeline``, ``experiment``, ``baseline``.  Options may also
be supplied through a JSON config file; explicit flags win over the file,
and the file wins over built-in defaults.

Exit codes: 0 success, 1 usage or bad option values, 2 unreadable or
malformed data, 3 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .classifier import evaluate_subset, mean_metrics
from .data import DataError, load_csv
from .feature_space import build_feature_space, cluster_features
from .ga import SubsetOptimizer, write_convergence_csv
from .pipeline import (
    SEED_EVAL,
    SEED_GA,
    SEED_KMEANS,
    SEED_SPACE,
    PipelineConfig,
    baseline_report,
    effective_sizes,
    experiment_report,
    pipeline_report,
    random_baseline,
    require_search_features,
    run_experiment,
    run_pipeline,
    write_json,
)
from .rankers import keep_count, order_by_score, score_features

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def _emit(report: dict, args) -> None:
    if args.output:
        write_json(report, args.output)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", help="CSV file: header row, numeric features, label column")
    parser.add_argument("--label-column", help="label column name (default: last column)")
    parser.add_argument("--config", help="JSON file of option defaults")
    parser.add_argument("--output", help="write the JSON report here instead of stdout")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")


def _add_ranking_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--keep-fraction", type=float, help="fraction of features to retain")
    parser.add_argument("--method", choices=("dmc", "mc"), help="scoring method")


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, help="cluster count / candidate pool size")
    parser.add_argument("--n-restarts", type=int, help="clustering restarts")
    parser.add_argument("--n-var", type=int, help="selected subset size")
    parser.add_argument("--n-pop", type=int, help="population size")
    parser.add_argument("--stagnation-limit", type=int, help="stagnant iterations before stopping")
    parser.add_argument("--max-iterations", type=int, help="hard iteration cap")
    parser.add_argument("--convergence", help="write the per-iteration log CSV here")


def _add_eval_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-splits", type=int, help="repeated holdout count")
    parser.add_argument("--test-fraction", type=float, help="holdout fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dmc-gawar", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subparsers.add_parser("rank", help="score features and list the retained ones")
    _add_common(sub)
    _add_ranking_options(sub)
    sub.set_defaults(handler=_cmd_rank)

    sub = subparsers.add_parser("cluster", help="group retained features and sample a pool")
    _add_common(sub)
    _add_ranking_options(sub)
    sub.add_argument("--q", type=int, help="cluster count / candidate pool size")
    sub.add_argument("--n-restarts", type=int, help="clustering restarts")
    sub.set_defaults(handler=_cmd_cluster)

    sub = subparsers.add_parser("optimize", help="search the pool for the best subset")
    _add_common(sub)
    _add_ranking_options(sub)
    _add_search_options(sub)
    _add_eval_options(sub)
    sub.set_defaults(handler=_cmd_optimize)

    sub = subparsers.add_parser("evaluate", help="score a feature subset on repeated splits")
    _add_common(sub)
    _add_eval_options(sub)
    sub.add_argument("--features", help="comma-separated feature indices (default: all)")
    sub.set_defaults(handler=_cmd_evaluate)

    sub = subparsers.add_parser("pipeline", help="full run with before/after comparison")
    _add_common(sub)
    _add_ranking_options(sub)
    _add_search_options(sub)
    _add_eval_options(sub)
    sub.set_defaults(handler=_cmd_pipeline)

    sub = subparsers.add_parser("experiment", help="repeat the pipeline over shifted seeds")
    _add_common(sub)
    _add_ranking_options(sub)
    _add_search_options(sub)
    _add_eval_options(sub)
    sub.add_argument("--n-runs", type=int, default=3, help="number of repeats (default 3)")
    sub.set_defaults(handler=_cmd_experiment)

    sub = subparsers.add_parser("baseline", help="random subsets from the same pool")
    _add_common(sub)
    _add_ranking_options(sub)
    sub.add_argument("--q", type=int, help="cluster count / candidate pool size")
    sub.add_argument("--n-restarts", type=int, help="clustering restarts")
    sub.add_argument("--n-var", type=int, help="selected subset size")
    _add_eval_options(sub)
    sub.add_argument("--n-runs", type=int, default=3, help="number of draws (default 3)")
    sub.set_defaults(handler=_cmd_baseline)

    return parser


def _cmd_rank(args) -> dict:
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
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
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
    m_keep, q_eff, _ = effective_sizes(matrix.m, config)
    order = order_by_score(score_features(matrix, labels, config.method))
    retained = order[:m_keep]
    model = cluster_features(
        matrix, retained, q_eff, config.seed + SEED_KMEANS, n_restarts=config.n_restarts
    )
    space = build_feature_space(retained, model, config.seed + SEED_SPACE)
    return {
        "n_retained": int(m_keep),
        "q": int(model.n_clusters),
        "inertia": model.inertia,
        "n_iterations": model.n_iterations,
        "assignments": {int(f): int(c) for f, c in zip(retained, model.assignments)},
        "space": [int(j) for j in space],
    }


def _cmd_optimize(args) -> dict:
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
    require_search_features(matrix.m)
    m_keep, q_eff, n_var_eff = effective_sizes(matrix.m, config)
    order = order_by_score(score_features(matrix, labels, config.method))
    retained = order[:m_keep]
    model = cluster_features(
        matrix, retained, q_eff, config.seed + SEED_KMEANS, n_restarts=config.n_restarts
    )
    space = build_feature_space(retained, model, config.seed + SEED_SPACE)
    eval_seed = config.seed + SEED_EVAL

    def fitness(genes):
        mean_overall, _ = evaluate_subset(
            matrix, labels, np.array(genes, dtype=int),
            n_splits=config.n_splits, test_fraction=config.test_fraction, base_seed=eval_seed,
        )
        return mean_overall

    result = SubsetOptimizer(
        space, n_var_eff, fitness,
        seed=config.seed + SEED_GA,
        n_pop=config.n_pop,
        stagnation_limit=config.stagnation_limit,
        max_iterations=config.max_iterations,
    ).run()
    if args.convergence:
        write_convergence_csv(result.history, args.convergence)
    return {
        "space": [int(j) for j in space],
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
    arr = np.array(indices, dtype=int)
    if arr.min() < 0 or arr.max() >= m:
        raise ValueError(f"feature indices must lie in 0..{m - 1}")
    if len(np.unique(arr)) != len(arr):
        raise ValueError("feature indices must be distinct")
    return arr


def _cmd_evaluate(args) -> dict:
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
    features = (
        _parse_features(args.features, matrix.m)
        if args.features is not None
        else np.arange(matrix.m)
    )
    mean_overall, per_split = evaluate_subset(
        matrix, labels, features,
        n_splits=config.n_splits, test_fraction=config.test_fraction,
        base_seed=config.seed + SEED_EVAL,
    )
    return {
        "features": [int(j) for j in features],
        "n_splits": config.n_splits,
        "test_fraction": config.test_fraction,
        "mean_overall": mean_overall,
        "mean": mean_metrics(per_split),
        "per_split": [m.as_dict() for m in per_split],
    }


def _cmd_pipeline(args) -> dict:
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
    result = run_pipeline(matrix, labels, config)
    if args.convergence:
        write_convergence_csv(result.ga.history, args.convergence)
    return pipeline_report(result)


def _cmd_experiment(args) -> dict:
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
    result = run_experiment(matrix, labels, config, n_runs=args.n_runs)
    if args.convergence:
        write_convergence_csv(result.runs[0].ga.history, args.convergence)
    return experiment_report(result)


def _cmd_baseline(args) -> dict:
    matrix, labels = load_csv(args.data, args.label_column)
    config = _merge_config(args)
    result = random_baseline(matrix, labels, config, n_runs=args.n_runs)
    return baseline_report(result)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
        _emit(report, args)
    except (DataError, FileNotFoundError, OSError) as exc:
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
