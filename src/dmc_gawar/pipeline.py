"""End-to-end orchestration: rank, cluster, pool, search, evaluate.

This module is the only owner of the stage seed offsets (``SEED_*``) and
of size clamping (``effective_sizes``); the CLI and library callers go
through ``build_stages``, ``build_evaluator``, ``search`` and
``evaluate``.  Every stage draws randomness from the run seed plus its
fixed offset, so a run is a pure function of (dataset, config).  Every
evaluation of a run goes through its one evaluator and so uses the same
split seeds, which makes the "after" overall accuracy equal the best
fitness the search reports.

The report dicts are built here, and ``report_text`` is the one place
that turns a report into bytes (sorted keys, two-space indent, one
trailing newline), for ``write_json`` and the CLI's stdout alike.  The
score keys come from ``classifier.METRIC_KEYS``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .classifier import ClassificationMetrics, Evaluator, evaluate_subset, mean_metrics, metric_stat
from .data import DataError, FeatureMatrix, LabelVector
from .feature_space import ClusterModel, build_feature_space, cluster_features
from .ga import GAResult, SubsetOptimizer
from .rankers import METHODS, keep_count, rank_all

SEED_KMEANS = 101
SEED_SPACE = 211
SEED_GA = 307
SEED_EVAL = 401
SEED_BASELINE = 503


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for one run; defaults follow the reference settings."""

    keep_fraction: float = 0.05
    method: str = "dmc"
    q: int = 100
    n_var: int = 10
    n_pop: int = 20
    stagnation_limit: int = 30
    max_iterations: int = 1000
    n_splits: int = 10
    test_fraction: float = 0.2
    n_restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        """The one gate for option values, from flags, config files or code."""
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type in ("int", int) and (
                not isinstance(value, numbers.Integral) or isinstance(value, bool)
            ):
                raise ValueError(f"{field.name} must be an integer, got {value!r}")
            if field.type in ("float", float) and (
                not isinstance(value, numbers.Real) or isinstance(value, bool)
            ):
                raise ValueError(f"{field.name} must be a number, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, got {self.method!r}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        least = {
            "q": 1, "n_var": 1, "n_pop": 2, "n_splits": 1, "n_restarts": 1,
            "stagnation_limit": 1, "max_iterations": 1, "seed": 0,
        }
        for name, bound in least.items():
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be at least {bound}")
        # A run's time grows in proportion to each of these, so each is
        # capped to keep a run to minutes: every fitness call fits n_splits
        # trees (a 62 x 2000 run takes about 0.6 s at 10), every restart is
        # a full k-means fit (about 0.08 s for 1000 points of 100 values),
        # the first generation draws and scores n_pop subsets, and a search
        # that keeps improving stops only after max_iterations generations.
        most = {"n_splits": 1000, "n_restarts": 100, "n_pop": 1000, "max_iterations": 100_000}
        for name, bound in most.items():
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be at most {bound}")
        # Each number is held as its field's Python type, so a numpy scalar
        # serialises and 1 and 1.0 give the same report.  Cast after the
        # range checks: a huge integer fraction is refused, not overflowed.
        for field in fields(self):
            cast = {"int": int, "float": float}.get(field.type)
            if cast is not None:
                object.__setattr__(self, field.name, cast(getattr(self, field.name)))


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    retained: tuple[int, ...]
    space: tuple[int, ...]
    selected: tuple[int, ...]
    before: dict[str, float]
    after: dict[str, float]
    ga: GAResult

    @property
    def improvement(self) -> float:
        return self.after["overall"] - self.before["overall"]


def effective_sizes(m: int, config: PipelineConfig) -> tuple[int, int, int]:
    """(retained count, pool size, subset size) after clamping.

    The retained count is raised, if needed, so the pool can exceed the
    subset size; the search requires at least one unused pool member.
    """
    m_keep = max(keep_count(m, config.keep_fraction), min(m, config.n_var + 1))
    q_eff = min(config.q, m_keep)
    n_var_eff = max(1, min(config.n_var, q_eff - 1))
    return m_keep, q_eff, n_var_eff


@dataclass(frozen=True)
class Stages:
    """The screening chain's output: ranked survivors, their clusters, the
    candidate pool drawn from them and the clamped subset size."""

    retained: np.ndarray
    model: ClusterModel
    space: np.ndarray
    n_var: int


def build_stages(matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig) -> Stages:
    """Rank, keep the clamped top share, cluster it and draw the pool."""
    m_keep, q_eff, n_var_eff = effective_sizes(matrix.m, config)
    order = rank_all(matrix, labels, method=config.method)
    retained = order[:m_keep]
    model = cluster_features(
        matrix, retained, q_eff, config.seed + SEED_KMEANS, n_restarts=config.n_restarts
    )
    space = build_feature_space(retained, model, config.seed + SEED_SPACE)
    return Stages(retained, model, space, n_var_eff)


def build_evaluator(matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig) -> Evaluator:
    """The run's one evaluator: its split plans and the column sorts its
    narrow subsets share."""
    return Evaluator(matrix, labels, config.n_splits, config.test_fraction, config.seed + SEED_EVAL)


def evaluate(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, features,
    evaluator: Evaluator | None = None,
) -> tuple[float, list[ClassificationMetrics]]:
    """The one evaluation protocol: fitness, before/after and baseline
    scores all use the same splits, so "after" equals the best fitness.
    ``evaluator`` (the run's, from ``build_evaluator``) only saves work."""
    return evaluate_subset(
        matrix, labels, features,
        n_splits=config.n_splits, test_fraction=config.test_fraction,
        base_seed=config.seed + SEED_EVAL, evaluator=evaluator,
    )


def search(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, stages: Stages, evaluator: Evaluator
) -> GAResult:
    """Search the pool for the subset of best mean holdout accuracy; every
    fitness call goes through the run's ``evaluator``, which scores a
    generation's new subsets as one batch before each is collected."""
    if matrix.m < 2:  # the pool must be larger than the subset
        raise DataError(f"the subset search needs at least 2 features, the data has {matrix.m}")
    return SubsetOptimizer(
        stages.space,
        stages.n_var,
        lambda batch: [fitness for fitness, _ in _scores(matrix, labels, config, batch, evaluator)],
        seed=config.seed + SEED_GA,
        n_pop=config.n_pop,
        stagnation_limit=config.stagnation_limit,
        max_iterations=config.max_iterations,
    ).run()


def _scores(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, batch, evaluator: Evaluator
) -> list[tuple[float, list[ClassificationMetrics]]]:
    """``evaluate`` of each subset of a batch, in order, after the
    evaluator has scored them all in one go."""
    evaluator.stage(batch)
    return [evaluate(matrix, labels, config, features, evaluator) for features in batch]


def run_pipeline(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig
) -> PipelineResult:
    """Rank, cluster, pool, search, then score before and after selection."""
    stages = build_stages(matrix, labels, config)
    evaluator = build_evaluator(matrix, labels, config)
    ga = search(matrix, labels, config, stages, evaluator)
    _, before_splits = evaluate(matrix, labels, config, np.arange(matrix.m), evaluator)
    _, after_splits = evaluate(matrix, labels, config, ga.best_genes, evaluator)
    return PipelineResult(
        config=config,
        retained=tuple(int(j) for j in stages.retained),
        space=tuple(int(j) for j in stages.space),
        selected=ga.best_genes,
        before=mean_metrics(before_splits),
        after=mean_metrics(after_splits),
        ga=ga,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Repeated pipeline runs; run i reuses the config with seed + i."""

    runs: tuple[PipelineResult, ...]
    mean_before: dict[str, float]
    mean_after: dict[str, float]
    std_after: dict[str, float]
    mean_nfe: float


def _check_runs(n_runs: int) -> None:
    """The gate for ``n_runs``: each repeat is a full run and each draw a
    fitness call, so it is capped like ``PipelineConfig``'s work sizes."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if n_runs > 1000:
        raise ValueError("n_runs must be at most 1000")


def run_experiment(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, n_runs: int = 3
) -> ExperimentResult:
    _check_runs(n_runs)
    runs = []
    for i in range(n_runs):
        run_config = PipelineConfig(**{**asdict(config), "seed": config.seed + i})
        runs.append(run_pipeline(matrix, labels, run_config))
    return ExperimentResult(
        runs=tuple(runs),
        mean_before=metric_stat([r.before for r in runs]),
        mean_after=metric_stat([r.after for r in runs]),
        std_after=metric_stat([r.after for r in runs], np.std),
        mean_nfe=float(np.mean([r.ga.nfe for r in runs])),
    )


@dataclass(frozen=True)
class BaselineRun:
    genes: tuple[int, ...]
    metrics: dict[str, float]


@dataclass(frozen=True)
class BaselineResult:
    """Random draws from the same candidate pool, scored the same way."""

    runs: tuple[BaselineRun, ...]
    mean: dict[str, float]
    std: dict[str, float]


def random_baseline(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, n_runs: int = 3
) -> BaselineResult:
    """Control arm: uniform subsets of the pool instead of the search."""
    _check_runs(n_runs)
    stages = build_stages(matrix, labels, config)
    evaluator = build_evaluator(matrix, labels, config)
    draws = []
    for i in range(n_runs):
        rng = np.random.default_rng(config.seed + SEED_BASELINE + i)
        draws.append(tuple(sorted(rng.choice(stages.space, size=stages.n_var, replace=False).tolist())))
    runs = [
        BaselineRun(genes, mean_metrics(splits))
        for genes, (_, splits) in zip(draws, _scores(matrix, labels, config, draws, evaluator))
    ]
    scores = [r.metrics for r in runs]
    return BaselineResult(tuple(runs), metric_stat(scores), metric_stat(scores, np.std))


def pipeline_report(result: PipelineResult) -> dict:
    """JSON-ready summary; wall time is deliberately left out so the same
    run always serializes to identical bytes."""
    return {
        "config": asdict(result.config),
        "n_retained": len(result.retained),
        "retained": list(result.retained),
        "space": list(result.space),
        "selected": list(result.selected),
        "before": result.before,
        "after": result.after,
        "improvement": result.improvement,
        "nfe": result.ga.nfe,
        "n_iterations": result.ga.n_iterations,
        "search_space_size": result.ga.search_space_size,
    }


def experiment_report(result: ExperimentResult) -> dict:
    return {
        "n_runs": len(result.runs),
        "mean_before": result.mean_before,
        "mean_after": result.mean_after,
        "std_after": result.std_after,
        "mean_nfe": result.mean_nfe,
        "runs": [pipeline_report(r) for r in result.runs],
    }


def baseline_report(result: BaselineResult) -> dict:
    return {"n_runs": len(result.runs), **asdict(result)}


def report_text(report: dict) -> str:
    """The bytes of every JSON report, on stdout or in a file."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_text(report))
