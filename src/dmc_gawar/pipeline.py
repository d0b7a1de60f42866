"""End-to-end orchestration: rank, cluster, pool, search, evaluate.

This module is the only owner of the stage seed offsets (``SEED_*``), of
size clamping (``effective_sizes``, which ``build_stages`` and the CLI's
``rank`` both use) and of the split settings (``build_evaluator`` alone
maps a config to them); the CLI and library callers go through
``build_stages``, ``build_evaluator``, ``search`` and ``evaluate``.
Every stage draws randomness from the run seed plus its fixed offset, so
a run is a pure function of (dataset, config).  Every evaluation of a run
goes through its one evaluator and so uses the same split seeds, which
makes the "after" overall accuracy equal the best fitness the search
reports.

The reports of a full run, an experiment and a baseline are built here
(the CLI builds those of its other subcommands), and ``report_text`` is
the one place that turns a report into bytes (sorted keys, two-space
indent, one trailing newline), for ``write_json`` and the CLI's stdout
alike.  The score keys come from ``classifier.METRIC_KEYS``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .classifier import ClassificationMetrics, Evaluator, evaluate_subset, mean_metrics, metric_stat
from .data import DataError, FeatureMatrix, LabelVector, _count, _fraction
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
        """The one gate for option values, from flags, config files or code.
        Each number is held as its field's Python type, so a numpy scalar
        serialises and 1 and 1.0 give the same report."""
        if self.method not in METHODS:
            raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, got {self.method!r}")
        object.__setattr__(self, "keep_fraction", _fraction(self.keep_fraction, "keep_fraction", closed=True))
        object.__setattr__(self, "test_fraction", _fraction(self.test_fraction, "test_fraction"))
        for field in fields(self):
            if field.type == "int":  # in the range data._BOUNDS gives its name
                object.__setattr__(self, field.name, _count(getattr(self, field.name), field.name))


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    retained: tuple[int, ...]
    space: tuple[int, ...]
    before: dict[str, float]
    after: dict[str, float]
    ga: GAResult

    @property
    def selected(self) -> tuple[int, ...]:
        return self.ga.best_genes

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
    matrix: FeatureMatrix, labels: LabelVector, features, evaluator: Evaluator
) -> tuple[float, list[ClassificationMetrics]]:
    """The one evaluation protocol: fitness, before/after and baseline
    scores all use the run's evaluator (from ``build_evaluator``) and so
    the same splits, so "after" equals the best fitness."""
    return evaluate_subset(matrix, labels, features, **evaluator.settings, evaluator=evaluator)


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
        lambda batch: [fitness for fitness, _ in _scores(matrix, labels, batch, evaluator)],
        seed=config.seed + SEED_GA,
        n_pop=config.n_pop,
        stagnation_limit=config.stagnation_limit,
        max_iterations=config.max_iterations,
    ).run()


def _scores(
    matrix: FeatureMatrix, labels: LabelVector, batch, evaluator: Evaluator
) -> list[tuple[float, list[ClassificationMetrics]]]:
    """``evaluate`` of each subset of a batch, in order, after the
    evaluator has scored them all in one go."""
    evaluator.stage(batch)
    return [evaluate(matrix, labels, features, evaluator) for features in batch]


def run_pipeline(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig
) -> PipelineResult:
    """Rank, cluster, pool, search, then score before and after selection."""
    stages = build_stages(matrix, labels, config)
    evaluator = build_evaluator(matrix, labels, config)
    ga = search(matrix, labels, config, stages, evaluator)
    _, before_splits = evaluate(matrix, labels, np.arange(matrix.m), evaluator)
    _, after_splits = evaluate(matrix, labels, ga.best_genes, evaluator)
    return PipelineResult(
        config=config,
        retained=tuple(int(j) for j in stages.retained),
        space=tuple(int(j) for j in stages.space),
        before=mean_metrics(before_splits),
        after=mean_metrics(after_splits),
        ga=ga,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Repeated pipeline runs; run i reuses the config with seed + i."""

    runs: tuple[PipelineResult, ...]

    @property
    def mean_before(self) -> dict[str, float]:
        return metric_stat([r.before for r in self.runs])

    @property
    def mean_after(self) -> dict[str, float]:
        return metric_stat([r.after for r in self.runs])

    @property
    def std_after(self) -> dict[str, float]:
        return metric_stat([r.after for r in self.runs], np.std)

    @property
    def mean_nfe(self) -> float:
        return float(np.mean([r.ga.nfe for r in self.runs]))


def run_experiment(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, n_runs: int = 3
) -> ExperimentResult:
    _count(n_runs, "n_runs")
    runs = []
    for i in range(n_runs):
        run_config = PipelineConfig(**{**asdict(config), "seed": config.seed + i})
        runs.append(run_pipeline(matrix, labels, run_config))
    return ExperimentResult(tuple(runs))


@dataclass(frozen=True)
class BaselineRun:
    genes: tuple[int, ...]
    metrics: dict[str, float]


@dataclass(frozen=True)
class BaselineResult:
    """Random draws from the same candidate pool, scored the same way."""

    runs: tuple[BaselineRun, ...]

    @property
    def mean(self) -> dict[str, float]:
        return metric_stat([r.metrics for r in self.runs])

    @property
    def std(self) -> dict[str, float]:
        return metric_stat([r.metrics for r in self.runs], np.std)


def random_baseline(
    matrix: FeatureMatrix, labels: LabelVector, config: PipelineConfig, n_runs: int = 3
) -> BaselineResult:
    """Control arm: uniform subsets of the pool instead of the search."""
    _count(n_runs, "n_runs")
    stages = build_stages(matrix, labels, config)
    evaluator = build_evaluator(matrix, labels, config)
    draws = []
    for i in range(n_runs):
        rng = np.random.default_rng(config.seed + SEED_BASELINE + i)
        draws.append(tuple(sorted(rng.choice(stages.space, size=stages.n_var, replace=False).tolist())))
    return BaselineResult(tuple(
        BaselineRun(genes, mean_metrics(splits))
        for genes, (_, splits) in zip(draws, _scores(matrix, labels, draws, evaluator))
    ))


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
    return {"n_runs": len(result.runs), **asdict(result), "mean": result.mean, "std": result.std}


def report_text(report: dict) -> str:
    """The bytes of every JSON report, on stdout or in a file."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_text(report))
