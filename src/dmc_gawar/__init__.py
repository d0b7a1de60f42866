"""Hybrid feature selection for high-dimensional binary classification.

The pipeline ranks features by how little the two classes interleave along
each one, clusters the survivors to remove redundancy, samples one feature
per cluster into a candidate pool, and searches that pool with a genetic
algorithm whose crossover/mutation rates adapt to stagnation.  Subsets are
scored by decision-tree accuracy over repeated stratified splits.
"""

from .classifier import (
    ClassificationMetrics,
    TreeNode,
    confusion_counts,
    evaluate_subset,
    fit_tree,
    mean_metrics,
    predict,
)
from .data import (
    DataError,
    DegenerateSplitError,
    FeatureMatrix,
    LabelVector,
    NonFiniteValueError,
    NotBinaryLabelsError,
    ParseError,
    load_csv,
    save_csv,
    stratified_split,
)
from .feature_space import (
    ClusterModel,
    EmptyClusterError,
    build_feature_space,
    cluster_features,
    minmax_normalize,
)
from .ga import (
    GAResult,
    IterationRecord,
    RateController,
    SubsetOptimizer,
    point_mutation,
    repair_duplicates,
    roulette_spin,
    single_point_crossover,
    write_convergence_csv,
)
from .pipeline import (
    BaselineResult,
    ExperimentResult,
    PipelineConfig,
    PipelineResult,
    pipeline_report,
    random_baseline,
    run_experiment,
    run_pipeline,
    write_json,
)
from .rankers import (
    dmc_score,
    find_region,
    mc_score,
    score_features,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationMetrics",
    "TreeNode",
    "confusion_counts",
    "evaluate_subset",
    "fit_tree",
    "mean_metrics",
    "predict",
    "DataError",
    "DegenerateSplitError",
    "FeatureMatrix",
    "LabelVector",
    "NonFiniteValueError",
    "NotBinaryLabelsError",
    "ParseError",
    "load_csv",
    "save_csv",
    "stratified_split",
    "ClusterModel",
    "EmptyClusterError",
    "build_feature_space",
    "cluster_features",
    "minmax_normalize",
    "GAResult",
    "IterationRecord",
    "RateController",
    "SubsetOptimizer",
    "point_mutation",
    "repair_duplicates",
    "roulette_spin",
    "single_point_crossover",
    "write_convergence_csv",
    "BaselineResult",
    "ExperimentResult",
    "PipelineConfig",
    "PipelineResult",
    "pipeline_report",
    "random_baseline",
    "run_experiment",
    "run_pipeline",
    "write_json",
    "dmc_score",
    "find_region",
    "mc_score",
    "score_features",
    "__version__",
]
