"""Hybrid feature selection for high-dimensional binary classification.

The pipeline ranks features by how little the two classes interleave along
each one, clusters the survivors to remove redundancy, samples one feature
per cluster into a candidate pool, and searches that pool with a genetic
algorithm whose crossover/mutation rates adapt to stagnation.  Subsets are
scored by decision-tree accuracy over repeated stratified splits.

The top level holds what the README and the demos use; everything else is
imported from its submodule (``dmc_gawar.pipeline``, ``dmc_gawar.data``, ...).
"""

from .classifier import ClassificationMetrics, confusion_counts, evaluate_subset, fit_tree, predict
from .data import DataError, load_csv, stratified_split
from .feature_space import build_feature_space, cluster_features, minmax_normalize
from .ga import SubsetOptimizer, per_subset, write_convergence_csv
from .pipeline import PipelineConfig, pipeline_report, random_baseline, run_pipeline, write_json
from .rankers import dmc_score, find_region, mc_score

__version__ = "0.1.0"

__all__ = [
    "ClassificationMetrics",
    "confusion_counts",
    "evaluate_subset",
    "fit_tree",
    "predict",
    "DataError",
    "load_csv",
    "stratified_split",
    "build_feature_space",
    "cluster_features",
    "minmax_normalize",
    "SubsetOptimizer",
    "per_subset",
    "write_convergence_csv",
    "PipelineConfig",
    "pipeline_report",
    "random_baseline",
    "run_pipeline",
    "write_json",
    "dmc_score",
    "find_region",
    "mc_score",
    "__version__",
]
