"""End to end on microarray-shaped data: rank, cluster, pool, search, score.

The dataset mimics a small two-class expression study: 62 samples, 2000
features, 20 of them shifted between classes.  The pipeline is a pure
function of (data, config); rerunning with the same seed reproduces every
number, and a random-draw control shows the search is doing real work.

Runs in about 2 seconds; shrink the dataset or the stagnation limit to go
faster.
"""

from dmc_gawar import PipelineConfig, pipeline_report, random_baseline, run_pipeline, write_json
from dmc_gawar.synthetic import make_planted

dataset = make_planted(22, 40, 2000, 20, 1.2, seed=42)
print("dataset:", dataset.matrix.n, "samples,", dataset.matrix.m, "features")
print("class sizes:", dataset.labels.class_counts)

config = PipelineConfig(seed=7)  # keep 5%, pool 100, subsets of 10
result = run_pipeline(dataset.matrix, dataset.labels, config)

print("\nretained features:", len(result.retained))
print("candidate pool size:", len(result.space))
print("selected subset:", result.selected)
hits = set(result.selected) & set(dataset.informative)
print("planted features recovered:", len(hits), "of", len(result.selected))

print("\n          before   after")
for key in ("overall", "balanced", "recall", "specificity", "mcc"):
    print(f"{key:12s} {result.before[key]:.4f}  {result.after[key]:.4f}")
print("improvement (overall):", round(result.improvement, 4))
print("evaluations (NFE):", result.ga.nfe, " iterations:", result.ga.n_iterations)

control = random_baseline(dataset.matrix, dataset.labels, config, n_runs=3)
print("\nrandom-draw control, mean overall:", round(control.mean["overall"], 4))

write_json(pipeline_report(result), "pipeline_report.json")
print("\nfull report written to pipeline_report.json")
print("same run from the shell:")
print("  dmc-gawar pipeline data.csv --seed 7 --output pipeline_report.json")
