"""Grow the decision tree and read off the confusion-derived metrics.

The tree accepts the best split at any impure node, even when no split
improves impurity on its own; the parity corner set below shows why that
matters.
"""

import numpy as np

from dmc_gawar import (
    ClassificationMetrics,
    confusion_counts,
    evaluate_subset,
    fit_tree,
    predict,
)
from dmc_gawar.synthetic import make_planted, make_xor

# Parity: no single threshold on either coordinate has positive gain at the
# root, but two levels classify the corners exactly.
parity = make_xor(2)
tree = fit_tree(parity.matrix.values, parity.labels.labels)
print("root split: feature", tree.feature, "at", tree.threshold)
agreement = (predict(tree, parity.matrix.values) == parity.labels.labels).mean()
print("training agreement on parity corners:", agreement)

# Confusion counts and every derived score.
y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
y_pred = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1])
tp, tn, fp, fn = confusion_counts(y_true, y_pred)
metrics = ClassificationMetrics(tp, tn, fp, fn)
print(f"\ncounts: TP={tp} TN={tn} FP={fp} FN={fn}")
for name, value in metrics.as_dict().items():
    print(f"  {name:12s} {value:.4f}")

# Repeated stratified splits give the fitness used by the optimizer: the
# mean overall accuracy of a feature subset, deterministic per seed.
dataset = make_planted(18, 22, 30, 4, 2.0, seed=5)
informative = np.array(dataset.informative)
mean_overall, per_split = evaluate_subset(
    dataset.matrix, dataset.labels, informative, n_splits=10, base_seed=0
)
print("\ninformative-subset fitness over 10 splits:", round(mean_overall, 4))
noise = np.array([j for j in range(30) if j not in set(dataset.informative)][:4])
mean_noise, _ = evaluate_subset(dataset.matrix, dataset.labels, noise, n_splits=10, base_seed=0)
print("noise-subset fitness over the same splits: ", round(mean_noise, 4))
