"""Walk through the congestion region and both per-feature scores.

One feature at a time: sort its values, find where the two classes start
to interleave, and measure that region two ways.  Good features confine
the interleaving to a narrow band, or avoid it entirely.
"""

import numpy as np

from dmc_gawar import dmc_score, find_region, mc_score
from dmc_gawar.data import FeatureMatrix, LabelVector
from dmc_gawar.rankers import keep_count, rank_all

# A 16-sample feature with a mixed band in the middle.  Sorted ascending,
# the first five values belong to class 0, the last five to class 1, and
# positions 5..10 interleave.
values = np.array(
    [1.8, 2.3, 2.4, 2.45, 2.9, 3.0, 3.1, 3.15, 3.2, 3.25, 3.3, 4.0, 4.2, 5.2, 5.5, 5.9]
)
labels = np.array([0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1])

region = find_region(values, labels)
print("sorted labels:", labels[region.order])
print(f"region: positions {region.start}..{region.end} (width {region.width})")
print(f"x-class (label at sorted position 0): {region.x_class}")

print(f"\nwidth score  = width / n = {region.width}/{len(values)} =", mc_score(values, labels))
print("distance score =", dmc_score(values, labels))
print("(hand sum: 0.7/3.15 + 0.6/8.3 =", 0.7 / 3.15 + 0.6 / 8.3, ")")

# A perfectly separating feature has an empty region and scores 0.
clean = np.array([1.0, 1.2, 1.4, 1.6, 5.0, 5.2, 5.4, 5.6])
clean_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
print("\nseparable feature scores:", dmc_score(clean, clean_labels), mc_score(clean, clean_labels))

# Ranking keeps the lowest-scoring fraction.  Plant one separable column
# among noise and watch it surface.
rng = np.random.default_rng(0)
grid = rng.standard_normal((20, 10))
grid[:10, 6] = rng.uniform(0, 1, 10)
grid[10:, 6] = rng.uniform(3, 4, 10)
matrix = FeatureMatrix(grid, tuple(f"f{j}" for j in range(10)))
vector = LabelVector(np.array([0] * 10 + [1] * 10), ("neg", "pos"))
kept = rank_all(matrix, vector)[: keep_count(matrix.m, 0.3)]
print("\nretained features (planted column is 6):", kept.tolist())
