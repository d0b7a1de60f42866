"""Watch the search adapt its crossover and mutation rates.

Run one: fitness never improves, so the stagnation count walks the
whole schedule and stops after exactly thirty stagnant iterations.  Run two: a
planted optimum rewards progress, and every improvement snaps the rates
back to their initial values.
"""

from dmc_gawar import SubsetOptimizer, per_subset, write_convergence_csv

print("run 1: constant fitness, pure stagnation")
flat = SubsetOptimizer(
    range(30), 5, per_subset(lambda genes: 1.0), seed=0, n_pop=20, stagnation_limit=30
).run()
print("iterations:", flat.n_iterations)
print("iter  p_c  p_m  n_c  n_m  full_mutation")
for record in flat.history:
    if record.iteration in (1, 6, 11, 16, 21, 30):
        print(
            f"{record.iteration:4d}  {record.p_c:.1f}  {record.p_m:.1f}"
            f"  {record.n_c:3d}  {record.n_m:3d}  {record.full_mutation}"
        )

print("\nrun 2: ten planted features out of a 100-member pool")
planted = set(range(5, 100, 10))
result = SubsetOptimizer(
    list(range(100)),
    10,
    per_subset(lambda genes: len(set(genes) & planted) / 10.0),
    seed=1,
    n_pop=20,
    stagnation_limit=30,
).run()
print("best overlap with the planted subset:", result.best_fitness)
print("iterations:", result.n_iterations, " evaluations (NFE):", result.nfe)
print("search space size C(100,10):", result.search_space_size)

improvements = [
    r.iteration
    for prev, r in zip(result.history, result.history[1:])
    if r.best_fitness > prev.best_fitness
]
print("improving iterations:", improvements)
print("stop = last improvement + 30:", improvements[-1] + 30, "==", result.n_iterations)

write_convergence_csv(result.history, "convergence_demo.csv")
print("\nper-iteration log written to convergence_demo.csv")
