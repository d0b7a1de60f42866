import csv
import math

import numpy as np
import pytest

from dmc_gawar.ga import (
    ADAPT_PATIENCE,
    CONVERGENCE_COLUMNS,
    SubsetOptimizer,
    point_mutation,
    rate_schedule,
    repair_duplicates,
    roulette_spin,
    single_point_crossover,
    write_convergence_csv,
)


class StubRng:
    """Replays scripted draws so operator behaviour is pinned exactly."""

    def __init__(self, randoms=(), integers=()):
        self.randoms = list(randoms)
        self.ints = list(integers)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, *args):
        return self.ints.pop(0)


class TestRoulette:
    def test_boundaries_select_smallest_covering_index(self):
        weights = np.array([1.0, 1.0, 2.0])  # cumulative shares 0.25, 0.5, 1.0
        assert roulette_spin(weights, StubRng(randoms=[0.25])) == 0
        assert roulette_spin(weights, StubRng(randoms=[0.2500001])) == 1
        assert roulette_spin(weights, StubRng(randoms=[0.5])) == 1
        assert roulette_spin(weights, StubRng(randoms=[0.50001])) == 2
        assert roulette_spin(weights, StubRng(randoms=[1.0])) == 2
        assert roulette_spin(weights, StubRng(randoms=[0.0001])) == 0

    def test_zero_total_falls_back_to_uniform(self):
        weights = np.zeros(4)
        assert roulette_spin(weights, StubRng(integers=[2])) == 2

    def test_distribution_tracks_weights(self):
        rng = np.random.default_rng(0)
        weights = np.array([1.0, 3.0])
        picks = np.array([roulette_spin(weights, rng) for _ in range(4000)])
        assert abs(picks.mean() - 0.75) < 0.03


class TestOperators:
    def test_repair_replaces_later_duplicates_from_sorted_unused(self):
        out = repair_duplicates([1, 2, 2, 3], space=[1, 2, 3, 4, 5, 6], rng=StubRng(integers=[1]))
        assert out == [1, 2, 5, 3]

    def test_repair_leaves_clean_genes_alone(self):
        out = repair_duplicates([4, 1, 3], space=[1, 2, 3, 4], rng=StubRng())
        assert out == [4, 1, 3]

    def test_crossover_swaps_tails_at_cut(self):
        first, second = single_point_crossover(
            [1, 2, 3, 4], [5, 6, 7, 8], space=list(range(1, 9)), rng=StubRng(integers=[2])
        )
        assert first == [1, 2, 7, 8]
        assert second == [5, 6, 3, 4]

    def test_crossover_repairs_overlap(self):
        first, second = single_point_crossover(
            [1, 2, 3], [3, 2, 1], space=[1, 2, 3, 4, 5], rng=StubRng(integers=[1, 0, 2])
        )
        assert first == [1, 2, 3]  # [1,2,1] repaired with unused 3
        assert second == [3, 2, 5]  # [3,2,3] repaired with unused 5

    def test_crossover_offspring_always_distinct(self):
        rng = np.random.default_rng(3)
        space = list(range(40))
        for _ in range(200):
            a = rng.choice(space, size=6, replace=False).tolist()
            b = rng.choice(space, size=6, replace=False).tolist()
            for child in single_point_crossover(a, b, space, rng):
                assert len(set(child)) == 6
                assert set(child) <= set(space)

    def test_single_gene_parents_pass_through(self):
        assert single_point_crossover([4], [9], space=range(12), rng=StubRng()) == ([4], [9])

    def test_mutation_position_then_replacement(self):
        out = point_mutation([2, 4, 6], space=[1, 2, 3, 4, 5, 6, 7], rng=StubRng(integers=[1, 2]))
        assert out == [2, 5, 6]  # position 1, sorted unused pool [1,3,5,7][2]

    def test_mutation_keeps_genes_distinct(self):
        rng = np.random.default_rng(4)
        space = list(range(25))
        genes = [0, 5, 10, 15]
        for _ in range(100):
            mutated = point_mutation(genes, space, rng)
            assert len(set(mutated)) == 4
            assert len(set(mutated) - set(genes)) == 1

    def test_mutation_needs_unused_member(self):
        with pytest.raises(ValueError):
            point_mutation([0, 1, 2], space=[0, 1, 2], rng=StubRng(integers=[0, 0]))


def rates_in_force(stagnant, n_pop=20):
    """(p_c, p_m, n_c, n_m) as an ``IterationRecord`` logs them."""
    pc, pm, n_c, n_m = rate_schedule(stagnant, n_pop)
    return pc / 10.0, pm / 10.0, n_c, n_m


class TestRateSchedule:
    def test_initial_counts_for_pop_twenty(self):
        assert rate_schedule(0, 20)[2:] == (18, 8)

    def test_full_schedule_counts(self):
        seen = [rates_in_force(stagnant) for stagnant in range(21)]
        assert seen[0] == (0.9, 0.4, 18, 8)
        assert seen[5] == (0.7, 0.6, 14, 12)
        assert seen[10] == (0.5, 0.8, 10, 16)
        assert seen[15] == (0.3, 1.0, 6, 20)
        assert seen[20] == (0.0, 1.2, 0, 20)

    def test_adaptation_fires_every_fifth_stagnant_iteration(self):
        shifted = [rate_schedule(s, 20) != rate_schedule(s - 1, 20) for s in range(1, 13)]
        assert shifted == [False] * 4 + [True] + [False] * 4 + [True, False, False]

    def test_crossover_rate_never_drops_below_floor(self):
        assert [rate_schedule(s, 20)[0] for s in range(15, 20)] == [3] * 5
        for stagnant in range(20, 41):
            pc, pm, n_c, n_m = rate_schedule(stagnant, 20)
            assert pm > 10  # full mutation: no crossover slots, every slot mutates
            assert (pc, n_c, n_m) == (0, 0, 20)

    def test_odd_population_counts_round_up(self):
        n_c, n_m = rate_schedule(0, 15)[2:]
        assert n_c == 14  # 2 * ceil(0.9 * 15 / 2) = 2 * ceil(6.75)
        assert n_m == 6  # ceil(0.4 * 15)
        assert n_c % 2 == 0


def count_spawns(history, n_pop):
    return n_pop + sum(r.n_c + r.n_m for r in history)


class TestSubsetOptimizer:
    def test_constant_fitness_runs_exactly_thirty_iterations(self):
        opt = SubsetOptimizer(range(30), 5, lambda g: 1.0, seed=0, n_pop=20, stagnation_limit=30)
        result = opt.run()
        assert result.n_iterations == 30
        assert len(result.history) == 30
        in_force = [(r.p_c, r.p_m, r.n_c, r.n_m) for r in result.history]
        assert in_force[0:5] == [(0.9, 0.4, 18, 8)] * 5
        assert in_force[5:10] == [(0.7, 0.6, 14, 12)] * 5
        assert in_force[10:15] == [(0.5, 0.8, 10, 16)] * 5
        assert in_force[15:20] == [(0.3, 1.0, 6, 20)] * 5
        assert all(r.full_mutation for r in result.history[20:])
        assert all(r.n_c == 0 and r.n_m == 20 for r in result.history[20:])
        assert [r.adapted for r in result.history] == (
            [False] * 4 + [True]
        ) * 6

    def test_improvement_restores_initial_rates(self):
        # fitness rises only after the first 200 evaluations, by which time
        # at least five stagnant iterations have shifted the rates
        calls = []

        def fitness(genes):
            calls.append(genes)
            return 0.5 if len(calls) <= 200 else 1.0

        result = SubsetOptimizer(range(60), 5, fitness, seed=0, n_pop=20, stagnation_limit=30).run()
        history = result.history
        fits = [r.best_fitness for r in history]
        j = fits.index(1.0)  # the first improvement; the j iterations before it stagnated
        assert j >= ADAPT_PATIENCE
        assert (history[j].p_c, history[j].p_m) == rates_in_force(j)[:2]  # shifted rates
        assert not history[j].adapted
        assert (history[j + 1].p_c, history[j + 1].p_m) == (0.9, 0.4)
        assert not history[j + 1].adapted
        assert result.n_iterations == j + 1 + 30  # stagnation counted afresh from 0

    def test_ties_keep_the_first_created_individual(self):
        # equal fitness never reorders the population: the first subset
        # spawned stays in front and wins
        keys = []

        def fitness(genes):
            keys.append(genes)
            return 0.5

        result = SubsetOptimizer(range(12), 4, fitness, seed=5, n_pop=6, stagnation_limit=7).run()
        assert result.best_genes == keys[0]

    def test_gene_invariants_across_runs(self):
        space = list(range(40))
        for seed in range(20):
            result = SubsetOptimizer(
                space, 6, lambda g: sum(g) / 300.0, seed=seed, n_pop=10, stagnation_limit=8
            ).run()
            assert len(result.best_genes) == 6
            assert len(set(result.best_genes)) == 6
            assert set(result.best_genes) <= set(space)
            assert result.best_genes == tuple(sorted(result.best_genes))
            fits = [r.best_fitness for r in result.history]
            assert all(b >= a for a, b in zip(fits, fits[1:]))
            assert result.nfe <= count_spawns(result.history, 10)
            assert result.n_iterations <= 1000

    def test_nfe_counts_unique_evaluations_only(self):
        calls = []

        def fitness(genes):
            calls.append(genes)
            return sum(genes) / 100.0

        result = SubsetOptimizer(
            range(20), 4, fitness, seed=1, n_pop=8, stagnation_limit=6
        ).run()
        assert len(calls) == result.nfe
        assert len(set(calls)) == len(calls)  # keys are sorted tuples, no repeats
        assert result.nfe < count_spawns(result.history, 8)  # cache had hits

    def test_deterministic_per_seed(self):
        def fitness(genes):
            return sum(genes) / 100.0

        a = SubsetOptimizer(range(25), 4, fitness, seed=9, n_pop=8, stagnation_limit=6).run()
        b = SubsetOptimizer(range(25), 4, fitness, seed=9, n_pop=8, stagnation_limit=6).run()
        assert a == b
        c = SubsetOptimizer(range(25), 4, fitness, seed=10, n_pop=8, stagnation_limit=6).run()
        assert a.history != c.history

    def test_finds_easy_optimum(self):
        space = list(range(30))
        result = SubsetOptimizer(
            space, 3, lambda g: sum(g) / 84.0, seed=2, n_pop=12, stagnation_limit=15
        ).run()
        assert result.best_genes == (27, 28, 29)
        assert result.best_fitness == pytest.approx(1.0)

    def test_max_iterations_caps_run(self):
        result = SubsetOptimizer(
            range(30), 5, lambda g: 1.0, seed=0, n_pop=10, stagnation_limit=50, max_iterations=7
        ).run()
        assert result.n_iterations == 7

    def test_search_space_size(self):
        result = SubsetOptimizer(
            range(100), 10, lambda g: 0.0, seed=0, n_pop=6, stagnation_limit=2
        ).run()
        assert result.search_space_size == math.comb(100, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetOptimizer([1, 1, 2, 3], 2, lambda g: 0.0, seed=0)
        with pytest.raises(ValueError):
            SubsetOptimizer(range(5), 5, lambda g: 0.0, seed=0)
        with pytest.raises(ValueError):
            SubsetOptimizer(range(5), 0, lambda g: 0.0, seed=0)
        with pytest.raises(ValueError):
            SubsetOptimizer(range(5), 2, lambda g: 0.0, seed=0, n_pop=1)


class TestConvergenceLog:
    def test_csv_round_trip(self, tmp_path):
        result = SubsetOptimizer(
            range(20), 4, lambda g: sum(g) / 74.0, seed=3, n_pop=8, stagnation_limit=6
        ).run()
        path = tmp_path / "conv.csv"
        write_convergence_csv(result.history, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CONVERGENCE_COLUMNS
        assert len(rows) == 1 + result.n_iterations
        for row, record in zip(rows[1:], result.history):
            assert int(row[0]) == record.iteration
            assert float(row[1]) == record.best_fitness
            assert float(row[2]) == record.p_c
            assert float(row[3]) == record.p_m
            assert int(row[6]) in (0, 1)
            assert int(row[7]) in (0, 1)
            assert int(row[8]) == record.nfe_cumulative
