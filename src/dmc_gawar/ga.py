"""Feature-subset search by a genetic algorithm that retunes its own rates.

Individuals are fixed-size sets of distinct feature indices drawn from a
candidate pool.  Selection is fitness-proportional, crossover is single
point with duplicate repair, mutation swaps one gene for an unused pool
member; both draw replacements from the pool's members in ascending
order, a list the optimizer builds once per search.  The rates are a
function of one count, ``s``, the consecutive iterations without
improvement (``rate_schedule``): after ``s // 5``
shifts the crossover rate is ``max(0.3, 0.9 - 0.2 * shifts)`` and the
mutation rate ``0.4 + 0.2 * shifts``; once the mutation rate passes 1.0
the whole population is mutated each iteration.  An improvement resets
``s`` to 0, and with it both rates.  The search stops once ``s`` reaches
the stagnation limit.

Fitness is scored a generation at a time.  Parents come from the current
population only, so every child of a generation (the initial population
too) is drawn before any is scored; the generation's distinct subsets not
yet cached then go, in the order they were first spawned, to one call of
the batch ``fitness_fn``, and the individuals are built from the cache
after it.  Fitness draws no random numbers, so the draws, the NFE and the
convergence log are those of scoring each child as it is drawn.

The convergence log's columns are ``IterationRecord``'s fields, in order
(``CONVERGENCE_COLUMNS``); ``write_convergence_csv`` writes each record's
values as they stand, floats by ``repr`` and flags as 0/1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

import numpy as np

INITIAL_CROSSOVER_TENTHS = 9
INITIAL_MUTATION_TENTHS = 4
CROSSOVER_FLOOR_TENTHS = 3
RATE_STEP_TENTHS = 2
ADAPT_PATIENCE = 5


def rate_schedule(stagnant: int, n_pop: int) -> tuple[int, int, int, int]:
    """(crossover tenths, mutation tenths, crossover slots, mutation slots)
    after ``stagnant`` consecutive iterations without improvement.

    Rates live in integer tenths; the slot counts must match the
    hand-computed ceilings exactly, and float steps of 0.2 drift enough to
    flip a ceiling.  Past a mutation rate of 1.0 every slot mutates.
    """
    shifts = stagnant // ADAPT_PATIENCE
    pc = max(CROSSOVER_FLOOR_TENTHS, INITIAL_CROSSOVER_TENTHS - RATE_STEP_TENTHS * shifts)
    pm = INITIAL_MUTATION_TENTHS + RATE_STEP_TENTHS * shifts
    if pm > 10:
        return 0, pm, 0, n_pop
    # 2 * ceil(p_c * n_pop / 2) crossover slots (an even count), ceil(p_m * n_pop) mutation slots
    return pc, pm, 2 * ((pc * n_pop + 19) // 20), (pm * n_pop + 9) // 10


@dataclass(frozen=True)
class Individual:
    """Candidate subset and its cached fitness."""

    genes: tuple[int, ...]
    fitness: float


@dataclass(frozen=True)
class IterationRecord:
    """One row of the convergence log; rates are those in force this iteration."""

    iteration: int
    best_fitness: float
    p_c: float
    p_m: float
    n_c: int
    n_m: int
    adapted: bool
    full_mutation: bool
    nfe_cumulative: int


@dataclass(frozen=True)
class GAResult:
    best_genes: tuple[int, ...]
    best_fitness: float
    history: tuple[IterationRecord, ...]
    nfe: int
    n_iterations: int
    search_space_size: int


def roulette_spin(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Fitness-proportional pick: the smallest index whose cumulative share
    reaches the drawn uniform.  All-zero weights fall back to uniform."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        return int(rng.integers(len(weights)))
    cumulative = np.cumsum(weights / total)
    cumulative[-1] = 1.0
    return int(np.searchsorted(cumulative, rng.random(), side="left"))


def repair_duplicates(genes: list[int], space: Sequence[int], rng: np.random.Generator) -> list[int]:
    """Replace repeated genes (after their first occurrence) with draws from
    the unused pool members.  ``space`` lists the pool's distinct members
    in ascending order, so the unused ones stay sorted and the draw order
    is reproducible."""
    taken = set(genes)
    if len(taken) == len(genes):
        return list(genes)
    unused = [g for g in space if g not in taken]
    seen: set[int] = set()
    out = list(genes)
    for pos, gene in enumerate(out):
        if gene in seen:
            out[pos] = unused.pop(int(rng.integers(len(unused))))
        else:
            seen.add(gene)
    return out


def single_point_crossover(
    parent_a: Sequence[int],
    parent_b: Sequence[int],
    space: Sequence[int],
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Swap tails at one interior cut; both offspring are repaired to stay
    duplicate free.  Length-1 parents pass through unchanged.  ``space``
    lists the pool's distinct members in ascending order."""
    n_var = len(parent_a)
    if n_var < 2:
        return list(parent_a), list(parent_b)
    cut = int(rng.integers(1, n_var))
    first = list(parent_a[:cut]) + list(parent_b[cut:])
    second = list(parent_b[:cut]) + list(parent_a[cut:])
    return repair_duplicates(first, space, rng), repair_duplicates(second, space, rng)


def point_mutation(
    genes: Sequence[int], space: Sequence[int], rng: np.random.Generator
) -> list[int]:
    """Replace one gene (position drawn first) with an unused pool member;
    ``space`` lists the pool's distinct members in ascending order."""
    taken = set(genes)
    pool = [g for g in space if g not in taken]
    if not pool:
        raise ValueError("mutation needs at least one unused pool member")
    position = int(rng.integers(len(genes)))
    replacement = pool[int(rng.integers(len(pool)))]
    out = list(genes)
    out[position] = replacement
    return out


def per_subset(fitness: Callable[[tuple[int, ...]], float]) -> Callable[[list[tuple[int, ...]]], list[float]]:
    """A batch ``fitness_fn`` that scores each subset of a batch with
    ``fitness``, in order."""
    return lambda keys: [fitness(key) for key in keys]


class SubsetOptimizer:
    """Runs the adaptive search over a candidate pool.

    ``fitness_fn`` scores a batch: it maps a list of sorted gene tuples to
    a list of scores to maximize, one per tuple (``per_subset`` makes one
    from a function of one tuple).  Results are cached by the sorted gene
    tuple, and the evaluation count (NFE) only grows on cache misses.  The
    population is sorted by fitness alone; the sort is stable and offspring
    are appended in creation order, so equal fitness keeps the older
    individual first.
    """

    def __init__(
        self,
        space: Sequence[int],
        n_var: int,
        fitness_fn: Callable[[list[tuple[int, ...]]], list[float]],
        seed: int,
        n_pop: int = 20,
        stagnation_limit: int = 30,
        max_iterations: int = 1000,
    ):
        space = np.asarray(space, dtype=int)
        if len(np.unique(space)) != len(space):
            raise ValueError("candidate pool members must be distinct")
        if n_var < 1:
            raise ValueError("n_var must be at least 1")
        if len(space) <= n_var:
            raise ValueError("candidate pool must be larger than n_var")
        if n_pop < 2:
            raise ValueError("population size must be at least 2")
        self.space = space
        self.pool = np.sort(space).tolist()  # ascending, as the operators draw from it
        self.n_var = n_var
        self.fitness_fn = fitness_fn
        self.rng = np.random.default_rng(seed)
        self.n_pop = n_pop
        self.stagnation_limit = stagnation_limit
        self.max_iterations = max_iterations
        self._cache: dict[tuple[int, ...], float] = {}

    @property
    def nfe(self) -> int:
        return len(self._cache)

    def _spawn(self, genes: Sequence[int]) -> Individual:
        genes = tuple(int(g) for g in genes)
        return Individual(genes, self._cache[tuple(sorted(genes))])

    def _generation(self, children: list[Sequence[int]]) -> list[Individual]:
        """Score a generation's distinct cache misses, in first-spawn
        order, in one ``fitness_fn`` call (none if every child is cached),
        then spawn the children in order."""
        keys = (tuple(sorted(int(g) for g in genes)) for genes in children)
        misses = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if misses:
            scores = list(self.fitness_fn(misses))
            if len(scores) != len(misses):
                raise ValueError(f"fitness_fn returned {len(scores)} scores for {len(misses)} subsets")
            self._cache.update(zip(misses, map(float, scores)))
        return [self._spawn(genes) for genes in children]

    def run(self) -> GAResult:
        rng = self.rng
        population = self._generation(
            [rng.choice(self.space, size=self.n_var, replace=False) for _ in range(self.n_pop)]
        )
        population.sort(key=lambda ind: -ind.fitness)
        best = population[0].fitness

        stagnant = 0  # consecutive iterations without improvement
        history: list[IterationRecord] = []
        iteration = 0
        while iteration < self.max_iterations:
            iteration += 1
            pc, pm, n_c, n_m = rate_schedule(stagnant, self.n_pop)

            # parents come from the current population only, so every
            # child can be drawn before any is scored
            weights = np.array([ind.fitness for ind in population], dtype=float)
            children: list[list[int]] = []
            for _ in range(n_c // 2):
                first = population[roulette_spin(weights, rng)]
                second = population[roulette_spin(weights, rng)]
                children.extend(single_point_crossover(first.genes, second.genes, self.pool, rng))
            for _ in range(n_m):
                parent = population[roulette_spin(weights, rng)]
                children.append(point_mutation(parent.genes, self.pool, rng))
            offspring = self._generation(children)

            merged = sorted(population + offspring, key=lambda ind: -ind.fitness)
            population = merged[: self.n_pop]
            if population[0].fitness > best:
                best = population[0].fitness
                stagnant = 0
            else:
                stagnant += 1
            adapted = stagnant > 0 and stagnant % ADAPT_PATIENCE == 0
            history.append(
                IterationRecord(iteration, best, pc / 10.0, pm / 10.0, n_c, n_m, adapted, pm > 10, self.nfe)
            )
            if stagnant >= self.stagnation_limit:
                break

        winner = population[0]
        return GAResult(
            best_genes=tuple(sorted(winner.genes)),
            best_fitness=winner.fitness,
            history=tuple(history),
            nfe=self.nfe,
            n_iterations=iteration,
            search_space_size=math.comb(len(self.space), self.n_var),
        )


CONVERGENCE_COLUMNS = tuple(f.name for f in fields(IterationRecord))


def write_convergence_csv(history: Sequence[IterationRecord], path) -> None:
    """One row per iteration; floats use shortest round-trip formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONVERGENCE_COLUMNS)
        for rec in history:
            writer.writerow([repr(v) if isinstance(v, float) else int(v) for v in astuple(rec)])
