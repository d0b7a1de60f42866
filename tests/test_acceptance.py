"""Acceptance checks, one per numbered criterion; each prints a single
PASS/FAIL line (run with -s to see them alongside the pytest verdicts)."""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dmc_gawar.classifier import ClassificationMetrics
from dmc_gawar.data import load_csv
from dmc_gawar.ga import SubsetOptimizer, per_subset
from dmc_gawar.pipeline import PipelineConfig, run_pipeline
from dmc_gawar.rankers import dmc_score, mc_score, rank_all, score_features
from dmc_gawar.synthetic import make_planted
from conftest import make_dataset
from oracles import oracle_dmc, oracle_mc, oracle_metrics

COLON_CSV = Path(os.environ.get("COLON_CSV", Path(__file__).resolve().parent.parent / "data" / "colon.csv"))


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"criterion {number:02d} SKIP: {label}")
                raise
            except BaseException:
                print(f"criterion {number:02d} FAIL: {label}")
                raise
            print(f"criterion {number:02d} PASS: {label}")

        return inner

    return wrap


@criterion(1, "distance score of the worked feature is 0.2945 within 1e-3")
def test_criterion_01_distance_score_reference_value(reference_feature):
    values, labels = reference_feature
    assert abs(dmc_score(values, labels) - 0.2945) <= 1e-3


@criterion(2, "width score of the worked feature is exactly 6/16")
def test_criterion_02_width_score_reference_value(reference_feature):
    values, labels = reference_feature
    assert mc_score(values, labels) == 0.375


@criterion(3, "scores match an independent oracle on 200 random matrices")
def test_criterion_03_scores_match_oracle_and_rank_separable_first():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(6, 24))
        m = int(rng.integers(2, 9))
        values = np.round(rng.standard_normal((n, m)), 2)  # rounding forces ties
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(2, n - 1)), replace=False)] = 1
        for j in range(m):
            assert dmc_score(values[:, j], labels) == pytest.approx(
                oracle_dmc(values[:, j], labels), abs=1e-12
            )
            assert mc_score(values[:, j], labels) == pytest.approx(
                oracle_mc(values[:, j], labels), abs=1e-12
            )
            checked += 1
    assert checked >= 400

    # a column that cleanly separates the classes must outrank all noise
    rng = np.random.default_rng(11)
    values = rng.standard_normal((30, 12))
    labels = np.array([0] * 14 + [1] * 16)
    values[:14, 7] = rng.uniform(0.0, 1.0, 14)
    values[14:, 7] = rng.uniform(3.0, 4.0, 16)
    matrix, vec = make_dataset(values, labels)
    for method in ("dmc", "mc"):
        assert rank_all(matrix, vec, method=method)[0] == 7
        assert score_features(matrix, vec, method=method)[7] == 0.0


@criterion(4, "rates follow the exact adaptive schedule and reset on improvement")
def test_criterion_04_adaptive_rate_schedule():
    # stagnant run: the published schedule, then stop after exactly 30
    result = SubsetOptimizer(
        range(30), 5, per_subset(lambda g: 1.0), seed=0, n_pop=20, stagnation_limit=30
    ).run()
    assert result.n_iterations == 30
    in_force = [(r.p_c, r.p_m, r.n_c, r.n_m) for r in result.history]
    assert in_force[0:5] == [(0.9, 0.4, 18, 8)] * 5
    assert in_force[5:10] == [(0.7, 0.6, 14, 12)] * 5
    assert in_force[10:15] == [(0.5, 0.8, 10, 16)] * 5
    assert in_force[15:20] == [(0.3, 1.0, 6, 20)] * 5
    assert all(r.full_mutation and r.n_c == 0 and r.n_m == 20 for r in result.history[20:])

    # improving run: every improvement restores (0.9, 0.4), at least one
    # does so from adapted rates, and the stop comes exactly 30 after the
    # last improvement
    planted = set(range(5, 100, 10))
    result = SubsetOptimizer(
        list(range(100)),
        10,
        per_subset(lambda genes: len(set(genes) & planted) / 10.0),
        seed=1,
        n_pop=20,
        stagnation_limit=30,
    ).run()
    history = result.history
    fits = [r.best_fitness for r in history]
    improvements = [j for j in range(1, len(fits)) if fits[j] > fits[j - 1]]
    assert improvements
    for j in improvements:
        if j + 1 < len(history):
            assert (history[j + 1].p_c, history[j + 1].p_m) == (0.9, 0.4)
    assert any(history[j].p_c < 0.9 for j in improvements)  # reset seen mid-schedule
    assert result.n_iterations == history[improvements[-1]].iteration + 30


@criterion(5, "search invariants hold across 20 independent runs")
def test_criterion_05_search_invariants_twenty_runs():
    space = list(range(50))
    planted = set(range(0, 50, 7))

    for seed in range(20):
        calls = []

        def fitness(genes):
            calls.append(genes)
            return len(set(genes) & planted) / 8.0

        result = SubsetOptimizer(
            space, 8, per_subset(fitness), seed=seed, n_pop=12, stagnation_limit=10
        ).run()
        assert len(result.best_genes) == 8
        assert len(set(result.best_genes)) == 8
        assert set(result.best_genes) <= set(space)
        assert result.best_genes == tuple(sorted(result.best_genes))
        fits = [r.best_fitness for r in result.history]
        assert all(b >= a for a, b in zip(fits, fits[1:]))
        assert fits[-1] == result.best_fitness
        spawned = 12 + sum(r.n_c + r.n_m for r in result.history)
        assert result.nfe == len(calls) == len(set(calls))
        assert result.nfe <= spawned
        assert result.n_iterations <= 1000
        assert result.history[-1].nfe_cumulative == result.nfe


@criterion(6, "search recovers a planted optimum where random draws cannot")
def test_criterion_06_planted_optimum_recovery():
    pool = list(range(100))
    planted = set(range(5, 100, 10))

    def fitness(genes):
        return len(set(genes) & planted) / 10.0

    best_scores = [
        SubsetOptimizer(pool, 10, per_subset(fitness), seed=s, n_pop=20, stagnation_limit=30)
        .run()
        .best_fitness
        for s in range(5)
    ]
    assert sum(score >= 0.9 for score in best_scores) >= 4

    random_scores = []
    for i in range(15):
        rng = np.random.default_rng(503 + i)
        genes = rng.choice(np.arange(100), size=10, replace=False)
        random_scores.append(fitness(tuple(int(g) for g in genes)))
    assert max(random_scores) <= 0.2


@criterion(7, "confusion metrics match an independent oracle on 50 matrices")
def test_criterion_07_metrics_match_oracle():
    worked = ClassificationMetrics.from_counts(3, 5, 1, 1)
    assert worked.overall == pytest.approx(0.8)
    assert worked.mcc == pytest.approx(14 / 24)

    rng = np.random.default_rng(77)
    for _ in range(50):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 25, size=4))
        got = ClassificationMetrics.from_counts(tp, tn, fp, fn).as_dict()
        want = oracle_metrics(tp, tn, fp, fn)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-12), (key, tp, tn, fp, fn)


@criterion(8, "pipeline lifts accuracy >=0.10 to >=0.85 on 62x2000 microarray data")
def test_criterion_08_selection_improves_on_microarray_data():
    if not COLON_CSV.exists():
        pytest.skip(
            f"place the 62-sample, 2000-gene microarray table at {COLON_CSV} "
            "(CSV, one header row, one row per sample, label in the last "
            "column) or point COLON_CSV at it, then re-run"
        )
    matrix, labels = load_csv(COLON_CSV)
    result = run_pipeline(matrix, labels, PipelineConfig(seed=0))
    assert result.after["overall"] >= 0.85
    assert result.improvement >= 0.10


@criterion(8, "pipeline lifts accuracy >=0.10 to >=0.85 on a matched-shape stand-in")
def test_criterion_08_selection_improves_on_matched_shape_synthetic():
    dataset = make_planted(22, 40, 2000, 20, 1.2, seed=42)
    result = run_pipeline(dataset.matrix, dataset.labels, PipelineConfig(seed=7))
    assert result.before["overall"] <= 0.80
    assert result.after["overall"] >= 0.85
    assert result.improvement >= 0.10


@criterion(9, "reported search-space size equals C(100, 10)")
def test_criterion_09_search_space_size_anchor():
    result = SubsetOptimizer(
        range(100), 10, per_subset(lambda g: 0.0), seed=0, n_pop=6, stagnation_limit=2
    ).run()
    assert result.search_space_size == 17310309456440
    assert result.search_space_size == math.comb(100, 10)


@criterion(10, "ranking cost grows about linearly in the feature count")
def test_criterion_10_ranking_scales_linearly():
    def build(m):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((60, m))
        return make_dataset(values, [0] * 30 + [1] * 30)

    def best_of(runs, fn):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    small_matrix, small_labels = build(500)
    large_matrix, large_labels = build(1000)
    score_features(small_matrix, small_labels)  # warm caches and allocator
    t_small = best_of(5, lambda: score_features(small_matrix, small_labels))
    t_large = best_of(5, lambda: score_features(large_matrix, large_labels))
    assert t_large / t_small <= 2.5
