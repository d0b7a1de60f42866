import json
from dataclasses import fields

import numpy as np
import pytest

from dmc_gawar import classifier, pipeline
from dmc_gawar.data import DataError, FeatureMatrix, stratified_split
from dmc_gawar.pipeline import (
    SEED_EVAL,
    PipelineConfig,
    baseline_report,
    effective_sizes,
    experiment_report,
    pipeline_report,
    random_baseline,
    run_experiment,
    run_pipeline,
    write_json,
)
from dmc_gawar.synthetic import make_planted
from conftest import assert_digest


SMALL = PipelineConfig(
    keep_fraction=0.4, q=10, n_var=3, n_pop=8, stagnation_limit=6, n_splits=4, seed=1
)


@pytest.fixture(scope="module")
def planted():
    return make_planted(15, 25, 40, 4, 2.0, seed=3)


class TestConfigGate:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"q": "7"}, "q must be an integer"),
            ({"n_var": 2.0}, "n_var must be an integer"),
            ({"n_restarts": False}, "n_restarts must be an integer"),
            ({"test_fraction": None}, "test_fraction must be a number"),
            ({"keep_fraction": True}, "keep_fraction must be a number"),
            ({"method": "MC"}, "method must be 'dmc' or 'mc'"),
            ({"keep_fraction": 0.0}, r"keep_fraction must be in \(0, 1\]"),
            ({"keep_fraction": 1.5}, r"keep_fraction must be in \(0, 1\]"),
            ({"keep_fraction": 10**400}, r"keep_fraction must be in \(0, 1\]"),  # too big for a float
            ({"test_fraction": 1.0}, r"test_fraction must be in \(0, 1\)"),
            ({"q": 0}, "q must be at least 1"),
            ({"n_var": 0}, "n_var must be at least 1"),
            ({"n_pop": 1}, "n_pop must be at least 2"),
            ({"n_splits": 0}, "n_splits must be at least 1"),
            ({"n_restarts": 0}, "n_restarts must be at least 1"),
            ({"stagnation_limit": 0}, "stagnation_limit must be at least 1"),
            ({"stagnation_limit": -1}, "stagnation_limit must be at least 1"),
            ({"max_iterations": 0}, "max_iterations must be at least 1"),
            ({"seed": -1}, "seed must be at least 0"),
            ({"n_splits": 1001}, "n_splits must be at most 1000"),
            ({"n_splits": 100_000_000}, "n_splits must be at most 1000"),
            ({"n_splits": 2**63}, "n_splits must be at most 1000"),
            ({"n_restarts": 101}, "n_restarts must be at most 100"),
            ({"n_restarts": 2**40}, "n_restarts must be at most 100"),
            ({"n_pop": 1001}, "n_pop must be at most 1000"),
            ({"n_pop": 2**63}, "n_pop must be at most 1000"),
            ({"max_iterations": 100_001}, "max_iterations must be at most 100000"),
            ({"max_iterations": 2**63}, "max_iterations must be at most 100000"),
        ],
    )
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(PipelineConfig) if type(f.default) in (int, float)]
    )
    def test_every_numeric_field_is_type_checked(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be (an integer|a number), got '7'$"):
            PipelineConfig(**{name: "7"})

    def test_accepts_numpy_scalars_and_whole_fractions(self):
        config = PipelineConfig(q=np.int64(5), keep_fraction=1, test_fraction=np.float32(0.25), seed=np.uint8(7))
        assert config == PipelineConfig(q=5, keep_fraction=1.0, test_fraction=0.25, seed=7)
        for field in fields(PipelineConfig):  # held as the field's own type
            assert type(getattr(config, field.name)).__name__ == field.type, field.name

    def test_numpy_scalar_config_serialises(self, planted):
        numpy_config = PipelineConfig(
            keep_fraction=np.float64(0.4), q=np.int64(10), n_var=np.int64(3), n_pop=np.int32(8),
            stagnation_limit=np.int64(6), n_splits=np.int64(4), seed=np.int64(1),
        )
        data = (planted.matrix, planted.labels)
        assert pipeline.report_text(pipeline_report(run_pipeline(*data, numpy_config))) == (
            pipeline.report_text(pipeline_report(run_pipeline(*data, SMALL)))
        )
        assert pipeline.report_text(experiment_report(run_experiment(*data, numpy_config, n_runs=1))) == (
            pipeline.report_text(experiment_report(run_experiment(*data, SMALL, n_runs=1)))
        )


class TestEffectiveSizes:
    def test_reference_shapes(self):
        config = PipelineConfig()
        assert effective_sizes(2000, config) == (100, 100, 10)
        assert effective_sizes(7129, config) == (356, 100, 10)

    def test_narrow_data_clamps_chain(self):
        config = PipelineConfig()  # keep 5%, q=100, n_var=10
        m_keep, q_eff, n_var_eff = effective_sizes(10, config)
        assert m_keep == 10  # raised above floor(0.5) to cover the subset
        assert q_eff == 10
        assert n_var_eff == 9  # pool must stay strictly larger than the subset

    def test_keep_raised_to_cover_subset(self):
        config = PipelineConfig(keep_fraction=0.01, q=100, n_var=10)
        m_keep, q_eff, n_var_eff = effective_sizes(200, config)
        assert m_keep == 11
        assert q_eff == 11
        assert n_var_eff == 10

    def test_single_feature_dataset(self):
        config = PipelineConfig(n_var=1, q=2)
        m_keep, q_eff, n_var_eff = effective_sizes(2, config)
        assert q_eff == 2
        assert n_var_eff == 1


class TestRunPipeline:
    def test_deterministic(self, planted):
        a = run_pipeline(planted.matrix, planted.labels, SMALL)
        b = run_pipeline(planted.matrix, planted.labels, SMALL)
        assert pipeline_report(a) == pipeline_report(b)

    def test_after_equals_search_fitness(self, planted):
        result = run_pipeline(planted.matrix, planted.labels, SMALL)
        assert result.after["overall"] == pytest.approx(result.ga.best_fitness, abs=1e-12)

    def test_selected_genes_come_from_space(self, planted):
        result = run_pipeline(planted.matrix, planted.labels, SMALL)
        assert set(result.selected) <= set(result.space)
        assert set(result.space) <= set(result.retained)
        assert len(result.selected) == 3

    def test_improvement_field(self, planted):
        result = run_pipeline(planted.matrix, planted.labels, SMALL)
        assert result.improvement == pytest.approx(
            result.after["overall"] - result.before["overall"]
        )

    def test_report_excludes_wall_time(self, planted):
        result = run_pipeline(planted.matrix, planted.labels, SMALL)
        report = pipeline_report(result)
        assert "elapsed_seconds" not in report
        assert report["nfe"] == result.ga.nfe
        assert report["search_space_size"] == result.ga.search_space_size

    def test_report_bytes_identical(self, planted, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_json(pipeline_report(run_pipeline(planted.matrix, planted.labels, SMALL)), first)
        write_json(pipeline_report(run_pipeline(planted.matrix, planted.labels, SMALL)), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "rounded, digest",
        [
            (False, "d681a6e16eb05752137b24b362c9f923b67beed63b2c5660c099c751bf402b23"),
            (True, "88372679174bc2ac48d40fa3b6054b216f9e788368bbf72180c12ec0d7e3ce18"),
        ],
        ids=["continuous", "tied"],
    )
    def test_report_fingerprint_is_pinned(self, rounded, digest):
        # 109 and 114 fitness evaluations; rounding to integers makes most
        # cuts tie.  A change to any report byte changes the digest.
        ds = make_planted(20, 30, 300, 10, 1.2, seed=42)
        matrix = ds.matrix
        if rounded:
            matrix = FeatureMatrix(np.round(matrix.values), matrix.feature_names)
        config = PipelineConfig(
            keep_fraction=0.1, q=20, n_var=5, n_pop=10, stagnation_limit=10, n_splits=5, seed=7
        )
        report = pipeline_report(run_pipeline(matrix, ds.labels, config))
        assert_digest(json.dumps(report, sort_keys=True).encode(), digest)

    def test_one_feature_cannot_be_searched(self, planted):
        matrix = FeatureMatrix(planted.matrix.values[:, :1], ("f0",))
        with pytest.raises(DataError, match="at least 2 features, the data has 1"):
            run_pipeline(matrix, planted.labels, SMALL)

    def test_a_run_builds_each_split_plan_once(self, planted, monkeypatch):
        # more splits than a 256-plan memo would hold: the run's one
        # evaluator serves the search, "before" and "after", and the
        # baseline's one evaluator serves all its draws
        built = []

        def counting_split(labels, test_fraction, seed):
            built.append(seed)
            return stratified_split(labels, test_fraction, seed)

        monkeypatch.setattr(classifier, "stratified_split", counting_split)
        config = PipelineConfig(
            keep_fraction=0.2, q=5, n_var=2, n_pop=4, stagnation_limit=2, n_splits=260, seed=1,
        )
        seeds = list(range(config.seed + SEED_EVAL, config.seed + SEED_EVAL + config.n_splits))
        result = run_pipeline(planted.matrix, planted.labels, config)
        assert result.ga.nfe > 1
        assert built == seeds
        built.clear()
        random_baseline(planted.matrix, planted.labels, config, n_runs=3)
        assert built == seeds

    def test_seed_changes_result(self, planted):
        other = PipelineConfig(
            keep_fraction=0.4, q=10, n_var=3, n_pop=8, stagnation_limit=6, n_splits=4, seed=2
        )
        a = run_pipeline(planted.matrix, planted.labels, SMALL)
        b = run_pipeline(planted.matrix, planted.labels, other)
        assert pipeline_report(a) != pipeline_report(b)


@pytest.fixture
def evaluators(monkeypatch):
    """The evaluators ``build_evaluator`` hands out, and the size of every
    batch they stage."""
    built, batches = [], []
    build, stage = pipeline.build_evaluator, classifier.Evaluator.stage

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def staging(self, subsets):
        batches.append(len(subsets))
        return stage(self, subsets)

    monkeypatch.setattr(pipeline, "build_evaluator", building)
    monkeypatch.setattr(classifier.Evaluator, "stage", staging)
    return built, batches


class TestStagedCounts:
    def test_a_run_collects_every_count_it_staged(self, planted, evaluators):
        built, batches = evaluators
        result = run_pipeline(planted.matrix, planted.labels, SMALL)
        (evaluator,) = built
        assert evaluator.staged == {}
        # one batch per generation with new subsets, then "before" and "after"
        assert sum(batches[:-2]) == result.ga.nfe
        assert batches[-2:] == [1, 1]

    def test_the_baseline_scores_its_draws_in_one_batch(self, planted, evaluators):
        built, batches = evaluators
        random_baseline(planted.matrix, planted.labels, SMALL, n_runs=4)
        (evaluator,) = built
        assert evaluator.staged == {}
        assert batches == [4]


class TestExperiment:
    def test_runs_shift_seed(self, planted):
        result = run_experiment(planted.matrix, planted.labels, SMALL, n_runs=3)
        assert [r.config.seed for r in result.runs] == [1, 2, 3]

    def test_aggregates(self, planted):
        result = run_experiment(planted.matrix, planted.labels, SMALL, n_runs=3)
        overall = [r.after["overall"] for r in result.runs]
        assert result.mean_after["overall"] == pytest.approx(np.mean(overall))
        assert result.std_after["overall"] == pytest.approx(np.std(overall))  # population std
        assert result.mean_nfe == pytest.approx(np.mean([r.ga.nfe for r in result.runs]))

    def test_report_shape(self, planted):
        result = run_experiment(planted.matrix, planted.labels, SMALL, n_runs=2)
        report = experiment_report(result)
        assert report["n_runs"] == 2
        assert len(report["runs"]) == 2
        assert set(report["mean_after"]) == {
            "overall", "recall", "specificity", "balanced", "precision", "f_measure", "mcc",
        }

    def test_n_runs_validated(self, planted):
        with pytest.raises(ValueError):
            run_experiment(planted.matrix, planted.labels, SMALL, n_runs=0)
        for run in (run_experiment, random_baseline):
            for n_runs in (1001, 2**63):  # checked before any work
                with pytest.raises(ValueError, match="^n_runs must be at most 1000$"):
                    run(planted.matrix, planted.labels, SMALL, n_runs=n_runs)


class TestBaseline:
    def test_draws_are_deterministic_and_from_pool(self, planted):
        a = random_baseline(planted.matrix, planted.labels, SMALL, n_runs=3)
        b = random_baseline(planted.matrix, planted.labels, SMALL, n_runs=3)
        assert baseline_report(a) == baseline_report(b)
        pipeline = run_pipeline(planted.matrix, planted.labels, SMALL)
        for run in a.runs:
            assert len(run.genes) == 3
            assert len(set(run.genes)) == 3
            assert set(run.genes) <= set(pipeline.space)

    def test_distinct_runs(self, planted):
        result = random_baseline(planted.matrix, planted.labels, SMALL, n_runs=3)
        assert len({r.genes for r in result.runs}) > 1

    def test_search_beats_baseline_on_planted_data(self, planted):
        pipeline = run_pipeline(planted.matrix, planted.labels, SMALL)
        baseline = random_baseline(planted.matrix, planted.labels, SMALL, n_runs=3)
        assert pipeline.after["overall"] >= baseline.mean["overall"]
