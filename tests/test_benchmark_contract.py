"""The benchmark's span tracer (``perfbench/tracing.py``) and fingerprints
against the real package.

The tracer wraps functions at the module globals their callers look up.
A rename or a call that bypasses one of those globals would break
``perfbench/run.py --trace 1`` or make it count a layer twice; these
tests catch that here.  The seed-42 outputs of the two tree workloads are
pinned here too, digested as ``perfbench/run.py`` digests them, so a
change to a tree or a report fails tier-1 and not only a benchmark run.
"""

import importlib
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

import dmc_gawar
from dmc_gawar import classifier, cli, pipeline
from dmc_gawar.data import save_csv
from dmc_gawar.synthetic import make_planted
from conftest import assert_digest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_cluster_and_pipeline_count_each_layer_once(tracing, tmp_path):
    ds = make_planted(8, 8, 40, 4, 1.5, seed=3)
    csv = tmp_path / "tiny.csv"
    save_csv(ds.matrix, ds.labels, csv)
    config = pipeline.PipelineConfig(q=6, n_var=3, n_pop=6, stagnation_limit=3, n_splits=3, seed=7)
    originals = (pipeline.run_pipeline, pipeline.evaluate_subset, cli.score_features)

    tracer = tracing.Tracer()
    tracing.install(tracer, dmc_gawar)
    try:
        assert cli.main(["cluster", str(csv), "--output", str(tmp_path / "c.json")]) == 0
        tracer.op = 1
        result = pipeline.run_pipeline(ds.matrix, ds.labels, config)
    finally:
        tracer.restore()
    assert (pipeline.run_pipeline, pipeline.evaluate_subset, cli.score_features) == originals
    assert pipeline.evaluate_subset is classifier.evaluate_subset

    for op in (0, 1):
        names = Counter(s.name for s in tracer.spans if s.op == op)
        assert names["rankers.score"] == 1, op
        assert names["feature_space.cluster"] == 1, op
        assert names["feature_space.pool"] == 1, op

    spans = [s for s in tracer.spans if s.op == 1]
    (run,) = [s for s in spans if s.name == "pipeline.run"]
    (search,) = [s for s in spans if s.name == "ga.run"]
    evaluations = [s for s in spans if s.name == "classifier.evaluate"]
    before, after = [s for s in evaluations if s.parent == run.id]
    assert search.end <= before.start < before.end <= after.start
    assert sum(s.parent == search.id for s in evaluations) == result.ga.nfe
    assert len(evaluations) == result.ga.nfe + 2

    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["pipeline.before_eval_s"] == before.end - before.start
    assert metrics["pipeline.after_eval_s"] == after.end - after.start
    assert metrics["ga.nfe"] == result.ga.nfe


def test_pipeline_calls_its_stages_through_its_own_globals(monkeypatch):
    # perfbench/run.py records a run's evaluations by patching
    # pipeline.evaluate_subset and binds each call's arguments by name; it
    # refits the recorded calls without the run's evaluator, so the
    # evaluator must be a pure cache: every call, replayed without it,
    # returns the identical fitness
    ds = make_planted(8, 8, 40, 4, 1.5, seed=3)
    config = pipeline.PipelineConfig(q=6, n_var=3, n_pop=6, stagnation_limit=3, n_splits=3, seed=7)
    calls = Counter()
    evaluations = []
    for name in ("evaluate_subset", "cluster_features", "build_feature_space"):
        original = getattr(pipeline, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            result = _original(*args, **kwargs)
            if _name == "evaluate_subset":
                bound = inspect.signature(_original).bind(*args, **kwargs)
                evaluations.append((bound.arguments, result))
            return result

        monkeypatch.setattr(pipeline, name, recorded)
    result = pipeline.run_pipeline(ds.matrix, ds.labels, config)
    assert calls == {"evaluate_subset": result.ga.nfe + 2, "cluster_features": 1,
                     "build_feature_space": 1}
    assert [len(arguments["features"]) for arguments, _ in evaluations[-2:]] == [
        ds.matrix.m, len(result.selected)
    ]
    (evaluator,) = {arguments["evaluator"] for arguments, _ in evaluations}  # one per run
    assert isinstance(evaluator, classifier.Evaluator)
    for arguments, (fitness, _) in evaluations:
        replay = {name: value for name, value in arguments.items() if name != "evaluator"}
        assert classifier.evaluate_subset(**replay)[0] == fitness


def test_colon_pipeline_fingerprint_is_pinned():
    # perfbench's colon-pipeline operation at its default seed: the report
    # of one pipeline run on the 62x2000 planted shape
    ds = make_planted(22, 40, 2000, 20, 1.2, 42)
    report = pipeline.pipeline_report(pipeline.run_pipeline(ds.matrix, ds.labels, pipeline.PipelineConfig(seed=7)))
    assert_digest(
        json.dumps(report, sort_keys=True).encode(),
        "01a1a8e25b787d9d5bd821a8347a51ddd62de6a185aed4cda387a028cdeec8c2",
    )


def test_wide_evaluate_fingerprint_is_pinned():
    # perfbench's wide-evaluate operation at its default seed: one
    # evaluation over all 7129 columns of the 72-row planted shape
    ds = make_planted(47, 25, 7129, 50, 1.0, 42)
    mean_overall, per_split = classifier.evaluate_subset(
        ds.matrix, ds.labels, list(range(ds.matrix.m)), n_splits=10, test_fraction=0.2, base_seed=401
    )
    digest = {"mean_overall": mean_overall, "per_split": [m.as_dict() for m in per_split]}
    assert_digest(
        json.dumps(digest, sort_keys=True).encode(),
        "46a552b66d77b7a28c40fe2bf9228437cc63d5ff1432198d2304848dedcaacd9",
    )
