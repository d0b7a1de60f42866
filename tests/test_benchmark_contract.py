"""The benchmark's span tracer (``perfbench/tracing.py``) against the real
package.

The tracer wraps functions at the module globals their callers look up.
A rename or a call that bypasses one of those globals would break
``perfbench/run.py --trace 1`` or make it count a layer twice; these
tests catch that here.
"""

import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import dmc_gawar
from dmc_gawar import classifier, cli, pipeline
from dmc_gawar.data import save_csv
from dmc_gawar.synthetic import make_planted

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
