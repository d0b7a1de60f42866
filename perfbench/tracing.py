"""Span tracing for the benchmark's traced runs.

The tracer wraps the package's public functions at the names their
callers look them up under, records one span per call (name, start, end,
parent, operation id) and a few counters read off the returned values,
and derives the per-layer metrics from them.  Nothing here changes what
the wrapped functions compute; ``restore`` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def count_nodes(node) -> int:
    """Nodes of a fitted tree, leaves included."""
    if node.is_leaf:
        return 1
    return 1 + count_nodes(node.left) + count_nodes(node.right)


class Tracer:
    """In-memory spans and counters for one process; spans are written out
    by ``dump`` when the benchmark ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs):
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None, outermost_only: bool = False):
        """Replace ``owner.attr`` by a traced version.

        ``on_result(args, result)`` records counters from a call's result.
        With ``outermost_only``, calls made while the same span is open
        (recursion through the module global) run untraced.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if outermost_only and tracer._open(name):
                return original(*args, **kwargs)
            result = tracer._call(name, original, args, kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _open(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def install(tracer: Tracer, dmc) -> None:
    """Wrap every layer boundary the three workloads cross.

    ``dmc`` is the imported ``dmc_gawar`` package.  Each function is
    wrapped in every module that imported it by name, because that module
    global is what its caller looks up.
    """
    cli, pipeline, classifier, rankers, ga = dmc.cli, dmc.pipeline, dmc.classifier, dmc.rankers, dmc.ga
    counts = tracer.counts

    def on_score(args, scores):
        counts["rankers.columns"] += len(scores)

    def on_cluster(args, model):
        counts["feature_space.kmeans_iters"] += model.n_iterations

    def on_fit(args, tree):
        counts["classifier.tree_nodes"] += count_nodes(tree)

    def on_ga(args, result):
        optimizer = args[0]
        counts["ga.spawns"] += optimizer.n_pop + sum(r.n_c + r.n_m for r in result.history)
        counts["ga.nfe"] += result.nfe
        counts["ga.iterations"] += result.n_iterations

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(pipeline, "run_pipeline", "pipeline.run")
    tracer.wrap(cli, "load_csv", "data.load_csv")
    tracer.wrap(classifier, "stratified_split", "data.split")
    for module in (rankers, cli):
        tracer.wrap(module, "score_features", "rankers.score", on_score)
    for module in (pipeline, cli):
        tracer.wrap(module, "cluster_features", "feature_space.cluster", on_cluster)
        tracer.wrap(module, "build_feature_space", "feature_space.pool")
    tracer.wrap(ga.SubsetOptimizer, "run", "ga.run", on_ga)
    for module in (pipeline, classifier):
        tracer.wrap(module, "evaluate_subset", "classifier.evaluate")
    tracer.wrap(classifier, "fit_tree", "classifier.fit", on_fit, outermost_only=True)
    tracer.wrap(classifier, "predict", "classifier.predict")


def layer_metrics(tracer: Tracer, op: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation; counters are reset
    between operations by the caller."""
    spans = [s for s in tracer.spans if s.op == op]
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def self_time(name):
        return sum(s.end - s.start - child_time[s.id] for s in spans if s.name == name)

    runs = {s.id for s in spans if s.name == "pipeline.run"}
    stage_evals = [s for s in spans if s.name == "classifier.evaluate" and s.parent in runs]
    before = stage_evals[0::2]
    after = stage_evals[1::2]
    c = tracer.counts
    fit_calls = calls("classifier.fit")
    spawns = c["ga.spawns"]
    return {
        "data.load_csv_s": total("data.load_csv"),
        "data.split_calls": calls("data.split"),
        "data.split_s": total("data.split"),
        "rankers.score_s": total("rankers.score"),
        "rankers.columns": c["rankers.columns"],
        "feature_space.cluster_s": total("feature_space.cluster"),
        "feature_space.kmeans_iters": c["feature_space.kmeans_iters"],
        "feature_space.pool_s": total("feature_space.pool"),
        "classifier.evaluate_calls": calls("classifier.evaluate"),
        "classifier.evaluate_s": total("classifier.evaluate"),
        "classifier.fit_calls": fit_calls,
        "classifier.fit_s": total("classifier.fit"),
        "classifier.fit_ms_mean": 1000.0 * total("classifier.fit") / fit_calls if fit_calls else 0.0,
        "classifier.predict_s": total("classifier.predict"),
        "classifier.tree_nodes_mean": c["classifier.tree_nodes"] / fit_calls if fit_calls else 0.0,
        "ga.run_s": total("ga.run"),
        "ga.self_s": self_time("ga.run"),
        "ga.spawns": spawns,
        "ga.nfe": c["ga.nfe"],
        "ga.cache_hit_ratio": 1.0 - c["ga.nfe"] / spawns if spawns else 0.0,
        "ga.iterations": c["ga.iterations"],
        "pipeline.self_s": self_time("pipeline.run"),
        "pipeline.before_eval_s": sum(s.end - s.start for s in before),
        "pipeline.after_eval_s": sum(s.end - s.start for s in after),
        "cli.self_s": self_time("cli.main"),
    }
