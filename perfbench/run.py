"""Benchmark for dmc-gawar: three workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from ``src/`` of
this checkout.  The timed operations drive it only through
``run_pipeline``, ``cli.main`` and ``evaluate_subset``; the workload seed
only generates the inputs.  Each workload is one single-threaded process
(BLAS too) running a closed loop: the next operation starts when the
previous one ends, as long as it is expected to end within ``--seconds``
(the first always runs).

``--trace 0`` reports the end-to-end metrics, with tracing off.  Time is
reported per unit of work and normalised to a nominal host speed
(``norm_ms_per_unit``).  Per unit, because the work varies with the seed:
colon-pipeline's number of fitness evaluations by about 30% and its trees'
size by about 40%, wide-evaluate's tree size by about 10%, so raw run
times would measure the seed more than the code.  On those two workloads
the unit is a tree node, counted by refitting trees with ``fit_tree``
after the clock stops (``Runner._mean_tree_nodes``); on wide-screen it is
one CLI invocation.  Normalised, because the shared host's speed drifts by
about 20% within seconds: ``calibrate.Sampler`` times a fixed reference
kernel every 30 ms during the loop, and each operation's time is scaled by
the speed those samples saw while it ran.  Each set-up runs its own
sampler and is normalised the same way.  Raw wall times are printed too.

``--trace 1`` runs the same loop untraced for half the time and traced for
the other half, and reports the per-layer metrics of the traced operations
(raw times, no sampler) plus the overhead of tracing; spans go to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation
fails if it raises, if the CLI exits non-zero, if an output invariant
does not hold, or if its SHA-256 fingerprint differs from the pinned value
(seed 42) or from the run's first operation (any other seed).
"""

from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy is first imported (by calibrate).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Sampler, normalised, speed  # noqa: E402
from tracing import Tracer, count_nodes, install, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 42
# Stop starting operations once one more would likely end past this many
# seconds of the process's life; a run has to end within 180 s.
DEADLINE_S = 150.0
# Fitness evaluations refitted, after the timed operation, to measure the
# mean tree size of a colon-pipeline run.
REPLAY_SAMPLE = 80

# name: (unit, better, kind, workloads it applies to).  BENCHMARK.json
# lists the same names; the smoke test checks the two agree.
ALL = ("colon-pipeline", "wide-screen", "wide-evaluate")
EVALS = ("colon-pipeline", "wide-evaluate")
PIPE = ("colon-pipeline",)
SCREEN = ("wide-screen",)
METRICS = {
    "norm_ms_per_unit": ("ms", "lower", "end_to_end", ALL),
    "setup_s": ("s", "lower", "end_to_end", ALL),
    "peak_rss_mb": ("MB", "lower", "end_to_end", ALL),
    "run_s": ("s", "lower", "per_layer", ALL),
    "trace.overhead_ratio": ("ratio", "lower", "per_layer", ALL),
    "data.load_csv_s": ("s", "lower", "per_layer", SCREEN),
    "data.split_calls": ("count", "lower", "per_layer", EVALS),
    "data.split_s": ("s", "lower", "per_layer", EVALS),
    "rankers.score_s": ("s", "lower", "per_layer", ("wide-screen", "colon-pipeline")),
    "rankers.columns": ("count", "lower", "per_layer", ("wide-screen", "colon-pipeline")),
    "feature_space.cluster_s": ("s", "lower", "per_layer", ("wide-screen", "colon-pipeline")),
    "feature_space.kmeans_iters": ("count", "lower", "per_layer", ("wide-screen", "colon-pipeline")),
    "feature_space.pool_s": ("s", "lower", "per_layer", ("wide-screen", "colon-pipeline")),
    "classifier.evaluate_calls": ("count", "lower", "per_layer", EVALS),
    "classifier.evaluate_s": ("s", "lower", "per_layer", EVALS),
    "classifier.fit_calls": ("count", "lower", "per_layer", EVALS),
    "classifier.fit_s": ("s", "lower", "per_layer", EVALS),
    "classifier.fit_ms_mean": ("ms", "lower", "per_layer", EVALS),
    "classifier.predict_s": ("s", "lower", "per_layer", EVALS),
    "classifier.tree_nodes_mean": ("count", "lower", "per_layer", EVALS),
    "ga.run_s": ("s", "lower", "per_layer", PIPE),
    "ga.self_s": ("s", "lower", "per_layer", PIPE),
    "ga.spawns": ("count", "lower", "per_layer", PIPE),
    "ga.nfe": ("count", "lower", "per_layer", PIPE),
    "ga.cache_hit_ratio": ("ratio", "higher", "per_layer", PIPE),
    "ga.iterations": ("count", "lower", "per_layer", PIPE),
    "pipeline.self_s": ("s", "lower", "per_layer", PIPE),
    "pipeline.before_eval_s": ("s", "lower", "per_layer", PIPE),
    "pipeline.after_eval_s": ("s", "lower", "per_layer", PIPE),
    "cli.self_s": ("s", "lower", "per_layer", SCREEN),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    planted: tuple  # make_planted arguments before the seed
    unit: str  # what one unit of work in norm_ms_per_unit is
    pinned: str | None  # output fingerprint at DEFAULT_SEED
    setup_repeats: int
    pipeline_config: tuple = (("seed", 7),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "colon-pipeline",
            "the ROADMAP's main 62x2000 shape; ~88% of its time is narrow 10-column fitness "
            "trees, so classifier, ga and data splits work hardest",
            (22, 40, 2000, 20, 1.2),
            "tree node: (NFE + before + after) subset evaluations x 10 fits x mean nodes per fit",
            "01a1a8e25b787d9d5bd821a8347a51ddd62de6a185aed4cda387a028cdeec8c2",
            7,
        ),
        Workload(
            "wide-screen",
            "the 100x20000 screening step (cluster subcommand): load_csv, score_features and "
            "k-means dominate; classifier and ga do no work, so tree changes must not move it",
            (50, 50, 20000, 40, 1.0),
            "CLI invocation",
            "ecde612a2e566d8a3e162db68dec72d0cbfbbbe0ac992d321cce9c9408f26e92",
            3,
        ),
        Workload(
            "wide-evaluate",
            "the 72x7129 'before' baseline over all columns: 10 wide tree fits instead of "
            "thousands of narrow ones, so a tree change that helps narrow fits can cost here",
            (47, 25, 7129, 50, 1.0),
            "tree node: nodes of the 10 trees, refitted after the timed operation",
            "46a552b66d77b7a28c40fe2bf9228437cc63d5ff1432198d2304848dedcaacd9",
            7,
        ),
    )
}


@dataclass
class Outcome:
    seconds: float  # wall time; net of reference samples once normalised
    fingerprint: str
    units: float
    accuracy: float | None
    problems: list[str]
    started: float = 0.0
    norm_seconds: float = 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_package():
    """Import dmc_gawar from this checkout's src/, and nowhere else."""
    if not (SRC / "dmc_gawar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import dmc_gawar
    import dmc_gawar.cli
    import dmc_gawar.synthetic

    if Path(dmc_gawar.__file__).resolve().parent != SRC / "dmc_gawar":
        raise SystemExit(f"perfbench: imported dmc_gawar from {dmc_gawar.__file__}, not {SRC}")
    return dmc_gawar


class Runner:
    """Inputs and one operation of a workload."""

    def __init__(self, dmc, workload: Workload, seed: int, workdir: Path):
        self.dmc = dmc
        self.workload = workload
        self.seed = seed
        self.csv = workdir / "input.csv"
        self.output = workdir / "output.json"
        self.dataset = None

    def setup(self) -> list[tuple[float, float]]:
        """Run the set-up ``setup_repeats`` times, each in a fresh
        interpreter, after one untimed run that compiles the package and
        warms the file cache; return (net, normalised) seconds of the
        timed ones.  The last one's CSV is the workload's input."""
        spec = {
            "src": str(SRC),
            "planted": [*self.workload.planted, self.seed],
            "csv": str(self.csv) if self.workload.name == "wide-screen" else None,
        }
        times = []
        for _ in range(1 + self.workload.setup_repeats):
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            times.append(tuple(json.loads(done.stdout)))
        if spec["csv"] is None:
            self.dataset = self.dmc.synthetic.make_planted(*spec["planted"])
        return times[1:]

    def operation(self, measure_work: bool = True) -> Outcome:
        """Time one operation.  Work measured after the clock stops is
        skipped (1 unit) with ``measure_work`` off, as in a traced run,
        whose spans it would join."""
        op = {
            "colon-pipeline": self._pipeline,
            "wide-screen": self._screen,
            "wide-evaluate": self._evaluate,
        }[self.workload.name]
        started = time.perf_counter()
        try:
            fingerprint, units, accuracy, problems = op()
            seconds = time.perf_counter() - started
            if callable(units):
                units = units() if measure_work else 1
        except Exception as exc:  # an operation that raises is counted as failed
            return Outcome(time.perf_counter() - started, "", 1, None, [f"raised {exc!r}"], started)
        return Outcome(seconds, fingerprint, units, accuracy, problems, started)

    # Each operation returns (fingerprint, work units, accuracy, problems);
    # work units may be a function to call once the operation is timed.
    # Functions are looked up on their modules at call time, so a traced run
    # goes through the wrappers.

    def _pipeline(self):
        """One pipeline run.  Its cost per fitness evaluation follows the
        GA's path: at seeds 207 and 208 the trees it grows average 11.9 and
        17.1 nodes.  So the work unit is a tree node.  ``run_pipeline``'s
        calls to ``evaluate_subset`` are recorded (arguments only, about
        1 us on a 25 ms call); once the clock stops, a seeded sample of the
        GA's evaluations is refitted to measure the mean tree size."""
        pipeline = self.dmc.pipeline
        data = self.dataset
        calls = []
        evaluate = pipeline.evaluate_subset

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return evaluate(*args, **kwargs)

        pipeline.evaluate_subset = recorded
        try:
            result = pipeline.run_pipeline(
                data.matrix, data.labels, pipeline.PipelineConfig(**dict(self.workload.pipeline_config))
            )
        finally:
            pipeline.evaluate_subset = evaluate
        report = pipeline.pipeline_report(result)
        problems = []
        if result.after["overall"] != result.ga.best_fitness:
            problems.append("after accuracy differs from the best fitness")
        if result.ga.history and result.ga.history[-1].nfe_cumulative != result.ga.nfe:
            problems.append("convergence log NFE differs from the result's")
        if not set(result.selected) <= set(result.space) <= set(result.retained):
            problems.append("selected subset is not drawn from the pool")

        def units() -> float:
            bound = [inspect.signature(evaluate).bind(*a, **kw) for a, kw in calls]
            for b in bound:
                b.apply_defaults()
            fitness = [b.arguments for b in bound if len(b.arguments["features"]) == len(result.selected)]
            fits = (result.ga.nfe + 2) * result.config.n_splits
            return fits * self._mean_tree_nodes(fitness)

        fingerprint = sha256(json.dumps(report, sort_keys=True).encode())
        return fingerprint, units, result.after["overall"], problems

    def _mean_tree_nodes(self, calls: list[dict]) -> float:
        """Mean node count of the trees grown by a seeded sample of the
        recorded ``evaluate_subset`` calls (their bound arguments),
        refitted split by split as ``classifier.evaluate_split`` trains
        them."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        nodes = []
        for i in rng.choice(len(calls), size=min(REPLAY_SAMPLE, len(calls)), replace=False):
            call = calls[i]
            x = call["matrix"].values[:, np.asarray(call["features"], dtype=int)]
            y = call["labels"].labels
            for k in range(call["n_splits"]):
                plan = self.dmc.data.stratified_split(call["labels"], call["test_fraction"], call["base_seed"] + k)
                train = np.array(plan.train_indices)
                nodes.append(count_nodes(self.dmc.classifier.fit_tree(x[train], y[train])))
        return statistics.fmean(nodes)

    def _screen(self):
        argv = ["cluster", str(self.csv), "--seed", "7", "--output", str(self.output)]
        code = self.dmc.cli.main(argv)
        if code != 0:
            return "", 1, None, [f"CLI exited {code}"]
        raw = self.output.read_bytes()
        report = json.loads(raw)
        problems = []
        space = report["space"]
        if len(space) != report["q"] or len(set(space)) != len(space):
            problems.append("pool does not hold one distinct feature per cluster")
        if not set(space) <= {int(f) for f in report["assignments"]}:
            problems.append("pool member outside the retained features")
        return sha256(raw), 1, None, problems

    def _evaluate(self):
        """One evaluation over every column.  Its cost follows the number
        of nodes the 10 trees need, which varies by about 10% with the
        seed, so the work unit is a tree node, counted by refitting the
        10 trees once the clock stops."""
        data = self.dataset
        call = dict(matrix=data.matrix, labels=data.labels, features=list(range(data.matrix.m)),
                    n_splits=10, test_fraction=0.2, base_seed=401)
        mean_overall, per_split = self.dmc.classifier.evaluate_subset(**call)
        problems = []
        n_test = math.floor(data.matrix.n * 0.2 + 0.5)
        if len(per_split) != 10 or any(m.tp + m.tn + m.fp + m.fn != n_test for m in per_split):
            problems.append("split count or test-set size is wrong")
        if abs(mean_overall - sum(m.overall for m in per_split) / len(per_split)) > 1e-12:
            problems.append("mean accuracy is not the mean of the splits")
        digest = {"mean_overall": mean_overall, "per_split": [m.as_dict() for m in per_split]}

        def units() -> float:
            return call["n_splits"] * self._mean_tree_nodes([call])

        return sha256(json.dumps(digest, sort_keys=True).encode()), units, mean_overall, problems


def closed_loop(operation, seconds: float, process_start: float) -> list[Outcome]:
    """Run ``operation`` back to back for ``seconds``: the first always,
    each later one only if, lasting as long as the last, it ends in time."""
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    while not outcomes or time.perf_counter() - started + outcomes[-1].seconds <= seconds:
        if outcomes and time.perf_counter() - process_start + outcomes[-1].seconds > DEADLINE_S:
            break
        outcomes.append(operation())
    return outcomes


def sampled_loop(operation, seconds: float, process_start: float) -> tuple[list[Outcome], float]:
    """``closed_loop`` with the reference sampler on; fills in each
    outcome's net and normalised seconds and returns the outcomes and the
    run's mean host speed (1 = nominal)."""
    with Sampler() as sampler:
        outcomes = closed_loop(operation, seconds, process_start)
    # A run too short for one timer tick (the smoke test's) is not scaled.
    run_speed = speed([d for _, d in sampler.samples]) if sampler.samples else 1.0
    for o in outcomes:
        inside = sampler.window(o.started, o.started + o.seconds)
        o.seconds, o.norm_seconds = normalised(o.seconds, inside, run_speed)
    return outcomes, run_speed


def judge(outcomes: list[Outcome], expected: str | None) -> int:
    """Mark fingerprint mismatches as problems; return the failure count.

    Without a pinned value every operation must match the run's first
    fingerprint, since a run is a pure function of its inputs.
    """
    reference = expected or next((o.fingerprint for o in outcomes if o.fingerprint), "")
    for o in outcomes:
        if o.fingerprint and o.fingerprint != reference:
            o.problems.append(f"fingerprint {o.fingerprint[:16]} != expected {reference[:16]}")
    return sum(1 for o in outcomes if o.problems)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def report_lines(metrics: dict, info: dict) -> list[str]:
    lines = []
    for name, value in metrics.items():
        unit, better, _, applies = METRICS[name]
        lines.append(f"  {name:28s} {value:14.6g} {unit:6s} ({better} is better; {', '.join(applies)})")
    for name, value in info.items():
        lines.append(f"  {name:28s} {value}")
    return lines


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    process_start = time.perf_counter()
    dmc = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer()
    layers: list[dict] = []

    def traced_operation() -> Outcome:
        tracer.op += 1
        tracer.counts.clear()
        outcome = runner.operation(measure_work=False)
        layers.append(layer_metrics(tracer, tracer.op))
        return outcome

    try:
        runner = Runner(dmc, workload, seed, workdir)
        setup_times = runner.setup()
        outcomes, run_speed = sampled_loop(runner.operation, seconds / 2 if trace else seconds, process_start)
        traced: list[Outcome] = []
        if trace:
            install(tracer, dmc)
            try:
                traced = closed_loop(traced_operation, seconds / 2, process_start)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = workload.pinned if seed == DEFAULT_SEED else None
    failed = judge(outcomes + traced, expected)
    run_s = statistics.median(o.seconds for o in outcomes)
    if trace:
        metrics = {"run_s": run_s, "trace.overhead_ratio": statistics.median(o.seconds for o in traced) / run_s}
        metrics.update({k: statistics.median(layer[k] for layer in layers) for k in layers[0]})
    else:
        metrics = {
            "norm_ms_per_unit": statistics.median(1000.0 * o.norm_seconds / o.units for o in outcomes),
            "setup_s": statistics.median(norm for _, norm in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    attempted = len(outcomes) + len(traced)
    accuracies = [o.accuracy for o in outcomes if o.accuracy is not None]
    info = {
        "workload": workload.name,
        "seed": seed,
        "shape": f"make_planted{(*workload.planted, seed)}",
        "why": workload.why,
        "unit of work": workload.unit,
        "operations": f"{len(outcomes)} untraced, {len(traced)} traced, median of each",
        "operation seconds": ", ".join(f"{o.seconds:.4f}" for o in outcomes + traced),
        "normalised seconds": ", ".join(f"{o.norm_seconds:.4f}" for o in outcomes),
        "raw ms per unit": f"{statistics.median(1000.0 * o.seconds / o.units for o in outcomes):.6g} ms (untraced median)",
        "host speed": f"{run_speed:.4f} x nominal, mean over the loop's reference samples",
        "set-ups": f"{len(setup_times)} timed, median; net {', '.join(f'{w:.4f}' for w, _ in setup_times)} s; "
        f"normalised {', '.join(f'{n:.4f}' for _, n in setup_times)} s",
        "run_s (untraced median)": f"{run_s:.6g} s, lower is better",
        "accuracy": f"{accuracies[0]!r}, higher is better" if accuracies else "n/a for this workload",
        "error_rate": f"{failed / attempted!r} ({failed}/{attempted}), lower is better",
        "fingerprint": outcomes[0].fingerprint or "none",
        "pinned": expected or "none for this seed",
        **machine_facts(),
    }
    print(f"perfbench {'per-layer (traced)' if trace else 'end-to-end (untraced)'} metrics:")
    print("\n".join(report_lines(metrics, info)))
    for o in outcomes + traced:
        for problem in o.problems:
            print(f"  FAILED: {problem}")
    if trace:
        tracer.dump(OUT / f"spans-{workload.name}-{seed}.jsonl", {"facts": info, "ops": [asdict(o) for o in traced]})
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": METRICS[k][0]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
