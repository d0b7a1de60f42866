"""Smoke test of the benchmark itself, at tiny shapes.

Not part of the package's test suite (pytest collects ``tests/`` only).
Run from the repository root with:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import calibrate
import run

TINY = {
    "colon-pipeline": dict(
        planted=(6, 6, 40, 4, 1.5),
        pipeline_config=(("seed", 7), ("q", 6), ("n_var", 3), ("stagnation_limit", 3)),
    ),
    "wide-screen": dict(planted=(6, 6, 40, 4, 1.0)),
    "wide-evaluate": dict(planted=(6, 6, 40, 4, 1.0)),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], setup_repeats=1, **TINY[name])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = run.run(tiny(name), seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    kind = "per_layer" if trace else "end_to_end"
    expected = {k for k, spec in run.METRICS.items() if spec[2] == kind}
    assert set(result["metrics"]) == expected
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.METRICS[metric][0]
        assert isinstance(entry["value"], (int, float))
    printed = capsys.readouterr().out
    for metric in expected:
        assert metric in printed


def test_fingerprint_mismatch_counts_as_failure():
    outcomes = [run.Outcome(1.0, "a" * 64, 1, None, []), run.Outcome(1.0, "b" * 64, 1, None, [])]
    assert run.judge(outcomes, "a" * 64) == 1
    assert run.judge([run.Outcome(1.0, "c" * 64, 1, None, [])], "a" * 64) == 1


def test_normalised_time_scales_by_the_mean_sample_speed():
    slow = [2 * calibrate.REF_SAMPLE_MS / 1000.0] * calibrate.MIN_SAMPLES
    net, norm = calibrate.normalised(1.0, slow, fallback_speed=1.0)
    assert net == pytest.approx(1.0 - sum(slow))
    assert norm == pytest.approx(net / 2)
    # Too few samples inside the operation: the run's speed sets the scale.
    assert calibrate.normalised(1.0, slow[:1], fallback_speed=0.25)[1] == pytest.approx((1.0 - slow[0]) / 4)


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        table = {k: v[:2] for k, v in run.METRICS.items() if v[2] == kind}
        assert listed == table


def test_fails_without_the_package_source():
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide-evaluate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
