"""Every demo script runs to completion, quietly, from a scratch directory;
the search demos print the same bytes on every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_digest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# SHA-256 of the standard output of the demos whose numbers come from a search
STDOUT_SHA256 = {
    "04_adaptive_search": "275aecac434b3a9179a77aa94989d88a991637413eb0464842d8a9a6db4948f0",
    "05_full_pipeline": "3c99a9eb19b361a6df68f8055ae783233f2af598ee23dd0eb58bd6085f21c225",
}


def test_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    if demo.stem in STDOUT_SHA256:
        assert_digest(done.stdout.encode(), STDOUT_SHA256[demo.stem])
