"""Every case that ``test_cli.TestEdgeValues`` samples: each subcommand,
each flag of the parser's table, each edge value and each tiny data file,
7 x 17 x 7 x 5 = 4,165 in-process CLI runs under the same assertions.

The name does not match ``test_*.py``, so a plain ``pytest`` run does not
collect it.  Run it by name (about 30 s on a 2-core Xeon):

    PYTHONPATH=src python -m pytest -q tests/edge_sweep.py
"""

import itertools

import pytest

import test_cli
from dmc_gawar import cli

CASES = list(itertools.product(
    sorted(cli._COMMANDS), sorted(cli._HELP), test_cli.EDGE_VALUES, sorted(test_cli.TINY_CSVS)
))
# the sampled test's body, run on one case without hypothesis' draw
check = test_cli.TestEdgeValues.test_any_flag_with_an_edge_value_ends_cleanly.hypothesis.inner_test


@pytest.mark.parametrize("command, flag, value, data", CASES)
def test_edge_case(command, flag, value, data):
    check(test_cli.TestEdgeValues(), command, flag, value, data)
