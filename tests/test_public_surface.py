"""The package's top-level names are the ones the README and demos use.

The demos are not run by the test suite, so this reads their imports (and
the README's code blocks) with ``ast`` and checks them against
``dmc_gawar.__all__``.
"""

import ast
import re
from pathlib import Path

import dmc_gawar

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def top_level_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "dmc_gawar" and node.level == 0
        for alias in node.names
    }


def imported_names() -> set[str]:
    sources = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", README, flags=re.S)
    return set().union(*map(top_level_imports, sources))


def lower_level_names() -> set[str]:
    """Bare names in backticks in the README's "Lower-level pieces" paragraph."""
    paragraph = re.search(r"^Lower-level pieces.*?\n\n", README, flags=re.S | re.M).group(0)
    return set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))


def test_every_imported_name_is_public_and_resolves():
    names = imported_names()
    assert {"run_pipeline", "SubsetOptimizer", "dmc_score"} <= names  # the scan found them
    for name in sorted(names):
        assert name in dmc_gawar.__all__, name
        assert hasattr(dmc_gawar, name), name


def test_all_holds_only_used_names():
    allowed = imported_names() | lower_level_names() | {"DataError", "__version__"}
    assert len(set(dmc_gawar.__all__)) == len(dmc_gawar.__all__)
    assert set(dmc_gawar.__all__) <= allowed
    for name in dmc_gawar.__all__:
        assert hasattr(dmc_gawar, name), name


def test_readme_names_every_top_level_name():
    assert lower_level_names() == set(dmc_gawar.__all__) - {"__version__"}
