"""Every name a package module imports is read somewhere in that module.

No lint tool is needed: each ``src/dmc_gawar/*.py`` but ``__init__.py``
(whose imports are the package's re-exports) is parsed with ``ast``.  An
import on a line marked ``# noqa: F401`` is exempt; such a name is kept
for another module to look up, as ``cli`` keeps the names the benchmark's
tracer wraps.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dmc_gawar"


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                if alias.name != "annotations":  # from __future__ import annotations
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unread_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nprint(loads)\n"
    assert unread_imports(source) == ["dumps (line 3)", "os (line 1)"]
