"""Source hygiene: every name a module imports is used in that module.

`__init__.py` is skipped, because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import ffkakeya

MODULES = sorted(
    p for p in Path(ffkakeya.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import List, Optional\n\nx: Optional[int] = os.sep\n"
    assert _unused_imports(source) == [(2, "List")]
