"""Source hygiene: every name a module imports is used in that module, every
import sits at module level, every module-level private name (`_x`) is
referenced in its own module, every `raise` names an exception the CLI
reports or an internal invariant, every import is relative or names a
standard-library module, since the package declares no dependencies, and
no module has an `assert` statement, since `python -O` strips them: a
self-check raises AssertionError itself, and no module reads
`sys.byteorder` or calls `byteswap`, so packed data has one layout on
every host.

The first four checks skip `__init__.py`, whose imports are the package's
exports.
"""

import ast
import sys
from pathlib import Path

import pytest

import ffkakeya
from ffkakeya import errors

PACKAGE = sorted(Path(ffkakeya.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


# `cli.main` turns the package's errors and ValueError into exit 2; an
# AssertionError is a broken invariant, a bug
ALLOWED_RAISES = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.FFKakeyaError)
} | {"ValueError", "AssertionError"}


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


def _function_imports(source: str) -> list:
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.update((node.lineno, alias.name) for alias in node.names)
    return sorted(found)


def _unreferenced_privates(source: str) -> list:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import List, Optional\n\nx: Optional[int] = os.sep\n"
    assert _unused_imports(source) == [(2, "List")]


def _foreign_imports(source: str) -> list:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.update(
            (node.lineno, name) for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        )
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    assert _foreign_imports(path.read_text()) == []


def test_checker_flags_a_foreign_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from array import array\n"
        "from . import errors\n"
        "from .mpoly import SparsePoly\n"
        "from sympy.ntheory import isprime\n"
        "def run():\n"
        "    import gmpy2\n"
    )
    assert _foreign_imports(source) == [(2, "numpy"), (6, "sympy.ntheory"), (8, "gmpy2")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert _function_imports(path.read_text()) == []


def test_checker_flags_a_function_local_import():
    source = (
        "import os\n"
        "class Spec:\n"
        "    def load(self):\n"
        "        from .ffield import field_from_json\n"
        "        return field_from_json\n"
        "def run():\n"
        "    def inner():\n"
        "        import json, math\n"
        "    return os.sep\n"
    )
    assert _function_imports(source) == [(4, "field_from_json"), (8, "json"), (8, "math")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    assert _unreferenced_privates(path.read_text()) == []


def test_checker_flags_an_unreferenced_private_name():
    source = (
        "_GUARD = 10\n"
        "_STALE, _kept = 1, 2\n"
        "__all__ = []\n"
        "class _Infinite:\n"
        "    _instance = None\n"
        "def _helper():\n"
        "    return _GUARD + _kept\n"
        "def _left_over():\n"
        "    _local = 1\n"
        "def run():\n"
        "    return _helper()\n"
    )
    assert _unreferenced_privates(source) == [(2, "_STALE"), (4, "_Infinite"), (8, "_left_over")]


def _foreign_raises(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc) if exc is not None else "raise"
            if name not in ALLOWED_RAISES:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_name_a_reported_exception(path):
    assert _foreign_raises(path.read_text()) == []


def test_checker_flags_a_foreign_raise():
    source = (
        "from . import errors\n"
        "def check(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n"
        "    if x > 9:\n"
        "        raise SizeGuard(f'{x} exceeds guard') from None\n"
        "    if x == 5:\n"
        "        raise OverflowError\n"
        "    if x == 6:\n"
        "        raise errors.SizeGuard('qualified')\n"
        "    try:\n"
        "        assert x\n"
        "    except AssertionError:\n"
        "        raise\n"
    )
    assert _foreign_raises(source) == [(8, "OverflowError"), (10, "errors.SizeGuard"), (14, "raise")]


def _assert_statements(source: str) -> list:
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _assert_statements(path.read_text()) == []


def test_checker_flags_an_assert_statement():
    source = (
        "def check(x):\n"
        "    assert x, 'stripped under -O'\n"
        "    if not x:\n"
        "        raise AssertionError('kept under -O')\n"
        "    class Inner:\n"
        "        def run(self):\n"
        "            assert self\n"
        "    return 'assert x'\n"
    )
    assert _assert_statements(source) == [2, 7]


def _host_byte_order(source: str) -> list:
    tree = ast.parse(source)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("byteorder", "byteswap")
        or isinstance(node, ast.alias) and node.name == "byteorder"
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_host_byte_order(path):
    assert _host_byte_order(path.read_text()) == []


def test_checker_flags_host_byte_order():
    source = (
        "import sys\n"
        "from array import array\n"
        "SWAP = sys.byteorder == 'big'\n"
        "def pack(items):\n"
        "    a = array('H', items)\n"
        "    a.byteswap()\n"
        "    return int.from_bytes(a.tobytes(), 'little')\n"
        "NOTE = 'sys.byteorder'\n"
        "from sys import byteorder as order\n"
    )
    assert _host_byte_order(source) == [3, 6, 9]
