"""Module boundaries of wg4: no module reaches into a sibling's private
names, and none keeps process-wide state of its own.

A name with one leading underscore belongs to the module that defines it.
The checker parses every module of the package and reports
``from .sibling import _name`` and ``sibling._name``, where ``sibling``
is a wg4 module bound by an import.  A second checker reports every
``global`` statement and every ``lru_cache`` with a bounded size: the
only process-wide state wg4 keeps is the CLI's one forward model
(``cli._kept``), besides tables that depend on no argument.
"""

import ast
from pathlib import Path

import pytest

import wg4

MODULES = sorted(Path(wg4.__file__).resolve().parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def violations(source: str, filename: str) -> list[str]:
    """One ``file:line: name`` entry per private name taken from a sibling."""
    tree = ast.parse(source, filename=filename)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "wg4"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{filename}:{node.lineno}: {alias.name}")
                elif node.module in (None, "wg4"):  # from . import poly
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            siblings.update(a.asname for a in node.names if a.asname and a.name.startswith("wg4."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{filename}:{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_checker_reports_both_forms():
    source = "\n".join([
        "from . import poly, solve as solve_mod",
        "from .mesh import Mesh, _outward_normals",
        "import wg4.weakops as wo",
        "import numpy as np",
        "x = poly._CENTROID + solve_mod._REFINEMENT_STEPS + wo._sides + np._private",
        "y = poly.sides, wg4.__version__",
    ])
    assert violations(source, "m.py") == [
        "m.py:2: _outward_normals",
        "m.py:5: poly._CENTROID",
        "m.py:5: solve_mod._REFINEMENT_STEPS",
        "m.py:5: wo._sides",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_a_siblings_private_names(path):
    assert violations(path.read_text(), path.name) == []


#: The one ``global`` statement wg4 has: the CLI's kept forward model.
KEPT_MODEL = ["cli.py:_kept_model: global _kept"]


def process_state(source: str, filename: str) -> list[str]:
    """One ``file:function: ...`` entry per ``global`` statement and per
    ``lru_cache`` that is not ``lru_cache(maxsize=None)``."""
    found = []
    for func in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.append(f"{filename}:{func.name}: global {', '.join(node.names)}")
        for deco in map(ast.unparse, func.decorator_list):
            if "lru_cache" in deco and not deco.endswith("lru_cache(maxsize=None)"):
                found.append(f"{filename}:{func.name}: {deco}")
    return found


def test_state_checker_reports_globals_and_bounded_caches():
    source = "\n".join([
        "import functools",
        "from functools import lru_cache",
        "_kept = None",
        "def keep(x):",
        "    global _kept",
        "    _kept = x",
        "@lru_cache(maxsize=1)",
        "def mesh(n): ...",
        "@functools.lru_cache",
        "def lattice(n): ...",
        "@lru_cache(maxsize=None)",
        "def table(): ...",
    ])
    assert process_state(source, "m.py") == [
        "m.py:keep: global _kept",
        "m.py:mesh: lru_cache(maxsize=1)",
        "m.py:lattice: functools.lru_cache",
    ]


def test_no_module_keeps_state_but_the_clis_one_model():
    found = [entry for path in MODULES for entry in process_state(path.read_text(), path.name)]
    assert found == KEPT_MODEL
