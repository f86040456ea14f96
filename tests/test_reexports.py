"""Import paths: each name has one, the module that defines it, except the
names the benchmark in ``perfbench/`` reaches through another module.

That contract is read from the benchmark's own sources: the ``(module,
attribute)`` pairs of the tracer's ``LAYERS`` table, and every attribute of
a ``torofree`` module and every ``from torofree.… import`` name in the
benchmark's files.  Such a name must be the very object of its defining
module, not a copy or a wrapper, so that the tracer, which rebinds a
function wherever it is held, traces every caller.  ``classify`` holds
exactly those names and defines nothing, and no other module imports a name
it does not use.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SOURCES = sorted((ROOT / "src" / "torofree").glob("*.py"))


def _layers() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)
                    if "." not in attr]  # "Class.method" names a class attribute
    raise AssertionError("no LAYERS table in perfbench/tracer.py")


def _benchmark_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each ``from torofree.m import name`` and each
    ``alias.name`` of a ``from torofree import m as alias`` in one file."""
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "torofree":
            aliases.update({a.asname or a.name: f"torofree.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torofree."):
            names |= {(node.module, a.name) for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
    return names


CONTRACT = sorted(set(_layers()).union(*map(_benchmark_names, sorted(PERFBENCH.glob("*.py")))))


def test_each_benchmark_name_is_the_object_of_its_defining_module():
    for module, name in CONTRACT:
        value = getattr(importlib.import_module(module), name)
        home = sys.modules[value.__module__]
        assert vars(home)[name] is value, (module, name, home.__name__)


def test_classify_holds_only_the_benchmark_names():
    classify = importlib.import_module("torofree.classify")
    public = {name for name in vars(classify) if not name.startswith("_")}
    assert public == {name for module, name in CONTRACT if module == "torofree.classify"}
    assert len(public) == 17


def test_classify_defines_nothing():
    classify = importlib.import_module("torofree.classify")
    own = [name for name, value in vars(classify).items()
           if getattr(value, "__module__", None) == "torofree.classify"]
    assert own == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    reached = {name for module, name in CONTRACT if module == f"torofree.{path.stem}"}
    assert imported - used - reached == set()
