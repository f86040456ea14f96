"""Start-up guard: what a fresh interpreter loads for ``import torofree``,
``import torofree.cli`` and single CLI commands.

Every CLI verdict is one fresh process, so a module that a command does not
run is paid for in start-up time and memory on every call.  Each check runs
in its own ``python -S`` subprocess, so that nothing this test process or the
site-packages scan imported can hide a load.
"""

import importlib
import json
import subprocess
import sys

import pytest

import torofree
from conftest import src_env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env=src_env(), timeout=120)


def _loaded_after(code: str) -> set[str]:
    proc = _python("-c", code + "\nimport sys; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_torofree_loads_no_submodule_and_resolves_every_public_name():
    assert {m for m in _loaded_after("import torofree") if m.startswith("torofree.")} == set()
    code = (
        "import torofree\n"
        "for name in torofree.__all__: getattr(torofree, name)\n"
        "try:\n"
        "    torofree.no_such_name\n"
        "except AttributeError:\n"
        "    print('refused')\n"
        "from torofree import *\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_import_cli_loads_neither_dataclasses_nor_classify():
    loaded = _loaded_after("import torofree.cli")
    assert "torofree.cli" in loaded
    assert not loaded & {"dataclasses", "typing", "torofree.classify", "torofree.verify",
                         "torofree.repmods", "torofree.search", "torofree.recovery"}


A1_TOROIDAL = {
    "algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "toroidal"},
    "lambda": ["2"], "base_a": ["1"], "base_b": "1", "S": [1, 2],
}


# the modules a command may not load, beyond dataclasses and typing (each
# costs milliseconds to import, for no code a command runs): a command that
# states a verdict from the spec loads no Lie bracket (liealg), no suites
# (verify) and no search or recovery, and none loads the classify facade
FACADE = {"torofree.classify"}
SPEC_ONLY = FACADE | {"torofree.liealg", "torofree.verify", "torofree.search",
                      "torofree.recovery", "torofree.checks"}


@pytest.mark.parametrize("args,unloaded", [
    (["formulas", "--rank", "2"], SPEC_ONLY),
    (["act", "--spec", "{spec}", "--gen", "x1(1)", "--poly", "d1*H1"], SPEC_ONLY),
    (["simplicity", "--spec", "{spec}"], SPEC_ONLY),
    (["iso", "--spec", "{spec}", "--spec2", "{spec}"], SPEC_ONLY),
    (["witness", "--spec", "{spec}", "--maxdeg", "2", "--window=0:1"],
     FACADE | {"torofree.recovery", "torofree.verify", "torofree.liealg", "torofree.checks"}),
    (["recover", "--spec", "{spec}", "--window=0:1"],
     FACADE | {"torofree.search", "torofree.verify", "torofree.liealg"}),
    (["verify", "--spec", "{spec}", "--samples", "2", "--window=0:1"],
     FACADE | {"torofree.search", "torofree.recovery"}),
    (["lemma-pa", "--samples", "5"], FACADE | {"torofree.search", "torofree.recovery"}),
], ids=["formulas", "act", "simplicity", "iso", "witness", "recover", "verify", "lemma-pa"])
def test_command_loads_only_the_modules_it_runs(tmp_path, args, unloaded):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(A1_TOROIDAL))
    argv = [a.format(spec=spec) for a in args]
    # -X importtime names every module the command imports, on stderr
    proc = _python("-X", "importtime", "-m", "torofree.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "torofree.repmods" in loaded
    assert not loaded & (unloaded | {"dataclasses", "typing"})


def _torofree_loaded_after(code: str) -> set[str]:
    return {m for m in _loaded_after(code) if m.startswith("torofree")}


@pytest.mark.parametrize("module", sorted(set(torofree._EXPORTS.values())))
def test_a_public_name_loads_only_its_defining_module(module):
    """Reading the package's names of one module loads what importing that
    module does, and no more (``torofree.iso_test`` loads ``repmods`` and its
    imports, not the classification modules)."""
    names = [name for name, home in torofree._EXPORTS.items() if home == module]
    got = _torofree_loaded_after(
        "import torofree\n" + "".join(f"torofree.{name}\n" for name in names))
    assert got == _torofree_loaded_after(f"import torofree.{module}")
    assert all(getattr(importlib.import_module(f"torofree.{module}"), name)
               is getattr(torofree, name) for name in names)


def test_simplicity_and_iso_load_only_the_module_specs():
    got = _torofree_loaded_after("import torofree\ntorofree.iso_test\ntorofree.simplicity_predict")
    assert got == {"torofree", "torofree.algebras", "torofree.errors", "torofree.polyalg",
                   "torofree.repmods"}
