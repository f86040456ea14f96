"""Start-up guard: what a fresh interpreter loads for ``import torofree``,
``import torofree.cli`` and single CLI commands.

Every CLI verdict is one fresh process, so a module that a command does not
run is paid for in start-up time and memory on every call.  Each check runs
in its own ``python -S`` subprocess, so that nothing this test process or the
site-packages scan imported can hide a load.
"""

import json
import subprocess
import sys

import pytest

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
    assert not loaded & {"dataclasses", "torofree.classify", "torofree.verify"}


A1_TOROIDAL = {
    "algebra": {"family": "A", "rank": 1, "loop_vars": 1, "variant": "toroidal"},
    "lambda": ["2"], "base_a": ["1"], "base_b": "1", "S": [1, 2],
}


@pytest.mark.parametrize("args,unloaded", [
    (["formulas", "--rank", "2"], {"torofree.classify", "torofree.verify"}),
    (["act", "--spec", "{spec}", "--gen", "x1(1)", "--poly", "d1*H1"],
     {"torofree.classify", "torofree.verify"}),
    (["lemma-pa", "--samples", "5"], {"torofree.classify"}),
], ids=["formulas", "act", "lemma-pa"])
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
    assert not loaded & (unloaded | {"dataclasses"})
