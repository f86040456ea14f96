"""The benchmark tracer's layer table resolves against the current source.

perfbench/tracer.py rebinds every (module, attribute) in its LAYERS table; a
refactor that renames or drops one of those functions would crash the traced
benchmark, so this guard fails first.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


@pytest.mark.parametrize("name,modname,attr", LAYERS, ids=[name for name, _, _ in LAYERS])
def test_layer_resolves_to_a_function(name, modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert isinstance(cls, type), f"{modname}.{cls_name} is not a class"
        # the tracer rebinds the entry of the class dict, not an inherited one
        fn = vars(cls).get(meth)
        assert isinstance(fn, types.FunctionType), \
            f"{attr} is not a function in the class dict of {modname}.{cls_name}"
    else:
        # a module-level layer may be a cached function (functools.lru_cache)
        fn = getattr(module, attr, None)
        assert callable(fn), f"{modname}.{attr} is not a function"
