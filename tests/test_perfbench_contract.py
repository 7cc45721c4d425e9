"""The names perfbench wraps must exist in bregprox.

perfbench's tracer replaces bregprox functions by name; a name that no
longer resolves raises RuntimeError in every traced benchmark run, which
the tests would not otherwise see.  The tracer is read from its source
file and executed in a fresh module, so nothing is written under
perfbench/.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# wrapped by name outside the COARSE and HOT lists
EXTRA = ("solvers.run_solver", "functions.least_squares",
         "prox.make_prox_map")


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    # its dataclasses look the module up by name while they are built
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


tracer = load_tracer()


def test_tracer_lists_names():
    assert tracer.COARSE and tracer.HOT


@pytest.mark.parametrize("name", tracer.COARSE + tracer.HOT + EXTRA)
def test_spanned_name_is_a_bregprox_function(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"bregprox.{module}"), attr, None)
    assert callable(fn), f"bregprox.{name} is gone"
