"""Every name the benchmark's tracer wraps still exists in constalg.

perfbench/tracer.py replaces functions and methods by name when a traced
benchmark starts; a renamed target would crash that run.  This reads the
tracer's target tables without changing them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from constalg import ProblemInstance, build_generators

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("short,attr,prefix", tracer.TIMED_FUNCTIONS)
def test_timed_function_resolves(short, attr, prefix):
    module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
    assert callable(getattr(module, attr))
    assert prefix.startswith(f"{short}.{attr}")


@pytest.mark.parametrize(
    "short,cls_name,method,prefix", tracer.TIMED_METHODS + tracer.COUNTED_METHODS
)
def test_traced_method_resolves(short, cls_name, method, prefix):
    cls = getattr(importlib.import_module(f"{tracer.PACKAGE}.{short}"), cls_name)
    # the tracer reads the method from the class's own dict, not by inheritance
    assert callable(cls.__dict__[method])


def test_power_cache_is_keyed_by_pair_and_exponent():
    # the u_power counter probes table._power_cache for (j, k, exponent)
    table = build_generators(ProblemInstance.from_coeffs(3, [[0, 1], ["1/2", 3], [2, 0, "5/3"]]))
    table.u_power(1, 3, 5)
    assert (1, 3, 5) in table._power_cache
    assert all(len(key) == 3 for key in table._power_cache)
