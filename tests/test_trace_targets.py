"""Every lfe function and method the benchmark tracer wraps must exist.

The tracer in perfbench/bench_trace.py skips a target it cannot find, so a
renamed or deleted target would make its per-layer metrics read 0 silently.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_trace", Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
)
bench_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trace)


@pytest.mark.parametrize("module,function", [target[:2] for target in bench_trace._FUNCTIONS])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("module,cls,method", [target[:3] for target in bench_trace._METHODS])
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls, None)
    # the tracer patches the method where the class defines it, not where it inherits it
    assert owner is not None and callable(vars(owner).get(method))
