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

# targets deleted from lfe on purpose, which the tracer skips: the annulus
# maximizer (the certificate's C_gradV_B and M are closed-form; its module
# lfe.sampling is gone too) and the callable potential (a test potential in
# conftest.py)
_RETIRED = {("lfe.sampling", "maximize_on_annulus"), ("lfe.fields", "TabulatedPotential", "gradient")}
_FUNCTIONS = [t[:2] for t in bench_trace._FUNCTIONS if t[:2] not in _RETIRED]
_METHODS = [t[:3] for t in bench_trace._METHODS if t[:3] not in _RETIRED]


@pytest.mark.parametrize("module,function", _FUNCTIONS)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def test_retired_targets_are_gone():
    for module, name, *_ in _RETIRED:
        assert importlib.util.find_spec(module) is None or not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module,cls,method", _METHODS)
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls, None)
    # the tracer patches the method where the class defines it, not where it inherits it
    assert owner is not None and callable(vars(owner).get(method))
