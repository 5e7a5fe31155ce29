"""Every span name the benchmark's tracer reports resolves to a traceable function.

``perfbench/spans.py`` wraps only plain functions that a sparsefront module
lists in its ``__all__``, plus the network methods in ``spans.METHODS`` and
``cli.main``. A name that stops resolving, for example because a public
function became a ``functools.lru_cache`` wrapper, would silently report
zero. The check is static: it never installs the tracer, which would patch
the package for the rest of the test session.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sparsefront import models


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SPAN_NAMES = sorted(
    set(spans.COUNTERS)
    | {span for span, _ in spans.LAYER_METRICS.values()}
    | set(spans.OPERATOR_BUILDERS)
)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_name_is_traceable(name):
    short, attr = name.split(".")
    if short == "cli":
        # the tracer wraps cli.main itself, not through __all__
        assert inspect.isfunction(getattr(importlib.import_module("sparsefront.cli"), attr))
        return
    if short == "models" and attr in spans.METHODS:
        assert inspect.isfunction(getattr(models.FeedforwardNetwork, attr))
        return
    assert short in spans.MODULES
    module = importlib.import_module(f"sparsefront.{short}")
    assert attr in module.__all__
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
