"""The names that perfbench's tracer wraps must stay in the library.

perfbench/spans.py replaces library functions with timing wrappers by
(module, attribute) and fails a traced run when one has vanished.  This
checks the same names in milliseconds, so a refactor that drops or moves one
fails here first.  spans.py is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


@pytest.mark.parametrize("module, attr, span", _wrapped())
def test_wrapped_name_is_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} (span {span!r}) is missing or not callable"
    )


def test_counted_contains_is_callable():
    ideals = importlib.import_module("monocanon.ideals")
    assert callable(getattr(ideals.MonomialIdeal, "contains", None))
