"""The names that perfbench's tracer wraps must stay in the library.

perfbench/spans.py replaces library functions with timing wrappers by
(module, attribute) and fails a traced run when one has vanished.  This
checks the same names in milliseconds, so a refactor that drops or moves one
fails here first, as does a poset record that no longer carries what the
poset span reads from it.  spans.py is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import fac
from monocanon import char_poset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, attr, span", _spans().WRAPPED)
def test_wrapped_name_is_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} (span {span!r}) is missing or not callable"
    )


def test_poset_span_reads_volume_and_element_count():
    # (x, y)/0: the box [0, (1, 1)] has 4 cells and 3 elements
    P = char_poset(fac("x, y", "x, y"))
    assert _spans()._info("poset", (), P) == (P.volume, len(P.coords)) == (4, 3)


def test_counted_contains_is_callable():
    ideals = importlib.import_module("monocanon.ideals")
    assert callable(getattr(ideals.MonomialIdeal, "contains", None))
