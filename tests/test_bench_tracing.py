"""The benchmark's tracer wraps renalrisk functions by module and attribute name.

``bench/run.py --trace 1`` looks every one of them up, so a function renamed or
moved in ``src/`` breaks the traced run with a KeyError. This keeps that
breakage in the unit tests.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_attribute_exists_and_none_is_left_wrapped(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    assert tracing.wrapped_attributes() == []
    with tracing.installed(tracing.Tracer("probe")):
        assert len(tracing.wrapped_attributes()) == len(tracing._instruments(tracing.Tracer("n")))
    assert tracing.wrapped_attributes() == []
