"""The benchmark's trace wraps library functions by name.

``bench/spans.py`` replaces each name in its ``TRACED`` table with a timing
wrapper, looked up with ``getattr`` and no default, so a renamed or removed
function breaks every traced benchmark run. This test loads that table by
path, without importing the benchmark package, and checks every name,
and that every per-call annotation in its ``ANNOTATE`` table names a
traced function.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_a_library_callable():
    spans = _load_spans()
    assert spans.TRACED
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"schmidt_lab.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"schmidt_lab.{module_name}.{name}"


def test_every_annotated_name_is_traced():
    # an annotation on a name the trace no longer wraps drops its metric silently
    spans = _load_spans()
    assert spans.ANNOTATE
    for key in spans.ANNOTATE:
        module_name, _, name = key.partition(".")
        assert name in spans.TRACED.get(module_name, ()), key
