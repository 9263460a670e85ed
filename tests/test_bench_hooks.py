"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_resolves_to_a_library_callable():
    # tracer.py imports only the standard library, so it loads without the bench
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"corrobayes.{layer}"), name, None))
    ]
    assert not missing, missing
