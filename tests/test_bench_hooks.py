"""The benchmark's tracer wraps library functions by name and reads attributes
of what they return; each must exist."""

import importlib
import importlib.util
from pathlib import Path

from corrobayes.adjust import adjust_from_moments
from corrobayes.simulate import draw_dataset, estimate_moments, exact_moments

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


def test_the_traced_runs_find_what_the_tracer_reads(topo16, design16, prior16):
    # tracer.py reads these attributes of what the traced runs return, so a
    # refactor that drops one crashes the traced benchmark runs
    # as ``validate`` calls it
    mom = estimate_moments(prior16, topo16, design16, n_realizations=20, seed=1)
    assert mom.n_realizations == 20
    assert len(mom.design_points) == len(design16.design_points())
    assert mom.targets == ()
    targets = [("zmin", topo16.components[0], 10), ("x", topo16.components[1], 20)]
    data = draw_dataset(prior16, topo16, design16, seed=2)
    law = [(prior16.sigma_r, prior16.hyper.mu_wx)]
    belief = adjust_from_moments(next(exact_moments(prior16, topo16, data, law, targets)), data)
    assert list(belief.moments.targets) == targets
