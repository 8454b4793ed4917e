"""The benchmark's traced runs still find every sqkit name they wrap.

`perfbench/tracing.py` swaps sqkit module attributes, named by string, for
timing wrappers, so a renamed or deleted name would only fail in a traced
benchmark run. Building its `Instrumentation` resolves every target.
"""

import importlib.util
from pathlib import Path

import numpy as np

import sqkit as sk

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumentation_resolves_every_target():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    assert len(inst._swaps) == len(tracing._TARGETS)
    # A traced fit also exercises the counts read from its diagnostics.
    cloud = sk.sample_surface(sk.Superquadric(1.0, 1.0, np.full(3, 0.05)), 200, seed=0)
    with inst:
        sk.fit(cloud, sk.FitConfig(multistart=1, max_iterations=5))
    assert sk.fit.__name__ == "fit"
    (span,) = [sp for sp in tracer.spans if sp.name == "fitting.fit"]
    assert span.counts["starts"] == 1
    assert span.counts["starts_converged"] in (0, 1)
