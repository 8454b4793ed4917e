"""The benchmark's traced runs still find every sqkit name they wrap.

`perfbench/tracing.py` swaps sqkit module attributes, named by string, for
timing wrappers, so a renamed or deleted name would only fail in a traced
benchmark run. Building its `Instrumentation` resolves every target, and a
traced CLI chain calls every name it wraps in `sqkit.cli`.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

import sqkit as sk
import sqkit.cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_FILE_FLAGS = ("--params", "--input", "--output", "--gt", "--est", "--intrinsics")


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


def test_cli_chain_opens_a_span_for_every_cli_target(tmp_path):
    """Each `sqkit.cli` name the benchmark wraps, and the `expand_symmetries`
    that `mssd` and `mspd` look up, is called by one gen, fit, canon, eval and
    sample chain: a CLI that stopped calling one would drop its spans.

    Span names hold only the layer and the attribute, which the `sqkit` and
    `sqkit.cli` targets share, so this loaded copy of the table puts each
    target's module in front of its layer.
    """
    tracing = _load_tracing()
    tracing._TARGETS = tuple((mod, attr, f"{mod}:{layer}", count)
                             for mod, attr, layer, count in tracing._TARGETS)
    record = {"schema_version": 1, "eps": [0.4, 0.7], "scale": [0.04, 0.06, 0.1],
              "rotation": [1, 0, 0, 0], "translation": [0.02, -0.03, 0.8]}
    (tmp_path / "gt.json").write_text(json.dumps(record))
    (tmp_path / "intr.json").write_text(json.dumps(
        {"fx": 500.0, "fy": 480.0, "cx": 320.0, "cy": 240.0}))
    chain = (
        ["gen", "--params", "gt.json", "--n", "500", "--noise", "0.001", "--output", "c.ply"],
        ["fit", "--input", "c.ply", "--output", "fit.json"],
        ["canon", "--params", "fit.json", "--output", "canon.json"],
        ["eval", "--gt", "gt.json", "--est", "canon.json", "--intrinsics", "intr.json",
         "--thresholds", "0.001,0.005", "--output", "report.json"],
        ["sample", "--params", "canon.json", "--n", "1000", "--fps", "64", "--output", "s.ply"],
    )
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer), contextlib.redirect_stdout(io.StringIO()):
        for argv in chain:
            argv = [str(tmp_path / tok) if prev in _FILE_FLAGS else tok
                    for prev, tok in zip([None, *argv], argv)]
            assert sqkit.cli.main(argv) == 0, argv
    opened = {sp.name for sp in tracer.spans}
    wanted = {f"{layer}.{attr}" for mod, attr, layer, _ in tracing._TARGETS
              if mod == "sqkit.cli" or (mod, attr) == ("sqkit.metrics", "expand_symmetries")}
    assert sorted(wanted - opened) == []
