"""In-memory spans for the benchmark's traced runs, and their per-layer sums.

Spans are recorded from the benchmark's side only; sqkit itself carries no
tracing. The benchmark opens a span around each item and each call it makes
into sqkit. To see inside `sqkit.cli.main` and `mssd`/`mspd`, `Instrumentation`
swaps the module attributes those callers look up (for example
`sqkit.cli.fit` or `sqkit.metrics.expand_symmetries`) for timing wrappers
while a traced item runs, and puts the originals back afterwards.

A span's layer is the part of its name before the first dot, which is the
sqkit module the call lands in (`fitting`, `metrics`, ...), `cli` for a CLI
subcommand, or `bench` for the benchmark's own item and set-up spans.
"""

import importlib
import json
import time


class Span:
    __slots__ = ("id", "name", "parent", "item", "start", "end", "counts")

    def __init__(self, span_id, name, parent, item):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.item = item
        self.start = 0.0
        self.end = 0.0
        self.counts = {}

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent, "item": self.item,
                "start": self.start, "end": self.end, "counts": self.counts}


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Keeps every span in memory; `item` tags new spans with an item id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.item)
        self.spans.append(sp)
        return _SpanContext(self, sp)

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as f:
            for sp in self.spans:
                f.write(json.dumps(sp.as_dict()) + "\n")


class _NullContext:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one method call."""

    item = None
    _NULL = _NullContext()

    def span(self, name):
        return self._NULL


# --- wrappers that time sqkit calls and record counts from their results ----

def _fit_counts(args, kwargs, result):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    budget = int((config or importlib.import_module("sqkit").FitConfig()).max_iterations)
    diags = result.start_diagnostics
    iters = [d.iterations for d in diags]
    # fit keeps the first start that reaches the lowest residual.
    winner = next(i for i, d in enumerate(diags) if d.rms_residual == result.rms_residual)
    return {
        "starts": len(diags),
        "iterations": sum(iters),
        "starts_at_budget": sum(1 for n in iters if n >= budget),
        "starts_converged": sum(1 for d in diags if d.converged),
        "wasted_iterations": sum(n for i, n in enumerate(iters) if i != winner),
    }


def _template_size(args, kwargs, result):
    return {"template_points": len(args[2] if len(args) > 2 else kwargs["template"])}


def _ply_in(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["data"])}


# (module, attribute, layer, count function or None). A function that sqkit
# imports into several modules is wrapped in each namespace its callers use.
_TARGETS = (
    ("sqkit", "fit", "fitting", _fit_counts),
    ("sqkit", "canonicalize", "canonical", lambda a, k, r: {"warped": int(r.warped)}),
    ("sqkit", "categorize", "shapespace", None),
    ("sqkit", "symmetry_group", "shapespace", None),
    ("sqkit", "template_points", "shapespace", None),
    ("sqkit", "mssd", "metrics", _template_size),
    ("sqkit", "mspd", "metrics", _template_size),
    ("sqkit.metrics", "expand_symmetries", "shapespace", lambda a, k, r: {"elements": len(r)}),
    ("sqkit.cli", "fit", "fitting", _fit_counts),
    ("sqkit.cli", "canonicalize", "canonical", lambda a, k, r: {"warped": int(r.warped)}),
    ("sqkit.cli", "decompose_scale_shear", "canonical", None),
    ("sqkit.cli", "categorize", "shapespace", None),
    ("sqkit.cli", "symmetry_group", "shapespace", None),
    ("sqkit.cli", "template_points", "shapespace", None),
    ("sqkit.cli", "mssd", "metrics", _template_size),
    ("sqkit.cli", "mspd", "metrics", _template_size),
    ("sqkit.cli", "parse_ply", "fileio", _ply_in),
    ("sqkit.cli", "write_ply", "fileio", lambda a, k, r: {"bytes": len(r)}),
    ("sqkit.cli", "parse_params", "fileio", None),
    ("sqkit.cli", "write_params", "fileio", None),
    ("sqkit.cli", "gen_synthetic", "fileio", None),
    ("sqkit.cli", "sample_surface", "core", None),
    ("sqkit.cli", "farthest_point_sample", "core", None),
)


def _wrap(tracer, name, fn, counter):
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if counter is not None:
                sp.counts.update(counter(args, kwargs, result))
        return result
    traced.__wrapped__ = fn
    return traced


class Instrumentation:
    """Context manager that swaps sqkit attributes for traced wrappers."""

    def __init__(self, tracer):
        self._swaps = []
        for modname, attr, layer, counter in _TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            wrapped = _wrap(tracer, f"{layer}.{attr}", original, counter)
            self._swaps.append((module, attr, original, wrapped))

    def __enter__(self):
        for module, attr, _, wrapped in self._swaps:
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)
        return False


# --- per-layer metrics ------------------------------------------------------

LAYERS = ("fitting", "canonical", "shapespace", "metrics", "fileio", "core", "cli", "bench")
CLI_COMMANDS = ("gen", "fit", "canon", "eval", "sample")


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(spans, trace_overhead_frac):
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    Counts and times cover every span, set-up included; the `share.*`
    figures split the time spent inside items by layer self time, which is
    a span's duration minus the part its child spans cover.
    """
    child_time = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + (sp.end - sp.start)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(sp.end - sp.start for sp in by_name.get(name, ()))

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name.get(name, ()))

    fit_s = total_s("fitting.fit")
    starts = count("fitting.fit", "starts")
    iterations = count("fitting.fit", "iterations")

    # Each mssd/mspd call expands the group once: its child expand span
    # gives the symmetry count for that call.
    elements_of = {sp.parent: sp.counts["elements"] for sp in by_name.get(
        "shapespace.expand_symmetries", ())}
    point_evals = sum(elements_of.get(sp.id, 0) * sp.counts.get("template_points", 0)
                      for name in ("metrics.mssd", "metrics.mspd") for sp in by_name.get(name, ()))
    metric_s = total_s("metrics.mssd") + total_s("metrics.mspd")

    canon_calls = calls("canonical.canonicalize")
    items = by_name.get("bench.item", ())
    item_s = sum(sp.end - sp.start for sp in items)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        if sp.item is None:
            continue
        layer = sp.name.split(".", 1)[0]
        self_by_layer[layer] += (sp.end - sp.start) - child_time.get(sp.id, 0.0)

    m = {
        "fitting.fit_calls": (calls("fitting.fit"), "count"),
        "fitting.fit_s": (fit_s, "s"),
        "fitting.starts": (starts, "count"),
        "fitting.iterations": (iterations, "count"),
        "fitting.starts_at_budget": (count("fitting.fit", "starts_at_budget"), "count"),
        "fitting.ms_per_iteration": (1e3 * _ratio(fit_s, iterations), "ms"),
        "fitting.converged_frac": (
            _ratio(count("fitting.fit", "starts_converged"), starts), "ratio"),
        "fitting.wasted_iteration_frac": (
            _ratio(count("fitting.fit", "wasted_iterations"), iterations), "ratio"),
        "metrics.mssd_calls": (calls("metrics.mssd"), "count"),
        "metrics.mssd_s": (total_s("metrics.mssd"), "s"),
        "metrics.mspd_calls": (calls("metrics.mspd"), "count"),
        "metrics.mspd_s": (total_s("metrics.mspd"), "s"),
        "metrics.point_evals": (point_evals, "count"),
        "metrics.ns_per_point_eval": (1e9 * _ratio(metric_s, point_evals), "ns"),
        "shapespace.symmetry_group_s": (total_s("shapespace.symmetry_group"), "s"),
        "shapespace.expand_symmetries_s": (total_s("shapespace.expand_symmetries"), "s"),
        "shapespace.symmetry_elements": (
            count("shapespace.expand_symmetries", "elements"), "count"),
        "shapespace.template_points_calls": (calls("shapespace.template_points"), "count"),
        "shapespace.template_points_s": (total_s("shapespace.template_points"), "s"),
        "fileio.ply_bytes_written": (count("fileio.write_ply", "bytes"), "B"),
        "fileio.ply_bytes_read": (count("fileio.parse_ply", "bytes"), "B"),
        "fileio.parse_ply_s": (total_s("fileio.parse_ply"), "s"),
        "fileio.parse_params_s": (total_s("fileio.parse_params"), "s"),
        "fileio.gen_synthetic_s": (total_s("fileio.gen_synthetic"), "s"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (total_s(f"cli.{cmd}"), "s")
    m["cli.nonzero_exits"] = (sum(1 for cmd in CLI_COMMANDS for sp in by_name.get(f"cli.{cmd}", ())
                                  if sp.counts.get("exit", 0) != 0), "count")
    m["canonical.canonicalize_calls"] = (canon_calls, "count")
    m["canonical.canonicalize_s"] = (total_s("canonical.canonicalize"), "s")
    m["canonical.warped_frac"] = (_ratio(count("canonical.canonicalize", "warped"), canon_calls),
                                  "ratio")
    m["bench.items"] = (len(items), "count")
    m["bench.item_s"] = (item_s, "s")
    m["bench.item_self_s"] = (self_by_layer["bench"], "s")
    m["bench.trace_overhead_frac"] = (trace_overhead_frac, "ratio")
    for layer in LAYERS:
        m[f"share.{layer}"] = (_ratio(self_by_layer[layer], item_s), "ratio")
    return {name: (float(v), unit) for name, (v, unit) in m.items()}
