"""Per-layer tracing by wrapping the program's public functions at run time.

The benchmark does not edit the program.  It swaps each traced function
for a wrapper in every parteval module that holds a reference to it:
`engine` and `bar` bind `ev_under` and `mu_at` by name, `cli` binds the
engine, bar, stochastics, formats and sampling entry points, and the
package itself re-exports them, so patching only the defining module
would undercount.  `mu_fiber` and `check_incidence` are methods and are
patched on their classes.

A span opens when a wrapped function is entered and closes when it
returns.  Spans are not kept: on close each adds its duration to its
layer's busy time (outermost call only, so recursion is not counted
twice), its self time (duration minus wrapped children), its call count,
and any counters its result carries.  Wrappers only record while
`active` is set, which the runner does around each op, so input
generation and answer checking never show up.

Hot canonicalisation helpers (`atom_key`, `bag`, `mix`, `key`) are left
unwrapped: their per-call cost is below the wrapper's, so tracing them
would mostly measure the tracer.  LP pivots and duplicate partitions
dropped inside `mu_fiber` are not visible from outside a call; they need
counters in the program itself.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# Layer name -> [(module, attribute)] of the functions that make it up.
LAYERS = {
    "engine.enumerate_witnesses": [("engine", "enumerate_witnesses")],
    "engine.reduction_graph": [("engine", "reduction_graph")],
    "engine.fillers": [("engine", "enumerate_fillers"), ("engine", "canonical_filler")],
    "engine.compose_witnesses": [("engine", "compose_witnesses")],
    "engine.validate_witness": [("engine", "validate_witness")],
    "core.ev_under": [("core", "ev_under")],
    "core.mu_at": [("core", "mu_at")],
    "core.laws": [("core", "check_monad_laws"), ("core", "check_algebra_laws")],
    "sampling.law_samples": [("sampling", "law_samples")],
    "bar.build_truncated_complex": [("bar", "build_truncated_complex")],
    "bar.face": [("bar", "face")],
    "bar.degeneracy": [("bar", "degeneracy")],
    "stochastics.decide_pev": [("stochastics", "decide_pev")],
    "stochastics.lp_feasible": [("stochastics", "lp_feasible")],
    "stochastics.sosd_1d": [("stochastics", "sosd_1d")],
    "stochastics.compose_dist_witnesses": [("stochastics", "compose_dist_witnesses")],
    "formats.parse": [("formats", "parse_expression"), ("formats", "parse_algebra")],
    "formats.emit": [
        ("formats", "dumps"),
        ("formats", "witness_to_json"),
        ("formats", "graph_to_json"),
        ("formats", "graph_to_dot"),
        ("formats", "complex_to_json"),
        ("formats", "complex_skeleton_dot"),
        ("formats", "law_report_to_json"),
    ],
    "cli.main": [("cli", "main")],
}
METHODS = {
    "instances.mu_fiber": ("instances", "mu_fiber"),
    "bar.check_incidence": ("bar", "check_incidence"),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list = []  # open spans: [layer, start_ns, child_ns]
        self.calls = Counter()
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._patches: list = []  # (owner, attribute, original)

    def _on_close(self, layer, result):
        c = self.counts
        if layer == "instances.mu_fiber":
            c["mu_fiber.payloads"] += len(result)
            if any(f[0] == "engine.enumerate_witnesses" for f in self.stack):
                c["enumerate.examined"] += len(result)
        elif layer == "engine.enumerate_witnesses":
            c["enumerate.returned"] += len(result)
        elif layer == "engine.reduction_graph":
            c["graph.nodes"] += len(result.nodes)
            c["graph.edges"] += len(result.edges)
        elif layer == "bar.build_truncated_complex":
            for lvl, cells in enumerate(result.levels):
                c[f"cells.l{lvl}"] += len(cells)
        elif layer == "formats.emit" and isinstance(result, str):
            c["emit.bytes"] += len(result.encode())

    def _span_layer(self, layer, args):
        if layer != "stochastics.lp_feasible":
            return layer
        # Variables are labelled (target point, source point): the
        # dimension is the length of a point.
        prob = args[0]
        d = len(prob.labels[0][0]) if prob.labels else 0
        self.counts[f"lp.rows.d{d}"] += len(prob.rows)
        self.counts[f"lp.vars.d{d}"] += len(prob.labels)
        return f"{layer}.d{d}"

    def wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = tracer._span_layer(layer, args)
            frame = [name, perf_counter_ns(), 0]
            stack = tracer.stack
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - frame[1]
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[2]
                if not any(f[0] == name for f in stack):
                    tracer.busy_ns[name] += dur
                if stack:
                    stack[-1][2] += dur
            tracer._on_close(layer, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a parteval module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "parteval" or n.startswith("parteval.")]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"parteval.{mod_name}"], attr)
                wrapper = self.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        for layer, (mod_name, attr) in METHODS.items():
            module = sys.modules[f"parteval.{mod_name}"]
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__ and attr in vars(cls):
                    self._patch(cls, attr, self.wrap(layer, vars(cls)[attr]))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-layer metrics by name; 0 where a layer did not run."""
        calls, busy, own, c = self.calls, self.busy_ns, self.self_ns, self.counts

        def s(ns):
            return ns / 1e9

        examined = c["enumerate.examined"]
        out = {
            "instances.mu_fiber.calls": calls["instances.mu_fiber"],
            "instances.mu_fiber.busy_s": s(busy["instances.mu_fiber"]),
            "instances.mu_fiber.payloads": c["mu_fiber.payloads"],
            "engine.enumerate_witnesses.busy_s": s(busy["engine.enumerate_witnesses"]),
            "engine.enumerate_witnesses.hit_ratio": c["enumerate.returned"] / examined if examined else 0.0,
            "engine.reduction_graph.busy_s": s(busy["engine.reduction_graph"]),
            "engine.reduction_graph.nodes": c["graph.nodes"],
            "engine.reduction_graph.edges": c["graph.edges"],
            "engine.fillers.busy_s": s(busy["engine.fillers"]),
            "engine.compose_witnesses.busy_s": s(busy["engine.compose_witnesses"]),
            "engine.validate_witness.calls": calls["engine.validate_witness"],
            "engine.validate_witness.busy_s": s(busy["engine.validate_witness"]),
            "core.ev_under.calls": calls["core.ev_under"],
            "core.ev_under.busy_s": s(busy["core.ev_under"]),
            "core.mu_at.calls": calls["core.mu_at"],
            "core.mu_at.busy_s": s(busy["core.mu_at"]),
            "core.laws.busy_s": s(busy["core.laws"]),
            "sampling.law_samples.busy_s": s(busy["sampling.law_samples"]),
            "bar.build_truncated_complex.busy_s": s(busy["bar.build_truncated_complex"]),
            "bar.cells.l0": c["cells.l0"],
            "bar.cells.l1": c["cells.l1"],
            "bar.cells.l2": c["cells.l2"],
            "bar.check_incidence.busy_s": s(busy["bar.check_incidence"]),
            "bar.face.calls": calls["bar.face"],
            "bar.degeneracy.calls": calls["bar.degeneracy"],
        }
        for d in (1, 2):
            layer = f"stochastics.lp_feasible.d{d}"
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = s(busy[layer])
            out[f"{layer}.rows"] = c[f"lp.rows.d{d}"]
            out[f"{layer}.vars"] = c[f"lp.vars.d{d}"]
        out.update({
            "stochastics.decide_pev.self_s": s(own["stochastics.decide_pev"]),
            "stochastics.sosd_1d.busy_s": s(busy["stochastics.sosd_1d"]),
            "stochastics.compose_dist_witnesses.busy_s": s(busy["stochastics.compose_dist_witnesses"]),
            "formats.parse.busy_s": s(busy["formats.parse"]),
            "formats.emit.busy_s": s(busy["formats.emit"]),
            "formats.emit.bytes": c["emit.bytes"],
            "cli.main.self_s": s(own["cli.main"]),
        })
        return out
