"""Outside-in tracer for ptslab: wraps public functions, never edits them.

Every module namespace that bound a traced function (``from .term import
normalize`` gives ``systems``, ``paradox`` and ``codes`` their own binding)
gets the same wrapper, so calls made inside the library are traced too.
Each wrapper opens a span; a span's self time is its duration minus the
time of the wrappers it encloses and minus the garbage-collector pauses that
fell inside it.  Collector pauses are taken from ``gc.callbacks`` and kept
apart, so the cost of collecting retained terms is not credited to the layer
that happened to allocate when the collector ran.  The wrapper's own work
around the call (its bookkeeping and the hooks that read results) is kept
apart too, in ``tracer_s``, so self times hold library code only.

Spans are aggregated in memory per (parent layer, layer) edge and written
out once, when the run ends.
"""
from __future__ import annotations

import gc
import sys
import time

ROOT = "bench"

# (layer, module, function or Class.method); parse and parse_term are one
# layer, and so are the module-level infer and the checker's own
TRACED = (
    ("term.normalize", "ptslab.term", "normalize"),
    ("term.step_normal_order", "ptslab.term", "step_normal_order"),
    ("term.substitute", "ptslab.term", "substitute"),
    ("term.shift", "ptslab.term", "shift"),
    ("term.redex_positions", "ptslab.term", "redex_positions"),
    ("term.contract_at", "ptslab.term", "contract_at"),
    ("systems.infer", "ptslab.systems", "infer"),
    ("systems.infer", "ptslab.systems", "_Checker.infer"),
    ("systems.whnf", "ptslab.systems", "_Checker.whnf"),
    ("systems.conv", "ptslab.systems", "_Checker.conv"),
    ("systems.check", "ptslab.systems", "check"),
    ("systems.subject_reduction_probe", "ptslab.systems",
     "subject_reduction_probe"),
    ("syntax.parse", "ptslab.syntax", "parse"),
    ("syntax.parse", "ptslab.syntax", "parse_term"),
    ("syntax.pretty", "ptslab.syntax", "pretty"),
    ("erase.erase", "ptslab.erase", "erase"),
    ("erase.u_one_step_reachable", "ptslab.erase", "u_one_step_reachable"),
    ("codes.build_flat_machinery", "ptslab.codes", "build_flat_machinery"),
    ("corpus.welltyped_corpus", "ptslab.corpus", "welltyped_corpus"),
    ("paradox.build_hurkens", "ptslab.paradox", "build_hurkens"),
    ("paradox.hurkens_type_checks", "ptslab.paradox", "hurkens_type_checks"),
)

# a normalize call whose direct parent is one of these layers is nested
# work: J's type arguments, normalised from inside the redex search
_KERNEL_PREFIXES = ("term.", "systems.")


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``.  Counters
    accumulate while installed; ``reset()`` clears them."""

    def __init__(self):
        # [layer, seconds in enclosed wrappers, collector pauses apart]
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], list] = {}   # -> [calls, seconds]
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.tracer_s = 0.0
        self.nested_normalize = 0
        self.contractions: dict[str, int] = {}
        self.redex_depth_sum = 0
        self.parse_chars = 0
        self.pretty_chars = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer, modname, attr in TRACED:
            owner, _, name = attr.rpartition(".")
            if owner:
                # a method: its class is its only binding
                cls = getattr(sys.modules[modname], owner)
                self._patch(cls, name, self._wrap(layer, vars(cls)[name]))
            else:
                fn = getattr(sys.modules[modname], name)
                wrappers[id(fn)] = self._wrap(layer, fn)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ptslab" or modname.startswith("ptslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        self.gc_collections += 1

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        after = {
            "term.step_normal_order": self._after_step,
            "syntax.parse": self._after_parse,
            "syntax.pretty": self._after_pretty,
        }.get(layer)
        nested = layer == "term.normalize"
        tracer = self

        def traced(*args, **kwargs):
            # a recursive call stays inside the span that is already open
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            enter = clock()
            gc_enter = tracer.gc_pause_s
            parent = stack[-1][0] if stack else ROOT
            if nested and parent.startswith(_KERNEL_PREFIXES):
                tracer.nested_normalize += 1
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            gc0 = tracer.gc_pause_s
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                gc_in = tracer.gc_pause_s - gc0
                stack.pop()
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                tracer.self_s[layer] = (tracer.self_s.get(layer, 0.0)
                                        + dt - frame[1] - gc_in)
                edge = tracer.edges.get((parent, layer))
                if edge is None:
                    tracer.edges[(parent, layer)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
                if after is not None and result is not None:
                    after(args, result)
                # the whole wrapper, collector pauses apart, is enclosed in
                # the parent; all of it but the call is the tracer's own
                spent = clock() - enter - (tracer.gc_pause_s - gc_enter)
                tracer.tracer_s += spent - (dt - gc_in)
                if stack:
                    stack[-1][1] += spent
            return result

        return traced

    def _after_step(self, args, result) -> None:
        _, path, rule = result
        self.contractions[rule] = self.contractions.get(rule, 0) + 1
        self.redex_depth_sum += len(path)

    def _after_parse(self, args, result) -> None:
        self.parse_chars += len(args[0])

    def _after_pretty(self, args, result) -> None:
        self.pretty_chars += len(result)

    # -- reading ----------------------------------------------------------

    def inclusive_s(self, layer: str) -> float:
        """Total time of the spans of one layer, children included."""
        return sum(s for (_, name), (_, s) in self.edges.items()
                   if name == layer)

    def spans(self) -> list[dict]:
        """The aggregated span tree, one record per (parent, layer) edge."""
        return [{"parent": p, "layer": n, "calls": c, "seconds": s}
                for (p, n), (c, s) in sorted(self.edges.items())]
