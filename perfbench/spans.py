"""Outside-in span tracing of the program's public layer functions.

The benchmark wraps each function below where its *caller* looks it up
(the call-site module's global, or the class attribute for methods) and
records one span per call: name, start, end, parent span and event id.
Spans stay in memory and are written out once the run ends.

Per-query oracle calls (``distance``, ``distances_to``,
``detour_distances``, ``path``) are deliberately not wrapped: there are
millions per run, and their time stays in their callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Dict, List, Tuple

#: (span name, module defining the function, attribute, call-site
#: modules).  An empty call-site tuple marks a method: the attribute is
#: ``Class.method`` and the class attribute is patched.
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("online.embed_leased", "repro.online.simulator",
     "OnlineSimulator.embed_leased", ()),
    ("online.current_instance", "repro.online.simulator",
     "OnlineSimulator.current_instance", ()),
    ("online.commit", "repro.online.simulator", "OnlineSimulator.commit", ()),
    ("online.release", "repro.online.simulator", "OnlineSimulator.release", ()),
    ("online.apply_background_load", "repro.online.simulator",
     "OnlineSimulator.apply_background_load", ()),
    ("online.fail_link", "repro.online.simulator",
     "OnlineSimulator.fail_link", ()),
    ("online.recover_link", "repro.online.simulator",
     "OnlineSimulator.recover_link", ()),
    ("core.sofda.sofda", "repro.core.sofda", "sofda", ("repro.core.sofda",)),
    ("core.sofda.build_auxiliary_graph", "repro.core.sofda",
     "build_auxiliary_graph", ("repro.core.sofda",)),
    ("graph.steiner.steiner_tree", "repro.graph.steiner", "steiner_tree",
     ("repro.core.sofda",)),
    ("core.transform.chain_walk", "repro.core.transform", "chain_walk",
     ("repro.core.sofda", "repro.core.conflict", "repro.core.dynamic")),
    ("core.transform.build_kstroll_instance", "repro.core.transform",
     "build_kstroll_instance", ("repro.core.transform",)),
    ("core.transform.solve_kstroll", "repro.graph.kstroll", "solve_kstroll",
     ("repro.core.transform",)),
    ("core.problem.metric_block", "repro.core.problem",
     "SOFInstance.metric_block", ()),
    ("core.conflict.resolve_and_add_chain", "repro.core.conflict",
     "resolve_and_add_chain", ("repro.core.sofda",)),
    ("core.validation.check_forest", "repro.core.validation", "check_forest",
     ("repro.core.sofda", "repro.core.dynamic")),
    ("core.dynamic.reroute_failed_link", "repro.core.dynamic",
     "reroute_failed_link", ("repro.core.dynamic",)),
    ("graph.indexed.patch_edge_costs", "repro.graph.indexed",
     "FrozenOracle.patch_edge_costs", ()),
    ("graph.indexed.patch_topology", "repro.graph.indexed",
     "FrozenOracle.patch_topology", ()),
    ("graph.indexed.prefetch_rows", "repro.graph.indexed",
     "FrozenOracle.prefetch_rows", ()),
    ("graph.indexed.invalidate", "repro.graph.indexed",
     "FrozenOracle.invalidate", ()),
)

SPAN_NAMES = tuple(name for name, *_ in TARGETS)


class SpanLog:
    """In-memory span store.  Each span is ``[name, start, end, parent,
    event]``; ``parent`` indexes ``spans`` (-1 for a root), and every
    root opens a new event, which its descendants inherit."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._event = -1
        #: Per-name extras folded in by result hooks (see ``_HOOKS``).
        self.extra: Dict[str, float] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                event = spans[parent][4]
            else:
                parent = -1
                self._event += 1
                event = self._event
            record = [name, 0.0, 0.0, parent, event]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, None, False)
                raise
            record[2] = clock()
            stack.pop()
            if hook is not None:
                hook(self, result, True)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target at its call sites; restore on exit."""
        undo = []
        try:
            for name, owner, attr, sites in TARGETS:
                if sites:
                    original = getattr(importlib.import_module(owner), attr)
                    wrapper = self.wrap(name, original)
                    for site in sites:
                        module = importlib.import_module(site)
                        if getattr(module, attr, None) is not original:
                            raise RuntimeError(
                                f"{site}.{attr} is not {owner}.{attr}: the "
                                f"call site for span {name!r} moved"
                            )
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
                else:
                    cls_name, method = attr.split(".")
                    cls = getattr(importlib.import_module(owner), cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(name, original))
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    # ------------------------------------------------------------------
    @staticmethod
    def cost_per_span(calls: int = 20000) -> float:
        """Seconds one wrapper adds to one call, timed on a no-op.

        Times a bare and a wrapped no-op; the difference times the span
        count estimates the tracing overhead without the pass-to-pass
        noise of comparing two timed passes.
        """
        def noop():
            return None

        wrapped = SpanLog().wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - start - bare) / calls)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over every recorded span.

        Self time is a span's duration minus its children's durations
        (one thread, so children never overlap).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return {name: (calls, s) for name, (calls, s) in out.items()}

    def write(self, path, header: dict) -> None:
        """Write a header line and one JSON object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, event in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "event": event,
                }) + "\n")


# ----------------------------------------------------------------------
# result hooks: counts measured where the work happens
# ----------------------------------------------------------------------
def _add(log: SpanLog, key: str, value: float) -> None:
    log.extra[key] = log.extra.get(key, 0.0) + value


def _on_sofda(log, result, ok) -> None:
    if ok:
        _add(log, "selected_virtual_edges", result.num_virtual_edges)
        _add(log, "chains_clean", result.stats.clean)
        _add(log, "chains_conflicted", result.stats.total_conflicted())


def _on_reroute(log, result, ok) -> None:
    _add(log, "reroute_ok" if ok else "reroute_failed", 1)


def _on_patch_costs(log, result, ok) -> None:
    if ok:
        _add(log, "patched_edges", result)


_HOOKS = {
    "core.sofda.sofda": _on_sofda,
    "core.dynamic.reroute_failed_link": _on_reroute,
    "graph.indexed.patch_edge_costs": _on_patch_costs,
}
