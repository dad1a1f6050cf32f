"""Outside-in tracing of one `lacg.driver.solve` call.

The tracer replaces public functions at the names their callers look up
(`lacg.driver.price_elementary`, `lacg.dssr.solve_la_pricing`,
`lacg.simplex.solve_lp`, the `ArcIndex` methods, ...) with timing wrappers,
and puts the originals back when the job ends.  Nothing inside `src/` is
changed, so an untraced solve runs the program exactly as users run it.

Every wrapped call is timed and added to its layer's totals: calls, seconds,
and the seconds spent in wrapped calls made from inside it (so that self time
is total minus children).  Coarse calls, a few hundred per solve, are also
kept as spans with a parent; per-node calls such as `ArcIndex.successors`
only feed the totals, so memory stays bounded however long the search runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import lacg.arcs
import lacg.driver
import lacg.dssr
import lacg.simplex


class Layer:
    """Totals for one wrapped name."""

    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Layer totals, spans and counters of the solves run under `installed()`."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.spans: list[dict] = []
        self.counts = {
            "nodes_expanded": 0, "edges_relaxed": 0,
            "dssr_iterations": 0, "bonus_columns": 0, "ng_grows": 0, "lp_cells": 0,
        }
        self._stack: list[list] = []  # open calls: [child seconds, span id]

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def wrap(self, name: str, fn, *, span: bool = False, observe=None):
        """Timing wrapper for `fn`; `observe(args, result)` sees every return."""
        stat = self.layer(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                spans.append({
                    "id": frame[1], "parent": stack[-1][1] if stack else None,
                    "name": name, "start": 0.0, "end": 0.0,
                })
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.child_s += frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    spans[frame[1]]["start"] = t0
                    spans[frame[1]]["end"] = t0 + dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters read from what the wrapped calls return --------------------

    def _on_search(self, args, res):
        self.counts["nodes_expanded"] += res.diagnostics.nodes_expanded
        self.counts["edges_relaxed"] += res.diagnostics.edges_relaxed

    def _on_price(self, args, res):
        self.counts["dssr_iterations"] += res.iterations
        self.counts["bonus_columns"] += len(res.early_columns)

    def _on_augment(self, args, grew):
        self.counts["ng_grows"] += bool(grew)

    def _on_rmp(self, args, sol):
        columns, n = args[0], args[1]
        self.counts["lp_cells"] += (n + 1) * len(columns)

    def _targets(self):
        """(owner, attribute, layer name, span?, observer) for every wrapped name."""
        index = lacg.arcs.ArcIndex
        return (
            (lacg.driver, "solve", "solve", True, None),
            (lacg.driver, "compute_component_paths", "arcs.table_build", True, None),
            (index, "__init__", "arcs.index_build", True, None),
            (index, "successors", "arcs.successors", False, None),
            (index, "bind_duals", "arcs.bind_duals", False, None),
            (index, "invalidate", "arcs.invalidate", False, None),
            (index, "best_arc_between", "arcs.decode", False, None),
            (index, "best_sink_arc", "arcs.decode", False, None),
            (lacg.driver, "price_elementary", "dssr.price", True, self._on_price),
            (lacg.dssr, "compute_heuristic", "pricing.heuristic", False, None),
            (lacg.dssr, "solve_la_pricing", "pricing.search", False, self._on_search),
            (lacg.dssr, "select_cycle", "dssr.select_cycle", False, None),
            (lacg.dssr, "augment_ng", "dssr.augment_ng", False, self._on_augment),
            (lacg.driver, "solve_rmp", "rmp.solve", True, self._on_rmp),
            (lacg.simplex, "solve_lp", "simplex.solve", False, None),
        )

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, span, observe in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, span=span, observe=observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def add_setup_span(self, setup_time: float) -> None:
        """Add the set-up phase of the last solve as a span of its own.

        The driver reports set-up as a duration from the start of `solve`; the
        span starts there, and the spans of the last solve that fall inside it
        (arc-table and index builds) become its children.
        """
        solve = next(s for s in reversed(self.spans) if s["name"] == "solve")
        setup = {
            "id": len(self.spans), "parent": solve["id"], "name": "setup",
            "start": solve["start"], "end": solve["start"] + setup_time,
        }
        for s in self.spans[solve["id"] + 1:]:
            if s["parent"] == solve["id"] and s["end"] <= setup["end"]:
                s["parent"] = setup["id"]
        self.spans.append(setup)
