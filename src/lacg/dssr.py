"""Exact elementary pricing by decremental state space relaxation.

Each call starts from empty ng sets and alternates: (1) solve the relaxed
pricing problem; (2) if the best route repeats a customer, pick one of its
cycles, add the repeated customer to the ng sets of the special-index
customers strictly inside the cycle, and drop the stale cached arc groups.
The relaxed optimum can only rise as ng sets grow, so when it comes back
elementary it is the exact minimum over elementary routes.

The cycle chosen is the one with the least estimated pricing-graph growth,
(capacity - demand(w) + 1) * 2^{|ng(w)|} summed over the customers w whose
set would actually grow.

Every non-elementary relaxed route is also trimmed to its first visits; any
trim priced below -RC_ADD_TOL is collected as a bonus column, and with
early_exit="first_negative" the call returns such a column immediately
(flagged inexact, so the caller still owes a final exact call before
declaring convergence).  A `deadline` (a time.perf_counter() value) is
checked after each non-elementary iteration, and inside every search after
the first, which has left a trimmed route by then; once it has passed, the
call returns the best trim found so far, likewise inexact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .instances import Instance
from .neighbors import NeighborSets, augment_ng
from .routes import (Route, DualSolution, reduced_cost, is_elementary, trim_to_elementary,
                     special_indices, repeat_pairs)
from .arcs import ComponentPathTable, ArcIndex
from .pricing import solve_la_pricing, compute_heuristic

RC_ADD_TOL = 1e-9  # a route enters the pool below -RC_ADD_TOL
EARLY_EXIT = ("off", "first_negative")


@dataclass(frozen=True)
class CycleChoice:
    start: int  # 1-based positions of the repeated customer
    end: int
    customer: int
    augment: tuple[int, ...]  # special-index customers whose ng set gains `customer`


@dataclass
class DssrIteration:
    objective: float
    seq: tuple[int, ...]
    elementary: bool
    cycle: CycleChoice | None
    ng_total: int
    nodes_expanded: int


@dataclass
class DssrResult:
    route: Route
    reduced_cost: float
    early_columns: list[tuple[Route, float]]
    iterations: int
    exact: bool
    log: list[DssrIteration] = field(default_factory=list)
    nodes_expanded: int = 0  # summed over the call's searches
    edges_relaxed: int = 0  # likewise


def select_cycle(route: Route, sets: NeighborSets, inst: Instance) -> CycleChoice:
    """Pick the cycle to forbid next; route must be non-elementary."""
    if is_elementary(route):
        raise ValueError("select_cycle needs a route with a repeated customer")
    seq = route.seq
    specials = special_indices(route, sets)
    d0 = inst.capacity
    candidates = []
    for u, k1, k2 in repeat_pairs(seq):
        inside = [k3 for k3 in specials if k1 < k3 < k2]
        targets = []
        for k3 in inside:
            w = seq[k3 - 1]
            if w != u and not sets.has_ng(w, u) and w not in targets:
                targets.append(w)
        if not targets:
            continue
        metric = sum((d0 - inst.demand[w] + 1) * (1 << sets.ng_mask(w).bit_count())
                     for w in targets)
        candidates.append((metric, k1, k2, u, tuple(targets)))
    if not candidates:
        raise RuntimeError("no augmentable cycle found; relaxation cannot progress")
    metric, k1, k2, u, targets = min(candidates, key=lambda c: c[:3])
    return CycleChoice(start=k1, end=k2, customer=u, augment=targets)


def price_elementary(inst: Instance, sets: NeighborSets, table: ComponentPathTable,
                     duals: DualSolution, *,
                     early_exit: str = "off",
                     index: ArcIndex | None = None,
                     deadline: float | None = None) -> DssrResult:
    """Exact minimum-reduced-cost elementary route under the given duals.

    Past `deadline` the result is the best trimmed route, with exact=False.
    """
    if early_exit not in EARLY_EXIT:
        raise ValueError(f"unknown early-exit policy {early_exit!r}")
    sets.reset_ng()
    index = index or ArcIndex(table, sets, inst.capacity)
    index.bind_duals(duals)
    costs = table.costs
    heuristic = compute_heuristic(inst, sets, table, duals, index=index)
    limit = inst.n * (inst.n - 1) + 2
    early: list[tuple[Route, float]] = []
    early_seen: set[tuple[int, ...]] = set()
    log: list[DssrIteration] = []
    total_nodes = total_edges = 0
    best_elem: Route | None = None
    best_rc = float("inf")

    def result(route, rc, exact):
        return DssrResult(
            route=route, reduced_cost=rc, early_columns=early, iterations=it, exact=exact,
            log=log, nodes_expanded=total_nodes, edges_relaxed=total_edges,
        )

    def record(objective, seq, cycle=None):
        log.append(DssrIteration(
            objective=objective, seq=seq, elementary=cycle is None, cycle=cycle,
            ng_total=sets.ng_size_total(), nodes_expanded=res.diagnostics.nodes_expanded,
        ))

    for it in range(1, limit + 1):
        res = solve_la_pricing(
            inst, sets, table, duals, index=index, heuristic=heuristic, prune_bound=best_rc,
            deadline=deadline if best_elem is not None else None,
        )
        total_nodes += res.diagnostics.nodes_expanded
        total_edges += res.diagnostics.edges_relaxed
        route = res.route
        if route is None:  # the deadline passed inside the search
            return result(best_elem, best_rc, False)
        if best_elem is not None and res.reduced_cost >= best_rc - 1e-12:
            # nothing in the current relaxation beats a route that is already
            # elementary and graph-feasible: it is the exact minimizer
            record(best_rc, best_elem.seq)
            return result(best_elem, best_rc, True)
        if is_elementary(route):
            record(res.reduced_cost, route.seq)
            return result(route, res.reduced_cost, True)
        trimmed = trim_to_elementary(route, inst)
        rc_trim = reduced_cost(trimmed, duals, costs)
        if rc_trim < best_rc:
            best_elem, best_rc = trimmed, rc_trim
        if rc_trim < -RC_ADD_TOL and trimmed.seq not in early_seen:
            early_seen.add(trimmed.seq)
            early.append((trimmed, rc_trim))
        choice = select_cycle(route, sets, inst)
        record(res.reduced_cost, route.seq, choice)
        if early_exit == "first_negative" and rc_trim < -RC_ADD_TOL:
            return result(trimmed, rc_trim, False)
        if deadline is not None and time.perf_counter() >= deadline:
            return result(best_elem, best_rc, False)
        grew = False
        for w in choice.augment:
            grew = augment_ng(sets, w, choice.customer) or grew
        if not grew:
            raise RuntimeError("cycle selection failed to grow any ng set")
        index.invalidate(set(choice.augment), added=choice.customer)
    raise RuntimeError("state space relaxation exceeded its iteration bound")
