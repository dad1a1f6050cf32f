"""Lowest-reduced-cost route over the current relaxation, as a shortest path.

Search nodes are (u, M1, d): the route sits at customer u with d units of
capacity left (before servicing u) and has visited every customer in
M1 (a subset of u's ng neighbors).  The source is the start depot with full
capacity; edges consume one precomputed arc each and land on
(v, M2, d - arc demand) with M2 = ng(v) & (M1 | arc customers | u).

Both solvers return the same objective:

* dijkstra: best-first search.  Priorities are raw costs shifted by a
  potential table over (customer, capacity), +inf where the customer's
  demand does not fit: the heuristic, the exact cost-to-sink on the
  empty-memory graph, which stays a consistent lower bound as ng sets
  grow, or without one the offset table -offset_rate * d (the
  demand-proportional offset that makes every edge nonnegative, as node
  potentials).  Both run the same search loop.
* bellman_ford: relax every node of the current graph in decreasing-capacity
  order.  Slower, used as a cross-check.

A popped node is skipped when an already expanded node with the same
(u, M1) has strictly more capacity at strictly lower cost.

The best-first search keeps its distances in an array indexed by label and
capacity: a label is a (customer, memory) pair interned by the ArcIndex,
with (v, 0) as label v, and the sink has a scalar of its own.  What a
pricing call fixes is computed once per call, not per search or node: the
source edges and their out-and-back incumbent (at bind_duals), and each
bucket's dense block per capacity d, the flattened weights toward customers
with empty ng sets and the same plus the potential at the landing node.  A
block lives on its bucket across DSSR iterations, for as long as the index
holds the same potential table, until invalidation turns one of its finite
rows +inf, so an expansion does one comparison against the bound, one
nonzero and scalar reads.  Edges toward targets with grown ng sets take one
scalar loop over the bucket's entries sorted by their least fitting
capacity lo, which stops at the first entry with lo > d.  bellman_ford
keeps tuple-keyed dicts as the plain reference and reads the same entries.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .instances import Instance
from .neighbors import NeighborSets
from .routes import Route, DualSolution
from .arcs import ComponentPathTable, ArcIndex, _SINK

MODES = ("dijkstra", "bellman_ford")

_SOURCE_KEY = (-1, 0, -1)
_SINK_KEY = (0, 0, 0)


@dataclass
class PricingDiagnostics:
    nodes_expanded: int
    edges_relaxed: int
    offset_rate: float
    adjusted_cost: float


@dataclass
class PricingResult:
    route: Route | None  # None when a deadline stopped the search
    reduced_cost: float
    diagnostics: PricingDiagnostics


def compute_heuristic(inst: Instance, sets: NeighborSets, table: ComponentPathTable,
                      duals: DualSolution, index: ArcIndex | None = None) -> np.ndarray:
    """Cost-to-sink table on the empty-memory graph, one pass per pricing call.

    h[u, d], shape (n+1, d0+1), is the exact cost-to-sink from (u, d) when
    every ng set is empty, +inf where d < demand(u).  It is admissible for
    every node (u, M1, d): growing memory only removes paths.
    """
    index = index or ArcIndex(table, sets, inst.capacity)
    index.bind_duals(duals)
    n, d0 = inst.n, inst.capacity
    dense = index._base_dense[1:, 1:]  # group minima over all arcs: the empty-memory view
    sink = index._base_sink[1:]
    short = index.short[1:]
    h = np.full((n + 1, d0 + 1), np.inf)
    for d in range(1, d0 + 1):
        # best first arc (u -> v with demand zd) plus h[v, d - zd], per owner u
        m = (dense[:, :, 1:d + 1] + h[1:, d - 1::-1][None]).min(axis=(1, 2))
        h[1:, d] = np.where(short[:, d], np.inf, np.where(m < sink[:, d], m, sink[:, d]))
    return h


def solve_la_pricing(inst: Instance, sets: NeighborSets, table: ComponentPathTable,
                     duals: DualSolution, mode: str = "dijkstra", *,
                     index: ArcIndex | None = None,
                     heuristic: np.ndarray | None = None,
                     prune_bound: float = np.inf,
                     deadline: float | None = None) -> PricingResult:
    """Minimum-reduced-cost route of the relaxation under the current ng sets.

    With a finite prune_bound the search may discard everything at or above
    the bound; the returned value is then exact only when it beats the bound
    (callers holding a route that attains the bound lose nothing).  A
    best-first search checks `deadline` (a time.perf_counter() value) every
    256 expansions; once it has passed, the result has no route and a NaN
    reduced cost, with the counts of the work done.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    index = index or ArcIndex(table, sets, inst.capacity)
    index.bind_duals(duals)
    if mode == "dijkstra":
        if heuristic is None:
            # the demand offset as a potential: -offset_rate * d where v fits
            heuristic = np.where(index.short, np.inf,
                                 -index.offset_rate() * np.arange(inst.capacity + 1))
        g, parent, diag = _best_first(inst, index, heuristic, prune_bound, deadline)
        if g is None:
            return PricingResult(route=None, reduced_cost=np.nan, diagnostics=diag)
    else:
        g, parent, diag = _relax_all(inst, index)
    if _SINK_KEY not in parent:
        raise RuntimeError("pricing graph has no source-to-sink path")
    route = _decode(inst, index, parent)
    diag.adjusted_cost = g + diag.offset_rate * inst.capacity
    return PricingResult(route=route, reduced_cost=g, diagnostics=diag)


def _best_first(inst, index, pot, prune_bound=np.inf, deadline=None):
    d0 = inst.capacity
    stride = d0 + 1
    index.use_potential(pot)
    pot_l = pot.ravel().tolist()  # potential of (v, d2) at flat index v * stride + d2

    # distances of label (v, M2) at capacity d live at flat index
    # label * stride + d; rows are added as groups intern new labels
    labels = index.label_keys
    dist = np.full((len(labels), stride), np.inf)
    flat = dist.reshape(-1)
    sink_g = np.inf
    parent: dict[tuple, tuple | None] = {}
    heap = []
    for u, w in index.source_edges:
        flat[u * stride + d0] = w
        parent[(u, 0, d0)] = _SOURCE_KEY
        heap.append((w + pot_l[u * stride + d0], d0, u, 0, w, u))
    heapq.heapify(heap)
    seed_g, seed_u = index.source_seed
    expanded: dict[int, list] = {}
    closed: set[int] = set()
    bound = prune_bound
    if seed_u is not None and np.isfinite(seed_g):
        sink_g = seed_g
        parent[_SINK_KEY] = (seed_u, 0, d0)
        bound = min(bound, seed_g)
        heapq.heappush(heap, (seed_g, 0, _SINK, 0, seed_g, _SINK))
    nodes = edges = 0
    while heap:
        f, d, u, m1, g, lab = heapq.heappop(heap)
        if u == _SINK or f >= bound:
            break
        at = lab * stride + d
        if at in closed or g > flat.item(at) + 1e-15:
            continue
        key = (u, m1, d)
        dom = expanded.get(lab)
        if dom and any(d1 > d and g1 < g for d1, g1 in dom):
            closed.add(at)
            continue
        # before the first expansion and every 256th after it
        if deadline is not None and not nodes & 255 and time.perf_counter() >= deadline:
            sink_g = None
            break
        expanded.setdefault(lab, []).append((d, g))
        closed.add(at)
        nodes += 1
        bucket = index.successors(u, m1)
        if len(labels) > len(dist):
            wider = np.full((max(2 * len(dist), len(labels)), stride), np.inf)
            wider[:len(dist)] = dist
            dist = wider
            flat = dist.reshape(-1)
        # sink edge
        ws = bucket.sink[d]
        if ws < np.inf:
            g2 = g + ws
            edges += 1
            if g2 < sink_g - 1e-15:
                sink_g = g2
                parent[_SINK_KEY] = key
                bound = min(bound, g2)
                heapq.heappush(heap, (g2, 0, _SINK, 0, g2, _SINK))
        # dense targets (empty ng sets, so M2 = 0)
        if d >= 2:
            # the potential is +inf at capacities below a customer's demand,
            # so infeasible candidates drop out of the comparison for free
            block = bucket.blocks.get(d)
            T, A = block if block is not None else bucket.dense_block(d, pot)
            for cell in (T < bound - g).nonzero()[0].tolist():
                i, j = divmod(cell, d)
                v = i + 1
                d2 = d - (j + 1)
                g2 = g + A.item(cell)
                edges += 1
                at = v * stride + d2
                if g2 < flat.item(at) - 1e-15:
                    flat[at] = g2
                    parent[(v, 0, d2)] = key
                    heapq.heappush(heap, (g + T.item(cell), d2, v, 0, g2, v))
        # targets with grown ng sets: the (M2, demand) entries whose landing
        # capacity fits, scanned in lo order up to the first lo > d
        for lo, hi, v, lab2, v_at, lab_at, neg_zd, w in bucket.rows():
            if lo > d:
                break
            if d > hi:
                continue
            g2 = g + w
            f2 = g2 + pot_l[v_at + d]
            edges += 1
            if f2 >= bound:
                continue
            at = lab_at + d
            if g2 < flat.item(at) - 1e-15:
                flat[at] = g2
                d2 = d + neg_zd
                m2 = labels[lab2][1]
                parent[(v, m2, d2)] = key
                heapq.heappush(heap, (f2, d2, v, m2, g2, lab2))
    diag = PricingDiagnostics(
        nodes_expanded=nodes, edges_relaxed=edges, offset_rate=index.offset_rate(),
        adjusted_cost=np.nan,
    )
    return sink_g, parent, diag


def _relax_all(inst, index):
    d0 = inst.capacity
    dem = inst.demand
    labels = index.label_keys
    dist: dict[tuple, float] = {}
    parent: dict[tuple, tuple | None] = {}
    by_d: dict[int, set] = {d: set() for d in range(d0 + 1)}
    for u, w in index.source_edges:
        key = (u, 0, d0)
        if w < dist.get(key, np.inf):
            dist[key] = w
            parent[key] = _SOURCE_KEY
            by_d[d0].add((u, 0))
    nodes = edges = 0
    for d in range(d0, 0, -1):
        for (u, m1) in sorted(by_d[d]):
            key = (u, m1, d)
            g = dist[key]
            nodes += 1
            bucket = index.successors(u, m1)
            ws = bucket.sink_pref[d]
            if np.isfinite(ws):
                edges += 1
                g2 = g + float(ws)
                if g2 < dist.get(_SINK_KEY, np.inf):
                    dist[_SINK_KEY] = g2
                    parent[_SINK_KEY] = key
            rows, cols = np.nonzero(np.isfinite(bucket.dense[:, 1:d + 1]))
            for i, j in zip(rows, cols):
                v = int(i)
                zd = int(j) + 1
                d2 = d - zd
                if d2 < dem[v]:
                    continue
                edges += 1
                g2 = g + float(bucket.dense[v, zd])
                k2 = (v, 0, d2)
                if g2 < dist.get(k2, np.inf):
                    dist[k2] = g2
                    parent[k2] = key
                    by_d[d2].add((v, 0))
            for group in bucket.dirty.values():
                for lo, hi, v, lab, _, _, neg_zd, w in group:
                    if not lo <= d <= hi:
                        continue
                    edges += 1
                    g2 = g + w
                    d2 = d + neg_zd
                    m2 = labels[lab][1]
                    k2 = (v, m2, d2)
                    if g2 < dist.get(k2, np.inf):
                        dist[k2] = g2
                        parent[k2] = key
                        by_d[d2].add((v, m2))
    diag = PricingDiagnostics(
        nodes_expanded=nodes, edges_relaxed=edges,
        offset_rate=index.offset_rate(), adjusted_cost=np.nan,
    )
    return dist.get(_SINK_KEY, np.inf), parent, diag


def _decode(inst: Instance, index: ArcIndex, parent) -> Route:
    chain = [_SINK_KEY]
    while parent[chain[-1]] != _SOURCE_KEY:
        chain.append(parent[chain[-1]])
    chain.reverse()  # first customer node ... sink
    seq: list[int] = []
    for here, nxt in zip(chain, chain[1:]):
        u, m1, d = here
        if nxt == _SINK_KEY:
            row = index.best_sink_arc(u, m1, d)
        else:
            v, m2, d2 = nxt
            row = index.best_arc_between(u, m1, v, d - d2, m2)
        arc = index.table.arc_from_row(u, row)
        seq.extend(arc.path[:-1])
    demand_used = sum(inst.demand[u] for u in seq)
    return Route(seq=tuple(seq), demand_used=demand_used)
