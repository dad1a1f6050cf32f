"""Brute-force reference implementations used by the test suite.

Everything here favours obviousness over speed: depth-first route
enumeration, linear-scan pricing, and an exact-rational LP over an explicit
route list.  The route classifiers below are written directly from the class
definitions and deliberately do not share code with lacg.routes, so the two
can be checked against each other.
"""

from __future__ import annotations

from .instances import Instance, CostMatrix, cost_matrix, START_DEPOT, END_DEPOT
from .neighbors import NeighborSets, bit, mask_of
from .arcs import ComponentPathTable, LaArc
from .routes import Route, make_route
from . import simplex


class EnumerationTooLarge(RuntimeError):
    pass


def _special_positions(seq, sets: NeighborSets):
    # Independent re-derivation: walk the sequence keeping the current
    # special customer, emitting a new special position whenever the visited
    # customer falls outside that customer's la neighborhood.
    specials = []
    current = None
    for pos in range(1, len(seq) + 1):
        if pos == 1:
            specials.append(1)
            current = seq[0]
            continue
        if seq[pos - 1] not in sets.la(current):
            specials.append(pos)
            current = seq[pos - 1]
    return specials


def _cycle_pairs(seq):
    pairs = []
    for k1 in range(1, len(seq) + 1):
        for k2 in range(k1 + 1, len(seq) + 1):
            if seq[k1 - 1] == seq[k2 - 1]:
                pairs.append((seq[k1 - 1], k1, k2))
    return pairs


def classify_elementary(seq, sets=None, K=None) -> bool:
    return len(seq) == len(set(seq))


def classify_kq(seq, sets=None, K=1) -> bool:
    for _, k1, k2 in _cycle_pairs(seq):
        if k2 - k1 <= K:
            return False
    return True


def classify_ng(seq, sets: NeighborSets, K=None) -> bool:
    for u, k1, k2 in _cycle_pairs(seq):
        found = False
        for k3 in range(k1 + 1, k2):
            if u not in sets.ng(seq[k3 - 1]):
                found = True
                break
        if not found:
            return False
    return True


def classify_la(seq, sets: NeighborSets, K=None) -> bool:
    specials = _special_positions(seq, sets)
    for u, k1, k2 in _cycle_pairs(seq):
        found = False
        for k3 in specials:
            if k1 < k3 < k2 and u not in sets.ng(seq[k3 - 1]):
                found = True
                break
        if not found:
            return False
    return True


_CLASSIFIERS = {
    "elementary": classify_elementary,
    "ng": classify_ng,
    "la": classify_la,
    "kq": classify_kq,
    "all_feasible": lambda seq, sets=None, K=None: True,
}


def enumerate_routes(
    inst: Instance,
    route_class: str = "elementary",
    sets: NeighborSets | None = None,
    K: int = 1,
    max_routes: int = 10_000_000,
) -> list[Route]:
    """All resource-feasible routes of the given class, by depth-first extension.

    Demands are >= 1, so route length is bounded by the capacity and the
    enumeration is finite even for the relaxed classes.  Raises
    EnumerationTooLarge when more than max_routes feasible routes exist.
    """
    if route_class not in _CLASSIFIERS:
        raise ValueError(f"unknown route class {route_class!r}")
    if route_class in ("ng", "la") and sets is None:
        raise ValueError(f"route class {route_class!r} needs neighbor sets")
    classify = _CLASSIFIERS[route_class]
    out: list[Route] = []
    seen = 0
    seq: list[int] = []

    def extend(load: int):
        nonlocal seen
        for u in inst.customers:
            d = inst.demand[u]
            if load + d > inst.capacity:
                continue
            if seq and seq[-1] == u:
                continue  # graph edges require distinct endpoints
            if route_class == "elementary" and u in seq:
                continue
            seq.append(u)
            seen += 1
            if seen > max_routes:
                raise EnumerationTooLarge(
                    f"more than {max_routes} feasible routes"
                )
            if classify(seq, sets, K):
                out.append(make_route(seq, inst))
            extend(load + d)
            seq.pop()

    extend(0)
    return out


def brute_pricing(routes, duals, costs: CostMatrix):
    """(best route, min reduced cost) by scanning the whole list."""
    if not routes:
        raise ValueError("no routes to price over")
    best = None
    best_rc = None
    for r in routes:
        cost = costs.cost(START_DEPOT, r.seq[0])
        for a, b in zip(r.seq, r.seq[1:]):
            cost += costs.cost(a, b)
        cost += costs.cost(r.seq[-1], END_DEPOT)
        rc = cost + duals.pi0 - sum(duals.value(u) for u in r.seq)
        if best_rc is None or rc < best_rc:
            best, best_rc = r, rc
    return best, best_rc


def lp_over_routes(routes, inst: Instance, costs: CostMatrix | None = None,
                   K: int | None = None, exact: bool = True):
    """Optimal set-cover LP value over an explicit route list.

    With exact=True the LP is solved in rational arithmetic and the value is
    returned as a Fraction (costs converted exactly from their doubles).
    """
    costs = costs or cost_matrix(inst)
    K = inst.fleet if K is None else K
    n = inst.n
    ncols = len(routes)
    if ncols == 0:
        raise ValueError("no routes")
    obj = []
    cols = []
    for r in routes:
        cost = costs.cost(START_DEPOT, r.seq[0])
        for a, b in zip(r.seq, r.seq[1:]):
            cost += costs.cost(a, b)
        cost += costs.cost(r.seq[-1], END_DEPOT)
        obj.append(cost)
        col = [0] * (n + 1)
        for u in r.seq:
            col[u - 1] += 1
        col[n] = 1
        cols.append(col)
    A = [[cols[j][i] for j in range(ncols)] for i in range(n + 1)]
    senses = [">="] * n + ["<="]
    b = [1] * n + [K]
    res = simplex.solve_lp(obj, A, senses, b, exact=exact)
    if res.status != "optimal":
        raise RuntimeError(f"route LP not optimal: {res.status}")
    return res.objective if exact else float(res.objective)


def arcs_for(table: ComponentPathTable, u: int, v: int, m1, m2, d: int) -> list[LaArc]:
    """Arcs of the table filed under the pricing key (u, v, M1, M2, d), by a
    scan of the grid row of u's arcs toward v.

    M2 must equal ng(v) intersected with (M1 | intermediates | u); sink
    keys (v == END_DEPOT) match any arc demand up to d.
    """
    m1 = m1 if isinstance(m1, int) else mask_of(m1)
    m2 = m2 if isinstance(m2, int) else mask_of(m2)
    sink = v == END_DEPOT
    if not sink and (m1 >> (v - 1)) & 1:
        return []
    ng_v = 0 if sink else table.sets.ng_mask(v)
    out = []
    t = table._target_pos(u, v)
    if t < 0:
        return out
    n_sub = len(table._sub_id[u])
    for j, (zd, local) in enumerate(zip(table._sub_zd[u].tolist(),
                                        table._sub_local[u].tolist())):
        if (zd > d) if sink else (zd != d):
            continue
        mask = table.to_global(u, local)
        if mask & m1:
            continue
        if ng_v & (m1 | mask | bit(u)) != m2:
            continue
        out.append(table.arc_from_row(u, t * n_sub + j))
    return out


def lowest_rc_arc(table: ComponentPathTable, u: int, v: int, m1, m2, d: int,
                  duals) -> LaArc | None:
    """Cheapest arc of the key by reduced cost; None when the key is empty."""
    best = None
    best_rc = None
    for arc in arcs_for(table, u, v, m1, m2, d):
        rc = arc.cost - duals.value(arc.start) - sum(
            duals.value(w) for w in arc.intermediates
        )
        if best_rc is None or rc < best_rc:
            best, best_rc = arc, rc
    return best
