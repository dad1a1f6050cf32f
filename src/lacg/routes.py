"""Routes, costs, reduced costs and the route-class predicates.

A route stores only its customer sequence; the depots at both ends are
implicit.  Relaxed routes may visit a customer more than once, so coverage
is visit-counted: the reduced cost subtracts one dual per visit.

Route classes, from tightest to loosest:

  elementary  -- no repeated customer.
  la          -- every cycle contains a breaker at a *special index*:
                 an intermediate position k3 from the special-index set
                 whose customer v satisfies u not in ng(v).
  ng          -- every cycle contains a breaker at any intermediate position.
  kq(K)       -- a customer may repeat only after K intermediate positions.

Special indexes are recursive: position 1 is special, and after a special
position holding customer v, the next special position is the first later
one whose customer is not an la neighbor of v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance, CostMatrix, START_DEPOT, END_DEPOT
from .neighbors import NeighborSets


@dataclass(frozen=True)
class Route:
    """Ordered customer visits (depot endpoints implicit) plus total demand."""

    seq: tuple[int, ...]
    demand_used: int

    def __post_init__(self):
        if not self.seq:
            raise ValueError("a route must visit at least one customer")

    def visit_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for u in self.seq:
            counts[u] = counts.get(u, 0) + 1
        return counts


def make_route(seq, inst: Instance) -> Route:
    seq = tuple(seq)
    for u in seq:
        if u not in inst.demand or u < 1:
            raise ValueError(f"unknown customer {u} in route")
    return Route(seq=seq, demand_used=sum(inst.demand[u] for u in seq))


@dataclass(frozen=True)
class DualSolution:
    """Duals of the set-cover LP: pi[u] per cover row, pi0 for the fleet row."""

    pi: dict[int, float]
    pi0: float = 0.0

    def __post_init__(self):
        if self.pi0 < -1e-9:
            raise ValueError("fleet dual must be nonnegative")
        for u, val in self.pi.items():
            if val < -1e-9:
                raise ValueError(f"cover dual for {u} must be nonnegative")

    def value(self, u: int) -> float:
        return self.pi.get(u, 0.0)


def route_cost(route: Route, costs: CostMatrix) -> float:
    total = costs.cost(START_DEPOT, route.seq[0])
    for a, b in zip(route.seq, route.seq[1:]):
        total += costs.cost(a, b)
    return total + costs.cost(route.seq[-1], END_DEPOT)


def reduced_cost(route: Route, duals: DualSolution, costs: CostMatrix) -> float:
    rc = route_cost(route, costs) + duals.pi0
    for u in route.seq:
        rc -= duals.value(u)
    return rc


def special_indices(route: Route, sets: NeighborSets) -> tuple[int, ...]:
    """1-based special positions of the route under the given la sets."""
    out = [1]
    seq = route.seq
    while True:
        v = seq[out[-1] - 1]
        la_v = set(sets.la(v))
        nxt = None
        for k in range(out[-1] + 1, len(seq) + 1):
            if seq[k - 1] not in la_v:
                nxt = k
                break
        if nxt is None:
            return tuple(out)
        out.append(nxt)


def repeat_pairs(seq):
    """(u, k1, k2) for every two 1-based positions k1 < k2 of one customer u."""
    positions: dict[int, list[int]] = {}
    for i, u in enumerate(seq, start=1):
        positions.setdefault(u, []).append(i)
    for u, pos in positions.items():
        for a in range(len(pos)):
            for b in range(a + 1, len(pos)):
                yield u, pos[a], pos[b]


def is_elementary(route: Route) -> bool:
    return len(set(route.seq)) == len(route.seq)


def is_kq_route(route: Route, K: int) -> bool:
    seq = route.seq
    for _, k1, k2 in repeat_pairs(seq):
        if k2 <= min(len(seq), k1 + K):
            return False
    return True


def is_ng_route(route: Route, sets: NeighborSets) -> bool:
    seq = route.seq
    for u, k1, k2 in repeat_pairs(seq):
        ok = any(
            not sets.has_ng(seq[k3 - 1], u) for k3 in range(k1 + 1, k2)
        )
        if not ok:
            return False
    return True


def is_la_route(route: Route, sets: NeighborSets) -> bool:
    seq = route.seq
    special = set(special_indices(route, sets))
    for u, k1, k2 in repeat_pairs(seq):
        ok = any(
            k3 in special and not sets.has_ng(seq[k3 - 1], u)
            for k3 in range(k1 + 1, k2)
        )
        if not ok:
            return False
    return True


def trim_to_elementary(route: Route, inst: Instance) -> Route:
    """Keep the first visit of each customer, preserving order."""
    seen = set()
    seq = []
    for u in route.seq:
        if u not in seen:
            seen.add(u)
            seq.append(u)
    return make_route(seq, inst)
