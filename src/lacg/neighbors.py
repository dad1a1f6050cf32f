"""Neighbor sets driving the route relaxations.

Each customer u owns two sets:

* la(u): the fixed "local area" neighbors, the k customers nearest to u.
  Intermediate customers of precomputed arcs are drawn from this set.
* ng(u): the cycle-memory neighbors.  They start empty and are grown by the
  state-space-relaxation loop; a cycle returning to w is forbidden once every
  breaker candidate counts w among its ng neighbors.

Neither set ever contains u itself, and depots have no neighbors.  Bitmask
views (bit u-1 set for customer u) are exposed for the pricing hot path.
"""

from __future__ import annotations

import numpy as np

from .instances import Instance, CostMatrix, cost_matrix, START_DEPOT, END_DEPOT


def bit(u: int) -> int:
    return 1 << (u - 1)


def mask_of(ids) -> int:
    m = 0
    for u in ids:
        m |= 1 << (u - 1)
    return m


def ids_of(mask: int) -> tuple[int, ...]:
    out = []
    u = 1
    while mask:
        if mask & 1:
            out.append(u)
        mask >>= 1
        u += 1
    return tuple(out)


class NeighborSets:
    """Per-customer la (fixed) and ng (growable) neighbor sets."""

    def __init__(self, la: dict[int, tuple[int, ...]]):
        self._la = la
        self._la_mask = {u: mask_of(nbrs) for u, nbrs in la.items()}
        self._ng_mask = {u: 0 for u in la}

    def la(self, u: int) -> tuple[int, ...]:
        if u in (START_DEPOT, END_DEPOT):
            return ()
        return self._la[u]

    def la_mask(self, u: int) -> int:
        if u in (START_DEPOT, END_DEPOT):
            return 0
        return self._la_mask[u]

    def ng(self, u: int) -> frozenset[int]:
        if u in (START_DEPOT, END_DEPOT):
            return frozenset()
        return frozenset(ids_of(self._ng_mask[u]))

    def ng_mask(self, u: int) -> int:
        if u in (START_DEPOT, END_DEPOT):
            return 0
        return self._ng_mask[u]

    def ng_size_total(self) -> int:
        return sum(m.bit_count() for m in self._ng_mask.values())

    def reset_ng(self) -> None:
        for u in self._ng_mask:
            self._ng_mask[u] = 0

    def ng_meeting(self, mask: int) -> list[int]:
        """Customers whose ng set shares a member with mask."""
        return [u for u, m in self._ng_mask.items() if m & mask]

    def has_ng(self, w: int, u: int) -> bool:
        """True when u is an ng neighbor of w."""
        return bool(self._ng_mask.get(w, 0) & bit(u))


def build_la_neighbors(inst: Instance, k: int, costs: CostMatrix | None = None) -> NeighborSets:
    """la(u) = the k customers nearest u, ties broken by lower id; ng empty."""
    if k < 0:
        raise ValueError("k must be >= 0")
    costs = costs or cost_matrix(inst)
    n = inst.n
    dist = costs.m[1:n + 1, 1:n + 1].copy()  # customers index as themselves
    np.fill_diagonal(dist, np.inf)  # u itself sorts last
    # each row by cost, then id
    nearest = np.lexsort((np.broadcast_to(np.arange(n), dist.shape), dist))[:, :min(k, n - 1)]
    rows = (np.sort(nearest, axis=1) + 1).tolist()
    return NeighborSets({u: tuple(row) for u, row in zip(inst.customers, rows)})


def augment_ng(sets: NeighborSets, w: int, u: int) -> bool:
    """Add u to ng(w); returns True when the set actually grew."""
    if w in (START_DEPOT, END_DEPOT) or u in (START_DEPOT, END_DEPOT):
        raise ValueError("depots carry no ng neighbors")
    if w == u:
        raise ValueError("a customer is never its own neighbor")
    if w not in sets._ng_mask:
        raise ValueError(f"unknown customer {w}")
    old = sets._ng_mask[w]
    new = old | bit(u)
    if new == old:
        return False
    sets._ng_mask[w] = new
    return True
