"""Precomputed lowest-cost component paths and the keyed arc index.

An *arc* is the cheapest elementary path that starts at a customer u, ends at
a target v outside u's la neighborhood (another customer or the end depot),
and services a chosen subset of u's la neighbors in between.  Arc membership
and ordering never depend on the duals, so the whole table is built once per
(instance, la size) and reused across every pricing call.

Each owner u runs one subset dynamic program (Held & Karp), forward by
subset size, over la(u)-local bits: bit j stands for la(u)[j].  la(u) is
sorted and has at most MAX_LA_SIZE members, so the bits fit a uint32 for any
number of customers, and local masks order subsets exactly as their global
masks do.  Every la set has the same size, so all owners run their programs
together, one subset size at a time; demands are positive, so the sizes stop
at the first one where no subset fits a vehicle.  A size is a few
whole-array passes over every (subset, member) pair of the owners, one per
table:

  seg  (S, v, w) : cheapest path visiting exactly S, from v to w, v, w in S:
                   min over y of c(v, y) + seg(S - v, y, w).
  head (S, w)    : cheapest path from u over all of S ending at w:
                   min over v of c(u, v) + seg(S, v, w).
  arc  (S, t)    : cheapest path from u over all of S ending at target t:
                   min over w of head(S, w) + c(w, t).

Each minimum runs over the members of S only, and the member minimized over
(y, v or w) leads the candidate array.  seg and head keep member cells only,
indexed by member rank (a member's position among S's members): seg(S, v, .)
reads the (s - 1) x (s - 1) block of S - v.  The first argument of a minimum
is found by counting each cell's leading misses and gathering once.  The
first minimum wins, so among equal-cost paths seg and head keep the
lexicographically smallest; tied arc candidates end at different w, so the
arc layer compares their paths.  Every owner sums the same costs in the same
order, so a subset's seg costs agree across owners bit for bit.  Subsets
whose demand cannot fit in a vehicle alongside u are skipped: such arcs
could never appear in a feasible route.  u's arcs form one grid of targets x
subsets (see ComponentPathTable): table row t * subsets + j is grid cell
(t, j), so the rows toward one target are contiguous and sorted by demand.
Every per-row subset test (M1 filters, carried memories, decode) runs on the
subsets' la(u)-local bits.

ArcIndex owns the dual-dependent view used by one pricing call.  It holds
only the arc rows that fit a vehicle: every sink row, and the rows toward a
customer v whose demand zd leaves room for v's (zd + demand(v) <= capacity),
which are a prefix of v's grid row.  Any other row lands below v's demand
and no route can traverse it; the table keeps it, so arc counts and lookups
are unchanged.  Over the fitting rows
the index holds arc reduced costs (priced for all owners in one pass over a
flat copy of those rows that the index builds once), the per-(u,
visited-memory) successor buckets consumed by the search, and the lazily
cached groups keyed by (u, v, M1, M2, demand).  Growing a customer's ng set
invalidates exactly the cached entries that start or end at that customer.
The index also interns the (customer, memory) labels that the search uses
as distance rows, and each bucket caches its grown-ng entries as one list
sorted by the least remaining capacity they fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .instances import Instance, CostMatrix, cost_matrix, END_DEPOT
from .neighbors import NeighborSets, bit, mask_of, ids_of

MAX_LA_SIZE = 20
_SINK = 0  # target id used for the end depot inside arc arrays
# the subset DP runs each layer over blocks of owners with up to this many
# arc cells, which keeps the layer's temporaries small enough to stay in cache
_BLOCK_CELLS = 1 << 17


class LaSizeError(ValueError):
    pass


@dataclass(frozen=True)
class LaArc:
    """One precomputed component path: u -> intermediates -> v."""

    start: int
    end: int  # customer id, or END_DEPOT
    intermediates: tuple[int, ...]  # in visit order
    demand: int  # includes start, excludes end
    cost: float

    @property
    def path(self) -> tuple[int, ...]:
        return (self.start,) + self.intermediates + (self.end,)


def _first(hit: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per cell (p, x), idx[p, j] of the first j with hit[j, p, x]; hit is
    (q, P, K), q <= MAX_LA_SIZE, with a True in every cell.  j is the number
    of the cell's leading misses, counted with a running OR."""
    seen = hit[0].copy()
    j = np.zeros(seen.shape, dtype=np.uint8)
    for h in hit[1:]:
        j += ~seen
        seen |= h
    return np.take_along_axis(idx, j, axis=1)


def _rank(local: int, j: int) -> int:
    """Member rank of local index j in la-local bits `local`."""
    return (local & ((1 << j) - 1)).bit_count()


class ComponentPathTable:
    """Arc rows of one instance and fixed la sets, and the subset DP behind them.

    Per owner u, with k = |la(u)|, subset ids i and local indices v, w:
      _pos[u]         (2**k,) subset id of each local mask, -1 if infeasible;
                      ids run by size, then in itertools.combinations order
      _size_start[u]  per subset size s, the id of u's first subset of size s
    The DP layers hold member cells only, one array per subset size s: the
    subset of id i is row i - _size_start[u][s], and a member is indexed by
    its rank r, its position among the subset's members:
      _seg_cost[u][s]    (rows, s, s) seg(i, r_v, r_w); +inf where v == w in a
                         subset of two or more
      _seg_next[u][s]    int8, the local index of the customer after v
      _head_cost[u][s]   (rows, s) head(i, r_w); the empty subset's only end
                         is u itself, at cost 0, and is not stored
      _head_first[u][s]  int8, the local index of the customer after u
      _subset_indicator[u]  (subsets, max(1, k)) member bits, by subset id

    u's arcs form one grid of targets x subsets, targets in ascending id
    with the sink (0) first, subsets in demand order, ties by id; table row
    t * subsets + j is grid cell (t, j):
      _sub_id[u], _sub_zd[u], _sub_local[u]  per subset j: its id, its demand
                      with u's own, its la(u)-local bits
      _targets[u]     target ids
      _arc_cost[u]    (targets, subsets) cost of arc (u, target t, subset j)
      _arc_wstar[u]   its last customer before the target

    Every la set must have the same size (LaSizeError otherwise), and _build
    runs all owners together: an owner's DP layers and subset arrays are
    slices of arrays stacked over the owners (an owner's subsets of one size
    have consecutive ids).
    Its arc grid is a view of _arc_cells, every owner's grid raveled, in
    customer order; ArcIndex gathers the fitting rows from there.
    """

    def __init__(self, inst: Instance, sets: NeighborSets, costs: CostMatrix | None = None):
        sizes = {len(sets.la(u)) for u in inst.customers}
        if len(sizes) > 1:
            raise LaSizeError(f"la neighborhoods have sizes {sorted(sizes)}; "
                              f"the subset tables need one size")
        (k,) = sizes
        if k > MAX_LA_SIZE:
            raise LaSizeError(f"la neighborhoods have {k} members; "
                              f"subset tables are limited to {MAX_LA_SIZE}")
        self.inst = inst
        self.sets = sets
        self.costs = costs or cost_matrix(inst)
        self._mask_demand: dict[int, int] = {0: 0}
        self.layer_bytes = 0  # of the subset DP layers
        self._la_pos = {u: {w: 1 << j for j, w in enumerate(sets.la(u))}
                        for u in inst.customers}
        self._pos: dict[int, np.ndarray] = {}
        self._size_start: dict[int, list[int]] = {}
        self._seg_cost: dict[int, list[np.ndarray]] = {}
        self._seg_next: dict[int, list[np.ndarray]] = {}
        self._head_cost: dict[int, list[np.ndarray]] = {}
        self._head_first: dict[int, list[np.ndarray]] = {}
        self._subset_indicator: dict[int, np.ndarray] = {}
        self._sub_id: dict[int, np.ndarray] = {}
        self._sub_zd: dict[int, np.ndarray] = {}
        self._sub_local: dict[int, np.ndarray] = {}
        self._targets: dict[int, np.ndarray] = {}
        self._arc_cost: dict[int, np.ndarray] = {}
        self._arc_wstar: dict[int, np.ndarray] = {}
        self._arc_cells = self._build(k)

    # -- helpers -----------------------------------------------------------

    def mask_demand(self, mask: int) -> int:
        got = self._mask_demand.get(mask)
        if got is None:
            low = mask & -mask
            got = self.mask_demand(mask ^ low) + self.inst.demand[low.bit_length()]
            self._mask_demand[mask] = got
        return got

    def to_local(self, u: int, mask: int) -> int:
        """la(u)-local bits of a global mask; members outside la(u) drop out."""
        pos = self._la_pos[u]
        mask &= self.sets.la_mask(u)
        out = 0
        while mask:
            low = mask & -mask
            out |= pos[low.bit_length()]
            mask ^= low
        return out

    def to_global(self, u: int, local: int) -> int:
        """Global customer mask of la(u)-local bits."""
        nbrs = self.sets.la(u)
        out = 0
        while local:
            low = local & -local
            out |= bit(nbrs[low.bit_length() - 1])
            local ^= low
        return out

    # -- construction ------------------------------------------------------

    def _build(self, k: int) -> np.ndarray:
        """Subsets, subset DP and arc grids of every owner, whose la sets all
        have k members, in la-local bits; returns the grids raveled, owner by
        owner in customer order, of which the owners' _arc_cost are views.

        The owners' subsets are stacked owner by owner: subset g of the stack
        is id g - off[o] of its owner o, and an owner's DP tables are slices
        of the stacked ones.  Each subset size is one layer of whole-array
        passes over a block of owners of up to _BLOCK_CELLS arc cells, which
        keeps the layer's temporaries small enough to stay in cache.
        """
        inst = self.inst
        owners = inst.customers
        m = self.costs.m  # customers index as themselves
        n_o = len(owners)
        us = np.array(owners, dtype=np.intp)
        la = np.array([self.sets.la(u) for u in owners], dtype=np.intp).reshape(n_o, k)
        members = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        size = members.sum(axis=1)
        # subset ids run by size, then in combinations order: lexicographic
        # over ascending local indices, that is descending bit-reversed mask
        order = np.lexsort((-(members @ (1 << np.arange(k)[::-1])), size))
        dem = np.array([0] + [inst.demand[v] for v in inst.customers], dtype=np.int64)
        # demand of each owner's local masks; demands are positive, so the
        # fitting subsets are closed under removal and come size by size
        demand = dem[la] @ members.T
        o_of, col = np.nonzero(demand[:, order] <= (inst.capacity - dem[us])[:, None])
        local = order[col]
        n_sub = np.bincount(o_of, minlength=n_o)
        off = np.cumsum(n_sub) - n_sub
        pos = np.full((n_o, 1 << k), -1, dtype=np.int32)
        pos[o_of, local] = np.arange(len(local)) - off[o_of]

        outside = np.ones((n_o, inst.n + 1), dtype=bool)
        rows = np.arange(n_o)[:, None]
        outside[:, 0] = outside[rows, us[:, None]] = outside[rows, la] = False
        targets = np.nonzero(outside)[1].reshape(n_o, -1)
        t_idx = np.concatenate((np.full((n_o, 1), inst.n + 1), targets), axis=1)
        n_t = t_idx.shape[1]
        c_la = m[la[:, :, None], la[:, None, :]]
        c_u = m[us[:, None], la]
        c_out = m[la[:, :, None], t_idx[:, None, :]]
        # the layers of size s stack that size's subsets owner by owner:
        # subset g of the stack is row at[g] there
        sz = size[local]
        n_s = np.bincount(sz)
        by_size = np.argsort(sz, kind="stable")
        at = np.empty(len(local), dtype=np.intp)
        at[by_size] = np.arange(len(local)) - (np.cumsum(n_s) - n_s)[sz[by_size]]
        seg = [np.full((c, s, s), np.inf) for s, c in enumerate(n_s)]  # v == w stays +inf
        nxt = [np.zeros(a.shape, dtype=np.int8) for a in seg]
        head = [np.empty((c, s)) for s, c in enumerate(n_s)]
        first = [np.empty(a.shape, dtype=np.int8) for a in head]
        self.layer_bytes += sum(a.nbytes for a in chain(seg, nxt, head, first))
        # arcs by subset; an empty subset's only end is its owner
        cost = np.empty((len(local), n_t))
        wstar = np.empty(cost.shape, dtype=np.int32)
        cost[off] = m[us[:, None], t_idx]
        wstar[off] = us[:, None]
        # per owner and size: its subsets there, its first row and first id
        cnt = np.bincount(o_of * len(n_s) + sz, minlength=n_o * len(n_s)).reshape(n_o, -1)
        row0 = np.cumsum(cnt, axis=0) - cnt
        id0 = np.cumsum(cnt, axis=1) - cnt
        for i, u in enumerate(owners):  # decode reads these while ties are broken
            sizes = range(np.count_nonzero(cnt[i]))  # fitting subsets are closed under removal
            self._pos[u] = pos[i]
            self._size_start[u] = id0[i, sizes].tolist()
            for store, layers in ((self._seg_cost, seg), (self._seg_next, nxt),
                                  (self._head_cost, head), (self._head_first, first)):
                store[u] = [layers[s][row0[i, s]:row0[i, s] + cnt[i, s]] for s in sizes]
        # layers (block, size): subsets ordered by block, then size
        key = (off // max(1, _BLOCK_CELLS // n_t))[o_of] * (k + 1) + sz
        by_key = np.argsort(key, kind="stable")
        starts = np.searchsorted(key[by_key], np.arange(key.max() + 2))
        # candidates lead with the member minimized over, so each minimum is
        # over slabs
        for layer in range(len(starts) - 1):
            g = by_key[starts[layer]:starts[layer + 1]]
            s = layer % (k + 1)
            if s == 0 or not len(g):  # the empty subsets, or past the largest size that fits
                continue
            o = o_of[g]
            rows = slice(at[g[0]], at[g[-1]] + 1)
            mem = np.nonzero(members[local[g]])[1].reshape(-1, s)  # ascending
            if s == 1:
                seg[1][rows] = 0.0
            else:
                # seg over every (subset, member v) pair from the block of
                # S - v: the other members y lead, then w
                offd = ~np.eye(s, dtype=bool)
                y = mem[:, np.nonzero(offd)[1]].reshape(-1, s - 1).T
                v = mem.ravel()
                ov = np.repeat(o, s)
                prev = at[off[ov] + pos[ov, (local[g, None] ^ (1 << mem)).ravel()]]
                cand = c_la[ov, v, y][:, :, None] + seg[s - 1][prev].transpose(1, 0, 2)
                low = cand.min(axis=0)
                # row v of an s x s block, less its diagonal cell, is w in S - v
                offd = np.flatnonzero(offd)
                seg[s].reshape(-1, s * s)[rows, offd] = low.reshape(len(g), -1)
                y_first = _first(cand == low, y.T)
                nxt[s].reshape(-1, s * s)[rows, offd] = y_first.reshape(len(g), -1)
            # head: the first member v leads
            cand = c_u[o, mem.T][:, :, None] + seg[s][rows].transpose(1, 0, 2)
            low = head[s][rows] = cand.min(axis=0)
            first[s][rows] = _first(cand == low, mem)
            # arcs: the last member w leads, then target; equal-cost ends
            # are told apart by their paths
            cand = c_out[o, mem.T] + low.T[:, :, None]
            low = cost[g] = cand.min(axis=0)
            ends = la[o[:, None], mem]
            hit = cand == low
            w = _first(hit, ends)
            for i, t in zip(*np.nonzero(hit.sum(axis=0, dtype=np.uint8) > 1)):
                u, lm = owners[o[i]], int(local[g[i]])
                w[i, t] = min(ends[i, hit[:, i, t]],
                              key=lambda x: self._head_path(u, lm, int(x)))
            wstar[g] = w
        # each owner's grid: subsets in demand order, ties by id
        local = local.astype(np.uint32)
        j = np.arange(max(1, k), dtype=np.uint32)
        indicator = ((local[:, None] >> j) & 1).astype(float)
        zd = demand[o_of, local]
        by_zd = np.lexsort((zd, o_of))
        local = local[by_zd]
        sub_id = (by_zd - off[o_of]).astype(np.int32)
        sub_zd = (dem[us][o_of] + zd[by_zd]).astype(np.int32)
        sinks = np.concatenate((np.full((n_o, 1), _SINK), targets), axis=1).astype(np.int32)
        cells = np.empty(cost.size)
        for i, u in enumerate(owners):
            sl = slice(off[i], off[i] + n_sub[i])
            grid = self._arc_cost[u] = cells[off[i] * n_t:(off[i] + n_sub[i]) * n_t].reshape(n_t, -1)
            grid[...] = cost[by_zd[sl]].T
            self._arc_wstar[u] = np.ascontiguousarray(wstar[by_zd[sl]].T)
            self._sub_id[u], self._sub_zd[u], self._sub_local[u] = sub_id[sl], sub_zd[sl], local[sl]
            self._targets[u] = sinks[i]
            self._subset_indicator[u] = indicator[sl]
        return cells

    # -- lookups -----------------------------------------------------------

    def _subset_id(self, u: int, mask: int) -> int:
        """Id of a global mask among u's subsets, -1 if u has no such subset."""
        if mask & ~self.sets.la_mask(u):
            return -1
        return int(self._pos[u][self.to_local(u, mask)])

    def _owner(self, mask: int) -> tuple[int, int]:
        """Some owner whose subsets hold `mask`, and the mask's id there;
        all owners holding it have the same seg costs for it."""
        for u in self.inst.customers:
            i = self._subset_id(u, mask)
            if i >= 0:
                return u, i
        raise KeyError(mask)

    def _index(self, u: int, w: int) -> int:
        """Local index of w in la(u); for u itself, len(la(u))."""
        return len(self.sets.la(u)) if w == u else self._la_pos[u][w].bit_length() - 1

    def _layer_row(self, u: int, local: int) -> tuple[int, int]:
        """Size of la(u)-local bits `local` and their row in u's layers of that size."""
        s = local.bit_count()
        return s, int(self._pos[u][local]) - self._size_start[u][s]

    def _seg_path(self, u: int, local: int, v: int, w: int) -> tuple[int, ...]:
        """Customers of the cheapest path over la(u)-local bits `local` from
        local index v to local index w."""
        nbrs = self.sets.la(u)
        nxt = self._seg_next[u]
        path = [nbrs[v]]
        while local & (local - 1):
            s, r = self._layer_row(u, local)
            y = int(nxt[s][r, _rank(local, v), _rank(local, w)])
            local ^= 1 << v
            v = y
            path.append(nbrs[v])
        return tuple(path)

    def _head_path(self, u: int, local: int, w: int) -> tuple[int, ...]:
        """The cheapest path from u over la(u)-local bits `local` to customer w."""
        if not local:
            return (u,)
        j = self._index(u, w)
        s, r = self._layer_row(u, local)
        v = int(self._head_first[u][s][r, _rank(local, j)])
        return (u,) + self._seg_path(u, local, v, j)

    @staticmethod
    def _require(mask: int, *customers: int) -> None:
        """KeyError unless every customer is in the global mask."""
        if any(not mask & bit(c) for c in customers):
            raise KeyError((mask, customers))

    def inner_cost(self, subset, v: int, w: int) -> float:
        mask = subset if isinstance(subset, int) else mask_of(subset)
        self._require(mask, v, w)
        u, _ = self._owner(mask)
        local = self.to_local(u, mask)
        s, r = self._layer_row(u, local)
        return float(self._seg_cost[u][s][r, _rank(local, self._index(u, v)),
                                          _rank(local, self._index(u, w))])

    def inner_path(self, subset, v: int, w: int) -> tuple[int, ...]:
        mask = subset if isinstance(subset, int) else mask_of(subset)
        self._require(mask, v, w)
        u, _ = self._owner(mask)
        return self._seg_path(u, self.to_local(u, mask), self._index(u, v), self._index(u, w))

    def start_cost(self, u: int, subset, w: int) -> float:
        """Cost of the cheapest path from u over `subset` ending at its member
        w, or at u itself if the subset is empty."""
        mask = subset if isinstance(subset, int) else mask_of(subset)
        if self._subset_id(u, mask) < 0:
            raise KeyError(mask)
        self._require(mask or bit(u), w)
        if not mask:
            return 0.0
        local = self.to_local(u, mask)
        s, r = self._layer_row(u, local)
        return float(self._head_cost[u][s][r, _rank(local, self._index(u, w))])

    def start_path(self, u: int, subset, w: int) -> tuple[int, ...]:
        mask = subset if isinstance(subset, int) else mask_of(subset)
        if self._subset_id(u, mask) < 0:
            raise KeyError(mask)
        self._require(mask or bit(u), w)
        return self._head_path(u, self.to_local(u, mask), w)

    def subset_masks(self, u: int) -> list[int]:
        """Global masks of u's subsets, by subset id."""
        local = np.empty_like(self._sub_local[u])
        local[self._sub_id[u]] = self._sub_local[u]
        return [self.to_global(u, lm) for lm in local.tolist()]

    def _target_pos(self, u: int, v: int) -> int:
        """Grid row of target v (a customer or END_DEPOT) in u's arcs, -1 if none."""
        key = _SINK if v == END_DEPOT else v
        targets = self._targets[u]
        t = int(np.searchsorted(targets, key))
        return t if t < len(targets) and targets[t] == key else -1

    def _row(self, u: int, v: int, subset) -> int:
        """Table row of the arc from u over `subset` to v; KeyError if none."""
        mask = subset if isinstance(subset, int) else mask_of(subset)
        i = self._subset_id(u, mask)
        t = self._target_pos(u, v)
        if i < 0 or t < 0:
            raise KeyError((u, v, mask))
        ids = self._sub_id[u]
        return t * len(ids) + int(np.flatnonzero(ids == i)[0])

    def has_arc(self, u: int, v: int, subset) -> bool:
        mask = subset if isinstance(subset, int) else mask_of(subset)
        return self._subset_id(u, mask) >= 0 and self._target_pos(u, v) >= 0

    def arc_cost(self, u: int, v: int, subset) -> float:
        return self.arc_from_row(u, self._row(u, v, subset)).cost

    def arc_path(self, u: int, v: int, subset) -> tuple[int, ...]:
        return self.arc_from_row(u, self._row(u, v, subset)).path

    def arc_from_row(self, u: int, row: int) -> LaArc:
        t, j = divmod(row, len(self._sub_id[u]))
        v = int(self._targets[u][t])
        end = END_DEPOT if v == _SINK else v
        w = int(self._arc_wstar[u][t, j])
        path = self._head_path(u, int(self._sub_local[u][j]), w) + (end,)
        return LaArc(
            start=u,
            end=end,
            intermediates=path[1:-1],
            demand=int(self._sub_zd[u][j]),
            cost=float(self._arc_cost[u][t, j]),
        )

    def arc_count(self) -> int:
        return self._arc_cells.size


def compute_component_paths(inst: Instance, sets: NeighborSets,
                            costs: CostMatrix | None = None) -> ComponentPathTable:
    return ComponentPathTable(inst, sets, costs)


# ---------------------------------------------------------------------------
# dual-dependent index
# ---------------------------------------------------------------------------


class _OwnerRows(NamedTuple):
    """One owner's fitting rows in ArcIndex, positions local to the owner.

    Its fitting rows toward target v are targets[v] = (a, b, shift): rows
    a..b-1 here, and row i is table row i + shift.
    """

    local: np.ndarray   # la-local subset bits per row
    zd: np.ndarray      # demand per row
    starts: np.ndarray  # first row of each kept (target, demand) group
    gv: np.ndarray      # target of each group
    gz: np.ndarray      # demand of each group
    targets: dict


class _Bucket:
    """Successor view from pricing nodes (u, M1, *): dense weights for
    targets with empty ng sets, per-(M2, demand) groups for the rest, and a
    prefix-minimum over sink arcs indexed by remaining capacity.

    A group holds the minimum reduced cost per (carried memory M2, demand
    zd) toward one target v, as a list of entries sorted by lo:
    (lo, hi, v, label, v * stride - zd, label * stride - zd, -zd, cost) with
    stride = d0 + 1 and label the id of (v, M2).  An entry fits remaining
    capacity d iff lo <= d <= hi, that is when the landing capacity d - zd
    covers v's demand and stays under M2's capacity ceiling; adding d to
    the two stride terms gives the flat (v, d2) and (label, d2) indices.

    `blocks[d]` caches, for the best-first search, the flattened dense block
    toward customers from nodes (u, M1, d) and the same block plus the
    potential at each landing node; it is valid for the index's potential
    table and is dropped only when a finite dense row turns +inf.  rows()
    caches every group entry in one list sorted by lo, so a scan stops at
    the first entry whose lo exceeds d."""

    __slots__ = ("dense", "dirty", "sink_pref", "sink", "pending", "blocks", "_rows")

    def __init__(self, dense, dirty, sink_pref):
        self.dense = dense          # (n+1, d0+1) min reduced cost, +inf if none
        self.dirty = dirty          # v -> group: its lo-sorted entries
        self.sink_pref = sink_pref  # d -> min reduced cost over sink arcs zd<=d
        self.sink = sink_pref.tolist()  # the same as Python floats
        self.pending: set[int] = set()  # targets whose groups need a rebuild
        self.blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rows = None  # rows(), until the groups change

    def dense_block(self, d: int, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(T, A) from nodes (u, M1, d), cached: A[i * d + j] is the weight
        toward customer i + 1 with demand j + 1, and T adds the potential
        h[i + 1] at the landing capacity d - j - 1."""
        a = self.dense[1:, 1:d + 1]
        got = self.blocks[d] = ((a + h[1:, d - 1::-1]).ravel(), a.ravel())
        return got

    def rows(self) -> list[tuple]:
        """Every grown-ng entry of the bucket's groups, sorted by lo; from
        nodes (u, M1, d) the entries with lo <= d <= hi fit."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(chain.from_iterable(self.dirty.values()))
            rows.sort(key=itemgetter(0))  # merges the groups' lo-sorted runs
        return rows


class ArcIndex:
    """Reduced-cost view of the arc table for one pricing call.

    Only the rows that fit a vehicle are indexed (see _flatten): every group
    minimum, bucket and decode reads those, and the decode helpers
    return table row ids for ComponentPathTable.arc_from_row.  bind_duals
    fixes the duals and the source edges; successor buckets are built lazily
    per (u, M1) and stay valid until invalidate() reports grown ng sets.
    """

    def __init__(self, table: ComponentPathTable, sets: NeighborSets, capacity: int):
        self.table = table
        self.sets = sets
        self.d0 = capacity
        self.inst = table.inst
        self._duals = None
        self._offset_rate: float | None = None
        self._block_pot = None  # potential table the buckets' dense blocks are for
        self._flatten()
        self._buckets: dict[tuple[int, int], _Bucket] = {}
        # groups shared across buckets: M1 only acts through its overlap with
        # la(u) (arc filtering) and with ng(v) (carried memory)
        self._groups: dict[tuple[int, int, int, int], dict] = {}
        self._reset_labels()

    # -- labels --------------------------------------------------------------

    def _reset_labels(self) -> None:
        """Label ids of (customer, carried memory) pairs; (v, 0) is id v."""
        self.label_keys: list[tuple[int, int]] = [(v, 0) for v in range(self.inst.n + 1)]
        self._label_ids = {key: i for i, key in enumerate(self.label_keys)}

    def _label(self, v: int, m2: int) -> int:
        got = self._label_ids.get((v, m2))
        if got is None:
            got = len(self.label_keys)
            self.label_keys.append((v, m2))
            self._label_ids[(v, m2)] = got
        return got

    # -- duals -------------------------------------------------------------

    def _flatten(self) -> None:
        """The fitting arc rows of every owner in one dual-independent block,
        owner by owner, then target by target.

        A row toward customer v fits when zd + demand(v) <= capacity, a sink
        row always; any other row lands below v's demand and is left out.
        Fit depends on demand only, so a group (a run of equal demand in a
        grid row) is kept or dropped whole, and the kept rows of a grid row
        are a prefix of it.  The costs are gathered from the table's
        _arc_cells, which already holds every owner's grid in this order.
        Subset ids are made global by offsetting each owner's by the subsets
        of the owners before it; group starts are positions in the block.
        """
        table = self.table
        owners = self.inst.customers

        def cat(arrays):
            return np.concatenate([arrays[u] for u in owners])

        n_sub = np.array([len(table._sub_id[u]) for u in owners])
        n_t = np.array([len(table._targets[u]) for u in owners])
        sub_off = np.cumsum(n_sub) - n_sub
        sub_zd = cat(table._sub_zd)
        opens = np.concatenate(([True], sub_zd[1:] != sub_zd[:-1]))
        opens[sub_off] = True
        first = np.flatnonzero(opens)  # first subset of each group of each owner
        grp_off = np.searchsorted(first, sub_off)
        n_grp = np.diff(grp_off, append=len(first))
        grp_zd, grp_size = sub_zd[first], np.diff(first, append=len(sub_zd))
        # one cell per (owner, target, group) in the grids' row order: every
        # (owner, target) pair once per group of the owner
        pair_o = np.repeat(np.arange(len(owners)), n_t)
        reps = n_grp[pair_o]
        grp = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - grp_off[pair_o], reps)
        tgt = np.repeat(cat(table._targets), reps)
        self._need = np.array([0] + [self.inst.demand[v] for v in owners])
        # short[v, d]: v's demand does not fit in remaining capacity d
        self.short = self._need[:, None] > np.arange(self.d0 + 1)
        fit = grp_zd[grp] + self._need[tgt] <= self.d0
        self._flat_cost = table._arc_cells[np.repeat(fit, grp_size[grp])]
        keep = np.flatnonzero(fit)
        grp, tgt = grp[keep], tgt[keep]
        sizes = grp_size[grp]
        self._flat_starts = np.cumsum(sizes) - sizes
        # a row's subset in the concatenated subsets: its group's shift plus
        # its position in the block
        sub = np.repeat(first[grp] - self._flat_starts, sizes)
        sub += np.arange(len(sub))
        self._flat_subset = (cat(table._sub_id) + np.repeat(sub_off, n_sub))[sub]
        self._flat_grp_zd = grp_zd[grp]
        # (owner, target, demand) of every group, to scatter group minima
        o = np.repeat(np.arange(len(owners)), n_grp)[grp]
        self._grp_at = (np.array(owners, dtype=np.intp)[o], tgt, self._flat_grp_zd)
        self._flat_cbar = np.empty_like(self._flat_cost)
        # where each owner's fitting rows and kept groups start
        go = np.searchsorted(o, np.arange(len(owners) + 1))
        fo = np.append(self._flat_starts, len(sub))[go].tolist()
        go = go.tolist()
        # _cbar[u]: owner u's fitting rows of the reduced-cost block, as a view
        self._cbar = [None] + [self._flat_cbar[a:b] for a, b in zip(fo, fo[1:])]
        self._spans = [None] + list(zip(fo, go, go[1:]))
        self._owner_rows: list[_OwnerRows | None] = [None] * (self.inst.n + 1)

    def _rows(self, u: int) -> _OwnerRows:
        """Owner u's fitting rows, built on first use."""
        got = self._owner_rows[u]
        if got is None:
            table = self.table
            f0, g0, g1 = self._spans[u]
            zd, targets = table._sub_zd[u], table._targets[u]
            fit = np.searchsorted(zd, self.d0 - self._need[targets], "right")  # per target
            keep = np.arange(len(zd)) < fit[:, None]
            at = np.cumsum(fit) - fit
            got = self._owner_rows[u] = _OwnerRows(
                np.broadcast_to(table._sub_local[u], keep.shape)[keep],
                np.broadcast_to(zd, keep.shape)[keep],
                self._flat_starts[g0:g1] - f0, self._grp_at[1][g0:g1], self._flat_grp_zd[g0:g1],
                {v: (a, a + f, t * len(zd) - a)
                 for t, (v, a, f) in enumerate(zip(targets.tolist(), at.tolist(), fit.tolist()))
                 if f},
            )
        return got

    def bind_duals(self, duals) -> None:
        if duals is self._duals:
            return
        self._duals = duals
        inst = self.inst
        table = self.table
        pi = np.zeros(inst.n + 1)
        for u in inst.customers:
            pi[u] = duals.value(u)
        pisums = []
        for u in inst.customers:
            nbrs = table.sets.la(u)
            pis = pi[list(nbrs)] if nbrs else np.zeros(1)
            pisums.append(table._subset_indicator[u] @ pis)
        # cost - (sum of intermediate duals) - pi_u per arc, in that order
        cbar = np.take(np.concatenate(pisums), self._flat_subset, out=self._flat_cbar,
                       mode="clip")  # ids are in range; "raise" would buffer
        np.subtract(self._flat_cost, cbar, out=cbar)
        for u in inst.customers:
            self._cbar[u] -= pi[u]
        # group minima over (owner, target, demand), ignoring ng sets: this is
        # the empty-memory view shared by buckets and the search heuristic
        mins = np.minimum.reduceat(cbar, self._flat_starts)
        dense = np.full((inst.n + 1, inst.n + 1, self.d0 + 1), np.inf)
        dense[self._grp_at] = mins
        # sink groups land in target row _SINK: keep their prefix minima
        # over demand apart, and no customer edge in that row
        self._base_sink = np.minimum.accumulate(dense[:, _SINK], axis=1)
        dense[:, _SINK] = np.inf
        self._base_dense = dense
        # a group shares one demand zd >= 1, and rounding is monotone, so the
        # least cbar / zd over fitting arcs is the least group minimum / zd
        worst = float(np.min(mins / self._flat_grp_zd))
        self._offset_rate = max(0.0, -worst) if np.isfinite(worst) else 0.0
        # start depot -> u edges, and the best out-and-back route u -> sink
        # among them as (cost, u): a valid incumbent for every search
        self.source_edges = [(u, table.costs.cost(-1, u) + duals.pi0) for u in inst.customers]
        back = self._base_sink[:, self.d0].tolist()
        self.source_seed = min(((w + back[u], u) for u, w in self.source_edges),
                               key=itemgetter(0), default=(np.inf, None))
        self._block_pot = None
        self._buckets.clear()
        self._groups.clear()
        self._reset_labels()

    def offset_rate(self) -> float:
        """Per-demand-unit weight offset making every graph edge nonnegative:
        the least over the fitting arcs, the edges of the pricing graph, of
        max(0, -reduced cost / demand)."""
        if self._offset_rate is None:
            raise RuntimeError("bind_duals must be called first")
        return self._offset_rate

    # -- successor buckets ---------------------------------------------------

    def use_potential(self, h: np.ndarray) -> None:
        """Make the buckets' dense blocks those of potential table h."""
        if h is not self._block_pot:
            for bucket in self._buckets.values():
                bucket.blocks.clear()
            self._block_pot = h

    def successors(self, u: int, m1: int) -> _Bucket:
        key = (u, m1)
        got = self._buckets.get(key)
        if got is None:
            got = self._build_bucket(u, m1)
            self._buckets[key] = got
        elif got.pending:
            for v in sorted(got.pending):
                self._group_dirty(u, m1, v, got.dirty)
            got.pending.clear()
            got._rows = None
        return got

    def _dirty_for(self, u: int, m1: int) -> list[int]:
        """Targets needing per-(M2, demand) groups from (u, M1) nodes.

        A target with a grown ng set still lands on memory M2 = 0 unless its
        ng set can meet the arc's customers (la(u), u itself, or M1); only
        that overlap forces it out of the dense matrix.
        """
        return self.sets.ng_meeting(self.sets.la_mask(u) | bit(u) | m1)

    def _core(self, u: int, fkey: int):
        """Group minima over arcs avoiding fkey (= M1 restricted to la(u))."""
        if fkey == 0:
            return self._base_dense[u], self._base_sink[u]
        cbar = self._cbar[u]
        own = self._rows(u)
        starts, gv, gz = own.starts, own.gv, own.gz
        sel = (own.local & np.uint32(self.table.to_local(u, fkey))) == 0
        # arcs are (target, demand)-sorted: one masked reduceat per layer
        mins = np.minimum.reduceat(np.where(sel, cbar, np.inf), starts)
        cust = gv != _SINK
        dense = np.full((self.inst.n + 1, self.d0 + 1), np.inf)
        dense[gv[cust], gz[cust]] = mins[cust]
        sink_pref = np.full(self.d0 + 1, np.inf)
        sink_pref[gz[~cust]] = mins[~cust]
        np.minimum.accumulate(sink_pref, out=sink_pref)
        return dense, sink_pref

    def _build_bucket(self, u: int, m1: int) -> _Bucket:
        core, sink_pref = self._core(u, m1 & self.sets.la_mask(u))
        dense = core.copy()
        for v in ids_of(m1):
            dense[v, :] = np.inf  # edges may not revisit remembered customers
        dirty: dict[int, list[tuple]] = {}
        for v in self._dirty_for(u, m1):
            dense[v, :] = np.inf
            self._group_dirty(u, m1, v, dirty)
        return _Bucket(dense, dirty, sink_pref)

    def _group_dirty(self, u: int, m1: int, v: int, dirty: dict) -> None:
        own = self._rows(u)
        if v not in own.targets or (m1 >> (v - 1)) & 1:
            dirty.pop(v, None)
            return
        ng_v = self.sets.ng_mask(v)
        gkey = (u, v, m1 & self.sets.la_mask(u), m1 & ng_v)
        cached = self._groups.get(gkey)
        if cached is not None:
            dirty[v] = cached
            return
        rows, _ = self._candidate_rows(u, v, m1)
        if not len(rows):
            dirty[v] = []
            return
        local_v, cbar_v, zd_v = own.local[rows], self._cbar[u][rows], own.zd[rows]
        outside, m2s = self._memories(u, m1, ng_v, local_v)
        # group-minimum over (m2, zd) without python loops
        order = np.lexsort((cbar_v, zd_v, m2s))
        m2o, zdo, cbo = m2s[order], zd_v[order], cbar_v[order]
        firsts = np.flatnonzero(
            np.concatenate(([True], (m2o[1:] != m2o[:-1]) | (zdo[1:] != zdo[:-1])))
        )
        group = self._make_group(
            v, [outside | self.table.to_global(u, m) for m in m2o[firsts].tolist()],
            zdo[firsts].tolist(), cbo[firsts].tolist(),
        )
        self._groups[gkey] = group
        dirty[v] = group

    def _memories(self, u: int, m1: int, ng_v: int, local: np.ndarray):
        """Carried memories M2 = ng(v) & (S | M1 | u) of arcs from (u, M1)
        whose subsets S have la(u)-local bits `local`.

        S lies inside la(u), so the bits of M2 outside la(u) are the same for
        every arc; they come first, then each arc's la(u)-local image of M2.
        Local images order memories exactly as the global masks do.
        """
        to_local = self.table.to_local
        fixed = ng_v & (m1 | bit(u))
        image = np.uint32(to_local(u, fixed)) | (np.uint32(to_local(u, ng_v)) & local)
        return fixed & ~self.sets.la_mask(u), image

    def _make_group(self, v: int, m2s: list, zds: list, costs: list) -> list[tuple]:
        md = self.table.mask_demand
        dv = self.inst.demand[v]
        stride = self.d0 + 1
        rows = []
        for m2, zd, w in zip(m2s, zds, costs):
            lab = self._label(v, m2)
            rows.append((zd + dv, zd + self.d0 - md(m2), v, lab, v * stride - zd,
                         lab * stride - zd, -zd, w))
        rows.sort(key=itemgetter(0))  # so that merging a bucket's groups is cheap
        return rows

    def invalidate(self, grown, added: int) -> None:
        """Drop cached entries whose start or end customer had its ng set grown.

        `added` is the customer that joined every grown ng set.  Caches whose
        content provably cannot change are kept: remembering a customer that
        can never appear among an arc's visited customers leaves every
        carried memory as it was.
        """
        grown = set(grown)
        if not grown:
            return
        abit = bit(added)
        for gk in [k for k in self._groups if k[1] in grown]:
            u = gk[0]
            if abit & (self.sets.la_mask(u) | bit(u)):
                del self._groups[gk]
        for (u, m1) in [k for k in self._buckets if k[0] in grown]:
            del self._buckets[(u, m1)]
        ng = [(v, self.sets.ng_mask(v)) for v in grown]
        for (u, m1), bucket in self._buckets.items():
            reach = self.sets.la_mask(u) | bit(u) | m1
            if not abit & reach:
                continue  # the new memory bit never occurs on arcs from u
            for v, ng_v in ng:
                if not ng_v & reach:
                    continue  # every arc still lands on memory 0: row stays dense
                if bucket.blocks and bucket.dense[v].min() < np.inf:
                    bucket.blocks.clear()  # a finite row leaves the dense blocks
                bucket.dense[v, :] = np.inf
                bucket.dirty.pop(v, None)
                bucket.pending.add(v)
                bucket._rows = None

    # -- decode helpers ------------------------------------------------------

    def _candidate_rows(self, u: int, v: int, m1: int):
        """Fitting rows toward v passing the M1 filter, as positions in u's
        slices (zd-sorted), and the shift from those to table rows."""
        own = self._rows(u)
        a, b, shift = own.targets.get(v, (0, 0, 0))
        rows = np.arange(a, b)
        if m1:
            rows = rows[(own.local[a:b] & np.uint32(self.table.to_local(u, m1))) == 0]
        return rows, shift

    def best_arc_between(self, u: int, m1: int, v: int, zd: int, m2: int) -> int:
        """Table row of the arc realizing the bucket weight of edge
        (u,M1,*) -> (v,M2,*)."""
        table = self.table
        own = self._rows(u)
        rows, shift = self._candidate_rows(u, v, m1)
        lo, hi = np.searchsorted(own.zd[rows], (zd, zd + 1))
        rows = rows[lo:hi]
        ng_v = self.sets.ng_mask(v)
        if ng_v:
            outside, m2s = self._memories(u, m1, ng_v, own.local[rows])
            same_outside = outside == m2 & ~self.sets.la_mask(u)
            rows = rows[(m2s == table.to_local(u, m2)) & same_outside]
        if not len(rows):
            raise RuntimeError("no arc matches a traversed edge")
        return int(rows[np.argmin(self._cbar[u][rows])]) + shift

    def best_sink_arc(self, u: int, m1: int, d: int) -> int:
        """Table row of the cheapest sink arc from (u, M1, d)."""
        rows, shift = self._candidate_rows(u, _SINK, m1)
        rows = rows[: np.searchsorted(self._rows(u).zd[rows], d + 1)]
        if not len(rows):
            raise RuntimeError("no sink arc fits the remaining capacity")
        return int(rows[np.argmin(self._cbar[u][rows])]) + shift


def build_arc_index(table: ComponentPathTable, sets: NeighborSets, capacity: int) -> ArcIndex:
    return ArcIndex(table, sets, capacity)
