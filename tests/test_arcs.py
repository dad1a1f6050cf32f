import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lacg.instances import Instance, generate_instance, cost_matrix, END_DEPOT
from lacg.neighbors import NeighborSets, build_la_neighbors, augment_ng, mask_of, bit
from lacg.routes import DualSolution
from lacg.arcs import LaSizeError, MAX_LA_SIZE, _first, compute_component_paths, build_arc_index
from lacg.oracle import arcs_for, lowest_rc_arc


def _table(seed, n, cap, k, mode="unit"):
    inst = generate_instance(seed, n, cap, mode)
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, k, cm)
    return inst, cm, sets, compute_component_paths(inst, sets, cm)


def _first_masked(hit, idx):
    # one masked copy per slab, from the last j to the first
    got = np.empty(hit.shape[1:], dtype=idx.dtype)
    for j in range(len(hit) - 1, -1, -1):
        np.copyto(got, idx[:, j, None], where=hit[j])
    return got


@st.composite
def _hits(draw):
    q = draw(st.integers(1, MAX_LA_SIZE))
    p, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    hit = draw(hnp.arrays(bool, (q, p, k)))
    # a True in every cell: cells without one get it at a drawn j
    last = draw(hnp.arrays(np.intp, (p, k), elements=st.integers(0, q - 1)))
    none = ~hit.any(axis=0)
    hit[last[none], np.nonzero(none)[0], np.nonzero(none)[1]] = True
    idx = draw(hnp.arrays(np.int8, (p, q)))
    return hit, idx


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_hits())
def test_first_matches_masked_copy(drawn):
    hit, idx = drawn
    got = _first(hit, idx)
    want = _first_masked(hit, idx)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_collinear_inner_path():
    # customers at x = 0, 1, 2: visiting all three from one end costs 2
    inst = Instance(
        name="line",
        coords={-1: (0.0, 5.0), -2: (0.0, 5.0),
                1: (0.0, 0.0), 2: (1.0, 0.0), 3: (2.0, 0.0), 4: (1.0, 2.0)},
        demand={1: 1, 2: 1, 3: 1, 4: 1}, capacity=4, fleet=4,
    )
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, 3, cm)
    assert sets.la(4) == (1, 2, 3)
    table = compute_component_paths(inst, sets, cm)
    assert table.inner_cost([1, 2, 3], 1, 3) == pytest.approx(2.0, abs=1e-12)
    assert table.inner_path([1, 2, 3], 1, 3) == (1, 2, 3)


def test_base_cases():
    inst, cm, sets, table = _table(6, 6, 6, 3)
    for u in inst.customers:
        for v in sets.la(u):
            assert table.inner_cost([v], v, v) == 0.0
            for w in sets.la(u):
                if w != v:
                    assert table.inner_cost([v, w], v, w) == pytest.approx(
                        cm.cost(v, w), abs=0
                    )
        assert table.start_cost(u, 0, u) == 0.0
        with pytest.raises(KeyError):  # u is never in its own subsets
            table.start_cost(u, bit(u), u)


def test_arc_cost_matches_factorial_enumeration():
    rnd = random.Random(1)
    for trial in range(3):
        inst, cm, sets, table = _table(800 + trial, 8, 25, 5, "uniform_1_10")
        for u in inst.customers:
            nbrs = sets.la(u)
            for size in range(0, len(nbrs) + 1):
                for combo in itertools.combinations(nbrs, size):
                    if inst.demand[u] + sum(inst.demand[w] for w in combo) > inst.capacity:
                        with pytest.raises(KeyError):
                            table.start_path(u, combo, combo[-1])
                        continue
                    for v in list(inst.customers) + [END_DEPOT]:
                        if v == u or v in nbrs:
                            continue
                        best = math.inf
                        for perm in itertools.permutations(combo):
                            path = (u,) + perm + (v,)
                            best = min(
                                best,
                                sum(cm.cost(a, b) for a, b in zip(path, path[1:])),
                            )
                        assert table.arc_cost(u, v, combo) == pytest.approx(best, abs=1e-9)


def _twin_table():
    # eight customers on four random points, two per point: swapping twins
    # gives exactly tied paths, so the arc layer must break ties itself
    rnd = random.Random(7)
    points = [(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(4)]
    coords = {-1: (50.0, 50.0), -2: (50.0, 50.0)}
    coords.update({u: points[(u - 1) % 4] for u in range(1, 9)})
    inst = Instance(name="twins", coords=coords, demand={u: 1 for u in range(1, 9)},
                    capacity=8, fleet=8)
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, 4, cm)
    return inst, cm, sets, compute_component_paths(inst, sets, cm)


def test_arc_paths_elementary_and_consistent():
    for inst, cm, sets, table in (_table(12, 10, 8, 4), _twin_table()):
        for u in inst.customers:
            for mask in table.subset_masks(u):
                members = [w for w in sets.la(u) if mask & bit(w)]
                for v in list(inst.customers) + [END_DEPOT]:
                    if v == u or (v != END_DEPOT and v in sets.la(u)):
                        continue
                    path = table.arc_path(u, v, mask)
                    assert path[0] == u and path[-1] == v
                    assert len(set(path)) == len(path)
                    legs = sum(cm.cost(a, b) for a, b in zip(path, path[1:]))
                    assert legs == pytest.approx(table.arc_cost(u, v, mask), abs=1e-9)
                    # detours never shorten a Euclidean leg
                    assert table.arc_cost(u, v, mask) >= cm.cost(u, v) - 1e-9
                    # ties go to the lexicographically smallest cheapest path
                    costs = {p: sum(cm.cost(a, b) for a, b in zip((u,) + p + (v,), p + (v,)))
                             for p in itertools.permutations(members)}
                    best = min(costs.values())
                    assert path[1:-1] == min(p for p, c in costs.items() if c <= best + 1e-9)


def test_lookups_match_brute_force():
    # capacity 20 with demands 1..10: subsets reach four and five members,
    # so member ranks differ from local indices; ids pass 63
    inst, cm, sets, table = _table(1, 66, 20, 5, "uniform_1_10")

    def length(path):
        return sum(cm.cost(a, b) for a, b in zip(path, path[1:]))

    sizes = set()
    for u in inst.customers:
        for mask in table.subset_masks(u):
            members = [w for w in sets.la(u) if mask & bit(w)]
            sizes.add(len(members))
            if not members:
                assert table.start_cost(u, mask, u) == 0.0
                assert table.start_path(u, mask, u) == (u,)
                continue
            best = {}  # (first, last) -> least length over orders of S
            for p in itertools.permutations(members):
                key = (p[0], p[-1])
                best[key] = min(best.get(key, math.inf), length(p))
            for v, w in itertools.product(members, repeat=2):
                if v == w and len(members) > 1:
                    assert table.inner_cost(mask, v, w) == math.inf
                    continue
                assert table.inner_cost(mask, v, w) == pytest.approx(best[v, w], abs=1e-9)
                path = table.inner_path(mask, v, w)
                assert (path[0], path[-1]) == (v, w) and sorted(path) == members
                assert length(path) == pytest.approx(best[v, w], abs=1e-9)
            for w in members:
                want = min(cm.cost(u, v) + c for (v, last), c in best.items() if last == w)
                assert table.start_cost(u, mask, w) == pytest.approx(want, abs=1e-9)
                path = table.start_path(u, mask, w)
                assert path[0] == u and path[-1] == w and sorted(path[1:]) == members
                assert length(path) == pytest.approx(want, abs=1e-9)
            for v in (END_DEPOT, max(c for c in inst.customers if c not in sets.la(u) and c != u)):
                arc = table.arc_from_row(u, table._row(u, v, mask))
                assert arc.path[0] == u and arc.end == v and sorted(arc.intermediates) == members
                want = min(cm.cost(u, p[0]) + length(p) + cm.cost(p[-1], v)
                           for p in itertools.permutations(members))
                assert length(arc.path) == pytest.approx(want, abs=1e-9)
                assert arc.cost == pytest.approx(want, abs=1e-9)
    assert max(sizes) >= 4
    assert max(w for u in inst.customers for w in sets.la(u)) > 63


@pytest.mark.parametrize("seed,n,cap,mode,k,digest", [
    (105, 16, 20, "uniform_1_10", 5,
     "a778e8a99d287d3292025bf64752575404b8408431f67ac9cbf0f2314a1a1311"),
    (3, 66, 3, "unit", 5,  # ids past 63
     "0c8b9a540abce1cadbd99d5df3e036a6f21aa447203a1b72e98c5f88f0912b40"),
], ids=["105-16-20-la5", "3-66-3-la5"])
def test_arc_rows_pinned(seed, n, cap, mode, k, digest):
    # column-generation trajectories, and so the benchmark's recorded
    # counters, depend on these exact rows and floats
    inst, cm, sets, table = _table(seed, n, cap, k, mode)
    h = hashlib.sha256()
    for u in inst.customers:
        # per table row t * subsets + j: target, demand, subset id, cost,
        # last customer and subset bits of grid cell (t, j)
        T = len(table._targets[u])
        for rows in (np.repeat(table._targets[u], len(table._sub_id[u])),
                     np.tile(table._sub_zd[u], T), np.tile(table._sub_id[u], T),
                     table._arc_cost[u].ravel(), table._arc_wstar[u].ravel(),
                     np.tile(table._sub_local[u], T)):
            h.update(rows.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("seed,n,cap,mode,k,digest", [
    (105, 16, 20, "uniform_1_10", 5,
     "79a36b9295d9ad45a481c7a9750495d0446bba79f58ebf10400fb047a8584bca"),
    (3, 66, 3, "unit", 5,  # ids past 63; capacity stops the DP at size 2
     "b8d24b231146741bfc1ffe72e0b5902c04cde27cf04db4708e79aff9954b815e"),
    (105, 30, 20, "uniform_1_10", 10,
     "68a5fdca92fb7674b8cca4d12696f79faeacbc4a40f9508a826d9f31ff44496a"),
], ids=["105-16-20-la5", "3-66-3-la5", "105-30-20-la10"])
def test_subset_dp_pinned(seed, n, cap, mode, k, digest):
    # decode reads seg and head through _head_path, so the DP layers (one
    # array per subset size) are pinned with the arc grids, each with its
    # dtype and shape
    inst, cm, sets, table = _table(seed, n, cap, k, mode)
    h = hashlib.sha256()
    for u in inst.customers:
        for store in (table._pos, table._seg_cost, table._seg_next, table._head_cost,
                      table._head_first, table._sub_id, table._sub_zd, table._sub_local,
                      table._arc_cost, table._arc_wstar):
            for a in store[u] if isinstance(store[u], list) else [store[u]]:
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
    assert h.hexdigest() == digest


@st.composite
def _small_instances(draw):
    n = draw(st.integers(3, 7))
    k = draw(st.integers(0, n - 1))
    unit = draw(st.booleans())
    # fewer points than customers gives duplicate coordinates
    points = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                           min_size=1, max_size=n, unique=True))
    coords = {-1: (10.0, 10.0), -2: (10.0, 10.0)}
    coords.update({u: points[draw(st.integers(0, len(points) - 1))]
                   for u in range(1, n + 1)})
    demand = {u: 1 if unit else draw(st.integers(1, 4)) for u in range(1, n + 1)}
    capacity = draw(st.integers(max(demand.values()), sum(demand.values())))
    inst = Instance(name="drawn", coords=coords, demand=demand, capacity=capacity, fleet=n)
    return inst, k


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_small_instances())
def test_table_matches_enumeration(drawn):
    inst, k = drawn
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, k, cm)
    table = compute_component_paths(inst, sets, cm)

    def length(path):
        return sum(cm.cost(a, b) for a, b in zip(path, path[1:]))

    seen = {}
    for u in inst.customers:
        nbrs = sets.la(u)
        feasible = [combo for size in range(len(nbrs) + 1)
                    for combo in itertools.combinations(nbrs, size)
                    if inst.demand[u] + sum(inst.demand[w] for w in combo) <= inst.capacity]
        assert table.subset_masks(u) == [mask_of(combo) for combo in feasible]
        for i, combo in enumerate(feasible):
            mask = mask_of(combo)
            for v in list(inst.customers) + [END_DEPOT]:
                if v == u or v in nbrs:
                    continue
                best = min(length((u,) + p + (v,)) for p in itertools.permutations(combo))
                assert table.arc_cost(u, v, mask) == pytest.approx(best, abs=1e-9)
                path = table.arc_path(u, v, mask)
                assert path[0] == u and path[-1] == v and sorted(path[1:-1]) == list(combo)
                assert length(path) == pytest.approx(table.arc_cost(u, v, mask), abs=1e-9)
            # every owner holds its own inner costs; they agree bit for bit
            row = i - table._size_start[u][len(combo)]
            for v, w in itertools.permutations(combo, 2):
                got = table._seg_cost[u][len(combo)][row, combo.index(v), combo.index(w)]
                assert seen.setdefault((mask, v, w), got) == got
                assert table.inner_cost(mask, v, w) == got


def test_inner_costs_u_independent():
    # same customer subset reachable from two different neighborhoods must
    # price identically: recompute per-u with a brute oracle and compare
    inst, cm, sets, table = _table(30, 7, 7, 4)
    seen = {}
    for u in inst.customers:
        for i, mask in enumerate(table.subset_masks(u)):
            if mask.bit_count() < 2:
                continue
            members = [w for w in inst.customers if mask & bit(w)]
            s = len(members)
            row = i - table._size_start[u][s]
            for v in members:
                for w in members:
                    if v == w:
                        continue
                    best = min(
                        sum(cm.cost(a, b) for a, b in zip((v,) + p, ((v,) + p)[1:]))
                        for p in itertools.permutations([x for x in members if x != v])
                        if p[-1] == w
                    )
                    key = (mask, v, w)
                    # owner u's own DP value, not the one inner_cost looks up
                    got = table._seg_cost[u][s][row, members.index(v), members.index(w)]
                    assert got == pytest.approx(best, abs=1e-9)
                    assert table.inner_cost(mask, v, w) == got
                    if key in seen:
                        assert seen[key] == got
                    seen[key] = got


def test_arc_grids_share_one_buffer():
    # every owner's arc grid is a view of one buffer, in customer order
    inst = generate_instance(105, 16, 20, "uniform_1_10")
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, 5, cm)
    table = compute_component_paths(inst, sets, cm)
    for u in inst.customers:
        assert np.shares_memory(table._arc_cost[u], table._arc_cells)
    cells = np.concatenate([table._arc_cost[u].ravel() for u in inst.customers])
    assert table._arc_cells.tobytes() == cells.tobytes()
    # the index gathers each owner's fitting cells from that buffer
    index = build_arc_index(table, sets, inst.capacity)
    need = np.array([0] + [inst.demand[v] for v in inst.customers])
    fit = [table._sub_zd[u] + need[table._targets[u]][:, None] <= inst.capacity
           for u in inst.customers]
    want = np.concatenate([table._arc_cost[u][f] for u, f in zip(inst.customers, fit)])
    assert index._flat_cost.tobytes() == want.tobytes()
    # la sets of different sizes are refused
    small = build_la_neighbors(inst, 2, cm)
    mixed = NeighborSets({u: (small if u % 2 else sets).la(u) for u in inst.customers})
    with pytest.raises(LaSizeError):
        compute_component_paths(inst, mixed, cm)


def test_la_size_guard():
    inst = generate_instance(1, 25, 25, "unit")
    sets = build_la_neighbors(inst, 21)
    with pytest.raises(LaSizeError):
        compute_component_paths(inst, sets)


def test_keyed_membership_matches_definitional_filter():
    # five-customer instance with hand-set ng sets: membership of every key
    # equals a from-scratch filter of all arcs against the path constraints
    inst, cm, sets, table = _table(77, 5, 5, 3)
    augment_ng(sets, 1, 2)
    augment_ng(sets, 2, 3)
    augment_ng(sets, 2, 1)
    augment_ng(sets, 4, 1)

    def definitional(u, v, m1, m2, d):
        out = []
        for mask in table.subset_masks(u):
            if v != END_DEPOT and (v == u or v in sets.la(u)):
                continue
            if not table.has_arc(u, v, mask):
                continue
            arc = table.arc_from_row(u, table._row(u, v, mask))
            visited = set(arc.intermediates) | {u}
            m1_ids = set(ns for ns in inst.customers if m1 & bit(ns))
            m2_ids = set(ns for ns in inst.customers if m2 & bit(ns))
            ng_v = set(ns for ns in inst.customers if sets.ng_mask(v) & bit(ns)) if v != END_DEPOT else set()
            if v != END_DEPOT and v in m1_ids:
                continue
            if visited & m1_ids:
                continue
            if not (m2_ids - m1_ids <= visited):
                continue
            if (ng_v - m2_ids) & visited:
                continue
            if v == END_DEPOT:
                if arc.demand > d:
                    continue
            elif arc.demand != d:
                continue
            # canonical carried memory for the arc
            if v != END_DEPOT and (sets.ng_mask(v) & (m1 | mask_of(arc.intermediates) | bit(u))) != m2:
                continue
            out.append(arc)
        return {a.path for a in out}

    rnd = random.Random(0)
    checked = 0
    for u in inst.customers:
        for v in list(inst.customers) + [END_DEPOT]:
            if v == u or (v != END_DEPOT and v in sets.la(u)):
                continue
            for m1 in [0, sets.ng_mask(u)] + [bit(w) for w in inst.customers if w != u]:
                if m1 and not (sets.ng_mask(u) | 0) >= (m1 & sets.ng_mask(u)):
                    continue
                for d in range(1, inst.capacity + 1):
                    ub = bit(u)
                    for mask in table.subset_masks(u):
                        m2 = sets.ng_mask(v) & (m1 | mask | ub) if v != END_DEPOT else 0
                        got = {a.path for a in arcs_for(table, u, v, m1, m2, d)}
                        want = definitional(u, v, m1, m2, d)
                        assert got == want
                        checked += 1
    assert checked > 100


def test_lowest_rc_arc_matches_scan():
    inst, cm, sets, table = _table(88, 6, 6, 3)
    augment_ng(sets, 2, 4)
    augment_ng(sets, 3, 1)
    rnd = random.Random(5)
    duals = DualSolution(pi={u: rnd.uniform(0, 400) for u in inst.customers})
    for u in inst.customers:
        for v in list(inst.customers) + [END_DEPOT]:
            if v == u or (v != END_DEPOT and v in sets.la(u)):
                continue
            for d in range(1, inst.capacity + 1):
                m2 = sets.ng_mask(v) & bit(u) if v != END_DEPOT else 0
                arcs = arcs_for(table, u, v, 0, m2, d)
                got = lowest_rc_arc(table, u, v, 0, m2, d, duals)
                if not arcs:
                    assert got is None
                    continue
                def rc(a):
                    return a.cost - duals.value(a.start) - sum(
                        duals.value(w) for w in a.intermediates
                    )
                want = min(rc(a) for a in arcs)
                assert rc(got) == pytest.approx(want, abs=1e-12)


def test_zero_duals_lowest_rc_is_min_cost():
    inst, cm, sets, table = _table(89, 5, 5, 2)
    duals = DualSolution(pi={u: 0.0 for u in inst.customers})
    u = 1
    targets = [v for v in inst.customers if v != u and v not in sets.la(u)]
    for v in targets:
        for d in range(1, inst.capacity + 1):
            arcs = arcs_for(table, u, v, 0, 0, d)
            got = lowest_rc_arc(table, u, v, 0, 0, d, duals)
            if arcs:
                assert got.cost == pytest.approx(min(a.cost for a in arcs), abs=0)


def test_invalidate_identity_and_equivalence():
    inst, cm, sets, table = _table(90, 6, 6, 3)
    index = build_arc_index(table, sets, inst.capacity)
    duals = DualSolution(pi={u: 50.0 for u in inst.customers})
    index.bind_duals(duals)
    for u in inst.customers:
        index.successors(u, 0)
    before = {key: b for key, b in index._buckets.items()}
    augment_ng(sets, 3, 5)
    index.invalidate({3}, 5)
    # untouched keys keep their cached bucket objects
    for key, b in index._buckets.items():
        if key[0] != 3:
            assert before[key] is b
    assert (3, 0) not in index._buckets
    # targeted invalidation agrees with a rebuilt-from-scratch index
    fresh = build_arc_index(table, sets, inst.capacity)
    fresh.bind_duals(duals)
    for u in inst.customers:
        a = index.successors(u, 0)
        b = fresh.successors(u, 0)
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.sink_pref, b.sink_pref)
        assert set(a.dirty) == set(b.dirty)
        for v in a.dirty:
            # (M2, zd, cost) per entry; label ids differ between the indexes
            assert sorted((index.label_keys[e[3]][1], -e[6], e[7]) for e in a.dirty[v]) == \
                sorted((fresh.label_keys[e[3]][1], -e[6], e[7]) for e in b.dirty[v])
    # empty invalidation is a no-op
    snapshot = dict(index._buckets)
    index.invalidate(set(), 5)
    assert index._buckets == snapshot


def test_local_subset_bits():
    # ids past 63 included: local bits depend only on positions within la(u)
    inst, cm, sets, table = _table(3, 70, 4, 4)
    for u in inst.customers:
        nbrs = sets.la(u)
        subsets = table.subset_masks(u)
        local = [table.to_local(u, m) for m in subsets]
        assert [table.to_global(u, m) for m in local] == subsets
        for m, lm in zip(subsets, local):
            assert lm == sum(1 << j for j, w in enumerate(nbrs) if m & bit(w))
        # local masks order subsets as their global masks do
        assert sorted(range(len(subsets)), key=local.__getitem__) == \
            sorted(range(len(subsets)), key=subsets.__getitem__)
        ids = table._sub_id[u].tolist()
        assert table._sub_local[u].tolist() == [local[s] for s in ids]
        # the grid's subsets run by demand, ties by subset id
        zd = table._sub_zd[u].tolist()
        assert zd == [inst.demand[u] + table.mask_demand(subsets[s]) for s in ids]
        assert sorted(zip(zd, ids)) == list(zip(zd, ids))
        ind = table._subset_indicator[u]
        assert ind.tolist() == [[float(bool(lm >> j & 1)) for j in range(max(1, len(nbrs)))]
                                for lm in local]
    # members outside la(u) drop out of the local image
    u = 70
    assert table.to_local(u, bit(u) | mask_of(sets.la(u))) == (1 << len(sets.la(u))) - 1


def test_flat_bind_duals_matches_per_owner_formula():
    # la10 with ids past 63: the one-pass bind_duals over the flat block of
    # fitting arc rows against the per-owner formula it replaced, priced on
    # the fitting rows only and compared bit for bit
    inst, cm, sets, table = _table(3, 66, 3, 10)
    index = build_arc_index(table, sets, inst.capacity)
    rnd = random.Random(9)
    # duals repeat across customers, so subset sums and group minima tie
    levels = [cm.cost(-1, u) * f for u in (1, 2) for f in (0.0, 1.3, 2.1)]
    duals = DualSolution(pi={u: rnd.choice(levels) for u in inst.customers})
    index.bind_duals(duals)
    pi = np.zeros(inst.n + 1)
    for u in inst.customers:
        pi[u] = duals.value(u)
    need = np.array([0] + [inst.demand[v] for v in inst.customers])
    # an (owner, target, demand) cell whose arcs land below the target's
    # demand is never priced
    dropped = 0
    worst = np.inf
    for u in inst.customers:
        # per table row t * subsets + j: target and demand of grid cell (t, j)
        n_sub = len(table._sub_id[u])
        v_row = np.repeat(table._targets[u], n_sub)
        zd_row = np.tile(table._sub_zd[u], len(table._targets[u]))
        fit = zd_row + need[v_row] <= inst.capacity
        pisum = table._subset_indicator[u] @ pi[list(sets.la(u))]
        cbar = (table._arc_cost[u] - pisum[table._sub_id[u]] - pi[u]).ravel()
        assert index._cbar[u].tobytes() == cbar[fit].tobytes()
        dense = np.full((inst.n + 1, inst.capacity + 1), np.inf)
        sink = np.full(inst.capacity + 1, np.inf)
        for v, zd in sorted(set(zip(v_row.tolist(), zd_row.tolist()))):
            if zd + need[v] > inst.capacity:
                assert index._base_dense[u][v, zd] == np.inf
                dropped += 1
                continue
            w = cbar[(v_row == v) & (zd_row == zd)].min()
            if v == 0:
                sink[zd] = w
            else:
                dense[v, zd] = w
        assert index._base_dense[u].tobytes() == dense.tobytes()
        assert index._base_sink[u].tobytes() == np.minimum.accumulate(sink).tobytes()
        worst = min(worst, float(np.min(cbar[fit] / zd_row[fit])))
    assert dropped > 0
    assert worst < 0
    assert index.offset_rate() == max(0.0, -worst)

