"""Pinned column-generation trajectory on a capacity-20 instance with
demands 1..10.

The solve keeps enough memory in play that best-first pricing extends many
edges toward customers with grown ng sets, so any change that perturbs the
search order, a counter or a float shows up here rather than only in the
minutes-long benchmark.
"""

import hashlib
import random

import numpy as np
import pytest

from lacg import driver
from lacg.arcs import ArcIndex, compute_component_paths
from lacg.driver import CgConfig, solve
from lacg.dssr import price_elementary
from lacg.instances import END_DEPOT, cost_matrix, generate_instance
from lacg.neighbors import augment_ng, bit, build_la_neighbors
from lacg.pricing import _SINK_KEY, _SOURCE_KEY, _best_first, compute_heuristic, solve_la_pricing
from lacg.rmp import initial_columns, solve_rmp
from lacg.routes import DualSolution

# la_k -> (objective, (CG iterations, DSSR iterations, nodes expanded,
# final columns)), recorded before label-indexed distances replaced the
# tuple-keyed dict in the search
PINNED = {
    0: (5922.67646939598, (29, 360, 30895, 140)),
    10: (5922.676469395981, (40, 230, 6000, 130)),
}


def _instance():
    return generate_instance(105, 16, 20, "uniform_1_10")


@pytest.mark.parametrize("la_k", sorted(PINNED))
def test_pinned_trajectory(la_k):
    objective, counters = PINNED[la_k]
    res = solve(_instance(), CgConfig(la_k=la_k))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(objective, abs=1e-9)
    rows = res.trace.rows
    assert (
        res.iterations,
        sum(r.dssr_iterations for r in rows),
        sum(r.nodes_expanded for r in rows),
        len(res.columns),
    ) == counters


# la_k -> (RMP pivots on the full tableau, RMP pivots replayed from the
# record), summed over the trace of the PINNED solve: how the simplex's work
# splits between fresh pivots and the replay
PIVOT_SPLIT = {0: (549, 554), 10: (776, 923)}


@pytest.mark.parametrize("la_k", sorted(PIVOT_SPLIT))
def test_pinned_pivot_split(la_k):
    rows = solve(_instance(), CgConfig(la_k=la_k)).trace.rows
    assert (sum(r.pivots for r in rows), sum(r.replayed for r in rows)) == PIVOT_SPLIT[la_k]


# (seed, n, capacity, demand mode, la_k) -> sha256 of the repr of the list of
# (route, nodes expanded, DSSR iterations, edges relaxed), one tuple per
# pricing call of the solve; integers only, so the digest is a pure function
# of the search order and the route choices
CALL_DIGESTS = {
    (105, 16, 20, "uniform_1_10", 5):
        "119bbf77413e02b4b34948fb4c3a1bae1afb76c28d8b6021fb5c22a74be1a560",
    (3, 30, 4, "unit", 10):
        "3e0de8e30181e178b46231398701751f92deccb2f45826b18e7c1ce40de45662",
}


@pytest.mark.parametrize("case", sorted(CALL_DIGESTS),
                         ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-la{c[4]}")
def test_pricing_calls_digest(case, monkeypatch):
    calls = []
    real = driver.price_elementary

    def price(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((res.route.seq, res.nodes_expanded, res.iterations, res.edges_relaxed))
        return res

    monkeypatch.setattr(driver, "price_elementary", price)
    seed, n, cap, mode, la_k = case
    assert solve(generate_instance(seed, n, cap, mode), CgConfig(la_k=la_k)).status == "optimal"
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == CALL_DIGESTS[case]


# (seed, n, capacity, demand mode, la_k) -> sha256 of the arc index's flat
# block (costs, global subset ids, group starts, group keys) and of every
# owner's fitting rows (subset bits, demands, groups, target bounds): the
# search reads these bytes, so a change to the table layout must keep them
INDEX_DIGESTS = {
    (105, 16, 20, "uniform_1_10", 5):
        "5d3ce169f695385c6568985637a6daf53ebe9e92d26b58abbb0d7307a6972701",
    (3, 66, 3, "unit", 5):
        "1815b394688413e3c830940895d5f8f680397faf071e5f6366ba3b8e6085f3fe",
}


@pytest.mark.parametrize("case", sorted(INDEX_DIGESTS),
                         ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-la{c[4]}")
def test_index_layout_pinned(case):
    seed, n, cap, mode, la_k = case
    inst = generate_instance(seed, n, cap, mode)
    costs = cost_matrix(inst)
    sets = build_la_neighbors(inst, la_k, costs)
    index = ArcIndex(compute_component_paths(inst, sets, costs), sets, inst.capacity)
    h = hashlib.sha256()

    def add(a):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())

    for a in (index._flat_cost, index._flat_subset, index._flat_starts, *index._grp_at):
        add(a)
    for u in inst.customers:
        own = index._rows(u)
        for a in (own.local, own.zd, own.starts, own.gv, own.gz):
            add(a)
        h.update(repr(sorted(own.targets.items())).encode())
    assert h.hexdigest() == INDEX_DIGESTS[case]


def _grown(la_k):
    """Index and sets after one exact pricing call under the first RMP duals."""
    inst = _instance()
    costs = cost_matrix(inst)
    sets = build_la_neighbors(inst, la_k, costs)
    table = compute_component_paths(inst, sets, costs)
    index = ArcIndex(table, sets, inst.capacity)
    duals = solve_rmp(initial_columns(inst, costs), inst.n, inst.fleet).duals
    res = price_elementary(inst, sets, table, duals, index=index)
    assert res.iterations > 1 and sets.ng_size_total() > 0
    return inst, sets, table, index, duals, res


@pytest.mark.parametrize("la_k", sorted(PINNED))
def test_dijkstra_matches_bellman_ford_after_ng_growth(la_k):
    inst, sets, table, index, duals, res = _grown(la_k)
    a = solve_la_pricing(inst, sets, table, duals, "dijkstra", index=index)
    b = solve_la_pricing(inst, sets, table, duals, "bellman_ford", index=index)
    assert a.reduced_cost == pytest.approx(b.reduced_cost, abs=1e-9)
    assert a.reduced_cost == pytest.approx(res.reduced_cost, abs=1e-9)


@pytest.mark.parametrize("la_k", sorted(PINNED))
def test_bucket_rows_match_group_filter(la_k):
    # the search stops at the first row with lo > d, so rows must be
    # lo-sorted, and the rows that fit d must be exactly the group entries
    # whose landing capacity covers v's demand and the memory's ceiling
    inst, sets, table, index, duals, res = _grown(la_k)
    stride = inst.capacity + 1
    checked = 0
    for bucket in index._buckets.values():
        rows = bucket.rows()
        los = [r[0] for r in rows]
        assert los == sorted(los)
        for lo, hi, v, lab, v_at, lab_at, nz, w in rows:
            assert (v_at, lab_at) == (v * stride + nz, lab * stride + nz)
        for d in range(stride):
            want = set()
            for v, grp in bucket.dirty.items():
                for _, _, _, lab, _, _, neg_zd, w in grp:
                    m2, zd = index.label_keys[lab][1], -neg_zd
                    cap = inst.capacity - table.mask_demand(m2)
                    if inst.demand[v] <= d - zd <= cap:
                        want.add((v, index.label_keys.index((v, m2)), d - zd, w))
            got = [(v, lab, nz + d, w) for lo, hi, v, lab, v_at, lab_at, nz, w in rows
                   if lo <= d <= hi]
            assert len(got) == len(set(got))
            assert set(got) == want
            checked += len(got)
    assert checked > 0


@pytest.mark.parametrize("la_k", sorted(PINNED))
def test_cached_dense_blocks_match_buckets(la_k):
    # blocks are kept across DSSR iterations; invalidation must drop every
    # block whose bucket lost a finite dense row
    inst, sets, table, index, duals, res = _grown(la_k)
    h = compute_heuristic(inst, sets, table, duals, index=index)
    checked = 0
    for bucket in index._buckets.values():
        for d, (T, A) in bucket.blocks.items():
            a = bucket.dense[1:, 1:d + 1]
            assert A.tobytes() == a.tobytes()
            assert T.tobytes() == (a + h[1:, d - 1::-1]).tobytes()
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("la_k", sorted(PINNED))
def test_search_without_heuristic_ignores_warm_caches(la_k):
    inst, sets, table, index, duals, res = _grown(la_k)
    fresh = ArcIndex(table, sets, inst.capacity)
    got, want = (solve_la_pricing(inst, sets, table, duals, index=i) for i in (index, fresh))
    assert (got.route.seq, float(got.reduced_cost).hex(), got.diagnostics.nodes_expanded,
            got.diagnostics.edges_relaxed) == (
        want.route.seq, float(want.reduced_cost).hex(), want.diagnostics.nodes_expanded,
        want.diagnostics.edges_relaxed)


def test_index_holds_exactly_the_fitting_rows():
    # la5 on capacity 20 with demands 1..10: 43 % of the table's rows land
    # below their target's demand and are left out of the index
    inst, sets, table, index, duals, res = _grown(5)
    need = [0] + [inst.demand[v] for v in inst.customers]
    total = kept = 0
    for u in inst.customers:
        # per table row t * subsets + j: target, demand and subset bits of
        # grid cell (t, j)
        n_sub, T = len(table._sub_id[u]), len(table._targets[u])
        vs = np.repeat(table._targets[u], n_sub).tolist()
        zds = np.tile(table._sub_zd[u], T).tolist()
        local = np.tile(table._sub_local[u], T)
        want = [r for r, (v, zd) in enumerate(zip(vs, zds)) if zd + need[v] <= inst.capacity]
        own = index._rows(u)
        got = []
        for v in sorted(set(vs)):
            if v in own.targets:
                a, b, shift = own.targets[v]
                got.extend(range(a + shift, b + shift))
        assert got == want
        assert own.zd.tolist() == [zds[r] for r in want]
        assert own.local.tolist() == local[want].tolist()
        assert len(index._cbar[u]) == len(want)
        total += len(vs)
        kept += len(want)
    assert table.arc_count() == total
    assert 0.4 < 1 - kept / total < 0.5


def test_decode_rows_match_traversed_edges():
    # after ng growth, every edge of a search's parent tree decodes to a
    # table row whose arc leaves the edge's tail, reaches its head with the
    # edge's demand, avoids the tail's memory and carries the head's memory
    inst, sets, table, index, duals, res = _grown(5)
    h = compute_heuristic(inst, sets, table, duals, index=index)
    _, parent, _ = _best_first(inst, index, h)
    grown = sinks = 0
    for head, tail in parent.items():
        if tail == _SOURCE_KEY:
            continue
        u, m1, d = tail
        if head == _SINK_KEY:
            arc = table.arc_from_row(u, index.best_sink_arc(u, m1, d))
            assert arc.end == END_DEPOT and arc.demand <= d
            sinks += 1
        else:
            v, m2, d2 = head
            arc = table.arc_from_row(u, index.best_arc_between(u, m1, v, d - d2, m2))
            assert (arc.end, arc.demand) == (v, d - d2)
            assert d2 >= inst.demand[v]
            carried = m1 | bit(u)
            for w in arc.intermediates:
                carried |= bit(w)
            assert sets.ng_mask(v) & carried == m2
            grown += m2 != 0
        assert arc.start == u
        assert not any(m1 & bit(w) for w in arc.intermediates)
    assert grown > 0 and sinks > 0


def _reference_searches(inst, sets, table, index, duals_list):
    """(mode, route, rc as hex, nodes, edges) of a search without a heuristic,
    one with the heuristic and a bellman_ford search per dual vector, all on
    one index, so the no-heuristic search runs both on fresh buckets and on
    buckets warmed by a heuristic search."""
    out = []
    for duals in duals_list:
        h = compute_heuristic(inst, sets, table, duals, index=index)
        for mode, heuristic in (("dijkstra", None), ("dijkstra", h), ("bellman_ford", None)):
            res = solve_la_pricing(inst, sets, table, duals, mode, index=index,
                                   heuristic=heuristic)
            d = res.diagnostics
            out.append((mode, heuristic is not None, res.route.seq,
                        float(res.reduced_cost).hex(), d.nodes_expanded, d.edges_relaxed))
    return out


def _grown_reference(la_k):
    inst, sets, table, index, duals, res = _grown(la_k)
    scaled = DualSolution(pi={u: 1.1 * p for u, p in duals.pi.items()}, pi0=duals.pi0)
    return _reference_searches(inst, sets, table, index, [duals, scaled])


def _seeded_reference(seed, n, cap, mode, la_k):
    """Random duals on a small instance whose ng sets were grown by hand."""
    rnd = random.Random(seed)
    inst = generate_instance(seed, n, cap, mode)
    costs = cost_matrix(inst)
    sets = build_la_neighbors(inst, la_k, costs)
    for u in inst.customers:
        for v in inst.customers:
            if u != v and rnd.random() < 0.3:
                augment_ng(sets, u, v)
    table = compute_component_paths(inst, sets, costs)
    index = ArcIndex(table, sets, inst.capacity)
    duals_list = [
        DualSolution(pi={u: rnd.uniform(0, 2.5) * costs.cost(-1, u) for u in inst.customers},
                     pi0=rnd.uniform(0, 50))
        for _ in range(4)
    ]
    return _reference_searches(inst, sets, table, index, duals_list)


# case -> sha256 of the repr of _reference_searches' list: pins the route,
# the reduced cost's bits and the counts of the searches without a heuristic
# and of bellman_ford, which the pinned solves never run
REFERENCE_DIGESTS = {
    ("grown", 0):
        "6954e726b3fb739ba8ef87c5ea982eed991df3e86331881bde63857bd7023505",
    ("grown", 10):
        "48bf19ff24bf633dcffeefb560ff86e81250a3c5feaf2552f17e19b0eb6ee8e4",
    ("seeded", 22, 7, 5, "unit", 3):
        "21f677e429c8dd7adda7266c6819929ac4e70c5165def6adaaefe6d0e8d9f7ca",
    ("seeded", 27, 6, 12, "uniform_1_10", 2):
        "b7c54229021dcdf68b71b951c98d6c7337c3c7a7f9ed9f5314de34c9db5d0fc6",
    ("seeded", 28, 8, 10, "uniform_1_10", 3):
        "c06a3854ae4f4c3fdeef3de3b244ac1b8bf1a9a9179424e809d280af3a2840f6",
    ("seeded", 31, 10, 20, "uniform_1_10", 4):
        "998cc8fc2731cf077f6c1c910dfadc8cc4e95dbce45f3f059d861df70dbea47e",
    ("seeded", 41, 12, 6, "unit", 5):
        "4592518a28c0f551308550ec591d70df26033745346d0b7cf23470f2a8469f6f",
}


@pytest.mark.parametrize("case", sorted(REFERENCE_DIGESTS, key=repr),
                         ids=lambda c: "-".join(map(str, c)))
def test_reference_searches_pinned(case):
    calls = _grown_reference(*case[1:]) if case[0] == "grown" else _seeded_reference(*case[1:])
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == REFERENCE_DIGESTS[case]
