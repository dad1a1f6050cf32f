import math
import random

import numpy as np
import pytest

from lacg.instances import Instance, generate_instance, cost_matrix, END_DEPOT
from lacg.neighbors import build_la_neighbors, augment_ng
from lacg.routes import DualSolution, reduced_cost, is_la_route
from lacg.arcs import build_arc_index, compute_component_paths
from lacg.pricing import compute_heuristic, solve_la_pricing
from lacg import oracle
from lacg.rmp import initial_columns, solve_rmp


def _setup(seed, n, cap, k, mode="unit"):
    inst = generate_instance(seed, n, cap, mode)
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, k, cm)
    table = compute_component_paths(inst, sets, cm)
    return inst, cm, sets, table


def _rand_duals(inst, cm, rnd, scale=2.5):
    pi = {u: rnd.uniform(0, scale) * cm.cost(-1, u) for u in inst.customers}
    return DualSolution(pi=pi, pi0=rnd.uniform(0, 50))


def test_offset_rate_zero_when_all_nonnegative():
    inst, cm, sets, table = _setup(1, 5, 5, 2)
    index = build_arc_index(table, sets, inst.capacity)
    duals = DualSolution(pi={u: 0.0 for u in inst.customers})
    index.bind_duals(duals)
    assert index.offset_rate() == 0.0


def test_offset_rate_direct_formula():
    # one arc at reduced cost -6 with demand 3; all other ratios above -2
    inst = Instance(
        name="pair",
        coords={-1: (0.0, 0.0), -2: (0.0, 0.0), 1: (10.0, 0.0), 2: (13.0, 0.0)},
        demand={1: 1, 2: 2}, capacity=3, fleet=2,
    )
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, 1, cm)
    table = compute_component_paths(inst, sets, cm)
    index = build_arc_index(table, sets, inst.capacity)
    duals = DualSolution(pi={1: 8.0, 2: 11.0})
    # arc 2 -> {1} -> sink costs 13, demand 3, reduced cost 13-8-11 = -6
    index.bind_duals(duals)
    assert index.offset_rate() == pytest.approx(2.0, abs=0)


def test_offset_rate_matches_scan_oracle():
    # the least offset over the arcs a route can traverse: sink arcs, and
    # arcs toward v whose demand leaves room for v's
    rnd = random.Random(3)
    skipped = 0
    for trial in range(10):
        mode, cap = ("unit", 6) if trial % 2 == 0 else ("uniform_1_10", 12)
        inst, cm, sets, table = _setup(900 + trial, 6, cap, 3, mode)
        index = build_arc_index(table, sets, inst.capacity)
        duals = _rand_duals(inst, cm, rnd)
        index.bind_duals(duals)
        got = index.offset_rate()
        worst = math.inf
        for u in inst.customers:
            for mask in table.subset_masks(u):
                for v in list(inst.customers) + [END_DEPOT]:
                    if v == u or (v != END_DEPOT and v in sets.la(u)):
                        continue
                    arc = table.arc_from_row(u, table._row(u, v, mask))
                    if v != END_DEPOT and arc.demand + inst.demand[v] > inst.capacity:
                        skipped += 1
                        continue
                    rc = arc.cost - sum(duals.value(w) for w in (u,) + arc.intermediates)
                    worst = min(worst, rc / arc.demand)
        assert got == pytest.approx(max(0.0, -worst), abs=1e-12)
    assert skipped > 0


def test_post_offset_weights_nonnegative():
    rnd = random.Random(4)
    for trial in range(6):
        inst, cm, sets, table = _setup(910 + trial, 5, 5, 2)
        for u in inst.customers:
            for v in inst.customers:
                if u != v and rnd.random() < 0.3:
                    augment_ng(sets, u, v)
        index = build_arc_index(table, sets, inst.capacity)
        duals = _rand_duals(inst, cm, rnd, scale=3.0)
        index.bind_duals(duals)
        rate = index.offset_rate()
        # exhaustive edge scan over every reachable bucket
        for u in inst.customers:
            for m1 in range(1 << inst.n):
                if m1 & ~sets.ng_mask(u) or (m1 >> (u - 1)) & 1:
                    continue
                b = index.successors(u, m1)
                adj = b.dense + rate * np.arange(inst.capacity + 1)[None, :]
                assert np.all(adj[np.isfinite(adj)] >= -1e-9)
                for d in range(1, inst.capacity + 1):
                    if np.isfinite(b.sink_pref[d]):
                        assert b.sink_pref[d] + rate * d >= -1e-9
                for grp in b.dirty.values():
                    for *_, neg_zd, w in grp:
                        assert w + rate * -neg_zd >= -1e-9


def test_zero_duals_single_customer_route():
    inst, cm, sets, table = _setup(21, 8, 4, 3)
    duals = DualSolution(pi={u: 0.0 for u in inst.customers})
    res = solve_la_pricing(inst, sets, table, duals)
    want_u = min(inst.customers, key=lambda u: (2.0 * cm.cost(-1, u), u))
    assert res.route.seq == (want_u,)
    assert res.reduced_cost == pytest.approx(2.0 * cm.cost(-1, want_u), abs=1e-9)
    # no multi-customer route can be cheaper under the triangle inequality
    routes = oracle.enumerate_routes(inst, "elementary")
    best, brc = oracle.brute_pricing(routes, duals, cm)
    assert res.reduced_cost <= brc + 1e-9


def test_modes_agree_on_random_duals():
    rnd = random.Random(7)
    inst, cm, sets, table = _setup(22, 7, 5, 3)
    for u in inst.customers:
        for v in inst.customers:
            if u != v and rnd.random() < 0.25:
                augment_ng(sets, u, v)
    for _ in range(30):
        duals = _rand_duals(inst, cm, rnd)
        a = solve_la_pricing(inst, sets, table, duals, "dijkstra")
        b = solve_la_pricing(inst, sets, table, duals, "bellman_ford")
        assert a.reduced_cost == pytest.approx(b.reduced_cost, abs=1e-9)


def test_matches_la_enumeration():
    rnd = random.Random(8)
    for trial in range(8):
        n = rnd.randint(3, 7)
        inst, cm, sets, table = _setup(930 + trial, n, rnd.randint(3, 5), min(3, n - 1))
        for u in inst.customers:
            for v in inst.customers:
                if u != v and rnd.random() < 0.3:
                    augment_ng(sets, u, v)
        la_routes = oracle.enumerate_routes(inst, "la", sets)
        for _ in range(4):
            duals = _rand_duals(inst, cm, rnd)
            best, want = oracle.brute_pricing(la_routes, duals, cm)
            res = solve_la_pricing(inst, sets, table, duals)
            assert res.reduced_cost == pytest.approx(want, abs=1e-9)
            assert is_la_route(res.route, sets)
            assert res.route.demand_used <= inst.capacity
            assert reduced_cost(res.route, duals, cm) == pytest.approx(
                res.reduced_cost, abs=1e-6
            )


def test_telescoping_adjusted_cost():
    rnd = random.Random(9)
    inst, cm, sets, table = _setup(23, 6, 5, 2)
    for _ in range(10):
        duals = _rand_duals(inst, cm, rnd, scale=3.0)
        res = solve_la_pricing(inst, sets, table, duals)
        diag = res.diagnostics
        assert diag.adjusted_cost == pytest.approx(
            res.reduced_cost + diag.offset_rate * inst.capacity, abs=1e-9
        )


def test_heuristic_exact_on_empty_graph():
    rnd = random.Random(10)
    inst, cm, sets, table = _setup(24, 6, 5, 2)
    duals = _rand_duals(inst, cm, rnd)
    h = compute_heuristic(inst, sets, table, duals)
    # monotone: more capacity can only help
    for u in inst.customers:
        for d1 in range(inst.demand[u], inst.capacity):
            assert h[u, d1 + 1] <= h[u, d1] + 1e-12
    # h at full capacity completes a source edge into the optimal route value
    res = solve_la_pricing(inst, sets, table, duals)
    want = min(
        cm.cost(-1, u) + duals.pi0 + h[u, inst.capacity]
        for u in inst.customers
    )
    assert res.reduced_cost == pytest.approx(want, abs=1e-9)


def test_heuristic_single_customer_capacity():
    inst, cm, sets, table = _setup(25, 5, 5, 2)
    rnd = random.Random(11)
    duals = _rand_duals(inst, cm, rnd)
    h = compute_heuristic(inst, sets, table, duals)
    for u in inst.customers:
        d = inst.demand[u]
        # with exactly the customer's own demand left, only the direct leg fits
        direct = cm.cost(u, -2) - duals.value(u)
        assert h[u, d] == pytest.approx(direct, abs=1e-9)


def test_astar_expands_no_more_than_dijkstra():
    rnd = random.Random(12)
    inst, cm, sets, table = _setup(26, 10, 6, 4)
    wins = 0
    for _ in range(10):
        duals = _rand_duals(inst, cm, rnd)
        h = compute_heuristic(inst, sets, table, duals)
        a = solve_la_pricing(inst, sets, table, duals, heuristic=h)
        b = solve_la_pricing(inst, sets, table, duals)
        assert a.reduced_cost == pytest.approx(b.reduced_cost, abs=1e-9)
        assert a.diagnostics.nodes_expanded <= b.diagnostics.nodes_expanded
        wins += a.diagnostics.nodes_expanded < b.diagnostics.nodes_expanded
    assert wins > 0


def test_dominance_toggle_same_objective():
    # best-first search skips nodes dominated on (capacity, cost) within one
    # (u, M1); bellman_ford relaxes every node, so it checks that skipping
    # them never loses the optimum, with and without the heuristic
    rnd = random.Random(13)
    for trial in range(4):
        mode, cap = ("unit", 5) if trial % 2 == 0 else ("uniform_1_10", 12)
        inst, cm, sets, table = _setup(27 + trial, 6, cap, 2, mode)
        for u in inst.customers:
            for v in inst.customers:
                if u != v and rnd.random() < 0.3:
                    augment_ng(sets, u, v)
        for _ in range(5):
            duals = _rand_duals(inst, cm, rnd)
            h = compute_heuristic(inst, sets, table, duals)
            want = solve_la_pricing(inst, sets, table, duals, "bellman_ford").reduced_cost
            for heuristic in (None, h):
                got = solve_la_pricing(inst, sets, table, duals, heuristic=heuristic)
                assert got.reduced_cost == pytest.approx(want, abs=1e-9)


def test_degenerate_graph_matches_direct_labeling():
    # with k=0 and empty ng sets the graph collapses to single-customer hops;
    # cross-check against an independent capacity-indexed DP
    rnd = random.Random(14)
    inst, cm, sets, table = _setup(28, 6, 5, 0)
    for _ in range(10):
        duals = _rand_duals(inst, cm, rnd)
        res = solve_la_pricing(inst, sets, table, duals)

        d0 = inst.capacity
        best = math.inf
        # dp[(u, d)] = min reduced cost of a path ending at u with d left before u
        dp = {}
        order = []
        for u in inst.customers:
            dp[(u, d0)] = cm.cost(-1, u) + duals.pi0 - duals.value(u)
        for d in range(d0, 0, -1):
            for u in inst.customers:
                if (u, d) not in dp:
                    continue
                g = dp[(u, d)]
                best = min(best, g + cm.cost(u, -2))
                rem = d - inst.demand[u]
                for v in inst.customers:
                    if v == u or rem < inst.demand[v]:
                        continue
                    cand = g + cm.cost(u, v) - duals.value(v)
                    if cand < dp.get((v, rem), math.inf):
                        dp[(v, rem)] = cand
        assert res.reduced_cost == pytest.approx(best, abs=1e-9)


def _heuristic_loop(inst, index):
    """The per-(d, u) loop that compute_heuristic replaced, kept as its reference."""
    dense, sink = index._base_dense, index._base_sink
    h = np.full((inst.n + 1, inst.capacity + 1), np.inf)
    for d in range(1, inst.capacity + 1):
        for u in inst.customers:
            if d < inst.demand[u]:
                continue
            best = sink[u][d]
            if d >= 2:
                grid = dense[u][1:, 1:d + 1] + h[1:, d - 1::-1]
                m = float(grid.min()) if grid.size else np.inf
                if m < best:
                    best = m
            h[u, d] = best
    return h


@pytest.mark.parametrize("seed,n,cap,mode,k", [
    (105, 16, 20, "uniform_1_10", 5),
    (3, 30, 4, "unit", 10),
    (24, 6, 5, "unit", 2),
])
def test_heuristic_matches_reference_loop(seed, n, cap, mode, k):
    inst, cm, sets, table = _setup(seed, n, cap, k, mode)
    index = build_arc_index(table, sets, inst.capacity)
    rnd = random.Random(seed)
    first = solve_rmp(initial_columns(inst, cm), inst.n, inst.fleet).duals
    for duals in [first] + [_rand_duals(inst, cm, rnd) for _ in range(3)]:
        h = compute_heuristic(inst, sets, table, duals, index=index)
        assert h.tobytes() == _heuristic_loop(inst, index).tobytes()
