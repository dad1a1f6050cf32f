import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lacg.instances import Instance, generate_instance, cost_matrix
from lacg.neighbors import build_la_neighbors, augment_ng
from lacg.routes import (
    DualSolution, make_route, reduced_cost, is_elementary, is_la_route,
)
from lacg.arcs import ArcIndex, build_arc_index, compute_component_paths
from lacg.pricing import solve_la_pricing
from lacg.dssr import price_elementary, select_cycle
from lacg import dssr, oracle, pricing
from lacg.rmp import initial_columns, make_column, solve_rmp


def _setup(seed, n, cap, k, mode="unit"):
    inst = generate_instance(seed, n, cap, mode)
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, k, cm)
    table = compute_component_paths(inst, sets, cm)
    return inst, cm, sets, table


def _rand_duals(inst, cm, rnd, scale=3.0):
    pi = {u: rnd.uniform(0, scale) * cm.cost(-1, u) for u in inst.customers}
    return DualSolution(pi=pi, pi0=rnd.uniform(0, 40))


def test_elementary_first_iteration():
    inst, cm, sets, table = _setup(1, 6, 4, 2)
    duals = DualSolution(pi={u: 0.0 for u in inst.customers})
    res = price_elementary(inst, sets, table, duals)
    assert res.iterations == 1
    assert res.exact
    assert is_elementary(res.route)


def test_exactness_against_enumeration():
    rnd = random.Random(15)
    for trial in range(12):
        n = rnd.randint(2, 7)
        mode = "unit" if rnd.random() < 0.5 else "uniform_1_10"
        cap = rnd.randint(2, 5) if mode == "unit" else rnd.randint(10, 15)
        inst, cm, sets, table = _setup(940 + trial, n, cap, rnd.randint(0, min(3, n - 1)), mode)
        elem = oracle.enumerate_routes(inst, "elementary")
        for _ in range(5):
            duals = _rand_duals(inst, cm, rnd)
            best, want = oracle.brute_pricing(elem, duals, cm)
            res = price_elementary(inst, sets, table, duals)
            assert res.exact and is_elementary(res.route)
            assert res.reduced_cost == pytest.approx(want, abs=1e-6)
            assert reduced_cost(res.route, duals, cm) == pytest.approx(
                res.reduced_cost, abs=1e-6
            )


def test_k0_equals_k_large():
    rnd = random.Random(16)
    inst, cm, _, _ = _setup(50, 7, 4, 0)
    sets0 = build_la_neighbors(inst, 0, cm)
    table0 = compute_component_paths(inst, sets0, cm)
    sets10 = build_la_neighbors(inst, 6, cm)
    table10 = compute_component_paths(inst, sets10, cm)
    for _ in range(10):
        duals = _rand_duals(inst, cm, rnd)
        a = price_elementary(inst, sets0, table0, duals)
        b = price_elementary(inst, sets10, table10, duals)
        assert a.reduced_cost == pytest.approx(b.reduced_cost, abs=1e-6)


def test_monotone_objective_and_strict_growth():
    rnd = random.Random(17)
    inst, cm, sets, table = _setup(51, 7, 5, 2)
    saw_multi = False
    for _ in range(20):
        duals = _rand_duals(inst, cm, rnd)
        res = price_elementary(inst, sets, table, duals)
        objs = [row.objective for row in res.log]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        ngs = [row.ng_total for row in res.log]
        assert all(b > a for a, b in zip(ngs, ngs[1:]))
        saw_multi = saw_multi or res.iterations > 1
    assert saw_multi


def test_early_columns_are_negative_elementary():
    rnd = random.Random(18)
    inst, cm, sets, table = _setup(52, 7, 5, 2)
    for _ in range(15):
        duals = _rand_duals(inst, cm, rnd)
        res = price_elementary(inst, sets, table, duals)
        for route, rc in res.early_columns:
            assert is_elementary(route)
            assert rc < 0
            assert reduced_cost(route, duals, cm) == pytest.approx(rc, abs=1e-9)


def test_early_exit_first_negative():
    rnd = random.Random(19)
    inst, cm, sets, table = _setup(53, 7, 5, 2)
    hit_inexact = False
    for _ in range(20):
        duals = _rand_duals(inst, cm, rnd)
        res = price_elementary(inst, sets, table, duals, early_exit="first_negative")
        if not res.exact:
            hit_inexact = True
            assert is_elementary(res.route)
            assert res.reduced_cost < 0
    assert hit_inexact


def test_past_deadline_stops_after_first_iteration():
    inst, cm, sets, table = _setup(105, 16, 20, 5, "uniform_1_10")
    duals = solve_rmp(initial_columns(inst, cm), inst.n, inst.fleet).duals
    exact = price_elementary(inst, sets, table, duals)
    assert exact.exact and exact.iterations > 1
    cut = price_elementary(inst, sets, table, duals, deadline=time.perf_counter())
    assert not cut.exact and cut.iterations == 1 and len(cut.log) == 1
    # the best trim of the one relaxed route, and the bonus columns so far
    assert not cut.log[0].elementary
    assert is_elementary(cut.route)
    assert cut.reduced_cost == reduced_cost(cut.route, duals, cm)
    assert cut.reduced_cost >= exact.reduced_cost - 1e-9
    assert cut.early_columns == exact.early_columns[:len(cut.early_columns)]


def test_deadline_stops_the_second_search(monkeypatch):
    # a deadline that passes between the first and the second search of a
    # call: the between-iteration check lets the call go on, the second
    # search stops at its first expansion, and the call returns the first
    # search's trim, inexact
    inst, cm, sets, table = _setup(105, 16, 20, 5, "uniform_1_10")
    duals = solve_rmp(initial_columns(inst, cm), inst.n, inst.fleet).duals
    exact = price_elementary(inst, sets, table, duals)
    assert exact.iterations > 1
    clock = SimpleNamespace(now=0.0)
    fake = SimpleNamespace(perf_counter=lambda: clock.now)
    monkeypatch.setattr(dssr, "time", fake)
    monkeypatch.setattr(pricing, "time", fake)
    deadlines = []
    real = dssr.solve_la_pricing

    def search(*args, **kwargs):
        deadlines.append(kwargs["deadline"])
        if len(deadlines) == 2:
            clock.now = 2.0
        return real(*args, **kwargs)

    monkeypatch.setattr(dssr, "solve_la_pricing", search)
    cut = price_elementary(inst, sets, table, duals, deadline=1.0)
    assert deadlines == [None, 1.0]  # the first search runs without one
    assert not cut.exact and cut.iterations == 2 and len(cut.log) == 1
    assert cut.nodes_expanded == exact.log[0].nodes_expanded
    assert is_elementary(cut.route)
    assert cut.reduced_cost == reduced_cost(cut.route, duals, cm)
    assert cut.early_columns == exact.early_columns[:len(cut.early_columns)]


def test_select_cycle_single_option():
    inst, cm, sets, table = _setup(54, 5, 5, 0)
    r = make_route([1, 2, 1], inst)
    choice = select_cycle(r, sets, inst)
    assert (choice.start, choice.end) == (1, 3)
    assert choice.customer == 1
    assert choice.augment == (2,)


def test_select_cycle_rejects_elementary():
    inst, cm, sets, table = _setup(54, 5, 5, 0)
    with pytest.raises(ValueError):
        select_cycle(make_route([1, 2, 3], inst), sets, inst)


def test_select_cycle_min_nodes_prefers_small_ng():
    # one route, two cycles: the breaker of the first has a grown ng set
    # (costly to split), the breaker of the second is untouched
    inst, cm, sets, table = _setup(55, 6, 8, 0)
    for w in (3, 4, 5, 6):
        augment_ng(sets, 2, w)
    r = make_route([1, 2, 1, 4, 3, 4], inst)
    g_first = (inst.capacity - inst.demand[2] + 1) * (1 << 4)
    g_second = (inst.capacity - inst.demand[3] + 1) * (1 << 0)
    assert g_second < g_first
    c = select_cycle(r, sets, inst)
    assert (c.start, c.end, c.customer) == (4, 6, 4)
    assert c.augment == (3,)


def test_augmentation_forbids_returned_route():
    rnd = random.Random(20)
    inst, cm, sets, table = _setup(57, 7, 5, 2)
    for _ in range(10):
        duals = _rand_duals(inst, cm, rnd)
        sets.reset_ng()
        index = build_arc_index(table, sets, inst.capacity)
        index.bind_duals(duals)
        for _round in range(200):
            res = solve_la_pricing(inst, sets, table, duals, index=index)
            if is_elementary(res.route):
                break
            assert is_la_route(res.route, sets)
            choice = select_cycle(res.route, sets, inst)
            for w in choice.augment:
                augment_ng(sets, w, choice.customer)
            # the augmented sets now reject the same route
            assert not is_la_route(res.route, sets)
            index.invalidate(set(choice.augment), choice.customer)


def test_full_vs_targeted_invalidation():
    rnd = random.Random(21)
    inst, cm, sets, table = _setup(58, 7, 5, 3)
    duals = _rand_duals(inst, cm, rnd)
    sets.reset_ng()
    index = build_arc_index(table, sets, inst.capacity)
    index.bind_duals(duals)
    for _round in range(60):
        res = solve_la_pricing(inst, sets, table, duals, index=index)
        # fresh index (full invalidation) must agree with the targeted one
        fresh = build_arc_index(table, sets, inst.capacity)
        fresh.bind_duals(duals)
        res2 = solve_la_pricing(inst, sets, table, duals, index=fresh)
        assert res.reduced_cost == pytest.approx(res2.reduced_cost, abs=1e-12)
        if is_elementary(res.route):
            break
        choice = select_cycle(res.route, sets, inst)
        for w in choice.augment:
            augment_ng(sets, w, choice.customer)
        index.invalidate(set(choice.augment), choice.customer)


@st.composite
def _priced_instances(draw):
    """A small instance, an la size and a few dual vectors."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(0, n - 1))
    unit = draw(st.booleans())
    # fewer points than customers gives duplicate coordinates, so ties
    points = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                           min_size=1, max_size=n, unique=True))
    coords = {-1: (10.0, 10.0), -2: (10.0, 10.0)}
    coords.update({u: points[draw(st.integers(0, len(points) - 1))]
                   for u in range(1, n + 1)})
    demand = {u: 1 if unit else draw(st.integers(1, 4)) for u in range(1, n + 1)}
    capacity = draw(st.integers(max(demand.values()), sum(demand.values())))
    inst = Instance(name="drawn", coords=coords, demand=demand, capacity=capacity, fleet=n)
    cm = cost_matrix(inst)
    scale = st.floats(0.0, 3.0, allow_nan=False)
    duals = [DualSolution(pi={u: draw(scale) * cm.cost(-1, u) for u in inst.customers},
                          pi0=draw(st.floats(0.0, 40.0, allow_nan=False)))
             for _ in range(draw(st.integers(1, 3)))]
    return inst, k, duals


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_priced_instances())
def test_price_elementary_matches_brute_force(drawn):
    inst, k, duals_list = drawn
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, k, cm)
    table = compute_component_paths(inst, sets, cm)
    index = ArcIndex(table, sets, inst.capacity)  # shared, as across CG iterations
    routes = oracle.enumerate_routes(inst, "elementary")
    elem = {r.seq for r in routes}
    for duals in duals_list:
        _, want = oracle.brute_pricing(routes, duals, cm)
        for res in (price_elementary(inst, sets, table, duals),
                    price_elementary(inst, sets, table, duals, index=index)):
            assert res.exact and is_elementary(res.route)
            assert res.route.seq in elem  # capacity-feasible too
            assert res.reduced_cost == pytest.approx(want, abs=1e-9)
            assert reduced_cost(res.route, duals, cm) == pytest.approx(want, abs=1e-9)


def _call_key(res):
    return (res.route.seq, float(res.reduced_cost).hex(), res.nodes_expanded,
            res.iterations, res.edges_relaxed)


@pytest.mark.parametrize("k", [0, 10])
def test_shared_index_matches_fresh_index(k):
    # column generation prices every iteration's duals on one ArcIndex; its
    # per-call caches must leave each call as a fresh index would price it
    inst, cm, sets, table = _setup(105, 16, 20, k, "uniform_1_10")
    fresh_sets = build_la_neighbors(inst, k, cm)
    index = ArcIndex(table, sets, inst.capacity)
    columns = initial_columns(inst, cm)
    grown = 0
    for _ in range(6):
        duals = solve_rmp(columns, inst.n, inst.fleet).duals
        got = price_elementary(inst, sets, table, duals, index=index)
        want = price_elementary(inst, fresh_sets, table, duals,
                                index=ArcIndex(table, fresh_sets, inst.capacity))
        assert _call_key(got) == _call_key(want)
        grown += got.iterations > 1
        assert got.reduced_cost < -1e-9
        columns.append(make_column(got.route, cm))
    assert grown >= 3
