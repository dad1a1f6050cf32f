import random

import pytest
from hypothesis import given, settings, strategies as st

from lacg.instances import Instance, generate_instance, cost_matrix
from lacg.neighbors import build_la_neighbors, augment_ng
from lacg.routes import (
    Route, DualSolution, make_route, route_cost, reduced_cost,
    special_indices, is_elementary, is_kq_route, is_ng_route, is_la_route,
    trim_to_elementary,
)
from lacg import oracle


def _one_customer_inst():
    return Instance(
        name="one", coords={-1: (0.0, 0.0), -2: (0.0, 0.0), 1: (3.0, 4.0)},
        demand={1: 1}, capacity=2, fleet=1,
    )


def test_route_cost_out_and_back():
    inst = _one_customer_inst()
    c = cost_matrix(inst)
    r = make_route([1], inst)
    assert route_cost(r, c) == 10.0


def test_empty_route_rejected():
    with pytest.raises(ValueError):
        Route(seq=(), demand_used=0)


def test_route_cost_equals_leg_sum():
    inst = generate_instance(8, 6, 10, "uniform_1_10")
    c = cost_matrix(inst)
    r = make_route([2, 5], inst)
    legs = c.cost(-1, 2) + c.cost(2, 5) + c.cost(5, -2)
    assert abs(route_cost(r, c) - legs) < 1e-12


def test_reduced_cost_zero_duals_is_cost():
    inst = generate_instance(8, 6, 10, "uniform_1_10")
    c = cost_matrix(inst)
    r = make_route([1, 4, 2], inst)
    duals = DualSolution(pi={u: 0.0 for u in inst.customers})
    assert reduced_cost(r, duals, c) == route_cost(r, c)


def test_reduced_cost_exact_cancellation():
    inst = _one_customer_inst()
    c = cost_matrix(inst)
    r = make_route([1], inst)
    duals = DualSolution(pi={1: route_cost(r, c)})
    assert abs(reduced_cost(r, duals, c)) < 1e-12


def test_reduced_cost_counts_repeat_visits():
    inst = generate_instance(8, 6, 10, "uniform_1_10")
    c = cost_matrix(inst)
    r = make_route([1, 2, 1], inst)
    duals = DualSolution(pi={1: 5.0, 2: 1.0}, pi0=2.0)
    want = route_cost(r, c) + 2.0 - (5.0 + 1.0 + 5.0)
    assert abs(reduced_cost(r, duals, c) - want) < 1e-12


def test_clock_special_indices(clock, clock_sets):
    r = make_route([3, 1, 5, 1], clock)
    assert special_indices(r, clock_sets) == (1,)


def test_special_indices_all_when_la_empty():
    inst = generate_instance(3, 6, 6, "unit")
    sets = build_la_neighbors(inst, 0)
    r = make_route([4, 2, 6, 1], inst)
    assert special_indices(r, sets) == (1, 2, 3, 4)


def test_special_indices_match_rederivation():
    rnd = random.Random(0)
    inst = generate_instance(21, 9, 9, "unit")
    sets = build_la_neighbors(inst, 3)
    for _ in range(200):
        seq = [rnd.randint(1, 9) for _ in range(rnd.randint(1, 9))]
        r = make_route(seq, inst)
        got = special_indices(r, sets)
        # independent loop: scan forward keeping the last special customer
        want = [1]
        cur = seq[0]
        for pos in range(2, len(seq) + 1):
            if seq[pos - 1] not in sets.la(cur):
                want.append(pos)
                cur = seq[pos - 1]
        assert got == tuple(want)


def test_clock_route_is_ng_not_la(clock, clock_sets):
    r = make_route([3, 1, 5, 1], clock)
    assert is_ng_route(r, clock_sets)
    assert not is_la_route(r, clock_sets)


def test_elementary_satisfies_every_class(clock, clock_sets):
    r = make_route([3, 7, 11, 1], clock)
    assert is_elementary(r)
    assert is_la_route(r, clock_sets)
    assert is_ng_route(r, clock_sets)
    for K in (1, 2, 5):
        assert is_kq_route(r, K)


def test_predicates_match_oracle_classifiers():
    rnd = random.Random(5)
    for trial in range(6):
        n = rnd.randint(2, 6)
        inst = generate_instance(500 + trial, n, rnd.randint(2, 4), "unit")
        sets = build_la_neighbors(inst, rnd.randint(0, n - 1))
        for u in inst.customers:
            for v in inst.customers:
                if u != v and rnd.random() < 0.4:
                    augment_ng(sets, u, v)
        for r in oracle.enumerate_routes(inst, "all_feasible"):
            assert is_elementary(r) == oracle.classify_elementary(r.seq)
            assert is_ng_route(r, sets) == oracle.classify_ng(r.seq, sets)
            assert is_la_route(r, sets) == oracle.classify_la(r.seq, sets)
            assert is_kq_route(r, 1) == oracle.classify_kq(r.seq, None, 1)


@st.composite
def _sequences(draw):
    """Up to eight customers with random la and ng sets, and a customer
    sequence that may repeat customers, adjacent ones included, and may
    exceed the capacity."""
    n = draw(st.integers(1, 8))
    inst = generate_instance(draw(st.integers(0, 999)), n, n, "unit")
    sets = build_la_neighbors(inst, draw(st.integers(0, n - 1)))
    for w in inst.customers:
        for u in draw(st.sets(st.integers(1, n))) - {w}:
            augment_ng(sets, w, u)
    seq = draw(st.lists(st.integers(1, n), min_size=1, max_size=12))
    return inst, sets, seq


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sequences())
def test_predicates_match_oracle_on_any_sequence(drawn):
    inst, sets, seq = drawn
    r = make_route(seq, inst)
    assert special_indices(r, sets) == tuple(oracle._special_positions(seq, sets))
    assert is_elementary(r) == oracle.classify_elementary(seq)
    assert is_ng_route(r, sets) == oracle.classify_ng(seq, sets)
    assert is_la_route(r, sets) == oracle.classify_la(seq, sets)
    for K in range(1, 6):
        assert is_kq_route(r, K) == oracle.classify_kq(seq, None, K)


def test_containment_elementary_la_ng():
    rnd = random.Random(9)
    for trial in range(4):
        n = rnd.randint(3, 7)
        inst = generate_instance(600 + trial, n, rnd.randint(3, 5), "unit")
        sets = build_la_neighbors(inst, 2)
        for u in inst.customers:
            for v in sets.la(u):
                augment_ng(sets, u, v)
        routes = oracle.enumerate_routes(inst, "all_feasible")
        for r in routes:
            if is_elementary(r):
                assert is_la_route(r, sets)
            if is_la_route(r, sets):
                assert is_ng_route(r, sets)


def test_all_empty_ng_route_classes():
    # with every ng set empty any interior position breaks a cycle, so every
    # resource-feasible route is an ng route; the la class additionally needs
    # a *special* position strictly inside each cycle, which a literal reading
    # of the definition can deny even with empty ng sets
    inst = generate_instance(31, 5, 4, "unit")
    for k in (0, 2, 4):
        sets = build_la_neighbors(inst, k)
        for r in oracle.enumerate_routes(inst, "all_feasible"):
            assert is_ng_route(r, sets)
            special = set(special_indices(r, sets))
            want_la = True
            for i, u in enumerate(r.seq, start=1):
                for j in range(i + 1, len(r.seq) + 1):
                    if r.seq[j - 1] == u and not any(
                        i < s < j for s in special
                    ):
                        want_la = False
            assert is_la_route(r, sets) == want_la
            if k == 0:
                # every position is special, so the la class collapses to ng
                assert is_la_route(r, sets)


def test_trim_example():
    inst = generate_instance(1, 6, 12, "unit")
    r = make_route([1, 2, 3, 1, 5, 2, 1], inst)
    assert trim_to_elementary(r, inst).seq == (1, 2, 3, 5)


def test_trim_fixed_point_and_idempotent():
    inst = generate_instance(1, 6, 12, "unit")
    r = make_route([4, 2, 6], inst)
    assert trim_to_elementary(r, inst) == r
    rnd = random.Random(2)
    for _ in range(50):
        seq = [rnd.randint(1, 6) for _ in range(rnd.randint(1, 10))]
        t1 = trim_to_elementary(make_route(seq, inst), inst)
        assert trim_to_elementary(t1, inst) == t1
        assert t1.demand_used == sum(inst.demand[u] for u in t1.seq)


def test_trim_never_longer_under_triangle_inequality():
    inst = generate_instance(44, 7, 20, "uniform_1_10")
    c = cost_matrix(inst)
    rnd = random.Random(3)
    for _ in range(100):
        seq = [rnd.randint(1, 7) for _ in range(rnd.randint(1, 8))]
        r = make_route(seq, inst)
        assert route_cost(trim_to_elementary(r, inst), c) <= route_cost(r, c) + 1e-9


def test_dual_solution_rejects_negative():
    with pytest.raises(ValueError):
        DualSolution(pi={1: -0.5})
    with pytest.raises(ValueError):
        DualSolution(pi={}, pi0=-1.0)
