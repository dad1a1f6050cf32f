import random

import numpy as np

from lacg import driver
from lacg.instances import generate_instance, cost_matrix
from lacg.routes import make_route
from lacg.rmp import Column, Master, make_column, initial_columns, solve_rmp, lagrangian_bound


def _col(seq, cost, inst):
    route = make_route(seq, inst)
    return Column(route=route, cost=cost, cover=route.visit_counts())


def test_hand_lp():
    # columns {[1]: 2, [2]: 4, [1,2]: 5}, K=2: the pair column wins at 5
    inst = generate_instance(1, 2, 2, "unit")
    cols = [_col([1], 2.0, inst), _col([2], 4.0, inst), _col([1, 2], 5.0, inst)]
    sol = solve_rmp(cols, n=2, K=2)
    assert sol.status == "optimal"
    assert abs(sol.objective - 5.0) < 1e-9
    assert abs(sol.theta[2] - 1.0) < 1e-9


def test_single_customer_lp():
    inst = generate_instance(2, 1, 2, "unit")
    c = cost_matrix(inst)
    cols = initial_columns(inst, c)
    sol = solve_rmp(cols, n=1, K=1)
    cost = cols[0].cost
    assert abs(sol.objective - cost) < 1e-9
    assert abs(sol.duals.value(1) - cost) < 1e-9
    assert sol.duals.pi0 == 0.0


def test_initial_columns():
    inst = generate_instance(3, 3, 5, "unit")
    c = cost_matrix(inst)
    cols = initial_columns(inst, c)
    assert len(cols) == 3
    for u, col in zip(inst.customers, cols):
        assert col.cover == {u: 1}
        assert abs(col.cost - 2.0 * c.cost(-1, u)) < 1e-12
    sol = solve_rmp(cols, n=3, K=3)
    want = sum(2.0 * c.cost(-1, u) for u in inst.customers)
    assert abs(sol.objective - want) < 1e-9


def test_strong_duality_random_pools():
    rnd = random.Random(4)
    for trial in range(20):
        n = rnd.randint(2, 6)
        inst = generate_instance(700 + trial, n, n, "unit")
        c = cost_matrix(inst)
        cols = initial_columns(inst, c)
        ids = list(inst.customers)
        for _ in range(rnd.randint(1, 12)):
            size = rnd.randint(1, n)
            seq = rnd.sample(ids, size)
            cols.append(make_column(make_route(seq, inst), c))
        K = rnd.randint(1, n)
        sol = solve_rmp(cols, n=n, K=K)
        if sol.status != "optimal":
            continue
        dual_obj = sum(sol.duals.pi.values()) - K * sol.duals.pi0
        assert abs(sol.objective - dual_obj) < 1e-7
        # dual feasibility: no pool column prices negative
        for col in cols:
            rc = col.cost + sol.duals.pi0 - sum(
                cnt * sol.duals.value(u) for u, cnt in col.cover.items()
            )
            assert rc >= -1e-7
        # complementary slackness on columns
        for t, col in zip(sol.theta, cols):
            rc = col.cost + sol.duals.pi0 - sum(
                cnt * sol.duals.value(u) for u, cnt in col.cover.items()
            )
            assert abs(t * rc) < 1e-6


def test_adding_column_never_increases_objective():
    rnd = random.Random(8)
    inst = generate_instance(900, 5, 5, "unit")
    c = cost_matrix(inst)
    cols = initial_columns(inst, c)
    prev = solve_rmp(cols, n=5, K=5).objective
    ids = list(inst.customers)
    for _ in range(10):
        seq = rnd.sample(ids, rnd.randint(1, 5))
        cols.append(make_column(make_route(seq, inst), c))
        cur = solve_rmp(cols, n=5, K=5).objective
        assert cur <= prev + 1e-9
        prev = cur


def test_lagrangian_bound():
    assert lagrangian_bound(100.0, -2.0, 10) == 80.0
    assert lagrangian_bound(100.0, 3.0, 10) == 100.0
    assert lagrangian_bound(100.0, 0.0, 10) == 100.0


def test_exact_mode_matches_float():
    inst = generate_instance(5, 4, 4, "unit")
    c = cost_matrix(inst)
    cols = initial_columns(inst, c)
    cols.append(make_column(make_route([1, 2], inst), c))
    cols.append(make_column(make_route([3, 4], inst), c))
    f = solve_rmp(cols, n=4, K=4)
    e = solve_rmp(cols, n=4, K=4, exact=True)
    assert abs(f.objective - e.objective) < 1e-9


def test_cg_run_replays_fresh_duals(monkeypatch):
    # every RMP of a run replays the previous one; each must equal a fresh
    # solve of its column prefix bit for bit
    calls = []
    real = driver.solve_rmp

    def spy(columns, n, K, **kwargs):
        sol = real(columns, n, K, **kwargs)
        calls.append((list(columns), sol))
        return sol

    monkeypatch.setattr(driver, "solve_rmp", spy)
    inst = generate_instance(105, 16, 20, "uniform_1_10")
    res = driver.solve(inst, driver.CgConfig(la_k=5))
    assert res.status == "optimal" and len(calls) == res.iterations
    assert sum(sol.replayed for _, sol in calls) > 0
    for columns, sol in calls:
        fresh = solve_rmp(columns, inst.n, inst.fleet)
        assert fresh.replayed == 0
        assert sol.pivots + sol.replayed == fresh.pivots
        assert repr((sol.objective, sol.theta, sorted(sol.duals.pi.items()), sol.duals.pi0)) \
            == repr((fresh.objective, fresh.theta, sorted(fresh.duals.pi.items()), fresh.duals.pi0))
    assert [(r.pivots, r.replayed) for r in res.trace.rows] \
        == [(sol.pivots, sol.replayed) for _, sol in calls]


def _bits(sol):
    return repr((sol.status, sol.objective, sol.theta, sorted(sol.duals.pi.items()), sol.duals.pi0))


def test_master_matches_fresh_solves():
    # a run's column lists grow in batches; each master solve equals a fresh
    # one bit for bit, and its cover block equals a one-shot scatter
    rnd = random.Random(11)
    n = 9
    inst = generate_instance(61, n, 4, "unit")
    c = cost_matrix(inst)
    cols = initial_columns(inst, c)
    master = Master(n, 4)
    replayed = 0
    for _ in range(12):
        for _ in range(rnd.randint(0, 3)):
            seq = rnd.sample(range(1, n + 1), rnd.randint(2, 4))
            cols.append(make_column(make_route(seq, inst), c))
        got = solve_rmp(cols, n, 4, master=master)
        fresh = solve_rmp(cols, n, 4)
        assert _bits(got) == _bits(fresh)
        assert got.pivots + got.replayed == fresh.pivots
        replayed += got.replayed
        block = np.zeros((n + 1, len(cols)))
        block[n] = 1.0
        for j, col in enumerate(cols):
            for u, k in col.cover.items():
                block[u - 1, j] = k
        assert master._cover.tobytes() == block.tobytes()
        assert list(master._cost) == [col.cost for col in cols]
    assert replayed > 0


def test_master_runs_cold_when_an_earlier_column_changes():
    inst = generate_instance(62, 6, 3, "unit")
    c = cost_matrix(inst)
    cols = initial_columns(inst, c) + [make_column(make_route([1, 2, 3], inst), c)]
    master = Master(6, 6)
    solve_rmp(cols, 6, 6, master=master)
    more = cols + [make_column(make_route([4, 5], inst), c)]
    assert solve_rmp(more, 6, 6, master=master).replayed > 0
    # replace an earlier column, then drop one: both solve cold and match
    for changed in ([make_column(make_route([2, 1, 3], inst), c)] + more[1:], more[:-2]):
        got = solve_rmp(changed, 6, 6, master=master)
        assert got.replayed == 0
        assert _bits(got) == _bits(solve_rmp(changed, 6, 6))
