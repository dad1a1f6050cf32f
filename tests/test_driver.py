import csv
import dataclasses
import random
from types import SimpleNamespace

import pytest

from lacg.arcs import compute_component_paths
from lacg.instances import Instance, cost_matrix, generate_instance, read_instance, write_instance
from lacg.neighbors import build_la_neighbors
from lacg.driver import CgConfig, certify, solve
from lacg.dssr import DssrResult
from lacg.routes import DualSolution, make_route
from lacg import driver, dssr, oracle, pricing


def test_single_customer_converges_in_one_iteration():
    inst = Instance(
        name="one", coords={-1: (0.0, 0.0), -2: (0.0, 0.0), 1: (3.0, 4.0)},
        demand={1: 1}, capacity=2, fleet=1,
    )
    res = solve(inst, CgConfig(la_k=0))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(10.0, abs=1e-9)
    assert res.iterations == 1


def test_matches_lp_over_enumerated_routes():
    rnd = random.Random(30)
    for trial in range(6):
        n = rnd.randint(2, 6)
        mode = "unit" if rnd.random() < 0.5 else "uniform_1_10"
        cap = rnd.randint(2, 4) if mode == "unit" else rnd.randint(10, 14)
        inst = generate_instance(950 + trial, n, cap, mode)
        elem = oracle.enumerate_routes(inst, "elementary")
        want = float(oracle.lp_over_routes(elem, inst))
        res = solve(inst, CgConfig(la_k=min(3, n - 1)))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(want, abs=1e-6)


def test_arm_invariance_small():
    inst = generate_instance(33, 8, 4, "unit")
    a = solve(inst, CgConfig(la_k=0))
    b = solve(inst, CgConfig(la_k=5))
    assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_trace_invariants():
    inst = generate_instance(34, 8, 5, "unit")
    res = solve(inst, CgConfig(la_k=3))
    rows = res.trace.rows
    assert res.status == "optimal"
    # objective never increases
    objs = [r.rmp_objective for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    # termination certificate
    assert rows[-1].min_reduced_cost >= -1e-6
    assert rows[-1].columns_added == 0
    # every earlier iteration added at least one negative column
    for r in rows[:-1]:
        assert r.min_reduced_cost < -1e-9
        assert r.columns_added >= 1
    # lagrangian bounds never exceed the final optimum
    for r in rows:
        assert r.lagrangian_bound <= res.objective + 1e-6


def test_early_exit_mode_reaches_same_optimum():
    inst = generate_instance(36, 7, 5, "unit")
    a = solve(inst, CgConfig(la_k=2))
    b = solve(inst, CgConfig(la_k=2, early_exit="first_negative"))
    assert b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_time_limit_returns_best_so_far():
    inst = generate_instance(37, 12, 6, "unit")
    res = solve(inst, CgConfig(la_k=0, time_limit=0.0))
    assert res.status == "time_limit"
    assert res.objective > 0


def test_time_limit_bounds_the_pricing_call():
    # the first exact call here needs several DSSR iterations; a spent time
    # limit stops it after the first
    inst = generate_instance(105, 16, 20, "uniform_1_10")
    first = solve(inst, CgConfig(la_k=0, max_iterations=1)).trace.rows[0]
    assert first.dssr_iterations > 1
    res = solve(inst, CgConfig(la_k=0, time_limit=0.0))
    assert res.status == "time_limit" and res.iterations == 1
    assert res.trace.rows[0].dssr_iterations == 1
    assert res.certificate is None


def test_time_limit_reaches_inside_a_search(monkeypatch):
    # the limit passes as the first pricing call starts its second search:
    # that search stops, and the run ends at once with time_limit
    inst = generate_instance(105, 16, 20, "uniform_1_10")
    clock = SimpleNamespace(now=0.0)
    fake = SimpleNamespace(perf_counter=lambda: clock.now)
    for module in (driver, dssr, pricing):
        monkeypatch.setattr(module, "time", fake)
    searches = []
    real = dssr.solve_la_pricing

    def search(*args, **kwargs):
        searches.append(kwargs["deadline"])
        if len(searches) == 2:
            clock.now = 2.0
        res = real(*args, **kwargs)
        assert (res.route is None) == (len(searches) == 2)
        return res

    monkeypatch.setattr(dssr, "solve_la_pricing", search)
    res = solve(inst, CgConfig(la_k=0, time_limit=1.0))
    assert res.status == "time_limit" and res.iterations == 1 and len(searches) == 2
    assert res.trace.rows[0].dssr_iterations == 2
    assert res.certificate is None


def test_iteration_log_has_the_rmp_split(caplog):
    inst = generate_instance(3, 8, 4, "unit")
    with caplog.at_level("DEBUG", logger="lacg.driver"):
        res = solve(inst, CgConfig(la_k=3))
    rec = [r for r in caplog.records if r.getMessage().startswith("iteration ")]
    assert len(rec) == res.iterations
    for r, row in zip(rec, res.trace.rows):
        *_, rmp_ms, pivots, replayed = r.args
        assert rmp_ms >= 0 and (pivots, replayed) == (row.pivots, row.replayed)


def test_fleet_bound_on_a_short_fleet(tmp_path):
    # fewer vehicles than customers: the route weights sum to at most the
    # fleet, so the RMP value plus fleet * min(0, min rc) bounds the master
    # LP, tighter than the bound with n in place of the fleet
    path = tmp_path / "short.txt"
    write_instance(dataclasses.replace(generate_instance(3, 10, 4, "unit"), fleet=3), path)
    inst = read_instance(path)
    assert inst.fleet < inst.n
    res = solve(inst, CgConfig(la_k=3))
    assert res.status == "optimal" and res.certificate.holds()
    rows = res.trace.rows
    assert len(rows) > 1
    for row in rows:
        by_n = row.rmp_objective + inst.n * min(0.0, row.min_reduced_cost)
        assert by_n <= row.lagrangian_bound <= res.objective + 1e-9
        if row.min_reduced_cost < -1e-6:
            assert row.lagrangian_bound > by_n


def test_optimal_run_is_certified():
    inst = generate_instance(38, 7, 4, "unit")
    res = solve(inst, CgConfig(la_k=2))
    cert = res.certificate
    assert res.status == "optimal" and cert.holds()
    assert cert.min_pricing_rc == res.trace.rows[-1].min_reduced_cost
    assert cert.objective == res.objective and cert.fleet == inst.fleet
    costs = cost_matrix(inst)

    def recertify(duals):
        return certify(inst, costs, res.columns, res.theta, duals, res.objective,
                       cert.min_pricing_rc)

    assert recertify(res.duals) == cert
    # one dual entry moved by one unit breaks it: a used column then prices
    # negative, or the dual objective leaves the objective
    for u in inst.customers:
        for step in (1.0, -1.0):
            pi = dict(res.duals.pi)
            pi[u] = max(0.0, pi.get(u, 0.0) + step)
            if pi[u] != res.duals.value(u):
                assert not recertify(DualSolution(pi=pi, pi0=res.duals.pi0)).holds()
    assert not recertify(DualSolution(pi=res.duals.pi, pi0=res.duals.pi0 + 1.0)).holds()


def test_max_iterations_status():
    inst = generate_instance(37, 12, 6, "unit")
    res = solve(inst, CgConfig(la_k=0, max_iterations=1))
    assert res.status == "max_iterations"
    assert res.iterations == 1
    assert len(res.trace.rows) == 1 and res.trace.rows[0].columns_added >= 1


def test_trace_csv_deterministic(tmp_path):
    inst = generate_instance(38, 7, 4, "unit")
    p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    solve(inst, CgConfig(la_k=2)).trace.write_csv(p1)
    solve(inst, CgConfig(la_k=2)).trace.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert "wall" not in header and "time" not in header


def test_more_than_63_customers():
    # customer ids past 63 overflow a uint64 global mask; arc subsets are
    # stored as la(u)-local bits, so la5 runs the same vectorized path as la0.
    # CG iterations were recorded when n > 63 still ran a per-row fallback.
    inst = generate_instance(3, 66, 3, "unit")
    results = {k: solve(inst, CgConfig(la_k=k)) for k in (0, 5)}
    assert all(r.status == "optimal" for r in results.values())
    assert results[5].objective == pytest.approx(results[0].objective, abs=1e-6)
    assert (results[0].iterations, results[5].iterations) == (154, 153)


def test_repeated_columns_counted(monkeypatch):
    inst = generate_instance(38, 7, 4, "unit")
    assert solve(inst, CgConfig(la_k=2)).repeated_columns == 0

    # pricing that hands back a pool column (a single-customer start
    # column) with a negative reduced cost: counted, not added
    def price_pool_route(inst, sets, table, duals, **kwargs):
        route = make_route([1], inst)
        return DssrResult(route=route, reduced_cost=-1.0, early_columns=[(route, -1.0)],
                          iterations=1, exact=True)

    monkeypatch.setattr(driver, "price_elementary", price_pool_route)
    res = solve(inst, CgConfig(la_k=2))
    assert res.status == "stalled"
    assert res.repeated_columns == 1
    assert res.iterations == 1 and res.trace.rows[0].columns_added == 0


def test_past_deadline_repeat_still_stalls(monkeypatch):
    # a call that ends inexact past the deadline: a negative pool column is
    # still a failed self-check, a cut call with nothing negative is not
    inst = generate_instance(38, 7, 4, "unit")
    route = make_route([1], inst)

    def inexact(rc):
        def price(inst, sets, table, duals, **kwargs):
            return DssrResult(route=route, reduced_cost=rc, early_columns=[],
                              iterations=1, exact=False)
        return price

    for rc, status in ((-1.0, "stalled"), (0.5, "time_limit")):
        monkeypatch.setattr(driver, "price_elementary", inexact(rc))
        res = solve(inst, CgConfig(la_k=2, time_limit=0.0))
        assert res.status == status and res.iterations == 1
        assert res.repeated_columns == (rc < 0)


def test_trace_counts_edges_of_every_search(tmp_path, monkeypatch):
    searched = []
    real = dssr.solve_la_pricing

    def search(*args, **kwargs):
        res = real(*args, **kwargs)
        searched[-1] += res.diagnostics.edges_relaxed
        return res

    real_price = driver.price_elementary

    def price(*args, **kwargs):
        searched.append(0)
        return real_price(*args, **kwargs)

    monkeypatch.setattr(dssr, "solve_la_pricing", search)
    monkeypatch.setattr(driver, "price_elementary", price)
    res = solve(generate_instance(105, 16, 20, "uniform_1_10"), CgConfig(la_k=5))
    assert [r.edges_relaxed for r in res.trace.rows] == searched
    assert sum(searched) == 210305  # recorded before the trace carried edges
    res.trace.write_csv(tmp_path / "t.csv")
    with open(tmp_path / "t.csv") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["edges_relaxed"]) for r in rows] == searched


def test_setup_split_logged(caplog):
    inst = generate_instance(3, 8, 4, "unit")
    with caplog.at_level("DEBUG", logger="lacg.driver"):
        res = solve(inst, CgConfig(la_k=3, max_iterations=1))
    rec = [r for r in caplog.records if "set-up" in r.getMessage()]
    assert len(rec) == 1 and rec[0].name == "lacg.driver" and rec[0].levelname == "DEBUG"
    arm, total, *parts, arcs, layer_bytes = rec[0].args
    assert arm == "la3" and total == pytest.approx(1e3 * res.setup_time)
    assert len(parts) == 4 and all(p >= 0 for p in parts)
    assert sum(parts) == pytest.approx(total)
    # the table's size: its arc count and the bytes of its subset DP layers
    table = compute_component_paths(inst, build_la_neighbors(inst, 3))
    assert arcs == table.arc_count() > 0
    assert layer_bytes == sum(a.nbytes for store in (table._seg_cost, table._seg_next,
                                                     table._head_cost, table._head_first)
                              for layers in store.values() for a in layers)
