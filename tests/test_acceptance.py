"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The benchmark-backed
criteria (7 and 8) solve a fleet of n in {30, 40} instances three times each
and dominate the runtime, so they carry the `slow` marker; everything else
finishes in seconds.
"""

import itertools
import math
import random
import statistics
import subprocess
import sys
import pytest

from lacg import oracle
from lacg.instances import Instance, generate_instance, cost_matrix, END_DEPOT
from lacg.neighbors import build_la_neighbors, augment_ng
from lacg.routes import DualSolution, is_elementary
from lacg.arcs import build_arc_index, compute_component_paths
from lacg.pricing import solve_la_pricing
from lacg.dssr import price_elementary
from lacg.driver import CgConfig, solve

# benchmark fleet for criteria 7/8: unit-demand instances at n in {30, 40}
# with capacities 4 and 8 from the dataset-1 grid
BENCH_CASES = (
    (3, 30, 4), (32, 30, 4), (33, 30, 4), (37, 30, 4), (38, 30, 4),
    (39, 30, 4), (40, 30, 4),
    (4, 40, 4), (34, 40, 4), (35, 40, 4), (36, 40, 4),
    (1, 30, 8), (12, 30, 8), (24, 40, 8),
)
BENCH_TIME_LIMIT = 600.0


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _tiny_instance(rnd, seed):
    n = rnd.randint(2, 7)
    cap = rnd.randint(2, 5)
    base = generate_instance(seed, n, cap, "unit")
    if rnd.random() < 0.5:
        return base
    # non-unit demands within the same capacity bound
    demand = {u: rnd.randint(1, min(3, cap)) for u in base.customers}
    return Instance(
        name=base.name + "-nu", coords=dict(base.coords), demand=demand,
        capacity=cap, fleet=base.fleet,
    )


def _rand_duals(inst, cm, rnd, scale=3.0):
    pi = {u: rnd.uniform(0, scale) * cm.cost(-1, u) for u in inst.customers}
    return DualSolution(pi=pi, pi0=rnd.uniform(0, 40.0))


@pytest.fixture(scope="module")
def bench_results():
    results = {}
    for seed, n, cap in BENCH_CASES:
        inst = generate_instance(seed, n, cap, "unit")
        per_arm = {}
        for k in (0, 5, 10):
            per_arm[k] = solve(inst, CgConfig(la_k=k, time_limit=BENCH_TIME_LIMIT))
        results[(seed, n, cap)] = per_arm
    return results


def test_criterion_01_exact_pricing_oracle_equivalence():
    rnd = random.Random(101)
    worst = 0.0
    checked = 0
    for i in range(50):
        inst = _tiny_instance(rnd, 10_000 + i)
        cm = cost_matrix(inst)
        k = rnd.randint(0, min(3, inst.n - 1))
        sets = build_la_neighbors(inst, k, cm)
        table = compute_component_paths(inst, sets, cm)
        elem = oracle.enumerate_routes(inst, "elementary")
        for _ in range(10):
            duals = _rand_duals(inst, cm, rnd)
            _, want = oracle.brute_pricing(elem, duals, cm)
            got = price_elementary(inst, sets, table, duals)
            assert got.exact and is_elementary(got.route)
            worst = max(worst, abs(got.reduced_cost - want))
            checked += 1
    _report(1, worst <= 1e-6,
            f"exact pricing == brute elementary on {checked} (instance, duals) "
            f"pairs, max |diff| = {worst:.2e} <= 1e-6")


def test_criterion_02_la_pricing_oracle_equivalence():
    rnd = random.Random(102)
    worst = 0.0
    checked = 0
    for i in range(25):
        inst = _tiny_instance(rnd, 20_000 + i)
        cm = cost_matrix(inst)
        sets = build_la_neighbors(inst, min(3, inst.n - 1), cm)
        table = compute_component_paths(inst, sets, cm)
        for u in inst.customers:
            for v in inst.customers:
                if u != v and rnd.random() < 0.35:
                    augment_ng(sets, u, v)
        la_routes = oracle.enumerate_routes(inst, "la", sets)
        for _ in range(6):
            duals = _rand_duals(inst, cm, rnd)
            _, want = oracle.brute_pricing(la_routes, duals, cm)
            got = solve_la_pricing(inst, sets, table, duals)
            worst = max(worst, abs(got.reduced_cost - want))
            checked += 1
    _report(2, worst <= 1e-6,
            f"relaxed pricing == brute over enumerated la routes on {checked} "
            f"pairs (|la(u)| <= 3, hand-set ng sets), max |diff| = {worst:.2e}")


def test_criterion_03_component_dp_correctness():
    rnd = random.Random(103)
    worst = 0.0
    checked = 0
    inner_seen = {}
    for i in range(10):
        n = rnd.randint(7, 9)
        inst = generate_instance(30_000 + i, n, 25, "uniform_1_10")
        cm = cost_matrix(inst)
        sets = build_la_neighbors(inst, 6, cm)
        table = compute_component_paths(inst, sets, cm)
        for u in inst.customers:
            nbrs = sets.la(u)
            for size in range(0, min(6, len(nbrs)) + 1):
                for combo in itertools.combinations(nbrs, size):
                    if inst.demand[u] + sum(inst.demand[w] for w in combo) > inst.capacity:
                        continue
                    for v in list(inst.customers) + [END_DEPOT]:
                        if v == u or v in nbrs:
                            continue
                        best = math.inf
                        for perm in itertools.permutations(combo):
                            p = (u,) + perm + (v,)
                            best = min(best, sum(cm.cost(a, b) for a, b in zip(p, p[1:])))
                        worst = max(worst, abs(table.arc_cost(u, v, combo) - best))
                        checked += 1
                    # inner costs must not depend on which neighborhood owns the set
                    if 2 <= size:
                        key = (30_000 + i, frozenset(combo))
                        ends = (combo[0], combo[-1]) if size >= 2 else None
                        if ends and combo[0] != combo[-1]:
                            val = table.inner_cost(combo, combo[0], combo[-1])
                            if key in inner_seen:
                                assert inner_seen[key] == val
                            inner_seen[key] = val
    _report(3, worst <= 1e-9,
            f"subset-path dp == factorial enumeration on {checked} arcs, "
            f"max |diff| = {worst:.2e} <= 1e-9; shared-subset costs agree across owners")


def test_criterion_04_dijkstra_offset_equals_bellman_ford():
    rnd = random.Random(104)
    worst_obj = worst_edge = worst_shift = 0.0
    inst = generate_instance(40_000, 6, 5, "unit")
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, 2, cm)
    table = compute_component_paths(inst, sets, cm)
    for u in inst.customers:
        for v in inst.customers:
            if u != v and rnd.random() < 0.3:
                augment_ng(sets, u, v)
    import numpy as np
    for _ in range(30):
        duals = _rand_duals(inst, cm, rnd)
        a = solve_la_pricing(inst, sets, table, duals, "dijkstra")
        b = solve_la_pricing(inst, sets, table, duals, "bellman_ford")
        worst_obj = max(worst_obj, abs(a.reduced_cost - b.reduced_cost))
        rate = a.diagnostics.offset_rate
        worst_shift = max(
            worst_shift,
            abs(a.diagnostics.adjusted_cost - (a.reduced_cost + rate * inst.capacity)),
        )
        index = build_arc_index(table, sets, inst.capacity)
        index.bind_duals(duals)
        min_edge = math.inf
        for u in inst.customers:
            for m1 in range(1 << inst.n):
                if m1 & ~sets.ng_mask(u) or (m1 >> (u - 1)) & 1:
                    continue
                bck = index.successors(u, m1)
                adj = bck.dense + rate * np.arange(inst.capacity + 1)[None, :]
                fin = adj[np.isfinite(adj)]
                if fin.size:
                    min_edge = min(min_edge, float(fin.min()))
                for d in range(1, inst.capacity + 1):
                    if np.isfinite(bck.sink_pref[d]):
                        min_edge = min(min_edge, float(bck.sink_pref[d] + rate * d))
                for grp in bck.dirty.values():
                    for *_, neg_zd, w in grp:
                        min_edge = min(min_edge, w + rate * -neg_zd)
        worst_edge = min(worst_edge, min_edge)
    ok = worst_obj <= 1e-9 and worst_edge >= -1e-9 and worst_shift <= 1e-9
    _report(4, ok,
            f"dijkstra == bellman-ford over 30 dual vectors (max diff {worst_obj:.2e}), "
            f"min offset-adjusted edge weight {worst_edge:.2e} >= -1e-9, "
            f"path-cost recovery off by exactly rate*capacity (err {worst_shift:.2e})")


def test_criterion_05_end_to_end_lp_exactness():
    rnd = random.Random(105)
    worst = 0.0
    for i in range(20):
        inst = _tiny_instance(rnd, 50_000 + i)
        elem = oracle.enumerate_routes(inst, "elementary")
        want = float(oracle.lp_over_routes(elem, inst))
        res = solve(inst, CgConfig(la_k=min(3, inst.n - 1)))
        assert res.status == "optimal"
        worst = max(worst, abs(res.objective - want))
    _report(5, worst <= 1e-6,
            f"column generation == LP over the full elementary set on 20 tiny "
            f"instances, max |diff| = {worst:.2e} <= 1e-6")


def test_criterion_06_relaxation_ordering():
    rnd = random.Random(106)
    checked = 0
    ok = True
    for i in range(10):
        n = rnd.randint(4, 6)
        inst = generate_instance(60_000 + i, n, rnd.randint(3, 4), "unit")
        cm = cost_matrix(inst)
        sets = build_la_neighbors(inst, 2, cm)
        for u in inst.customers:
            for v in sets.la(u):
                augment_ng(sets, u, v)  # fixed spatial ng sets
        v_elem = oracle.lp_over_routes(oracle.enumerate_routes(inst, "elementary", sets), inst)
        v_la = oracle.lp_over_routes(oracle.enumerate_routes(inst, "la", sets), inst)
        v_ng = oracle.lp_over_routes(oracle.enumerate_routes(inst, "ng", sets), inst)
        ok = ok and (v_elem >= v_la >= v_ng)  # exact rationals
        checked += 1
    _report(6, ok,
            f"objective(elementary) >= objective(la) >= objective(ng) on "
            f"{checked} instances with fixed spatial ng sets (exact rational LPs)")


@pytest.mark.slow
def test_criterion_07_arm_invariance(bench_results):
    worst = 0.0
    pairs = 0
    for key, arms in bench_results.items():
        if arms[0].status != "optimal" or arms[10].status != "optimal":
            continue
        worst = max(worst, abs(arms[0].objective - arms[10].objective))
        pairs += 1
    _report(7, pairs > 0 and worst <= 1e-6,
            f"la0 and la10 objectives equal to 1e-6 on {pairs} benchmark "
            f"instances, max |diff| = {worst:.2e}")


@pytest.mark.slow
def test_criterion_08_directional_speedup(bench_results):
    f5s, f10s = [], []
    for key, arms in bench_results.items():
        if any(arms[k].status != "optimal" for k in (0, 5, 10)):
            continue
        base = arms[0].pricing_time
        f5s.append(base / arms[5].pricing_time)
        f10s.append(base / arms[10].pricing_time)
    med5 = statistics.median(f5s)
    med10 = statistics.median(f10s)
    ok = len(f10s) >= 10 and med10 >= 2.0 and med10 >= med5 >= 1.0
    _report(8, ok,
            f"median pricing speed-up over la0 on {len(f10s)} instances "
            f"(n in {{30,40}}): la10 = {med10:.2f}x (>= 2), la5 = {med5:.2f}x, "
            f"la10 >= la5 >= 1")


def test_criterion_09_cli_determinism(tmp_path):
    from lacg.instances import write_instance
    inst = generate_instance(9, 12, 5, "unit")
    ipath = tmp_path / "det.txt"
    write_instance(inst, ipath)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "lacg.cli", "solve", "--instance", str(ipath),
             "--la-neighbors", "5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        outs.append(next(out.glob("trace_*.csv")).read_bytes())
    _report(9, outs[0] == outs[1],
            "identical CLI invocations produce byte-identical trace CSVs")


def test_criterion_10_dssr_progress():
    rnd = random.Random(110)
    calls = 0
    mono = True
    growth = True
    for i in range(12):
        inst = _tiny_instance(rnd, 70_000 + i)
        cm = cost_matrix(inst)
        sets = build_la_neighbors(inst, rnd.randint(0, min(3, inst.n - 1)), cm)
        table = compute_component_paths(inst, sets, cm)
        for _ in range(8):
            duals = _rand_duals(inst, cm, rnd)
            res = price_elementary(inst, sets, table, duals)
            objs = [row.objective for row in res.log]
            mono = mono and all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
            ngs = [row.ng_total for row in res.log]
            growth = growth and all(b > a for a, b in zip(ngs, ngs[1:]))
            calls += 1
    # one mid-size run for good measure
    inst = generate_instance(71_000, 15, 6, "unit")
    cm = cost_matrix(inst)
    sets = build_la_neighbors(inst, 5, cm)
    table = compute_component_paths(inst, sets, cm)
    for s in range(10):
        duals = _rand_duals(inst, cm, random.Random(200 + s))
        res = price_elementary(inst, sets, table, duals)
        objs = [row.objective for row in res.log]
        mono = mono and all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        ngs = [row.ng_total for row in res.log]
        growth = growth and all(b > a for a, b in zip(ngs, ngs[1:]))
        calls += 1
    _report(10, mono and growth,
            f"over {calls} pricing calls: relaxed objectives non-decreasing "
            f"across state-space iterations and total ng size strictly grows")
