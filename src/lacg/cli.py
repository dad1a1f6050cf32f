"""Benchmark command line: dataset generation, solver runs, speed-up tables.

Subcommands
    gen           write a benchmark dataset of random instances
    solve         run one (instance, arm) job; writes trace + summary CSVs
    speedup       aggregate factor speed-ups of la-k arms over the la0 baseline
    oracle-suite  quick brute-force self-checks on tiny instances

Every subcommand takes --log-level (debug, info, warning, error; default
warning), the level of the `lacg.*` module loggers, which write to standard
error.  At warning the driver reports a pricing result that is already a
pool column; error silences it, and debug adds one line per
column-generation iteration.

Exit codes: 0 success, 1 failed checks, 2 validation error.  `solve` exits
by the run's status:
    optimal     0  the LP optimum over elementary routes, certified by an
                   exact pricing round
    stalled     1  a failed self-check: pricing found a negative reduced
                   cost but no new column to add; an optimal run whose
                   certificate fails its check also exits 1
    time_limit  3  stopped by --time-limit before optimality; the files hold
                   the last restricted master.  The limit is checked after
                   every relax-and-forbid iteration of a pricing call and
                   inside every search after a call's first, so a run can
                   overrun it by the first search of a call plus one RMP
                   solve

An optimal run also prints its certificate and writes it to the summary
CSV: the least cover of a customer (>= 1), the least weight (>= 0), the
total weight against the fleet, the least reduced cost of a pool column and the last exact pricing
minimum under the final duals (both >= 0 up to 1e-6), and the dual
objective, which must equal the objective.  Other runs leave those
columns empty.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from .instances import (
    SplitMix64, generate_instance, read_instance, write_instance,
    cost_matrix, InstanceError,
)
from .neighbors import build_la_neighbors
from .routes import DualSolution
from .arcs import compute_component_paths
from .dssr import price_elementary
from . import oracle
from .driver import CgConfig, solve
from .rmp import dump_columns

log = logging.getLogger(__name__)

# (capacity, customers, count) rows of the two benchmark datasets
DATASET1 = [
    (4, 20, 10), (4, 30, 10), (4, 40, 10),
    (8, 20, 10), (8, 30, 10), (8, 40, 7), (8, 60, 1),
    (10, 20, 10), (10, 30, 7),
]
DATASET2 = [
    (20, 20, 10), (20, 30, 10), (20, 40, 10),
    (30, 20, 10), (30, 30, 10), (30, 40, 5),
    (40, 20, 10), (40, 30, 10),
]

SPEEDUP_THRESHOLDS = (1, 2, 5, 10, 20, 40, 60)

SOLVE_EXIT = {"optimal": 0, "stalled": 1, "time_limit": 3}

CERTIFICATE_FIELDS = (
    "min_cover", "min_theta", "theta_sum", "min_pool_rc", "min_pricing_rc", "dual_objective",
)
SUMMARY_FIELDS = (
    "instance", "arm", "status", "objective", "iterations",
    "total_secs", "pricing_secs", "rmp_secs", "setup_secs", "repeated_columns",
) + CERTIFICATE_FIELDS


def cmd_generate(args) -> int:
    rows = DATASET1 if args.dataset == 1 else DATASET2
    mode = "unit" if args.dataset == 1 else "uniform_1_10"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.base_seed
    written = 0
    for cap, n, count in rows:
        for i in range(count):
            inst = generate_instance(seed, n, cap, mode)
            path = out / f"d{args.dataset}_c{cap}_n{n}_i{i:02d}.txt"
            write_instance(inst, path)
            seed += 1
            written += 1
    print(f"wrote {written} instances to {out}")
    return 0


def cmd_solve(args) -> int:
    try:
        inst = read_instance(args.instance)
    except (OSError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = CgConfig(
        la_k=args.la_neighbors,
        cycle_rule="min_nodes_added" if args.cycle_rule == "min-nodes" else "shortest_cycle",
        early_exit="first_negative" if args.early_exit == "first-negative" else "off",
        single_column=args.single_column,
        time_limit=args.time_limit,
    )
    try:
        res = solve(inst, config)
    except InstanceError as exc:  # a fleet too small for the first master
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    arm = config.arm
    cert = res.certificate
    res.trace.write_csv(out / f"trace_{inst.name}_{arm}.csv")
    dump_columns(res.columns, res.theta, out / f"columns_{inst.name}_{arm}.csv")
    with open(out / f"summary_{inst.name}_{arm}.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(SUMMARY_FIELDS)
        w.writerow([
            inst.name, arm, res.status, repr(res.objective), res.iterations,
            f"{res.total_time:.6f}", f"{res.pricing_time:.6f}",
            f"{res.rmp_time:.6f}", f"{res.setup_time:.6f}", res.repeated_columns,
        ] + [repr(getattr(cert, name)) if cert else "" for name in CERTIFICATE_FIELDS])
    rows = res.trace.rows
    print(
        f"{inst.name} {arm} {res.status} objective={res.objective:.6f} "
        f"iterations={res.iterations} total={res.total_time:.3f}s "
        f"pricing={res.pricing_time:.3f}s rmp={res.rmp_time:.3f}s "
        f"edges={sum(r.edges_relaxed for r in rows)} "
        f"pivots={sum(r.pivots for r in rows)} replayed={sum(r.replayed for r in rows)}"
    )
    if cert:
        print(
            f"certificate {'holds' if cert.holds() else 'FAILS'}: "
            f"min_cover={cert.min_cover:.9f} min_theta={cert.min_theta:.3e} "
            f"theta_sum={cert.theta_sum:.6f}/{cert.fleet} "
            f"min_pool_rc={cert.min_pool_rc:.3e} min_pricing_rc={cert.min_pricing_rc:.3e} "
            f"dual_objective={cert.dual_objective:.6f}"
        )
        if not cert.holds():
            log.warning("the certificate of the optimal run fails its check")
            return 1
    return SOLVE_EXIT[res.status]


def _read_summaries(dirpath: Path) -> dict[tuple[str, str], dict]:
    runs = {}
    for path in sorted(dirpath.glob("summary_*.csv")):
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                runs[(row["instance"], row["arm"])] = {
                    "status": row["status"],
                    "total": float(row["total_secs"]),
                    "pricing": float(row["pricing_secs"]),
                }
    return runs


def cmd_speedup(args) -> int:
    dirpath = Path(args.dir)
    runs = _read_summaries(dirpath)
    if not runs:
        print(f"error: no summary files in {dirpath}", file=sys.stderr)
        return 2
    for (name, arm), run in sorted(runs.items()):
        if run["status"] != "optimal":
            # times of an unfinished run say nothing about the arm's speed
            print(f"error: {arm} run for {name} has status {run['status']}", file=sys.stderr)
            return 2
    arms = sorted({arm for _, arm in runs} - {"la0"})
    instances = sorted({name for name, arm in runs if arm == "la0"})
    if not instances or not arms:
        print("error: need la0 plus at least one other arm", file=sys.stderr)
        return 2
    per_rows = []
    eligible: dict[str, list[tuple[float, float]]] = {a: [] for a in arms}
    for name in instances:
        base = runs[(name, "la0")]
        for arm in arms:
            run = runs.get((name, arm))
            if run is None:
                print(f"error: missing {arm} run for {name}", file=sys.stderr)
                return 2
            ft = base["total"] / run["total"] if run["total"] > 0 else float("inf")
            fp = base["pricing"] / run["pricing"] if run["pricing"] > 0 else float("inf")
            per_rows.append((name, arm, ft, fp))
            if base["total"] >= args.min_baseline_secs:
                eligible[arm].append((ft, fp))
    with open(dirpath / "speedup_instances.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["instance", "arm", "total_factor", "pricing_factor"])
        for row in per_rows:
            w.writerow([row[0], row[1], f"{row[2]:.4f}", f"{row[3]:.4f}"])
    with open(dirpath / "speedup.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["metric", "arm", "factor", "proportion", "instances"])
        for metric, idx in (("total", 0), ("pricing", 1)):
            for arm in arms:
                pool = eligible[arm]
                for thr in SPEEDUP_THRESHOLDS:
                    prop = (
                        sum(1 for fs in pool if fs[idx] >= thr) / len(pool)
                        if pool else 0.0
                    )
                    w.writerow([metric, arm, thr, f"{prop:.4f}", len(pool)])
    print(f"wrote {dirpath / 'speedup.csv'} ({len(instances)} instances, arms: {', '.join(arms)})")
    return 0


def cmd_oracle_suite(args) -> int:
    failures = 0
    rng = SplitMix64(20240801)
    for trial in range(args.trials):
        n = 3 + int(rng.next_float() * (args.max_n - 2))
        cap = 3 + int(rng.next_float() * 3)
        mode = "unit" if trial % 2 == 0 else "uniform_1_10"
        if mode == "uniform_1_10":
            cap = max(cap, 10)
        inst = generate_instance(1000 + trial, n, cap, mode)
        costs = cost_matrix(inst)
        sets = build_la_neighbors(inst, min(3, n - 1), costs)
        table = compute_component_paths(inst, sets, costs)
        elem = oracle.enumerate_routes(inst, "elementary")
        pi = {u: 2.0 * costs.cost(-1, u) * rng.next_float() for u in inst.customers}
        duals = DualSolution(pi=pi, pi0=rng.next_float())
        want_route, want = oracle.brute_pricing(elem, duals, costs)
        got = price_elementary(inst, sets, table, duals)
        ok = abs(got.reduced_cost - want) <= 1e-6
        status = "PASS" if ok else "FAIL"
        print(
            f"{status} oracle-suite trial={trial} n={n} cap={cap} mode={mode} "
            f"exact={got.reduced_cost:.9f} brute={want:.9f}"
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


LOG_LEVELS = ("debug", "info", "warning", "error")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lacg", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="level of the lacg.* loggers (default: warning)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common], help="generate a benchmark dataset")
    g.add_argument("--dataset", type=int, choices=(1, 2), required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--base-seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", parents=[common], help="run one instance with one arm")
    s.add_argument("--instance", required=True)
    s.add_argument("--la-neighbors", type=int, choices=(0, 5, 10), default=0)
    s.add_argument("--cycle-rule", choices=("min-nodes", "shortest"), default="min-nodes")
    s.add_argument("--early-exit", choices=("off", "first-negative"), default="off")
    s.add_argument("--single-column", action="store_true")
    s.add_argument("--time-limit", type=float, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    u = sub.add_parser("speedup", parents=[common],
                       help="factor speed-ups versus the la0 baseline")
    u.add_argument("--dir", required=True)
    u.add_argument("--min-baseline-secs", type=float, default=5.0)
    u.set_defaults(func=cmd_speedup)

    o = sub.add_parser("oracle-suite", parents=[common],
                       help="brute-force cross-checks on tiny instances")
    o.add_argument("--max-n", type=int, default=7)
    o.add_argument("--trials", type=int, default=6)
    o.set_defaults(func=cmd_oracle_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a no-op when the root logger already has a handler (an embedding app)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("lacg").setLevel(args.log_level.upper())
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
