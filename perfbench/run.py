"""Benchmark of lacg column generation: arms la0 and la10 on fixed instances.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unit-n70 --seed 1 --seconds 58 --trace 0

A job is one `lacg.driver.solve` call on one (instance, arm) pair; a round
runs arm la0 and then arm la10 on the workload's instance.  Rounds repeat in
this one process while another round, as long as the last, still ends within
`--seconds` (at least one round), and each end-to-end metric is the median
over rounds.  Set-up time is also sampled by extra solves stopped where
set-up ends, so that `setup_s` is a median of SETUP_SAMPLES set-ups per arm.
No warm-up runs: users pay set-up on every solve.

With `--trace 1` every round solves each arm once untraced and once under the
outside-in tracer of `tracer.py`, and prints the per-layer metrics instead;
the spans go to `.perfbench_out/` when the run ends.

Every job is checked: status optimal, an LP certificate recomputed here from
the returned columns, weights and duals, agreement of the two arms'
objectives, and exact repeats of the deterministic counters (CG iterations,
DSSR iterations, nodes expanded, final columns, arcs).  On a workload's
recorded instance the objective and the counters must also equal the
recorded values.

The instance of a workload is fixed: `--seed` is recorded but changes no
input.  Another instance of the same family changes the work itself (on
instance seed 5, n=20, capacity 8, relabelling the customers alone moved
la10 CG iterations from 99 to between 82 and 163), which no bound on
run-to-run spread could absorb.  To re-check a claim
on an instance not used while writing it, pass `--instance-seed`; the
reference checks then fall back to arm agreement and the certificate.

Python and numpy versions, nproc and the CPU model go to standard output
and, with every job's raw figures, to `.perfbench_out/`.  The last line of
standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; metric names and units are those of
BENCHMARK.json at the checkout root.
"""

import os

# pin native thread pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

ARMS = (0, 10)
SETUP_SAMPLES = 5
TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    n: int
    capacity: int
    demand_mode: str
    objective: float  # LP optimum over elementary routes at `seed`
    # arm -> (CG iterations, DSSR iterations, nodes expanded, final columns, arcs)
    counters: dict


# Why each workload is here: see the "why" lines of BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("unit-n70", 7, 70, 4, "unit", 24183.401704499596, {
        0: (208, 3476, 202023, 681, 4900), 10: (234, 1069, 7782, 487, 739200)}),
    Workload("demand-c20", 105, 30, 20, "uniform_1_10", 10226.19883468979, {
        0: (68, 861, 196792, 354, 900), 10: (82, 562, 136610, 368, 107180)}),
)}


def load_lacg():
    """Import lacg from this checkout's sources; exit 2 if they are missing."""
    if not (SRC / "lacg" / "__init__.py").is_file():
        print(f"perfbench: no lacg sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lacg
    if Path(lacg.__file__).resolve().parent != (SRC / "lacg").resolve():
        print(f"perfbench: imported lacg from {lacg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


@dataclass
class Job:
    arm: int
    traced: bool
    solve_s: float
    pricing_s: float
    setup_s: float
    objective: float
    counters: tuple
    columns_added: int
    tracer: object
    errors: list = field(default_factory=list)


@contextmanager
def keep_tables(out: list):
    """Collect the arc tables `driver.solve` builds, to read their arc count."""
    from lacg import driver
    original = driver.compute_component_paths

    def build(*args, **kwargs):
        table = original(*args, **kwargs)
        out.append(table)
        return table

    driver.compute_component_paths = build
    try:
        yield
    finally:
        driver.compute_component_paths = original


def certificate_errors(inst, costs, res) -> list:
    """Check from outside that the returned (columns, theta, duals) certify an LP optimum."""
    from lacg.routes import reduced_cost
    errors = []
    if len(res.theta) != len(res.columns):
        return [f"{len(res.theta)} weights for {len(res.columns)} columns"]
    worst = min(reduced_cost(col.route, res.duals, costs) for col in res.columns)
    if worst < -TOL:
        errors.append(f"pool column prices at {worst!r} under the final duals")
    cover = dict.fromkeys(inst.customers, 0.0)
    for col, theta in zip(res.columns, res.theta):
        for u, visits in col.cover.items():
            cover[u] += visits * theta
    if min(cover.values()) < 1 - TOL:
        errors.append(f"a customer is covered to {min(cover.values())!r} only")
    if min(res.theta) < -TOL or sum(res.theta) > inst.fleet + TOL:
        errors.append(f"weights outside 0 <= theta, sum {sum(res.theta)!r} <= {inst.fleet}")
    return errors


def run_job(inst, costs, arm: int, tracer=None) -> Job:
    """Solve one (instance, arm) pair; an exception from the solver ends the run."""
    from lacg import driver
    tables = []
    config = driver.CgConfig(la_k=arm)
    with keep_tables(tables):
        t0 = time.perf_counter()
        if tracer is None:
            res = driver.solve(inst, config)
        else:
            with tracer.installed():
                res = driver.solve(inst, config)
        solve_s = time.perf_counter() - t0
    rows = res.trace.rows
    job = Job(
        arm=arm, traced=tracer is not None, solve_s=solve_s,
        pricing_s=res.pricing_time, setup_s=res.setup_time, objective=res.objective,
        counters=(res.iterations, sum(r.dssr_iterations for r in rows),
                  sum(r.nodes_expanded for r in rows), len(res.columns),
                  tables[0].arc_count()),
        columns_added=sum(r.columns_added for r in rows), tracer=tracer,
    )
    if tracer is not None:
        tracer.add_setup_span(res.setup_time)
    if res.status != "optimal":
        job.errors.append(f"status {res.status}")
    else:
        job.errors.extend(certificate_errors(inst, costs, res))
    return job


class _SetupDone(Exception):
    """Stops a set-up probe where `driver.solve` leaves its set-up phase."""


def setup_probe(inst, arm: int) -> float:
    """Seconds from entering `driver.solve` to the end of its set-up phase.

    The solve is stopped where it builds its initial columns, the first step
    after set-up, so a probe measures from outside the interval the driver
    reports as `setup_time`, and costs one set-up and no CG iteration.
    """
    from lacg import driver
    original = driver.initial_columns
    ended = []

    def stop(*args, **kwargs):
        ended.append(time.perf_counter())
        raise _SetupDone

    driver.initial_columns = stop
    t0 = time.perf_counter()
    try:
        driver.solve(inst, driver.CgConfig(la_k=arm))
    except _SetupDone:
        return ended[0] - t0
    finally:
        driver.initial_columns = original
    raise RuntimeError("driver.solve did not call initial_columns after set-up")


def check_jobs(jobs: list, wl: Workload, recorded: bool) -> None:
    """Cross-job checks: arm agreement per round, exact counter repeats."""
    first = {}
    for job in jobs:
        want = wl.counters[job.arm] if recorded else first.setdefault(job.arm, job.counters)
        if job.counters != want:
            job.errors.append(f"counters {job.counters} differ from {want}")
        if recorded and abs(job.objective - wl.objective) > TOL:
            job.errors.append(f"objective {job.objective!r} differs from {wl.objective!r}")
    for i in range(0, len(jobs), len(ARMS)):
        pair = jobs[i:i + len(ARMS)]
        if abs(pair[0].objective - pair[1].objective) > TOL:
            for job in pair:
                job.errors.append(
                    f"arms disagree: {pair[0].objective!r} vs {pair[1].objective!r}")


# -- metrics -------------------------------------------------------------------

def end_to_end(rounds: list, setups: dict) -> dict:
    med = statistics.median
    out = {}
    for arm in ARMS:
        out[f"solve_s.la{arm}"] = med(r[arm].solve_s for r in rounds)
        out[f"pricing_s.la{arm}"] = med(r[arm].pricing_s for r in rounds)
    out["setup_s"] = med(sum(s) for s in zip(*(setups[arm] for arm in ARMS)))
    return out


def job_layers(job: Job, untraced: Job) -> dict:
    """Additive per-layer quantities of one traced job."""
    t = job.tracer
    L = t.layer
    setup = job.setup_s
    return {
        "arcs.table_build_s": L("arcs.table_build").total_s,
        "arcs.arc_count": job.counters[4],
        "arcs.index_build_s": L("arcs.index_build").total_s,
        "arcs.successors_s": L("arcs.successors").total_s,
        "arcs.successors_calls": L("arcs.successors").calls,
        "arcs.bind_duals_s": L("arcs.bind_duals").total_s,
        "arcs.invalidate_s": L("arcs.invalidate").total_s,
        "arcs.invalidate_calls": L("arcs.invalidate").calls,
        "arcs.decode_s": L("arcs.decode").total_s,
        "pricing.heuristic_s": L("pricing.heuristic").total_s,
        "pricing.search_s": L("pricing.search").total_s,
        "pricing.search_calls": L("pricing.search").calls,
        "pricing.search_self_s": L("pricing.search").self_s,
        "pricing.nodes_expanded": t.counts["nodes_expanded"],
        "pricing.edges_relaxed": t.counts["edges_relaxed"],
        "dssr.price_s": L("dssr.price").total_s,
        "dssr.calls": L("dssr.price").calls,
        "dssr.iterations": t.counts["dssr_iterations"],
        "dssr.select_cycle_s": L("dssr.select_cycle").total_s,
        "dssr.ng_grows": t.counts["ng_grows"],
        "dssr.bonus_columns": t.counts["bonus_columns"],
        "rmp.solve_s": L("rmp.solve").total_s,
        "rmp.calls": L("rmp.solve").calls,
        "simplex.solve_s": L("simplex.solve").total_s,
        "simplex.lp_cells": t.counts["lp_cells"],
        "driver.cg_iterations": job.counters[0],
        "driver.columns_added": job.columns_added,
        "driver.self_s": job.solve_s - setup - L("dssr.price").total_s - L("rmp.solve").total_s,
        "trace.overhead_s": job.solve_s - untraced.solve_s,
    }


def with_ratios(m: dict) -> dict:
    m = dict(m)
    m["rmp.build_s"] = m["rmp.solve_s"] - m["simplex.solve_s"]
    m["pricing.edges_per_node"] = m["pricing.edges_relaxed"] / max(m["pricing.nodes_expanded"], 1)
    m["dssr.iterations_per_call"] = m["dssr.iterations"] / max(m["dssr.calls"], 1)
    m["driver.columns_per_iteration"] = m["driver.columns_added"] / max(m["driver.cg_iterations"], 1)
    return m


def per_layer(rounds: list) -> dict:
    """Per-layer metrics of each round (summed over arms and per arm), median over rounds."""
    samples = []
    for r in rounds:
        arms = {arm: job_layers(r["traced"][arm], r[arm]) for arm in ARMS}
        total = {k: sum(arms[arm][k] for arm in ARMS) for k in arms[ARMS[0]]}
        sample = with_ratios(total)
        for arm in ARMS:
            sample.update({f"{k}.la{arm}": v for k, v in with_ratios(arms[arm]).items()})
        sample["pricing_speedup.la10"] = r[0].pricing_s / r[10].pricing_s
        samples.append(sample)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- run -----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="run seed; recorded, changes no input (see the module docstring)")
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for the rounds of jobs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seed", type=int, default=None,
                   help="generate the workload's instance family from this seed instead")
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_lacg()
    from lacg.instances import cost_matrix, generate_instance
    from tracer import Tracer

    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.instance_seed is None else args.instance_seed
    recorded = seed == wl.seed
    inst = generate_instance(seed, wl.n, wl.capacity, wl.demand_mode)
    costs = cost_matrix(inst)
    env = environment()
    print("perfbench env " + json.dumps(env), flush=True)

    t_start = time.perf_counter()
    rounds = []
    last = 0.0  # duration of the last round, taken as that of the next
    while not rounds or time.perf_counter() - t_start + last <= args.seconds:
        t_round = time.perf_counter()
        rnd = {arm: run_job(inst, costs, arm) for arm in ARMS}
        if args.trace:
            rnd["traced"] = {arm: run_job(inst, costs, arm, Tracer()) for arm in ARMS}
        rounds.append(rnd)
        last = time.perf_counter() - t_round
    jobs = [r[arm] for r in rounds for arm in ARMS]
    if args.trace:
        jobs += [r["traced"][arm] for r in rounds for arm in ARMS]
    check_jobs(jobs, wl, recorded)
    failed = [job for job in jobs if job.errors]
    for job in failed:
        for err in job.errors:
            print(f"perfbench: la{job.arm}{' traced' if job.traced else ''}: {err}",
                  file=sys.stderr)

    if args.trace:
        values = per_layer(rounds)
    else:
        setups = {arm: [r[arm].setup_s for r in rounds] for arm in ARMS}
        for arm in ARMS:
            while len(setups[arm]) < SETUP_SAMPLES:
                setups[arm].append(setup_probe(inst, arm))
        values = end_to_end(rounds, setups)

    units = declared_metrics(bool(args.trace))
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "instance_seed": seed, "env": env,
        "rounds": len(rounds),
        "jobs": [{"arm": j.arm, "traced": j.traced, "solve_s": j.solve_s,
                  "pricing_s": j.pricing_s, "setup_s": j.setup_s,
                  "objective": j.objective, "counters": j.counters,
                  "errors": j.errors} for j in jobs],
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [
            dict(span, job=i, arm=job.arm, start=span["start"] - t_start,
                 end=span["end"] - t_start)
            for i, job in enumerate(jobs) if job.tracer for span in job.tracer.spans
        ]
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": not failed, "attempted": len(jobs), "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
