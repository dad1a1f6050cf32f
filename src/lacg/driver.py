"""Outer column-generation loop: alternate the set-cover RMP with exact
elementary pricing until no negative-reduced-cost route exists.

Per iteration the driver adds the exact pricing minimizer plus every bonus
column the relaxation loop trimmed out along the way (single_column=True
restricts to the minimizer alone).  Termination requires an *exact* pricing
round with minimum reduced cost above -RC_STOP_TOL, which certifies LP
optimality over all elementary routes; the result then carries a
Certificate, figures from which that claim can be checked.  A time limit is
also passed into each pricing call as a deadline, so it bounds the work
inside a call, not only between calls; the first search of a call and one
RMP solve can still run past it.

The restricted masters of a run differ only by appended columns, so one
`rmp.Master` serves them all: it keeps the cover block and the simplex
record between solves, and each solve scatters and replays only the new
columns, with the result of a fresh solve.

The trace keeps one row per iteration.  Wall times are accumulated on the
result object and written to the run summary, never into the trace CSV, so
identical invocations produce byte-identical trace files; the set-up's split
(cost matrix, neighbors, arc table, index), the arc count and the bytes of
the table's subset DP layers go to one DEBUG log line, and each iteration's
RMP seconds and pivot split to another.  The trace's Lagrangian bound is the
RMP value plus the fleet size times the (clamped) minimum reduced cost.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field

from .instances import Instance, CostMatrix, InstanceError, cost_matrix
from .neighbors import build_la_neighbors
from .routes import DualSolution, reduced_cost
from .arcs import compute_component_paths, ArcIndex
from .dssr import price_elementary
from .rmp import Column, Master, make_column, initial_columns, solve_rmp, lagrangian_bound

log = logging.getLogger(__name__)

RC_ADD_TOL = 1e-9  # a route enters the pool below -RC_ADD_TOL
RC_STOP_TOL = 1e-6  # an exact pricing round at or above -RC_STOP_TOL ends the run


@dataclass
class CgConfig:
    la_k: int = 5
    cycle_rule: str = "min_nodes_added"
    early_exit: str = "off"
    single_column: bool = False
    time_limit: float | None = None
    max_iterations: int | None = None

    @property
    def arm(self) -> str:
        return f"la{self.la_k}"


@dataclass
class TraceRow:
    iteration: int
    rmp_objective: float
    min_reduced_cost: float
    lagrangian_bound: float
    dssr_iterations: int
    nodes_expanded: int
    edges_relaxed: int
    columns_added: int
    pivots: int  # RMP simplex pivots on the full tableau
    replayed: int  # RMP simplex pivots taken from the replay record


# wall times are excluded on purpose: trace files must be reproducible
TRACE_CSV_FIELDS = (
    "iteration", "rmp_objective", "min_reduced_cost", "lagrangian_bound",
    "dssr_iterations", "nodes_expanded", "edges_relaxed", "columns_added", "pivots",
    "replayed",
)


@dataclass
class CgTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(TRACE_CSV_FIELDS)
            for r in self.rows:
                w.writerow([
                    r.iteration, repr(r.rmp_objective), repr(r.min_reduced_cost),
                    repr(r.lagrangian_bound), r.dssr_iterations,
                    r.nodes_expanded, r.edges_relaxed, r.columns_added, r.pivots,
                    r.replayed,
                ])


@dataclass(frozen=True)
class Certificate:
    """Evidence that an `optimal` run's objective is the LP optimum over
    elementary routes, from the returned columns, weights and duals.

    The weights are feasible (nonnegative, every customer covered at least
    once, the fleet respected), the duals are feasible (no pool column, and by the
    last exact pricing call no elementary route, prices below zero), and the
    two objectives meet.
    """

    min_cover: float  # least visit-weighted cover of a customer: >= 1
    min_theta: float  # least weight: >= 0
    theta_sum: float  # total weight: <= fleet
    fleet: int
    min_pool_rc: float  # least reduced cost of a pool column: >= 0
    min_pricing_rc: float  # minimum of the last exact pricing call: >= 0
    objective: float  # of the weights
    dual_objective: float  # sum(pi) - fleet * pi0: equals the objective

    def holds(self, tol: float = 1e-6) -> bool:
        return (self.min_cover >= 1 - tol and self.min_theta >= -tol
                and self.theta_sum <= self.fleet + tol
                and self.min_pool_rc >= -tol and self.min_pricing_rc >= -tol
                and abs(self.objective - self.dual_objective) <= tol * max(1.0, abs(self.objective)))


def certify(inst: Instance, costs: CostMatrix, columns: list[Column], theta: list[float],
            duals: DualSolution, objective: float, min_pricing_rc: float) -> Certificate:
    """The Certificate of an RMP solution and the pricing minimum under its duals."""
    cover = dict.fromkeys(inst.customers, 0.0)
    for col, t in zip(columns, theta):
        for u, visits in col.cover.items():
            cover[u] += visits * t
    return Certificate(
        min_cover=min(cover.values()), min_theta=min(theta), theta_sum=sum(theta),
        fleet=inst.fleet,
        min_pool_rc=min(reduced_cost(col.route, duals, costs) for col in columns),
        min_pricing_rc=min_pricing_rc, objective=objective,
        dual_objective=sum(duals.value(u) for u in inst.customers) - inst.fleet * duals.pi0,
    )


@dataclass
class CgResult:
    status: str  # optimal | time_limit | max_iterations | stalled
    objective: float
    columns: list[Column]
    theta: list[float]
    duals: DualSolution
    trace: CgTrace
    iterations: int
    total_time: float
    pricing_time: float
    rmp_time: float
    setup_time: float
    # pricing results already in the pool with negative reduced cost: a pool
    # column cannot price negative under the duals of an optimal RMP, so a
    # nonzero count means the duals and pricing disagree
    repeated_columns: int = 0
    certificate: Certificate | None = None  # set when status is optimal


def solve(inst: Instance, config: CgConfig | None = None) -> CgResult:
    config = config or CgConfig()
    t_start = time.perf_counter()
    deadline = None if config.time_limit is None else t_start + config.time_limit
    costs = cost_matrix(inst)
    t_costs = time.perf_counter()
    sets = build_la_neighbors(inst, config.la_k, costs)
    t_sets = time.perf_counter()
    table = compute_component_paths(inst, sets, costs)
    t_table = time.perf_counter()
    index = ArcIndex(table, sets, inst.capacity)
    t_index = time.perf_counter()
    setup_time = t_index - t_start
    log.debug("%s set-up %.2f ms: cost matrix %.2f, neighbors %.2f, table %.2f, index %.2f; "
              "%d arcs, DP layers %d bytes", config.arm, 1e3 * setup_time,
              1e3 * (t_costs - t_start), 1e3 * (t_sets - t_costs), 1e3 * (t_table - t_sets),
              1e3 * (t_index - t_table), table.arc_count(), table.layer_bytes)

    columns = initial_columns(inst, costs)
    master = Master(inst.n, inst.fleet)
    pool = {c.route.seq for c in columns}
    trace = CgTrace()
    pricing_time = 0.0
    rmp_time = 0.0
    status = "stalled"
    sol = None
    duals = DualSolution(pi={}, pi0=0.0)
    it = 0
    repeated = 0
    certificate = None
    while True:
        it += 1
        t0 = time.perf_counter()
        sol = solve_rmp(columns, inst.n, inst.fleet, master=master)
        t1 = time.perf_counter()
        rmp_time += t1 - t0
        if sol.status != "optimal":
            # only the first master can be infeasible: later ones add columns
            raise InstanceError(f"{inst.name}: FLEET {inst.fleet} is too small for the "
                                f"initial columns; the first restricted master is infeasible")
        duals = sol.duals

        res = price_elementary(
            inst, sets, table, duals,
            cycle_rule=config.cycle_rule, early_exit=config.early_exit, index=index,
            deadline=deadline,
        )
        t2 = time.perf_counter()
        pricing_time += t2 - t1

        min_rc = res.reduced_cost
        log.debug("iteration %d: rmp objective %r, min reduced cost %r, %d DSSR iterations, "
                  "%d nodes, %d edges; rmp %.2f ms, %d pivots, %d replayed", it, sol.objective,
                  min_rc, res.iterations, res.nodes_expanded, res.edges_relaxed,
                  1e3 * (t1 - t0), sol.pivots, sol.replayed)
        bound = (
            lagrangian_bound(sol.objective, min_rc, inst.fleet)
            if res.exact else float("nan")
        )
        row = TraceRow(
            iteration=it, rmp_objective=sol.objective, min_reduced_cost=min_rc,
            lagrangian_bound=bound, dssr_iterations=res.iterations,
            nodes_expanded=res.nodes_expanded, edges_relaxed=res.edges_relaxed,
            columns_added=0, pivots=sol.pivots, replayed=sol.replayed,
        )
        trace.rows.append(row)
        if res.exact and min_rc >= -RC_STOP_TOL:
            status = "optimal"
            certificate = certify(inst, costs, columns, sol.theta, duals, sol.objective, min_rc)
            break

        candidates: dict[tuple, tuple] = {}
        if not config.single_column:
            for route, rc in res.early_columns:
                candidates[route.seq] = (route, rc)
        candidates[res.route.seq] = (res.route, res.reduced_cost)
        added = 0
        for route, rc in candidates.values():
            if rc >= -RC_ADD_TOL:
                continue
            if route.seq in pool:
                repeated += 1
                log.warning("pricing returned existing column %s (rc=%g)", route.seq, rc)
                continue
            pool.add(route.seq)
            columns.append(make_column(route, costs))
            added += 1
        row.columns_added = added
        out_of_time = deadline is not None and time.perf_counter() > deadline
        # a route priced negative but nothing new came of it; a call cut
        # short by the deadline with no negative route ends as time_limit
        if added == 0 and (min_rc < -RC_ADD_TOL or not out_of_time):
            log.warning("no column added despite negative reduced cost; stopping")
            status = "stalled"
            break
        if out_of_time:
            status = "time_limit"
            break
        if config.max_iterations is not None and it >= config.max_iterations:
            status = "max_iterations"
            break

    total = time.perf_counter() - t_start
    return CgResult(
        status=status, objective=sol.objective, columns=columns, theta=sol.theta,
        duals=duals, trace=trace, iterations=it, total_time=total,
        pricing_time=pricing_time, rmp_time=rmp_time, setup_time=setup_time,
        repeated_columns=repeated, certificate=certificate,
    )
