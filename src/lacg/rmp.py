"""Restricted master problem: the set-cover LP over the columns found so far.

    min  sum_l cost_l * theta_l
    s.t. sum_l cover_ul * theta_l >= 1   for every customer u   [pi_u]
         sum_l theta_l           <= K                           [-pi_0]
         theta >= 0

Cover coefficients are visit counts so the same formula prices relaxed
(non-elementary) routes.  The columns' visit counts are scattered into a
dense float block (work proportional to the nonzeros) and the LP is solved
with the bundled simplex; exact=True switches to rational arithmetic.  The
result is a function of the column list alone, so a run's duals, and with
them its whole CG trajectory, repeat exactly.

A `Master` keeps one run's LP between solves: a solve scatters only the
columns appended since the last one into a new block, which it concatenates
onto its cover block, and extends its cost vector; its `simplex.Replay`
record lets the simplex replay the last solve's pivots on the new columns
alone until a pivot choice differs.
The result is bit for bit the from-scratch one.  A warm start from the last
basis is not used: it may stop at another optimal dual vertex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .instances import Instance, CostMatrix
from .routes import Route, DualSolution, route_cost, make_route
from . import simplex


@dataclass(frozen=True)
class Column:
    route: Route
    cost: float
    cover: dict[int, int]


@dataclass
class RmpSolution:
    status: str  # optimal | infeasible
    theta: list[float]
    objective: float
    duals: DualSolution
    pivots: int = 0  # simplex pivots on the full tableau
    replayed: int = 0  # simplex pivots taken from the replay record


def make_column(route: Route, costs: CostMatrix) -> Column:
    return Column(route=route, cost=route_cost(route, costs), cover=route.visit_counts())


def initial_columns(inst: Instance, costs: CostMatrix) -> list[Column]:
    """One real single-customer route per customer.

    With a fleet smaller than n those alone are infeasible, so the routes of
    one packing of the customers in id order are added (a route closes when
    the next customer does not fit); the RMP is then feasible whenever that
    packing needs at most the fleet.
    """
    cols = [make_column(make_route([u], inst), costs) for u in inst.customers]
    if inst.fleet < inst.n:
        packed = [[]]
        load = 0
        for u in inst.customers:
            if load + inst.demand[u] > inst.capacity:
                packed.append([])
                load = 0
            packed[-1].append(u)
            load += inst.demand[u]
        cols += [make_column(make_route(r, inst), costs) for r in packed if len(r) > 1]
    return cols


class Master:
    """The restricted master of one column-generation run, kept across its solves.

    It owns the cover block and cost vector of the columns solved so far and
    the `simplex.Replay` record of its last solve.  A solve scatters only the
    columns appended since the last one and replays the last solve's pivots
    on them.  A column list that is not the last one plus appended columns
    starts over: a fresh block, a fresh record and a cold solve.
    """

    def __init__(self, n: int, K: int):
        self.n = n
        self.K = K
        self._start_over()

    def _start_over(self):
        self._columns: list[Column] = []  # the last solve's, to check appends
        self._cover = np.zeros((self.n + 1, 0))
        self._cost = np.zeros(0)
        self._replay = simplex.Replay()

    def solve(self, columns: list[Column], exact: bool = False) -> RmpSolution:
        if not columns:
            raise ValueError("column pool is empty")
        if len(columns) < len(self._columns) or not all(map(operator.is_, columns, self._columns)):
            self._start_over()
        n = self.n
        new = columns[len(self._columns):]
        if new:
            # scatter the new columns' visit counts: O(their nonzeros)
            block = np.zeros((n + 1, len(new)))
            block[n] = 1.0
            cells = [(u - 1, j, k) for j, col in enumerate(new) for u, k in col.cover.items()]
            rows, cols, counts = zip(*cells)
            block[rows, cols] = counts
            self._cover = np.concatenate((self._cover, block), axis=1)
            self._cost = np.concatenate((self._cost, [col.cost for col in new]))
            self._columns += new
        ncols = len(columns)
        res = simplex.solve_lp(
            self._cost, self._cover, [">="] * n + ["<="], [1] * n + [self.K],
            exact=exact, replay=None if exact else self._replay,
        )
        if res.status != "optimal":
            return RmpSolution(
                status="infeasible",
                theta=[0.0] * ncols,
                objective=float("inf"),
                duals=DualSolution(pi={}, pi0=0.0),
                pivots=res.pivots,
                replayed=res.replayed,
            )
        y = res.duals
        pi = {u: max(0.0, float(y[u - 1])) for u in range(1, n + 1)}
        pi0 = max(0.0, -float(y[n]))
        return RmpSolution(
            status="optimal",
            theta=[float(t) for t in res.x],
            objective=float(res.objective),
            duals=DualSolution(pi=pi, pi0=pi0),
            pivots=res.pivots,
            replayed=res.replayed,
        )


def solve_rmp(columns: list[Column], n: int, K: int, exact: bool = False,
              master: Master | None = None) -> RmpSolution:
    """Solve the set-cover LP over `columns` for customers 1..n, K vehicles.

    Pass one `Master` to every call of a run whose column list only grows:
    each solve then replays the previous one's pivots on the new columns,
    with the same result as a solve without it.
    """
    if master is None:
        master = Master(n, K)
    elif (n, K) != (master.n, master.K):
        raise ValueError("the master was made for another customer count or fleet")
    return master.solve(columns, exact)


def lagrangian_bound(rmp_obj: float, min_rc: float, fleet: int) -> float:
    """RMP value plus the fleet size times the (clamped) minimum reduced cost.

    A lower bound on the master LP: its route weights sum to at most the
    fleet, so no solution gains more than fleet * -min_rc over the RMP.
    """
    return rmp_obj + fleet * min(0.0, min_rc)


def dump_columns(columns: list[Column], theta: list[float], path) -> None:
    """Write the column pool with its final weights as CSV."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["route", "cost", "theta"])
        for i, col in enumerate(columns):
            t = theta[i] if i < len(theta) else 0.0
            w.writerow(["-".join(str(u) for u in col.route.seq), repr(col.cost), repr(t)])
