"""Dense two-phase primal simplex, float (numpy) and exact (Fraction) modes.

Solves   min c.x  s.t.  A x {<=,>=,=} b,  x >= 0.

The float path keeps the full tableau in a numpy array and pivots with
vectorized row operations (Dantzig entering rule, lowest-index ties, Bland's
rule after a degeneracy stall).  The exact path runs the same algorithm over
Fractions with Bland's rule throughout; it is meant for oracle-grade checks
on tiny problems, not for speed.

Duals are read from the reduced-cost row under the unit column of each row
(the artificial, or the slack for rows that never needed one), so callers
get a consistent (primal, dual) pair with strong duality up to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TOL = 1e-9


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: list
    objective: object
    duals: list


def solve_lp(c, A, senses, b, exact: bool = False, tol: float = _TOL) -> LpResult:
    m = len(A)
    if m != len(senses) or m != len(b):
        raise ValueError("A, senses and b must agree in length")
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")
    if exact:
        return _solve_exact(c, A, senses, b)
    return _solve_float(c, A, senses, b, tol)


# ---------------------------------------------------------------------------
# float mode
# ---------------------------------------------------------------------------


def _solve_float(c, A, senses, b, tol) -> LpResult:
    m = len(A)
    n = len(c)
    rhs = np.asarray(b, dtype=float).copy()
    senses = list(senses)
    row_sign = np.ones(m)
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            row_sign[i] = -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    # column layout: structural | slack/surplus | artificial, RHS kept apart
    slack_cols = []
    for i, s in enumerate(senses):
        if s != "=":
            slack_cols.append((i, 1.0 if s == "<=" else -1.0))
    n_slack = len(slack_cols)
    basis_unit_col = [-1] * m  # unit column used to read the dual of row i
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    n_art = len(art_rows)
    N = n + n_slack + n_art

    T = np.zeros((m, N))
    T[:, :n] = np.asarray(A, dtype=float).reshape(m, n)
    T[:, :n] *= row_sign[:, None]
    for j, (i, coef) in enumerate(slack_cols):
        T[i, n + j] = coef
        if senses[i] == "<=":
            basis_unit_col[i] = n + j
    basis = [-1] * m
    for i, s in enumerate(senses):
        if s == "<=":
            basis[i] = basis_unit_col[i]
    for j, i in enumerate(art_rows):
        col = n + n_slack + j
        T[i, col] = 1.0
        basis[i] = col
        basis_unit_col[i] = col
    n_free = n + n_slack  # artificials sit at the tail and never re-enter

    state = _FloatTableau(T, rhs, basis, tol)

    if n_art:
        c1 = np.zeros(N)
        c1[n_free:] = 1.0
        state.set_costs(c1)
        status = state.optimize(N)
        if status != "optimal":
            return LpResult("infeasible", [0.0] * n, float("nan"), [0.0] * m)
        if state.objective() > 1e-7:
            return LpResult("infeasible", [0.0] * n, float("nan"), [0.0] * m)
        state.drive_out_artificials(n_free)

    c2 = np.zeros(N)
    c2[:n] = np.asarray(c, dtype=float)
    state.set_costs(c2)
    status = state.optimize(n_free)
    if status != "optimal":
        return LpResult(status, [0.0] * n, float("nan"), [0.0] * m)

    x = [0.0] * n
    for i, j in enumerate(state.basis):
        if j < n:
            x[j] += state.rhs[i]
    duals = [
        -state.drow[basis_unit_col[i]] * row_sign[i] for i in range(m)
    ]
    return LpResult("optimal", x, state.objective(), duals)


class _FloatTableau:
    def __init__(self, T, rhs, basis, tol):
        self.T = T
        self.rhs = rhs
        self.basis = basis
        self.tol = tol
        self.drow = None
        self._obj = 0.0
        self._update = np.empty_like(T)  # rank-1 update, reused by every pivot

    def set_costs(self, costs):
        self.costs = costs
        cb = costs[self.basis]
        self.drow = costs - cb @ self.T
        self._obj = float(cb @ self.rhs)

    def objective(self):
        return self._obj

    def optimize(self, limit) -> str:
        """Pivot to optimality; only columns below `limit` may enter."""
        m, N = self.T.shape
        stall = 0
        bland = False
        last_obj = self._obj
        max_iter = 20000 + 200 * (m + N)
        for _ in range(max_iter):
            e = self._entering(limit, bland)
            if e is None:
                return "optimal"
            r = self._leaving(e)
            if r is None:
                return "unbounded"
            self._pivot(r, e)
            if self._obj < last_obj - self.tol:
                last_obj = self._obj
                stall = 0
            else:
                stall += 1
                if stall > 2 * (m + N):
                    bland = True  # degeneracy stall: switch to Bland's rule
        raise RuntimeError("simplex iteration limit exceeded")

    def _entering(self, limit, bland):
        d = self.drow[:limit]
        if bland:
            neg = np.flatnonzero(d < -self.tol)
            return int(neg[0]) if len(neg) else None
        if not len(d):
            return None
        j = int(np.argmin(d))
        if d[j] < -self.tol:
            return j
        return None

    def _leaving(self, e):
        # ratio test over the rows with a positive pivot entry, in row order:
        # ties within tol go to the lowest basis index
        col = self.T[:, e]
        tol = self.tol
        rows = np.flatnonzero(col > tol)
        ratios = (self.rhs[rows] / col[rows]).tolist()
        basis = self.basis
        best = None
        best_ratio = None
        for i, ratio in zip(rows.tolist(), ratios):
            if (
                best_ratio is None
                or ratio < best_ratio - tol
                or (abs(ratio - best_ratio) <= tol and basis[i] < basis[best])
            ):
                best, best_ratio = i, ratio
        return best

    def _pivot(self, r, e):
        T = self.T
        piv = T[r, e]
        T[r] /= piv
        self.rhs[r] /= piv
        col = T[:, e].copy()
        col[r] = 0.0
        # the rank-1 update in place: each product is col[i] * T[r, j], as
        # in np.outer, but written into a reused buffer.  Scaling the rows of
        # a copy of T[r] took about half the time of np.outer on a 71 x 506
        # tableau (numpy 2.4, x86-64)
        upd = self._update
        upd[...] = T[r]
        upd *= col[:, None]
        T -= upd
        self.rhs -= col * self.rhs[r]
        de = self.drow[e]
        self.drow -= de * T[r]
        self._obj += de * self.rhs[r]
        self.basis[r] = e

    def drive_out_artificials(self, n_free):
        for r in range(len(self.basis)):
            if self.basis[r] >= n_free:
                cand = np.flatnonzero(np.abs(self.T[r, :n_free]) > self.tol)
                if len(cand):
                    self._pivot(r, int(cand[0]))
                # no pivot found: the row is redundant and stays harmless


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x)  # exact conversion from float


def _solve_exact(c, A, senses, b) -> LpResult:
    m = len(A)
    n = len(c)
    rows = [[_frac(v) for v in row] for row in A]
    rhs = [_frac(v) for v in b]
    senses = list(senses)
    row_sign = [Fraction(1)] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            row_sign[i] = Fraction(-1)
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_cols = [(i, Fraction(1) if s == "<=" else Fraction(-1))
                  for i, s in enumerate(senses) if s != "="]
    n_slack = len(slack_cols)
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    n_art = len(art_rows)
    N = n + n_slack + n_art
    zero = Fraction(0)

    T = [[zero] * N for _ in range(m)]
    for i in range(m):
        for j in range(n):
            T[i][j] = rows[i][j]
    basis_unit_col = [-1] * m
    basis = [-1] * m
    for j, (i, coef) in enumerate(slack_cols):
        T[i][n + j] = coef
        if senses[i] == "<=":
            basis[i] = n + j
            basis_unit_col[i] = n + j
    for j, i in enumerate(art_rows):
        col = n + n_slack + j
        T[i][col] = Fraction(1)
        basis[i] = col
        basis_unit_col[i] = col
    art_set = set(range(n + n_slack, N))

    def run(costs, blocked):
        # reduced-cost row and objective for the current basis
        drow = list(costs)
        obj = zero
        for i in range(m):
            cb = costs[basis[i]]
            if cb != 0:
                obj += cb * rhs[i]
                for j in range(N):
                    drow[j] -= cb * T[i][j]
        while True:
            e = None
            for j in range(N):  # Bland's rule
                if j not in blocked and drow[j] < 0:
                    e = j
                    break
            if e is None:
                return "optimal", drow, obj
            r = None
            best_ratio = None
            for i in range(m):
                if T[i][e] > 0:
                    ratio = rhs[i] / T[i][e]
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[r])
                    ):
                        r, best_ratio = i, ratio
            if r is None:
                return "unbounded", drow, obj
            piv = T[r][e]
            T[r] = [v / piv for v in T[r]]
            rhs[r] = rhs[r] / piv
            for i in range(m):
                if i != r and T[i][e] != 0:
                    f = T[i][e]
                    T[i] = [a - f * bb for a, bb in zip(T[i], T[r])]
                    rhs[i] = rhs[i] - f * rhs[r]
            de = drow[e]
            drow = [a - de * bb for a, bb in zip(drow, T[r])]
            obj += de * rhs[r]
            basis[r] = e

    if n_art:
        c1 = [zero] * N
        for j in art_set:
            c1[j] = Fraction(1)
        status, _, obj1 = run(c1, frozenset())
        if status != "optimal" or obj1 > 0:
            return LpResult("infeasible", [zero] * n, None, [zero] * m)
        for r in range(m):  # drive artificials out of the basis
            if basis[r] in art_set:
                for j in range(N):
                    if j not in art_set and T[r][j] != 0:
                        piv = T[r][j]
                        T[r] = [v / piv for v in T[r]]
                        rhs[r] = rhs[r] / piv
                        for i in range(m):
                            if i != r and T[i][j] != 0:
                                f = T[i][j]
                                T[i] = [a - f * bb for a, bb in zip(T[i], T[r])]
                                rhs[i] = rhs[i] - f * rhs[r]
                        basis[r] = j
                        break

    c2 = [zero] * N
    for j in range(n):
        c2[j] = _frac(c[j])
    status, drow, obj = run(c2, frozenset(art_set))
    if status != "optimal":
        return LpResult(status, [zero] * n, None, [zero] * m)
    x = [zero] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] += rhs[i]
    duals = [-drow[basis_unit_col[i]] * row_sign[i] for i in range(m)]
    return LpResult("optimal", x, obj, duals)
