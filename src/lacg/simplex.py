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

Exact replay.  A float solve given a `Replay` record writes into it every
step it takes: each pivot (pivot row r, entering column e, the pivot column
and the pivot row after the update), each drive-out row and each phase end,
plus a tableau snapshot every SNAPSHOT_EVERY steps and at the start of phase
2.  Every tableau operation acts on each column alone.  So when the next
LP only appends columns to the recorded one, it re-applies the recorded
pivots to the appended columns and the right-hand side alone, and updates
the full reduced-cost row with the recorded pivot row: one vector operation
per step instead of a rank-1 update of the whole tableau.  At every step it
evaluates the real entering and drive-out rules on that row.  At the first
step where they decide otherwise (an appended column would enter, or a
last-bit difference of the phase-2 reduced costs changes the choice) it
rebuilds the full tableau from the last snapshot and continues with the
ordinary simplex.  Each phase start computes `cb @ T` on the full-width
tableau, as a fresh solve does, so the result equals a fresh solve's bit for
bit; an LP that does not extend the recorded one is solved fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TOL = 1e-9
SNAPSHOT_EVERY = 16  # steps between tableau snapshots of a Replay record

# a recorded step: (r, e, pivot element, pivot column with col[r] = 0, pivot
# row after the update).  A phase end has r = -1; a drive-out row left
# without a pivot has e = -1.  Neither carries arrays.
_END = (-1, -1, 0.0, None, None)


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: list
    objective: object
    duals: list
    pivots: int = 0  # pivots applied to the full tableau
    replayed: int = 0  # pivots re-applied from a Replay record


class Replay:
    """Record of the last float solve, for an exact replay by the next one.

    Create one per sequence of LPs that grow by appending columns, such as
    the restricted masters of one column-generation run, and pass it to each
    `solve_lp` call of the sequence.  A solve whose LP is not the recorded one
    plus appended columns runs fresh and records anew, so results never
    depend on the record, only the work does.
    """

    def __init__(self):
        self._lp = None  # (c, A, senses, b, tol) of the recorded solve
        self.steps: list[tuple] = []
        # step index -> the tableau before that step, as column blocks
        # (structural blocks in order, then the slack/artificial block)
        self.snaps: dict[int, tuple] = {}

    def _extended(self, c, A, senses, b, tol) -> int | None:
        """Column count of the recorded LP if (c, A) only appends to it."""
        if self._lp is None:
            return None
        c0, A0, senses0, b0, tol0 = self._lp
        k = len(c0)
        if (
            senses != senses0 or tol != tol0 or b.tobytes() != b0.tobytes()
            or len(c) < k or c[:k].tobytes() != c0.tobytes()
            or A[:, :k].tobytes() != A0.tobytes()
        ):
            return None
        return k


def solve_lp(c, A, senses, b, exact: bool = False, tol: float = _TOL,
             replay: Replay | None = None) -> LpResult:
    m = len(A)
    if m != len(senses) or m != len(b):
        raise ValueError("A, senses and b must agree in length")
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")
    if exact:
        if replay is not None:
            raise ValueError("replay applies to the float path only")
        return _solve_exact(c, A, senses, b)
    return _solve_float(c, A, senses, b, tol, replay)


# ---------------------------------------------------------------------------
# float mode
# ---------------------------------------------------------------------------


def _solve_float(c, A, senses, b, tol, replay) -> LpResult:
    m = len(A)
    n = len(c)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(m, n)
    b = np.asarray(b, dtype=float)
    senses = tuple(senses)
    n_old = replay._extended(c, A, senses, b, tol) if replay is not None else None
    rhs = b.copy()
    flipped = list(senses)
    row_sign = np.ones(m)
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            row_sign[i] = -1.0
            flipped[i] = {"<=": ">=", ">=": "<=", "=": "="}[flipped[i]]

    # column layout: structural | slack/surplus | artificial, RHS kept apart
    slack_cols = []
    for i, s in enumerate(flipped):
        if s != "=":
            slack_cols.append((i, 1.0 if s == "<=" else -1.0))
    n_slack = len(slack_cols)
    basis_unit_col = [-1] * m  # unit column used to read the dual of row i
    art_rows = [i for i, s in enumerate(flipped) if s != "<="]
    n_art = len(art_rows)
    N = n + n_slack + n_art

    T = np.zeros((m, N))
    T[:, :n] = A
    T[:, :n] *= row_sign[:, None]
    for j, (i, coef) in enumerate(slack_cols):
        T[i, n + j] = coef
        if flipped[i] == "<=":
            basis_unit_col[i] = n + j
    basis = [-1] * m
    for i, s in enumerate(flipped):
        if s == "<=":
            basis[i] = basis_unit_col[i]
    for j, i in enumerate(art_rows):
        col = n + n_slack + j
        T[i, col] = 1.0
        basis[i] = col
        basis_unit_col[i] = col
    n_free = n + n_slack  # artificials sit at the tail and never re-enter

    if n_old is None:
        state = _FloatTableau(T, rhs, basis, tol, n)
    else:
        state = _FloatTableau(T, rhs, basis, tol, n, replay, n_old)
    result = _two_phase(state, c, n, n_free, N)
    if replay is not None:
        # only a finished solve is worth following: one that stopped early
        # has no record of the steps after its stop
        lp = (c.copy(), A.copy(), senses, b.copy(), tol) if result == "optimal" else None
        replay._lp, replay.steps, replay.snaps = lp, state.steps, state.snaps
    if result != "optimal":
        return LpResult(result, [0.0] * n, float("nan"), [0.0] * m,
                        state.pivots, state.replayed)

    x = [0.0] * n
    for i, j in enumerate(state.basis):
        if j < n:
            x[j] += state.rhs[i]
    duals = [
        -state.drow[basis_unit_col[i]] * row_sign[i] for i in range(m)
    ]
    return LpResult("optimal", x, state.objective(), duals, state.pivots, state.replayed)


def _two_phase(state, c, n, n_free, N) -> str:
    if n_free < N:
        c1 = np.zeros(N)
        c1[n_free:] = 1.0
        state.set_costs(c1)
        status = state.optimize(N)
        if status != "optimal" or state.objective() > 1e-7:
            return "infeasible"
        state.drive_out_artificials(n_free)

    c2 = np.zeros(N)
    c2[:n] = c
    state.set_costs(c2)
    return state.optimize(n_free)


def _eliminate(T, r, piv, col, upd) -> None:
    """Divide row r by piv, then subtract col[i] * row r from every row i.

    col is the pivot column with col[r] = 0.  Each product is col[i] *
    T[r, j], as in np.outer, but written into the reused buffer upd: scaling
    the rows of a copy of T[r] took about half the time of np.outer on a
    71 x 506 tableau (numpy 2.4, x86-64).  Every column is updated on its own,
    which is what lets a replay update a block of columns alone.
    """
    T[r] /= piv
    upd[...] = T[r]
    upd *= col[:, None]
    T -= upd


class _FloatTableau:
    def __init__(self, T, rhs, basis, tol, n, past=None, n_old=0):
        self.rhs = rhs
        self.basis = basis
        self.tol = tol
        self.drow = None
        self._obj = 0.0
        self.pivots = 0
        self.replayed = 0
        self.steps = []  # this solve's record, see _END
        self._n = n  # structural columns
        self.snaps = {}
        # while following `past` (the previous solve's Replay), T holds only
        # the columns appended since, at [n_old, n) of the layout; the old
        # slack and artificial columns move right by their count
        self._past = past
        self._n_old = n_old
        self._shift = n - n_old
        if past is not None:
            self.snaps[0] = (T[:, :n], T[:, n:])
            T = T[:, n_old:n].copy()
        self.T = T
        self._update = np.empty_like(T)  # rank-1 update, reused by every pivot

    def set_costs(self, costs):
        # a phase starts from the full tableau, as in a fresh solve, and the
        # next solve's replay restarts the phase from this snapshot
        snap = self._snapshot()
        T = self.T
        if self._past is not None:
            T = np.concatenate(snap, axis=1)
            # keep it as two blocks: later assemblies join two, not many
            self.snaps[len(self.steps)] = (T[:, :self._n], T[:, self._n:])
        self.costs = costs
        cb = costs[self.basis]
        self.drow = costs - cb @ T
        self._obj = float(cb @ self.rhs)

    def objective(self):
        return self._obj

    def optimize(self, limit) -> str:
        """Pivot to optimality; only columns below `limit` may enter."""
        m, N = len(self.rhs), len(self.drow)
        stall = 0
        bland = False
        last_obj = self._obj
        max_iter = 20000 + 200 * (m + N)
        for _ in range(max_iter):
            e = self._entering(limit, bland)
            if self._past is not None and not self._follows(e):
                self._diverge()
            if e is None:
                self._append(_END)
                return "optimal"
            if self._past is not None:
                self._replay_pivot()
            else:
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
        col = T[:, e].copy()
        col[r] = 0.0
        _eliminate(T, r, piv, col, self._update)
        self.pivots += 1
        self._finish_pivot(r, e, piv, col, T[r].copy())

    def _finish_pivot(self, r, e, piv, col, row):
        """Right-hand side, reduced costs, objective and basis of a pivot."""
        self.rhs[r] /= piv
        self.rhs -= col * self.rhs[r]
        de = self.drow[e]
        self.drow -= de * row
        self._obj += de * self.rhs[r]
        self.basis[r] = e
        self._append((r, e, piv, col, row))

    def drive_out_artificials(self, n_free):
        for r in range(len(self.basis)):
            if self.basis[r] < n_free:
                continue
            if self._past is not None:
                rec_r, e_old = self._past.steps[len(self.steps)][:2]
                # an appended column precedes every recorded candidate but
                # the old structural ones, so it is picked if it can pivot
                if rec_r == r and (
                    0 <= e_old < self._n_old or not np.any(np.abs(self.T[r]) > self.tol)
                ):
                    if e_old >= 0:
                        self._replay_pivot()
                    else:
                        self._append((r, -1, 0.0, None, None))
                    continue
                self._diverge()
            cand = np.flatnonzero(np.abs(self.T[r, :n_free]) > self.tol)
            if len(cand):
                self._pivot(r, int(cand[0]))
            else:
                # no pivot found: the row is redundant and stays harmless
                self._append((r, -1, 0.0, None, None))

    # -- replay ---------------------------------------------------------------

    def _append(self, step):
        self.steps.append(step)
        if len(self.steps) % SNAPSHOT_EVERY == 0:
            self._snapshot()

    def _snapshot(self):
        """Column blocks of the tableau before the next step, kept in the record.

        While following the record, the old columns' blocks are shared with
        the previous record's snapshot and only the appended block is copied.
        """
        k = len(self.steps)
        snap = self.snaps.get(k)
        if snap is None:
            if self._past is None:
                snap = (self.T[:, :self._n].copy(), self.T[:, self._n:].copy())
            else:
                old = self._past.snaps[k]
                snap = old[:-1] + (self.T.copy(), old[-1])
            self.snaps[k] = snap
        return snap

    def _new_index(self, j):
        return j if j < self._n_old else j + self._shift

    def _follows(self, e) -> bool:
        """Whether the recorded step here makes the entering choice e.

        A record ends with the phase-2 end, so a solve that follows it
        stops there too and never reads past it.
        """
        r, e_old = self._past.steps[len(self.steps)][:2]
        if e is None:
            return r == -1
        return r >= 0 and e_old >= 0 and self._new_index(e_old) == e

    def _replay_pivot(self):
        """Apply the recorded pivot here to the appended columns alone."""
        r, e, piv, col, row = self._past.steps[len(self.steps)]
        _eliminate(self.T, r, piv, col, self._update)
        j = self._n_old
        row = np.concatenate((row[:j], self.T[r], row[j:]))
        self.replayed += 1
        self._finish_pivot(r, self._new_index(e), piv, col, row)

    def _diverge(self):
        """Rebuild the full tableau at this step and stop following the record."""
        k = len(self.steps)
        s = max(i for i in self.snaps if i <= k)
        T = np.concatenate(self.snaps[s], axis=1)
        upd = np.empty_like(T)
        for r, _, piv, col, _ in self.steps[s:k]:
            if col is not None:
                _eliminate(T, r, piv, col, upd)
        self.T = T
        self._update = upd
        self._past = None


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
    pivots = 0

    def run(costs, blocked):
        nonlocal pivots
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
            pivots += 1

    if n_art:
        c1 = [zero] * N
        for j in art_set:
            c1[j] = Fraction(1)
        status, _, obj1 = run(c1, frozenset())
        if status != "optimal" or obj1 > 0:
            return LpResult("infeasible", [zero] * n, None, [zero] * m, pivots)
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
                        pivots += 1
                        break

    c2 = [zero] * N
    for j in range(n):
        c2[j] = _frac(c[j])
    status, drow, obj = run(c2, frozenset(art_set))
    if status != "optimal":
        return LpResult(status, [zero] * n, None, [zero] * m, pivots)
    x = [zero] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] += rhs[i]
    duals = [-drow[basis_unit_col[i]] * row_sign[i] for i in range(m)]
    return LpResult("optimal", x, obj, duals, pivots)
