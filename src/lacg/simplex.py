"""Dense two-phase primal simplex over floats or exact Fractions.

Solves   min c.x  s.t.  A x {<=,>=,=} b,  x >= 0.

One tableau class serves both number types.  It keeps the tableau [A | b]
over [z | objective], z the negated reduced costs, in one numpy array and
pivots with vectorized row operations (Dantzig entering rule, lowest-index
ties, Bland's rule after a degeneracy stall).  A pivot's rank-1 update is one
outer product and one subtraction, which update the rows, the right-hand
side, z and the objective together.  Floats take a float64 array and a BLAS
product into a reused buffer.  Exact mode takes an object array of
Fractions, converted exactly from the input's ints and floats, with tol = 0
and the update restricted to the nonzero rows and columns of the product; it
takes the same pivot rule, and is meant for oracle-grade checks on small
problems, not for speed.  The number type is fixed when the tableau
is built, so the float pivot loop takes no branch on it.

Duals are read from the reduced-cost row under the unit column of each row
(the artificial, or the slack for rows that never needed one), so callers
get a consistent (primal, dual) pair with strong duality up to tolerance.

Exact replay.  A float solve given a `Replay` record writes into it every
step it takes: each pivot (pivot row r, entering column e, the pivot column
with its z entry, and the pivot row after the update), each drive-out row
and each phase end, the reduced-cost row at each phase start, and a tableau
snapshot every SNAPSHOT_EVERY steps and at each phase start.  Every tableau
operation acts on each column alone.  So when the next LP only appends
columns to the recorded one, it re-applies the recorded pivots to the
appended columns and the right-hand side alone.

A phase whose reduced-cost row starts, on the old columns, byte for byte as
the record's (phase 1 of a cover LP always does: its costs are 0/1 and its
first tableau integral, so `cb @ T` is exact) runs lean: the old columns'
reduced costs stay the record's at every step, so it decides from the
recorded step and the appended columns' reduced costs alone, and the
recorded pivot column updates the appended columns, the right-hand side,
their z and the objective in one outer product.  Otherwise the phase also
updates the full z row with the recorded pivot row at each step.  Either way
the real entering rule is evaluated at every step.  At the first step where
it chooses otherwise (an appended column would enter, or a last-bit
difference of the reduced costs changes the choice), or at a drive-out that
finds an artificial still basic, the solve rebuilds the full tableau from
the last snapshot and continues with the ordinary simplex; a lean phase
first rebuilds its full z row as the phase-start row minus each step's
product, in the order a fresh solve subtracts them.  Each phase start
computes `cb @ T` on the full-width tableau, as a fresh solve does, so the
result equals a fresh solve's bit for bit (up to the sign of a zero, which
the result normalizes); an LP that does not extend the recorded one is
solved fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TOL = 1e-9
_INFEASIBLE = 1e-7  # phase-1 objective above which a float LP is infeasible
SNAPSHOT_EVERY = 16  # steps between tableau snapshots of a Replay record

# a recorded step: (r, e, pivot element, pivot column, pivot row after the
# update, without the right-hand side).  The pivot column has col[r] = 0 and,
# last, the entering column's z before the step (0 for a drive-out pivot,
# which keeps no row).  A phase end has r = -1; a drive-out row left without
# a pivot has e = -1.  Neither carries arrays.  A row recorded by a lean step
# is lazy, see `_grown`.
_END = (-1, -1, 0.0, None, None)


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: list  # floats, or Fractions in exact mode; all zero unless optimal
    objective: object  # float or Fraction; nan (float) or None (exact) unless optimal
    duals: list  # one per row, of x's number type; all zero unless optimal
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
        self._lp = None  # (c, A, senses, b) of the recorded solve
        self.steps: list[tuple] = []
        # step index -> the tableau before that step, as column blocks
        # (structural blocks in order, then the slack/artificial block)
        self.snaps: dict[int, tuple] = {}
        # step index -> the full reduced-cost row at a phase start
        self.starts: dict[int, np.ndarray] = {}

    def _extended(self, c, A, senses, b) -> int | None:
        """Column count of the recorded LP if (c, A) only appends to it."""
        if self._lp is None:
            return None
        c0, A0, senses0, b0 = self._lp
        k = len(c0)
        if (
            senses != senses0 or b.tobytes() != b0.tobytes()
            or len(c) < k or c[:k].tobytes() != c0.tobytes()
            or A[:, :k].tobytes() != A0.tobytes()
        ):
            return None
        return k


def solve_lp(c, A, senses, b, exact: bool = False, replay: Replay | None = None) -> LpResult:
    m, n = len(A), len(c)
    if m != len(senses) or m != len(b):
        raise ValueError("A, senses and b must agree in length")
    if not (A.shape == (m, n) if isinstance(A, np.ndarray) else all(len(row) == n for row in A)):
        raise ValueError(f"every row of A must have len(c) = {n} entries")
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")
    if exact and replay is not None:
        raise ValueError("replay applies to the float path only")
    return _solve(c, A, tuple(senses), b, exact, replay)


_fractions = np.frompyfunc(Fraction, 1, 1)  # elementwise, exact from int or float


def _solve(c, A, senses, b, exact, replay) -> LpResult:
    m, n = len(A), len(c)
    if exact:
        c, A, b = (_fractions(np.asarray(v, dtype=object)) for v in (c, A, b))
        zero, one, tol, infeasible = Fraction(0), Fraction(1), 0, 0
    else:
        c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
        zero, one, tol, infeasible = 0.0, 1.0, _TOL, _INFEASIBLE
    A = A.reshape(m, n)
    n_old = replay._extended(c, A, senses, b) if replay is not None else None
    rhs = b.copy()
    flipped = list(senses)
    row_sign = np.full(m, one, dtype=c.dtype)
    for i in range(m):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            row_sign[i] = -one
            flipped[i] = {"<=": ">=", ">=": "<=", "=": "="}[flipped[i]]

    # column layout: structural | slack/surplus | artificial
    slack_cols = []
    for i, s in enumerate(flipped):
        if s != "=":
            slack_cols.append((i, one if s == "<=" else -one))
    n_slack = len(slack_cols)
    basis_unit_col = [-1] * m  # unit column used to read the dual of row i
    art_rows = [i for i, s in enumerate(flipped) if s != "<="]
    n_art = len(art_rows)

    # the structural block is only read: A itself unless a row is flipped
    struct = A * row_sign[:, None] if (row_sign < 0).any() else A
    units = np.full((m, n_slack + n_art), zero, dtype=c.dtype)
    for j, (i, coef) in enumerate(slack_cols):
        units[i, j] = coef
        if flipped[i] == "<=":
            basis_unit_col[i] = n + j
    basis = [-1] * m
    for i, s in enumerate(flipped):
        if s == "<=":
            basis[i] = basis_unit_col[i]
    for j, i in enumerate(art_rows):
        units[i, n_slack + j] = one
        basis[i] = n + n_slack + j
        basis_unit_col[i] = n + n_slack + j
    n_free = n + n_slack  # artificials sit at the tail and never re-enter
    N = n_free + n_art
    phase1 = np.full(N, zero, dtype=c.dtype)
    phase1[n_free:] = one
    phase2 = np.full(N, zero, dtype=c.dtype)
    phase2[:n] = c

    past = replay if n_old is not None else None
    state = _Tableau(struct, units, rhs, basis, tol, exact, past, n_old or 0)
    result = _two_phase(state, phase1, phase2, n_free, infeasible)
    if replay is not None:
        # only a finished solve is worth following: one that stopped early
        # has no record of the steps after its stop
        lp = (c.copy(), A.copy(), senses, b.copy()) if result == "optimal" else None
        replay._lp, replay.steps = lp, state.steps
        replay.snaps, replay.starts = state.snaps, state.starts
    if result != "optimal":
        return LpResult(result, [zero] * n, None if exact else float("nan"), [zero] * m,
                        state.pivots, state.replayed)

    x = [zero] * n
    rhs = state.T[:m, -1]
    for i, j in enumerate(state.basis):
        if j < n:
            x[j] += rhs[i]
    z = state.z_row()
    # a zero product of BLAS may be +0.0 where an elementwise one is -0.0, and
    # a replay and a fresh solve form some products differently; adding zero
    # turns -0.0 into 0.0 and leaves every other value, and any Fraction, as it is
    duals = [z[basis_unit_col[i]] * row_sign[i] + zero for i in range(m)]
    return LpResult("optimal", x, state.objective() + zero, duals, state.pivots, state.replayed)


def _two_phase(state, phase1, phase2, n_free, infeasible) -> str:
    N = len(phase1)
    if n_free < N:
        state.set_costs(phase1)
        status = state.optimize(N)
        if status != "optimal" or state.objective() > infeasible:
            return "infeasible"
        state.drive_out_artificials(n_free)

    state.set_costs(phase2)
    return state.optimize(n_free)


def _eliminate(T, r, piv, col, upd) -> None:
    """Divide row r by piv, then subtract col[i] * row r from every row i.

    col is the pivot column with col[r] = 0.  The products col[i] * T[r, j]
    come from one BLAS outer product (a matrix product over one term)
    written into the reused buffer upd, so each is rounded once, as in
    np.outer; only a zero product may come out as +0.0 where np.outer gives
    -0.0, which no comparison or ratio can tell apart.  On a 71 x 460 block
    the product took 23 us against 37 us for scaling a copy of T[r] row by
    row (numpy 2.4, OpenBLAS, x86-64).  Every column is updated on its own,
    which is what lets a replay update a block of columns alone.
    """
    T[r] /= piv
    np.dot(col[:, None], T[r][None, :], out=upd)
    T -= upd


def _eliminate_exact(T, r, piv, col, _upd) -> None:
    """`_eliminate` on a Fraction tableau, over the rows with col[i] != 0 and
    the columns with T[r, j] != 0 alone: a zero product changes no exact
    value, but costs as much as any other."""
    rows, cols = np.flatnonzero(col), np.flatnonzero(T[r])
    T[r, cols] /= piv
    T[np.ix_(rows, cols)] -= np.multiply.outer(col[rows], T[r, cols])


def _grown(row, j, block):
    """The pivot row of a lean step: `row` with `block` inserted at j, lazily.

    `row` is the recorded step's pivot row and j the number of structural
    columns in its layout.  A lazy row is (base, j, blocks), the full row
    being base[:j], the blocks, then base[j:]: every solve appends its
    columns after the structural ones.  `_full_row` joins it when read.
    """
    if isinstance(row, tuple):
        base, j, blocks = row
        return base, j, blocks + (block,)
    return row, j, (block,)


def _full_row(row):
    if isinstance(row, tuple):
        base, j, blocks = row
        return np.concatenate((base[:j], *blocks, base[j:]))
    return row


class _Tableau:
    """The tableau [A | rhs] over [z | objective], z the negated reduced costs.

    Its numbers are float64, or Fractions in an object array when `exact`;
    tol is then 0.

    A pivot is one `_eliminate` (or `_eliminate_exact`) of the whole array
    with the pivot column (z's entry included), which updates the rows, the
    right-hand side, z and the objective as separate vector operations
    would, product for product.
    While following a record, T holds only the columns appended since, and
    the full z row is kept apart, or in a lean phase (z is None) not kept
    until `z_row` rebuilds it.
    """

    def __init__(self, struct, units, rhs, basis, tol, exact=False, past=None, n_old=0):
        m, n = struct.shape
        self.m = m
        self.basis = basis
        self.tol = tol
        self._eliminate = _eliminate_exact if exact else _eliminate
        self.pivots = 0
        self.replayed = 0
        self.steps = []  # this solve's record, see _END
        self.snaps = {}
        self.starts = {}
        self._n = n  # structural columns
        self._N = n + units.shape[1]
        # while following `past` (the previous solve's Replay), the appended
        # columns sit at [n_old, n) of the layout; the old slack and
        # artificial columns move right by their count
        self._past = past
        self._n_old = n_old
        self._shift = n - n_old
        if past is None:
            T = np.zeros((m + 1, self._N + 1), dtype=struct.dtype)
            T[:m, :n] = struct
            T[:m, n:-1] = units
        else:
            self.snaps[0] = (struct, units)
            T = np.zeros((m + 1, self._shift + 1))
            T[:m, :-1] = struct[:, n_old:]
        T[:m, -1] = rhs
        self.T = T
        self._update = np.empty_like(T)  # rank-1 update, reused by every pivot
        self.z = T[m, :-1] if past is None else None
        self._lean_from = 0  # step index at which a lean phase started

    def set_costs(self, costs):
        # a phase starts from the full tableau, as in a fresh solve, and the
        # next solve's replay restarts the phase from this snapshot
        k = len(self.steps)
        m = self.m
        T = self.T
        if self._past is None:
            C = T[:m, :-1].copy()
        else:
            C = np.concatenate(self._snapshot(), axis=1)
        self.snaps[k] = (C[:, :self._n], C[:, self._n:])
        cb = costs[self.basis]
        d = costs - cb @ C
        self.starts[k] = d
        T[m, -1] = cb @ T[:m, -1].copy()
        if self._past is None:
            T[m, :-1] = -d
            return
        j, s = self._n_old, self._shift
        T[m, :-1] = -d[j:j + s]
        self.z = -d
        # the old columns start as in the record: their reduced costs stay
        # the record's, so the phase can run lean
        start = self._past.starts.get(k)
        if start is not None and d[:j].tobytes() == start[:j].tobytes() \
                and d[j + s:].tobytes() == start[j:].tobytes():
            self.z = None
            self._lean_from = k

    def objective(self):
        return self.T[self.m, -1]

    def z_row(self):
        """The full z row, rebuilt here if a lean phase left it behind: the
        phase-start row less each step's product, in a fresh solve's order."""
        if self.z is None:
            k = self._lean_from
            z = -self.starts[k]
            for i in range(k, len(self.steps)):
                r, e, piv, col, row = self.steps[i]
                if col is None:
                    continue  # the phase end
                row = _full_row(row)
                self.steps[i] = (r, e, piv, col, row)  # later reads skip the join
                z -= col[-1] * row
            self.z = z
        return self.z

    def optimize(self, limit) -> str:
        """Pivot to optimality; only columns below `limit` may enter."""
        m, N = self.m, self._N
        stall = 0
        bland = False
        last_obj = self.objective()
        max_iter = 20000 + 200 * (m + N)
        for _ in range(max_iter):
            status = self._step(limit, bland)
            if status is not None:
                return status
            obj = self.objective()
            if obj < last_obj - self.tol:
                last_obj = obj
                stall = 0
            else:
                stall += 1
                if stall > 2 * (m + N):
                    bland = True  # degeneracy stall: switch to Bland's rule
        raise RuntimeError("simplex iteration limit exceeded")

    def _step(self, limit, bland) -> str | None:
        """Take one step; return the phase's status if the step ends it."""
        if self.z is None:  # a lean phase
            rec = self._past.steps[len(self.steps)]
            if not bland and self._lean_follows(rec):
                if rec[0] < 0:
                    self._append(_END)
                    return "optimal"
                self._replay_pivot(rec)
                return None
            # an appended column enters here, or Bland's rule needs every
            # column: go on from this step at full width
            self.z_row()
        e = self._entering(limit, bland)
        if self._past is not None and not self._follows(e):
            self._diverge()
        if e is None:
            self._append(_END)
            return "optimal"
        if self._past is not None:
            self._replay_pivot(self._past.steps[len(self.steps)])
        else:
            r = self._leaving(e)
            if r is None:
                return "unbounded"
            self._pivot(r, e)
        return None

    def _entering(self, limit, bland):
        # z is -(reduced cost): the most negative reduced cost is the largest z
        z = self.z[:limit]
        if bland:
            pos = np.flatnonzero(z > self.tol)
            return int(pos[0]) if len(pos) else None
        if not len(z):
            return None
        j = int(z.argmax())
        if z[j] > self.tol:
            return j
        return None

    def _leaving(self, e):
        # ratio test over the rows with a positive pivot entry, in row order:
        # ties within tol go to the lowest basis index
        col = self.T[:self.m, e]
        tol = self.tol
        rows = (col > tol).nonzero()[0]
        ratios = (self.T[rows, -1] / col[rows]).tolist()
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

    def _pivot(self, r, e, costs=True):
        """Pivot the full tableau; a drive-out pivot (costs=False) leaves z and
        the objective alone, since the next phase sets its own."""
        T = self.T
        piv = T[r, e]
        col = T[:, e].copy()
        col[r] = 0  # an int zero keeps a Fraction tableau exact
        if not costs:
            col[-1] = 0
        self._eliminate(T, r, piv, col, self._update)
        self.pivots += 1
        self.basis[r] = e
        self._append((r, e, piv, col, T[r, :-1].copy() if costs else None))

    def drive_out_artificials(self, n_free):
        for r in range(len(self.basis)):
            if self.basis[r] < n_free:
                continue
            if self._past is not None:
                self._diverge()  # a record is followed through its phases only
            cand = np.flatnonzero(np.abs(self.T[r, :n_free]) > self.tol)
            if len(cand):
                self._pivot(r, int(cand[0]), costs=False)
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
            m = self.m
            if self._past is None:
                snap = (self.T[:m, :self._n].copy(), self.T[:m, self._n:-1].copy())
            else:
                old = self._past.snaps[k]
                snap = old[:-1] + (self.T[:m, :-1].copy(), old[-1])
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

    def _lean_follows(self, rec) -> bool:
        """Whether the recorded step rec is the real choice in a lean phase.

        The old columns' z equal the record's, so an appended column enters
        instead only if its z is above the recorded one's, or equal to it and
        the recorded column comes after it (as the old slack and artificial
        columns do); at a recorded phase end, if its z is above tol.
        """
        z = self.T[self.m, :-1]
        if not len(z):
            return True
        top = z[z.argmax()]
        r, e, _, col, _ = rec
        if r < 0:
            return not top > self.tol
        return not (top > col[-1] or (top == col[-1] and e >= self._n_old))

    def _replay_pivot(self, rec):
        """Apply the recorded pivot rec to the appended columns alone, and
        to the full z row unless the phase runs lean."""
        r, e, piv, col, row = rec
        _eliminate(self.T, r, piv, col, self._update)
        if self.z is None:
            row = _grown(row, self._n_old, self.T[r, :-1].copy())
        else:
            row = _full_row(row)
            j = self._n_old
            row = np.concatenate((row[:j], self.T[r, :-1], row[j:]))
            self.z -= col[-1] * row
        e = self._new_index(e)
        self.basis[r] = e
        self.replayed += 1
        self._append((r, e, piv, col, row))

    def _diverge(self):
        """Rebuild the full tableau at this step and stop following the record."""
        k = len(self.steps)
        s = max(i for i in self.snaps if i <= k)
        C = np.concatenate(self.snaps[s], axis=1)
        upd = np.empty_like(C)
        m = self.m
        for r, _, piv, col, _ in self.steps[s:k]:
            if col is not None:
                _eliminate(C, r, piv, col[:m], upd)
        T = np.empty((m + 1, self._N + 1))
        T[:m, :-1] = C
        T[:, -1] = self.T[:, -1]  # the right-hand side and objective
        T[m, :-1] = 0.0 if self.z is None else self.z  # z is not read before a phase start
        self.T = T
        self._update = np.empty_like(T)
        self.z = T[m, :-1]
        self._past = None

