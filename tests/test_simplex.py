import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacg import simplex
from lacg.simplex import Replay, solve_lp


def test_basic_min():
    # min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> (2, 2), obj -6
    res = solve_lp([-1, -2], [[1, 1], [1, 0], [0, 1]], ["<=", "<=", "<="], [4, 3, 2])
    assert res.status == "optimal"
    assert abs(res.objective - (-6.0)) < 1e-9
    assert abs(res.x[0] - 2.0) < 1e-9 and abs(res.x[1] - 2.0) < 1e-9


def test_cover_lp_with_duals():
    # min 2a + 4b st a >= 1, b >= 1: duals are the objective coefficients
    res = solve_lp([2, 4], [[1, 0], [0, 1]], [">=", ">="], [1, 1])
    assert res.status == "optimal"
    assert abs(res.objective - 6.0) < 1e-9
    assert abs(res.duals[0] - 2.0) < 1e-9
    assert abs(res.duals[1] - 4.0) < 1e-9


def test_infeasible():
    res = solve_lp([1], [[1], [-1]], ["<=", "<="], [1, -2])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([-1], [[-1]], ["<="], [0])
    assert res.status == "unbounded"


def test_equality_rows():
    res = solve_lp([1, 1], [[1, 1], [1, -1]], ["=", "="], [2, 0])
    assert res.status == "optimal"
    assert abs(res.x[0] - 1.0) < 1e-9 and abs(res.x[1] - 1.0) < 1e-9


def test_exact_mode_returns_fractions():
    res = solve_lp(
        [Fraction(1, 3), Fraction(1, 7)], [[1, 1]], [">="], [1], exact=True
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 7)
    assert res.x == [Fraction(0), Fraction(1)]


def test_float_and_exact_agree_on_random_lps():
    rnd = random.Random(12)
    for _ in range(30):
        m = rnd.randint(1, 4)
        n = rnd.randint(1, 5)
        c = [rnd.randint(0, 9) for _ in range(n)]
        A = [[rnd.randint(0, 4) for _ in range(n)] for _ in range(m)]
        senses = [rnd.choice([">=", "<="]) for _ in range(m)]
        b = [rnd.randint(0, 6) for _ in range(m)]
        # keep >= rows coverable so the LP stays feasible
        for i in range(m):
            if senses[i] == ">=" and all(a == 0 for a in A[i]):
                senses[i] = "<="
        f = solve_lp(c, A, senses, b)
        e = solve_lp(c, A, senses, b, exact=True)
        assert f.status == e.status
        if f.status == "optimal":
            assert abs(f.objective - float(e.objective)) < 1e-7
            # strong duality on both
            dual_f = sum(y * bi for y, bi in zip(f.duals, b))
            assert abs(dual_f - f.objective) < 1e-7


def test_degenerate_lp_terminates():
    # many redundant rows at the same vertex
    A = [[1, 1], [1, 1], [2, 2], [1, 0], [0, 1]]
    senses = [">="] * 5
    b = [1, 1, 2, 0, 0]
    res = solve_lp([1, 1], A, senses, b)
    assert res.status == "optimal"
    assert abs(res.objective - 1.0) < 1e-9


def test_ndarray_matrix_matches_lists():
    # the RMP passes its cover block as a float array; the same LP given as
    # lists must give the same floats bit for bit.  Costs and coefficients
    # repeat, so entering and ratio-test ties occur.
    rnd = random.Random(21)
    for _ in range(40):
        m = rnd.randint(2, 8)
        n = rnd.randint(m, 20)
        c = [float(rnd.choice([3, 5, 5, 8])) for _ in range(n)]
        A = [[rnd.choice([0, 0, 1, 1, 2]) for _ in range(n)] for _ in range(m)]
        for row in A:
            row[rnd.randrange(n)] = 1  # every row coverable
        A.append([1] * n)
        senses = [">="] * m + ["<="]
        b = [1] * m + [m]
        got = solve_lp(c, np.array(A, dtype=float), senses, b)
        want = solve_lp(c, A, senses, b)
        assert got.status == want.status == "optimal"
        assert float(got.objective).hex() == float(want.objective).hex()
        assert [float(v).hex() for v in got.x] == [float(v).hex() for v in want.x]
        assert [float(v).hex() for v in got.duals] == [float(v).hex() for v in want.duals]


# -- exact mode ---------------------------------------------------------------

# Small LPs for exact mode: flipped rows (b < 0), equality rows, float and
# Fraction data, infeasible and unbounded LPs, ratio-test ties at degenerate
# vertices, artificials driven out after phase 1, and a seeded random batch.
EXACT_LPS = {
    # b < 0 flips rows: x + y >= 2 given as -x - y <= -2, and x - y = -1
    "flipped": ([3, 1], [[-1, -1], [1, -1]], ["<=", "="], [-2, -1]),
    "equalities": ([1, 2, 3], [[1, 1, 1], [0, 1, 2]], ["=", "="], [3, 2]),
    "floats": ([0.1, 2.5, Fraction(1, 3)], [[1, 0.5, 0], [0, 1, 1]], [">=", ">="], [0.3, 1]),
    "infeasible": ([1, 1], [[1, 1], [1, 1]], [">=", "<="], [3, 2]),
    "infeasible_eq": ([1], [[1], [1]], ["=", "="], [1, 2]),
    "unbounded": ([-1, 0], [[1, -1]], ["<="], [1]),
    "unbounded_phase2": ([0, -1], [[1, 0], [-1, 1]], [">=", ">="], [1, -3]),
    "degenerate": ([-1, -1, 0], [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
                   ["<=", "<=", "<=", "<="], [1, 1, 1, 1]),
    "degenerate_zero_rhs": ([-2, -3, 1], [[1, -1, 0], [0, 1, -1], [1, 1, 1]],
                            ["<=", "<=", "<="], [0, 0, 2]),
    "drive_out": ([1, 3, 1], [[1, 1, 1], [0, 1, 1], [1, 1, 1], [1, 1, 1]],
                  ["=", ">=", "=", ">="], [1, 1, 1, 1]),
    "redundant_eq": ([1, 2], [[1, 1], [2, 2]], ["=", "="], [1, 2]),
    "redundant_cover": ([1, 1], [[1, 1], [1, 1], [2, 2], [1, 0], [0, 1]],
                        [">="] * 5, [1, 1, 2, 0, 0]),
}
_rnd = random.Random(2024)
for _k in range(12):
    _m, _n = _rnd.randint(2, 4), _rnd.randint(2, 5)
    EXACT_LPS[f"seeded_{_k}"] = (
        [_rnd.randint(-3, 6) for _ in range(_n)],
        [[_rnd.randint(-2, 3) for _ in range(_n)] for _ in range(_m)],
        [_rnd.choice(["<=", ">=", "="]) for _ in range(_m)],
        [_rnd.randint(-4, 5) for _ in range(_m)],
    )

# status, objective, x, duals and pivots of each LP in exact mode
EXACT_RESULTS = {
    "flipped": ("optimal", "3", ["1/2", "3/2"], ["-2", "1"], 2),
    "equalities": ("optimal", "5", ["2", "0", "1"], ["1", "1"], 2),
    "floats": (
        "optimal", "707450446975370265468144035425157/1947111321950560360698936123457536",
        ["5404319552844595/18014398509481984", "0", "1"],
        ["3602879701896397/36028797018963968", "1/3"], 4
    ),
    "infeasible": ("infeasible", None, ["0", "0"], ["0", "0"], 1),
    "infeasible_eq": ("infeasible", None, ["0"], ["0", "0"], 1),
    "unbounded": ("unbounded", None, ["0", "0"], ["0"], 1),
    "unbounded_phase2": ("unbounded", None, ["0", "0"], ["0", "0"], 1),
    "degenerate": ("optimal", "-1", ["1", "0", "0"], ["-1", "0", "0", "0"], 1),
    "degenerate_zero_rhs": ("optimal", "-8/3", ["2/3", "2/3", "2/3"], ["-2/3", "-7/3", "-4/3"], 3),
    "drive_out": ("optimal", "1", ["0", "0", "1"], ["1", "0", "0", "0"], 4),
    "redundant_eq": ("optimal", "1", ["1", "0"], ["1", "0"], 1),
    "redundant_cover": ("optimal", "1", ["1", "0"], ["0", "0", "1/2", "0", "0"], 5),
    "seeded_0": ("infeasible", None, ["0", "0", "0"], ["0", "0", "0"], 2),
    "seeded_1": ("infeasible", None, ["0", "0", "0", "0"], ["0", "0", "0", "0"], 1),
    "seeded_2": ("infeasible", None, ["0", "0", "0"], ["0", "0", "0", "0"], 1),
    "seeded_3": ("infeasible", None, ["0", "0", "0", "0"], ["0", "0"], 2),
    "seeded_4": ("unbounded", None, ["0", "0"], ["0", "0"], 1),
    "seeded_5": ("optimal", "0", ["5", "0", "0", "0"], ["0", "0"], 1),
    "seeded_6": ("optimal", "8", ["2", "1", "0", "0"], ["0", "-17/3", "0", "-2/3"], 4),
    "seeded_7": ("optimal", "15", ["0", "0", "5/2"], ["0", "3"], 1),
    "seeded_8": ("optimal", "-10/3", ["0", "5/3"], ["0", "-2/3", "0", "0"], 2),
    "seeded_9": ("optimal", "11/9", ["0", "13/9", "2/3"], ["13/9", "-1/3"], 2),
    "seeded_10": ("unbounded", None, ["0", "0", "0", "0", "0"], ["0", "0", "0"], 2),
    "seeded_11": ("infeasible", None, ["0", "0"], ["0", "0", "0", "0"], 1),
}


@pytest.mark.parametrize("name", list(EXACT_LPS))
def test_exact_mode_pinned(name):
    res = solve_lp(*EXACT_LPS[name], exact=True)
    status, objective, x, duals, pivots = EXACT_RESULTS[name]
    assert res.status == status
    assert res.objective == (None if objective is None else Fraction(objective))
    assert res.x == [Fraction(v) for v in x]
    assert res.duals == [Fraction(v) for v in duals]
    assert res.pivots == pivots
    numbers = res.x + res.duals + ([] if objective is None else [res.objective])
    assert all(type(v) is Fraction for v in numbers)


def test_exact_objectives_match_highs():
    # an independent reference: exact and float modes share the pivot code
    linprog = pytest.importorskip("scipy.optimize").linprog
    rnd = random.Random(31)
    statuses = set()
    for _ in range(80):
        m, n = rnd.randint(1, 5), rnd.randint(1, 6)
        c = [rnd.choice([-1, 0, 1, 2, 3, 0.5, 2.5]) for _ in range(n)]
        A = [[rnd.choice([-2, -1, 0, 0, 1, 2, 3, 0.5]) for _ in range(n)] for _ in range(m)]
        senses = [rnd.choice(["<=", ">=", "="]) for _ in range(m)]
        # b is met by a point x0 >= 0, so every LP is feasible
        x0 = [rnd.randint(0, 3) for _ in range(n)]
        slack = {"<=": 1, ">=": -1, "=": 0}
        b = [sum(a * x for a, x in zip(row, x0)) + slack[s] * rnd.randint(0, 2)
             for row, s in zip(A, senses)]
        res = solve_lp(c, A, senses, b, exact=True)
        sign = {"<=": 1, ">=": -1}
        ub = [i for i, s in enumerate(senses) if s != "="]
        eq = [i for i, s in enumerate(senses) if s == "="]
        ref = linprog(
            c,
            A_ub=[[sign[senses[i]] * a for a in A[i]] for i in ub] or None,
            b_ub=[sign[senses[i]] * b[i] for i in ub] or None,
            A_eq=[A[i] for i in eq] or None, b_eq=[b[i] for i in eq] or None,
            bounds=(0, None), method="highs",
        )
        assert res.status == {0: "optimal", 3: "unbounded"}[ref.status]
        statuses.add(res.status)
        if res.status == "optimal":
            assert abs(float(res.objective) - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
    assert statuses == {"optimal", "unbounded"}


@pytest.mark.parametrize("exact", [False, True])
def test_matrix_width_must_match_costs(exact):
    bad = {
        "row too long": ([1], [[1, 5]]),
        "row too short": ([1, 2], [[1]]),
        "ragged rows": ([1, 2], [[1, 2], [1]]),
        "array too wide": ([1], np.array([[1.0, 5.0]])),
        "array of one dimension": ([1], np.array([1.0])),
    }
    for name, (c, A) in bad.items():
        with pytest.raises(ValueError, match="len\\(c\\)"):
            solve_lp(c, A, [">="] * len(A), [1] * len(A), exact=exact)


# -- exact replay -------------------------------------------------------------


def _same(got, want):
    """Bit-for-bit equal results, and the replay accounts for every pivot."""
    assert got.status == want.status
    assert np.array(got.x, float).tobytes() == np.array(want.x, float).tobytes()
    assert np.array([got.objective], float).tobytes() == np.array([want.objective], float).tobytes()
    assert np.array(got.duals, float).tobytes() == np.array(want.duals, float).tobytes()
    assert want.replayed == 0
    assert got.pivots + got.replayed == want.pivots


def _cover_lp(columns, m, K):
    """min cost.theta s.t. every row covered at least once, sum theta <= K."""
    c = [cost for cost, _ in columns]
    A = [[cover[i] for _, cover in columns] for i in range(m)] + [[1] * len(columns)]
    return c, A, [">="] * m + ["<="], [1] * m + [K]


@st.composite
def _growing_cover_lps(draw):
    m = draw(st.integers(2, 6))
    K = draw(st.integers(1, m))
    # few distinct costs and counts, so entering and ratio-test ties occur
    cost = st.sampled_from([1.0, 2.0, 3.0, 3.0, 4.5])
    cover = st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=m, max_size=m)
    first = [(draw(cost), [int(i == j) for i in range(m)]) for j in range(m)]
    later = draw(st.lists(st.lists(st.tuples(cost, cover), min_size=0, max_size=3),
                          min_size=1, max_size=6))
    return m, K, [first] + later


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_growing_cover_lps())
def test_replay_matches_fresh_solves(lp):
    m, K, batches = lp
    replay = Replay()
    columns = []
    for batch in batches:
        columns += batch
        c, A, senses, b = _cover_lp(columns, m, K)
        _same(solve_lp(c, A, senses, b, replay=replay), solve_lp(c, A, senses, b))


def test_replay_follows_an_unchanged_lp_to_the_end():
    # phase 1 leaves no artificial basic, so no drive-out stops the follower,
    # and phase 2 pivots too
    c, A, senses, b = _cover_lp(
        [(1.0, [1, 0, 0]), (2.0, [0, 1, 0]), (2.0, [0, 0, 1]), (1.0, [1, 1, 0]),
         (4.0, [0, 1, 1])], 3, 3)
    replay = Replay()
    first = solve_lp(c, A, senses, b, replay=replay)
    again = solve_lp(c, A, senses, b, replay=replay)
    assert first.replayed == 0 and first.pivots > 0
    assert again.pivots == 0 and again.replayed == first.pivots
    _same(again, first)


@pytest.fixture
def divergences(monkeypatch):
    """(stage, step index) of every replay divergence; stage is phase1, drive or phase2."""
    seen = []
    tab = simplex._Tableau
    set_costs, drive_out, diverge = tab.set_costs, tab.drive_out_artificials, tab._diverge

    def on_set_costs(self, costs):
        self.stage = "phase2" if hasattr(self, "stage") else "phase1"
        set_costs(self, costs)

    def on_drive_out(self, n_free):
        self.stage = "drive"
        drive_out(self, n_free)

    def on_diverge(self):
        seen.append((self.stage, len(self.steps)))
        diverge(self)

    monkeypatch.setattr(tab, "set_costs", on_set_costs)
    monkeypatch.setattr(tab, "drive_out_artificials", on_drive_out)
    monkeypatch.setattr(tab, "_diverge", on_diverge)
    return seen


# costs, rows, senses (every b_i = 1), then one appended column as (cost,
# entries) and the (stage, step) where its solve must leave the record.
# Found by a seeded search over LPs of up to 4 rows.
DIVERGENCE_CASES = {
    "pivot 0": ([1.0, 2.0, 2.0], [[0, 1, 0], [1, 0, 1]], [">=", "="],
                (2.0, [1, 1]), ("phase1", 0)),
    "mid phase 1": ([2.0, 3.0], [[0, 1], [0, 1], [1, 0], [0, 1]], [">=", "=", ">=", "="],
                    (2.0, [0, 1, 0, 1]), ("phase1", 1)),
    "drive-out": ([1.0, 3.0, 1.0], [[1, 1, 1], [0, 1, 1], [1, 1, 1], [1, 1, 1]],
                  ["=", ">=", "=", ">="], (2.0, [1, 0, 1, 0]), ("drive", 2)),
    "phase 2": ([3.0, 1.0, 3.0, 1.0], [[1, 0, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]],
                [">=", ">=", "=", ">="], (1.0, [0, 1, 1, 0]), ("phase2", 6)),
}


@pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
def test_replay_divergence(case, divergences):
    c, A, senses, (cost, entries), where = DIVERGENCE_CASES[case]
    b = [1] * len(A)
    replay = Replay()
    solve_lp(c, A, senses, b, replay=replay)
    recorded = replay.steps
    assert divergences == []
    c2, A2 = c + [cost], [row + [a] for row, a in zip(A, entries)]
    got = solve_lp(c2, A2, senses, b, replay=replay)
    assert divergences == [where]
    stage, k = where
    # the recorded solve took a pivot at this step: in a phase the choice
    # itself differed, and a follower leaves the record at any drive-out
    assert recorded[k][0] >= 0 and recorded[k][1] >= 0
    _same(got, solve_lp(c2, A2, senses, b))
    assert 0 < got.pivots and (got.replayed > 0) == (k > 0)


def test_replay_runs_cold_when_an_earlier_column_changed():
    columns = [(2.0, [1, 0, 0]), (2.0, [0, 1, 0]), (3.0, [0, 0, 1]), (3.0, [1, 1, 0])]
    extra = (2.5, [0, 1, 1])
    changed = {
        "cost": [(2.5, [1, 0, 0])] + columns[1:],
        "entry": [(2.0, [1, 0, 1])] + columns[1:],
        "removed": columns[1:],
    }
    for name, earlier in changed.items():
        replay = Replay()
        solve_lp(*_cover_lp(columns, 3, 2), replay=replay)
        lp = _cover_lp(earlier + [extra], 3, 2)
        got = solve_lp(*lp, replay=replay)
        assert got.replayed == 0, name
        _same(got, solve_lp(*lp))
        # the cold solve recorded itself: a further extension replays again
        lp = _cover_lp(earlier + [extra, (9.0, [1, 0, 0])], 3, 2)
        again = solve_lp(*lp, replay=replay)
        assert again.replayed > 0, name
        _same(again, solve_lp(*lp))
    # a changed right-hand side also runs cold
    replay = Replay()
    solve_lp(*_cover_lp(columns, 3, 2), replay=replay)
    got = solve_lp(*_cover_lp(columns + [extra], 3, 3), replay=replay)
    assert got.replayed == 0
    _same(got, solve_lp(*_cover_lp(columns + [extra], 3, 3)))


def test_replay_is_float_only():
    with pytest.raises(ValueError):
        solve_lp([1], [[1]], [">="], [1], exact=True, replay=Replay())


# -- one-product elimination and lean phases ----------------------------------


def _three_pass(T, r, piv, col):
    """The elimination as three elementwise passes: the reference."""
    T[r] /= piv
    upd = np.empty_like(T)
    upd[...] = T[r]
    upd *= col[:, None]
    T -= upd


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 80), st.integers(1, 700), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.7]))
def test_eliminate_matches_three_passes(m, width, seed, zeros):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((m, width)) * rng.choice([1e-3, 1.0, 1e3], (m, width))
    T[rng.random((m, width)) < zeros] = 0.0
    T[rng.random((m, width)) < zeros / 4] = -0.0
    r = int(rng.integers(m))
    piv = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
    col = rng.standard_normal(m)
    col[rng.random(m) < zeros] = 0.0
    col[r] = 0.0
    want = T.copy()
    _three_pass(want, r, piv, col)
    got = T.copy()
    simplex._eliminate(got, r, piv, col, np.empty_like(got))
    # nonzero entries byte for byte; a zero may differ in its sign only
    assert np.array_equal(got, want)
    nz = want != 0
    assert got[nz].tobytes() == want[nz].tobytes()


# singletons plus three pairs over five rows: an integral cover LP
_COVER5 = [(3.0, [int(i == j) for i in range(5)]) for j in range(5)] + [
    (4.0, [1, 1, 0, 0, 0]), (4.5, [0, 0, 1, 1, 0]), (2.5, [0, 1, 0, 0, 1])]


@pytest.fixture
def lean_steps(monkeypatch):
    """Counts of replayed pivots that ran lean and that ran at full width."""
    seen = {"lean": 0, "full": 0}
    replay_pivot = simplex._Tableau._replay_pivot

    def counted(self, rec):
        seen["lean" if self.z is None else "full"] += 1
        replay_pivot(self, rec)

    monkeypatch.setattr(simplex._Tableau, "_replay_pivot", counted)
    return seen


def test_lean_phase_engages_on_a_cover_lp(lean_steps):
    # phase 1 of an integral cover LP starts as recorded, so a solve that
    # appends a column replays it lean, and still equals a fresh solve
    replay = Replay()
    solve_lp(*_cover_lp(_COVER5, 5, 3), replay=replay)
    lp = _cover_lp(_COVER5 + [(9.0, [1, 0, 0, 0, 1])], 5, 3)
    got = solve_lp(*lp, replay=replay)
    assert lean_steps["lean"] > 0
    _same(got, solve_lp(*lp))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=5))
def test_replay_matches_fresh_solves_on_float_data(m, seeds):
    # fractional costs, coefficients and right-hand sides: no phase start is
    # exact by construction, so phases run lean where their start repeats
    # the record's bytes and at full width where it does not
    replay = Replay()
    c, A = [], [[] for _ in range(m)]
    b = list(np.random.default_rng(seeds[0]).uniform(0.5, 2.0, m))
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(int(rng.integers(1, 4))):
            c.append(float(rng.uniform(0.5, 3.0)))
            for i in range(m):
                A[i].append(float(rng.choice([0.0, rng.uniform(0.1, 1.7)])))
        lp = (c, A + [[1.0] * len(c)], [">="] * m + ["<="], b + [float(m)])
        got = solve_lp(*lp, replay=replay)
        want = solve_lp(*lp)
        if want.status == "optimal":
            _same(got, want)


@pytest.mark.parametrize("where", [0, -1])
def test_replay_without_a_matching_phase_start_runs_full_width(lean_steps, where):
    # the record's phase-1 start row changed in its last bit, under an old
    # structural column (0) or an old artificial one (-1), which the
    # appended columns shift: the guard keeps the phase at full width, with
    # the same result
    replay = Replay()
    solve_lp(*_cover_lp(_COVER5, 5, 3), replay=replay)
    start = replay.starts[0]
    start[where] = np.nextafter(start[where], np.inf)
    lp = _cover_lp(_COVER5 + [(9.0, [1, 0, 0, 0, 1])], 5, 3)
    got = solve_lp(*lp, replay=replay)
    assert got.replayed > 0 and lean_steps["lean"] == 0 and lean_steps["full"] > 0
    _same(got, solve_lp(*lp))
