import random
from fractions import Fraction

import numpy as np

from lacg.simplex import solve_lp


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
