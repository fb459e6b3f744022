import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from flowsparse.lp import (
    EQ,
    GE,
    LE,
    LPInfeasible,
    LPUnbounded,
    simplex_min,
    solve_lp_exact,
)


def slack_form(A):
    """[A | I]: the columns of Ax + s = b, with the slacks last."""
    A = np.asarray(A, dtype=float)
    return np.hstack([A, np.eye(A.shape[0])])


def test_basic_max():
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, from the slack basis
    A = slack_form([[1, 2], [3, 1]])
    b = np.array([4.0, 6.0])
    x, value, y, basis, _, _ = simplex_min([-1, -1, 0, 0], A, b, [2, 3])
    assert value == pytest.approx(-2.8)
    assert x[:2] == pytest.approx([1.6, 1.2])
    assert sorted(basis) == [0, 1]
    assert y @ b == pytest.approx(-2.8)


def test_basic_min_with_ge():
    # min 2x + 3y  s.t.  x + y - s1 = 2, x - s2 = 0.5, from the basis {x, y}
    A = np.array([[1.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
    b = np.array([2.0, 0.5])
    x, value, y, _, _, _ = simplex_min([2, 3, 0, 0], A, b, [0, 1])
    assert value == pytest.approx(4.0)
    assert x[:2] == pytest.approx([2.0, 0.0])
    assert (y >= -1e-9).all()
    assert y @ b == pytest.approx(4.0)


def test_equality_row():
    # min x + 2y  s.t.  x + y = 3, starting from y basic
    x, value, _, basis, _, it = simplex_min([1, 2], [[1, 1]], [3], [1])
    assert value == pytest.approx(3.0)
    assert x[0] == pytest.approx(3.0)
    assert list(basis) == [0] and it == 1


def test_unbounded():
    # min -x  s.t.  -x + s = 1
    with pytest.raises(LPUnbounded):
        simplex_min([-1, 0], slack_form([[-1]]), [1], [1])


@pytest.mark.parametrize("seed", range(20))
def test_random_against_scipy(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    m = rng.randint(2, 7)
    c = [rng.uniform(-3, 3) for _ in range(n)]
    A = [[rng.uniform(-2, 3) for _ in range(n)] for _ in range(m)]
    b = np.array([rng.uniform(0.5, 6) for _ in range(m)])
    ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
    cost = c + [0.0] * m
    slack_basis = list(range(n, n + m))
    if ref.status == 3:
        with pytest.raises(LPUnbounded):
            simplex_min(cost, slack_form(A), b, slack_basis)
        return
    assert ref.status == 0, ref.message
    x, value, y, _, _, _ = simplex_min(cost, slack_form(A), b, slack_basis)
    assert value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
    assert slack_form(A) @ x == pytest.approx(b, abs=1e-9)
    assert (x >= -1e-9).all()
    # strong duality: the row multipliers price the optimum
    assert y @ b == pytest.approx(value, rel=1e-6, abs=1e-6)


def test_exact_simplex_matches_float():
    x, v = solve_lp_exact([1, 1], [[1, 2], [3, 1]], [4, 6], [LE, LE], maximize=True)
    assert v == Fraction(14, 5)
    assert x == [Fraction(8, 5), Fraction(6, 5)]


def test_exact_simplex_feasibility_problem():
    # x + y == 5, x - y == 1, x,y >= 0  ->  x=3, y=2
    x, v = solve_lp_exact([0, 0], [[1, 1], [1, -1]], [5, 1], [EQ, EQ])
    assert x == [Fraction(3), Fraction(2)]


def test_exact_simplex_infeasible():
    with pytest.raises(LPInfeasible):
        solve_lp_exact([0], [[1], [1]], [1, 3], [LE, GE])
