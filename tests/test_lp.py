import hashlib
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


def random_lp(seed):
    """(c, A, b) of the LP min c.x s.t. A x <= b, x >= 0."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    m = rng.randint(2, 7)
    c = [rng.uniform(-3, 3) for _ in range(n)]
    A = [[rng.uniform(-2, 3) for _ in range(n)] for _ in range(m)]
    b = np.array([rng.uniform(0.5, 6) for _ in range(m)])
    return c, A, b


@pytest.mark.parametrize("seed", range(20))
def test_random_against_scipy(seed):
    c, A, b = random_lp(seed)
    n, m = len(c), len(b)
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


def simplex_digest(seed):
    """sha256 of the bytes of simplex_min's x, y, basis and pivot count on
    random LP `seed` from the slack basis, or None if it is unbounded."""
    c, A, b = random_lp(seed)
    m = len(b)
    try:
        x, _, y, basis, _, it = simplex_min(c + [0.0] * m, slack_form(A), b,
                                            list(range(len(c), len(c) + m)))
    except LPUnbounded:
        return None
    parts = (x.tobytes(), y.tobytes(), basis.astype(np.int64).tobytes(),
             int(it).to_bytes(4, "little"))
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


# simplex_digest per seed: work cut from a pivot must leave the pivots and
# every bit of the result as they are.
PINNED_SIMPLEX = {
    0: 'bb8ec73d73c6759a',
    1: 'eeaef02a0407f8b0',
    2: '165a91f7bc5ae5f6',
    3: 'c6ec50371145b4fb',
    4: '71a8802b2a4e8f43',
    5: 'a1517affc500081b',
    6: None,
    7: 'c2ec3db7884f7733',
    8: 'e8e43d44e2bfb9c7',
    9: 'ed7ff7e4fbf16876',
    10: None,
    11: '7e3c517a65be2a62',
    12: '2f2ac054be1e0ce0',
    13: '60bd1259cd877c7a',
    14: 'c1fc8535a5e9f363',
    15: None,
    16: '5e870ed9cae39541',
    17: 'df9b457f3c1311e5',
    18: 'fd5bf62994efe81f',
    19: None,
}


@pytest.mark.parametrize("seed", range(20))
def test_simplex_bits_are_pinned(seed):
    assert simplex_digest(seed) == PINNED_SIMPLEX[seed]


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


def random_exact_lp(seed):
    """Small rational LP with mixed row senses.  Three seeds in four place
    the right-hand side around a nonnegative point, so those are feasible;
    the fourth draws it freely."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 4), rng.randint(2, 4)

    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 5))

    A = [[frac(-3, 6) for _ in range(n)] for _ in range(m)]
    senses = [rng.choice((LE, LE, GE, EQ)) for _ in range(m)]
    if seed % 4 == 3:
        b = [frac(-4, 12) for _ in range(m)]
    else:
        x0 = [frac(0, 4) for _ in range(n)]
        slack = {LE: 1, GE: -1, EQ: 0}
        b = [sum(a * x for a, x in zip(row, x0)) + slack[s] * frac(0, 3)
             for row, s in zip(A, senses)]
    c = [frac(-5, 5) for _ in range(n)]
    return c, A, b, senses, rng.random() < 0.5


def scipy_exact_lp(c, A, b, senses, maximize):
    sign = -1 if maximize else 1
    ub = [(row, v, 1 if s == LE else -1) for row, v, s in zip(A, b, senses) if s != EQ]
    eq = [(row, v) for row, v, s in zip(A, b, senses) if s == EQ]
    return linprog([sign * float(v) for v in c],
                   A_ub=[[f * float(a) for a in row] for row, _, f in ub] or None,
                   b_ub=[f * float(v) for _, v, f in ub] or None,
                   A_eq=[[float(a) for a in row] for row, _ in eq] or None,
                   b_eq=[float(v) for _, v in eq] or None,
                   bounds=[(0, None)] * len(c), method="highs")


EXACT_LP_SEEDS = range(40)


@pytest.mark.parametrize("seed", EXACT_LP_SEEDS)
def test_exact_simplex_against_scipy(seed):
    c, A, b, senses, maximize = random_exact_lp(seed)
    ref = scipy_exact_lp(c, A, b, senses, maximize)
    if ref.status == 2:
        with pytest.raises(LPInfeasible):
            solve_lp_exact(c, A, b, senses, maximize=maximize)
        return
    if ref.status == 3:
        with pytest.raises(LPUnbounded):
            solve_lp_exact(c, A, b, senses, maximize=maximize)
        return
    assert ref.status == 0, ref.message
    x, value = solve_lp_exact(c, A, b, senses, maximize=maximize)
    assert all(type(v) is Fraction and v >= 0 for v in x)
    for row, rhs, sense in zip(A, b, senses):
        lhs = sum(a * v for a, v in zip(row, x))
        assert {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[sense]
    assert value == sum(a * v for a, v in zip(c, x))
    assert float(value) == pytest.approx((-1 if maximize else 1) * ref.fun,
                                         rel=1e-9, abs=1e-9)


def test_exact_lp_seeds_cover_every_outcome():
    outcomes = {scipy_exact_lp(*random_exact_lp(seed)).status for seed in EXACT_LP_SEEDS}
    assert outcomes == {0, 2, 3}
