import hashlib
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from flowsparse.lp import LPUnbounded, simplex_min


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


def test_long_call_refactorizes_and_matches_scipy(monkeypatch):
    """A call past _REFACTOR_EVERY pivots factorizes its basis afresh and
    still ends at HiGHS's optimum, with its duals pricing it."""
    import flowsparse.lp as lp
    rng = np.random.default_rng(1)
    m, n = 60, 120
    A = rng.uniform(0.1, 1.0, (m, n)) * (rng.random((m, n)) < 0.08)
    A[rng.integers(m, size=n), np.arange(n)] += 0.5      # no empty column
    b = rng.uniform(1.0, 2.0, m)
    c = -rng.uniform(0.5, 1.5, n)
    real = lp._factorize
    calls = []

    def counting(A, basis):
        calls.append(len(basis))
        return real(A, basis)
    monkeypatch.setattr(lp, "_factorize", counting)
    x, value, y, _, _, it = simplex_min(np.r_[c, np.zeros(m)], slack_form(A), b,
                                        list(range(n, n + m)))
    ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
    assert it > lp._REFACTOR_EVERY
    assert len(calls) == 1 + it // lp._REFACTOR_EVERY
    assert value == pytest.approx(ref.fun, rel=1e-9)
    assert slack_form(A) @ x == pytest.approx(b, abs=1e-9)
    assert y @ b == pytest.approx(value, rel=1e-9)


def _simplex_unshortened(cost, A, b, basis):
    """`simplex_min`'s Dantzig pivots with the ratio test written out whole,
    every ratio and then the ties' least basis index, for an LP that neither
    stalls into Bland's rule nor reaches a refactorization.  Returns (x, y,
    basis, pivots, ties), `ties` holding (tied rows, leaving row) for each
    ratio test that tied."""
    basis = np.array(basis)
    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ b
    it, ties = 0, []
    while True:
        y = cost[basis] @ Binv
        z = cost - y @ A
        z[basis] = 0.0
        j = int(z.argmin())
        if z[j] >= -1e-9:
            break
        d = Binv @ A[:, j]
        pos = (d > 1e-9).nonzero()[0]
        ratios = np.maximum(xB[pos], 0.0) / d[pos]
        tied = pos[ratios <= ratios.min() + 1e-9]
        l = int(tied[basis[tied].argmin()])
        if tied.size > 1:
            ties.append((tied.tolist(), l))
        piv = d[l]
        binv_l = Binv[l].copy()
        Binv -= np.outer(d / piv, binv_l)
        Binv[l] = binv_l / piv
        basis[l] = j
        it += 1
        xB = Binv @ b
    x = np.zeros(A.shape[1])
    x[basis] = xB
    return x, y, basis, it, ties


def degenerate_lp(seed):
    """(cost, A, b, basis): min c.x s.t. A x <= b, x >= 0 with small integer
    entries and zeros in b, so that ratio tests tie, and the slack of row i
    at a shuffled column, so that a tie's least basis index need not be its
    first row; the slacks are the basis."""
    rng = np.random.default_rng(seed)
    m = n = 6
    perm = rng.permutation(m)
    slacks = np.zeros((m, m))
    slacks[np.arange(m), perm] = 1.0
    A = np.hstack([rng.integers(0, 3, (m, n)).astype(float), slacks])
    b = rng.integers(0, 3, m).astype(float)
    cost = np.r_[-rng.integers(1, 5, n).astype(float), np.zeros(m)]
    return cost, A, b, n + perm


def test_tied_ratio_tests_leave_the_least_basis_index():
    """On degenerate LPs whose ratio tests tie across rows, `simplex_min`
    (which skips the tie-break where one row qualifies) leaves each tie's
    least basis index: x, y, the basis and the pivot count are those of the
    ratio test written out whole, bit for bit."""
    import flowsparse.lp as lp
    off_first_row = 0
    for seed in range(10):
        cost, A, b, basis = degenerate_lp(seed)
        x, y, ref_basis, it, ties = _simplex_unshortened(cost, A, b, basis)
        assert it < min(lp._STALL_LIMIT, lp._REFACTOR_EVERY)
        got = simplex_min(cost, A, b, basis)
        assert (got[0].tobytes(), got[2].tobytes(), got[3].tolist(), got[5]) == (
            x.tobytes(), y.tobytes(), ref_basis.tolist(), it)
        off_first_row += sum(leaving != rows[0] for rows, leaving in ties)
    assert off_first_row > 0
