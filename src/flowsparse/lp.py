"""The package's LP kernel: a float revised simplex.

`simplex_min` (float, numpy) serves column generation in the flow oracle:
it continues the simplex from a feasible basis after columns are appended.
Per pivot it prices every column once and computes `Binv @ b` once; at
_SPARSE_UPDATE_ROWS rows or more, its rank-1 update of `Binv` skips the
rows where the entering column is zero.  None of this changes a pivot or a
rounding: the skipped work recomputed equal values or subtracted zeros.

Conventions
-----------
`simplex_min` solves

    min  c . x   s.t.   A x == b,   x >= 0

from a feasible basis and returns row multipliers y = c_B B^-1, so that
value == y . b at optimality.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-9            # pricing, ratio-test and stall tolerance
_REFACTOR_EVERY = 100
_STALL_LIMIT = 60
_SPARSE_UPDATE_ROWS = 100  # measured crossover: below it the full update is faster


class LPError(Exception):
    pass


class LPUnbounded(LPError):
    pass


class LPIterationLimit(LPError):
    pass


def simplex_min(cost, A, b, basis, *, Binv=None):
    """Continue the simplex on min cost.x s.t. Ax = b, x >= 0 from a feasible basis.

    Revised simplex with Dantzig pricing; Bland's rule kicks in on stalls.
    Intended for column generation: rows are fixed, columns may have been
    appended since the last call, and `basis`/`Binv` from that call remain
    valid.  Returns (x, value, y, basis, Binv, iterations); raises
    LPUnbounded / LPIterationLimit / LPError on a singular basis.

    Each pivot computes the basic solution `Binv @ b` once: the one taken
    for the stall test after a pivot is the next pivot's ratio-test input,
    and the last one gives x.  The ratio test runs over the rows where the
    entering column is positive.  With at least _SPARSE_UPDATE_ROWS rows,
    the rank-1 update of `Binv` touches only the rows where that column is
    nonzero; on the other rows it would subtract zeros, which changes no
    value (at most the sign of a zero entry, which no comparison sees).
    """
    cost = np.asarray(cost, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    max_iter = 200 * (m + A.shape[1]) + 2000
    basis = np.array(basis, dtype=int)
    if Binv is None:
        Binv = _factorize(A, basis)
    sparse_update = m >= _SPARSE_UPDATE_ROWS
    bland = False
    stall = 0
    last_obj = np.inf
    it = 0
    since_refactor = 0
    cB = cost[basis]
    xB = Binv @ b
    while True:
        if it >= max_iter:
            raise LPIterationLimit(f"no convergence in {it} pivots")
        y = cB @ Binv
        z = cost - y @ A
        z[basis] = 0.0
        if bland:   # anti-cycling safety net: no seeded LP stalls this long
            cand = (z < -_TOL).nonzero()[0]
            if cand.size == 0:
                break
            j = int(cand[0])
        else:
            j = int(z.argmin())
            if z[j] >= -_TOL:
                break
        d = Binv @ A[:, j]
        pos = (d > _TOL).nonzero()[0]
        if pos.size == 0:
            raise LPUnbounded("improving direction is unbounded")
        ratios = np.maximum(xB[pos], 0.0) / d[pos]
        ties = pos[ratios <= ratios.min() + _TOL]
        l = int(ties[basis[ties].argmin()])

        piv = d[l]
        binv_l = Binv[l].copy()
        if sparse_update:
            rows = d.nonzero()[0]
            Binv[rows] -= np.outer(d[rows] / piv, binv_l)
        else:
            Binv -= np.outer(d / piv, binv_l)
        Binv[l] = binv_l / piv
        basis[l] = j

        it += 1
        since_refactor += 1
        if since_refactor >= _REFACTOR_EVERY:
            Binv = _factorize(A, basis)
            since_refactor = 0
        cB = cost[basis]
        xB = Binv @ b
        obj_now = float(cB @ xB)
        if obj_now >= last_obj - _TOL:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_obj = obj_now
    x = np.zeros(A.shape[1])
    x[basis] = xB
    return x, float(cost @ x), y, basis, Binv, it


def _factorize(A, basis):
    try:
        return np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError as exc:
        raise LPError(f"singular basis: {exc}") from exc
