"""The package's two LP kernels: a float revised simplex and an exact one.

`simplex_min` (float, numpy) serves column generation in the flow oracle:
it continues the simplex from a feasible basis after columns are appended.
Per pivot it prices every column once and computes `Binv @ b` once; at
_SPARSE_UPDATE_ROWS rows or more, its rank-1 update of `Binv` skips the
rows where the entering column is zero.  None of this changes a pivot or a
rounding: the skipped work recomputed equal values or subtracted zeros.
`solve_lp_exact` (Fraction, full tableau, Bland's rule) serves small exact
feasibility and fitting problems where float drift is unacceptable.  Its
pivots are sparse: the pivot row is divided at its nonzero entries only, the
other rows are updated in place at those columns only, and pricing sums over
the basic rows whose cost is nonzero.  The skipped terms are exact zeros, so
every reduced cost, ratio and pivot is the one the dense tableau gives.

Conventions
-----------
`simplex_min` solves

    min  c . x   s.t.   A x == b,   x >= 0

from a feasible basis and returns row multipliers y = c_B B^-1, so that
value == y . b at optimality.  `solve_lp_exact` takes

    min / max   c . x
    s.t.        A[i] . x  (<= | >= | ==)  b[i]      for every row i
                x >= 0

and returns (x, value).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

LE, GE, EQ = "<=", ">=", "=="

_REFACTOR_EVERY = 100
_STALL_LIMIT = 60
_SPARSE_UPDATE_ROWS = 100  # measured crossover: below it the full update is faster


class LPError(Exception):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


class LPIterationLimit(LPError):
    pass


def simplex_min(cost, A, b, basis, *, Binv=None, tol=1e-9, max_iter=None):
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
    if max_iter is None:
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
        if bland:
            cand = (z < -tol).nonzero()[0]
            if cand.size == 0:
                break
            j = int(cand[0])
        else:
            j = int(z.argmin())
            if z[j] >= -tol:
                break
        d = Binv @ A[:, j]
        pos = (d > tol).nonzero()[0]
        if pos.size == 0:
            raise LPUnbounded("improving direction is unbounded")
        ratios = np.maximum(xB[pos], 0.0) / d[pos]
        ties = pos[ratios <= ratios.min() + tol]
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
        if obj_now >= last_obj - tol:
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


# ---------------------------------------------------------------------------
# Exact rational simplex (full tableau, Bland's rule).  Intended for small
# feasibility/fitting problems where float drift is unacceptable.
# ---------------------------------------------------------------------------

def solve_lp_exact(c, A, b, senses, *, maximize=False, max_iter=20000):
    """Exact simplex over Fractions.  Returns (x, value); raises LPError family."""
    m = len(b)
    n = len(c)
    c = [Fraction(v) for v in c]
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    senses = list(senses)
    if maximize:
        c = [-v for v in c]

    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
            if senses[i] == LE:
                senses[i] = GE
            elif senses[i] == GE:
                senses[i] = LE

    # Columns: original | slacks | artificials.
    cols = [row[:] for row in A]
    n_slack = 0
    slack_of_row = {}
    for i, s in enumerate(senses):
        if s in (LE, GE):
            for r in range(m):
                cols[r].append(Fraction(1 if (r == i and s == LE) else
                                        (-1 if (r == i and s == GE) else 0)))
            if s == LE:
                slack_of_row[i] = n + n_slack
            n_slack += 1
    n_real = n + n_slack
    basis = [-1] * m
    art_of_row = {}
    for i in range(m):
        if i in slack_of_row:
            basis[i] = slack_of_row[i]
        else:
            for r in range(m):
                cols[r].append(Fraction(1 if r == i else 0))
            art_of_row[i] = n_real + len(art_of_row)
            basis[i] = art_of_row[i]
    n_total = n_real + len(art_of_row)

    T = [cols[i] + [b[i]] for i in range(m)]

    def pivot(pi, pj):
        row = T[pi]
        piv = row[pj]
        nz = [k for k, v in enumerate(row) if v]
        for k in nz:
            row[k] /= piv
        for r in range(m):
            other = T[r]
            f = other[pj]
            if r != pi and f:
                for k in nz:
                    other[k] -= f * row[k]
        basis[pi] = pj

    def run(cost, allowed, limit):
        it = 0
        while True:
            if it > limit:
                raise LPIterationLimit("exact simplex pivot limit")
            priced = [(cost[basis[r]], T[r]) for r in range(m) if cost[basis[r]]]
            in_basis = set(basis)
            entering = -1
            for j in range(allowed):
                if j in in_basis:
                    continue
                zj = cost[j] - sum(cb * row[j] for cb, row in priced)
                if zj < 0:
                    entering = j
                    break
            if entering < 0:
                return
            best = None
            for r in range(m):
                if T[r][entering] > 0:
                    ratio = T[r][n_total] / T[r][entering]
                    key = (ratio, basis[r])
                    if best is None or key < best[0]:
                        best = (key, r)
            if best is None:
                raise LPUnbounded("exact simplex: unbounded")
            pivot(best[1], entering)
            it += 1

    if art_of_row:
        p1 = [Fraction(0)] * n_real + [Fraction(1)] * len(art_of_row)
        run(p1, n_total, max_iter)
        if sum(p1[basis[r]] * T[r][n_total] for r in range(m)) > 0:
            raise LPInfeasible("exact phase-1 optimum positive")
        for i in range(m):
            if basis[i] >= n_real:
                for j in range(n_real):
                    if j not in basis and T[i][j] != 0:
                        pivot(i, j)
                        break
    p2 = c + [Fraction(0)] * (n_total - n)
    for i in range(m):
        if basis[i] >= n_real:
            p2[basis[i]] = Fraction(0)
    run(p2, n_real, max_iter)

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][n_total]
    value = sum(c[j] * x[j] for j in range(n))
    if maximize:
        value = -value
    return x, value
