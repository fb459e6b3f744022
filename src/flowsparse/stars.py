"""The star oracle: concurrent flow on quasi-bipartite views by Kelley's
cutting planes over metrics on the terminals.

`flow.concurrent_flow` solves here when a network's `cut_view` has at least
one non-terminal and each is a star: its neighbours are terminals, at most
`_STAR_MAX_SUPPORT` of them.  Write mu for a metric on the k terminals.  LP
duality on the edge-length form gives

    lambda(d) = min { F(mu) : mu a metric on the terminals, d . mu = 1 }
    F(mu) = sum over stars v of phi_v(mu) + c_T . mu
    phi_v(mu) = max { mu . g : g >= 0, sum_w g_uw <= c_v(u) for every u }
              = min { c_v . y : y_u + y_w >= mu_uw, y >= 0 }

with c_T the terminal-terminal capacities.  F is convex, piecewise linear
and has k(k-1)/2 coordinates whatever the number of stars, so Kelley's
method solves it with a master LP of 1 + k(k-1)/2 rows.  A star's packing
polytope has its vertices among its basic solutions, linear maps of c_v
fixed per support size (`_basis_maps`), so the network's stars are one
table of vertices, built once and kept in the flow oracle's record, and
one evaluation of F is one product with that table.  Kelley's master is
column generation on the dual, so it runs in the flow oracle's one loop,
`flow._columns`, with the cut at the master's multipliers as the new
column.

The result keeps the flow oracle's contract.  Its certificate is the
bracket the master already holds, checked by `flow._result` before the
result is memoized: below, the cut and triangle weights of the master's
solution; above, F at the final mu closed into a metric, one more cut.
The reduced lengths are each star's covering lengths y at the final mu,
and mu on terminal-terminal edges; they are taken on first read of
`.dual`, which lifts them to the network as it does column generation's.
The primal is made on first read of `.flow`: the stars' flows, weighted by
the master's cut multipliers, give each pair of terminals a link, and the
demand is routed over those links.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flow import OPT_TOL, _arc_flows, _bfs_path, _columns, _path_lp, _result, _Shape
from .network import DemandVector, TerminalNetwork, _pair

_STAR_MAX_SUPPORT = 5
_CUT_TOL = 1e-12            # relative: F(mu) above z by less ends Kelley's method
_BATCH_ENTRIES = 1 << 20    # entries of one batch of star vertex products


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, read-only: a table cached per size is shared by every
    call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _basis_maps(s: int) -> np.ndarray:
    """Per basis of a star's packing LP on s terminals, twice its basic
    solution as a linear map of the capacities c: an int array (bases,
    pairs + s, s) whose rows are the s(s-1)/2 pair flows, in `combinations`
    order, then the s slacks.

    The LP is {g >= 0 : sum_w g_uw + slack_u = c_u}.  A basis matrix is an
    incidence matrix of a subgraph of K_s with slack columns, and its
    inverse has entries in {0, +-1/2, +-1}, so twice a basic solution is
    integer for integer capacities.  Read the other way, mu @ map / 2, with
    mu on the pair rows, is the basis's dual solution y, the star's lengths.
    There are 3, 17, 141 and 1 548 bases for s = 2 to 5.
    """
    pairs = list(itertools.combinations(range(s), 2))
    p = len(pairs)
    A = np.hstack([np.zeros((s, p)), np.eye(s)])
    for e, (u, w) in enumerate(pairs):
        A[u, e] = A[w, e] = 1.0
    cols = np.array(list(itertools.combinations(range(p + s), s)))
    B = A[:, cols].transpose(1, 0, 2)
    keep = np.abs(np.linalg.det(B)) > 0.5
    cols = cols[keep]
    maps = np.zeros((len(cols), p + s, s))
    maps[np.arange(len(cols))[:, None], cols] = np.linalg.inv(B[keep])
    return np.rint(2 * maps).astype(np.int64)


@functools.cache
def _basis_floats(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_basis_maps(s)` as floats, read-only, in the layouts the star
    kernels multiply by: (F.T, |F|.T, M), with F the maps' rows stacked,
    (bases * (pairs + s), s), and M their pair rows as a (pairs, bases, s)
    block.  F.T is the transposed view, not a copy: a product of one star's
    capacities with it goes through BLAS's matrix-vector kernel, as the
    per-basis products it replaced did, and a copy rounds otherwise."""
    maps = _basis_maps(s).astype(float)
    flat = maps.reshape(-1, s)
    return _read_only(flat.T, np.abs(flat).T,
                      maps[:, :s * (s - 1) // 2].transpose(1, 0, 2).copy())


@functools.cache
def _triangles(k: int) -> np.ndarray:
    """The triangle rows over k terminals' pairs, in `combinations` order:
    per triple and long side ac, via b, e_ac - e_ab - e_bc."""
    at = {q: i for i, q in enumerate(itertools.combinations(range(k), 2))}
    rows = np.zeros((3 * math.comb(k, 3), len(at)))
    for i, (a, b, c) in enumerate(itertools.combinations(range(k), 3)):
        for j, (x, y, z) in enumerate(((a, c, b), (a, b, c), (b, c, a))):
            row = rows[3 * i + j]
            row[at[(x, y)]] = 1.0
            row[at[_pair(x, z)]] = row[at[_pair(y, z)]] = -1.0
    return rows


@functools.cache
def _pair_ends(k: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(k, 1)`, read-only and taken once per k: the ends
    (u, w) of k terminals' pairs in `combinations` order."""
    return _read_only(*np.triu_indices(k, 1))


@functools.cache
def _master(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only templates of Kelley's master on k terminals, (A, b,
    basis): columns z | surpluses | triangles | the first cut, rows
    sum(alpha) = 1 then one per pair, and the start basis of the cut and
    the surpluses.  A solve copies A and sets its z column, -d, and its
    cut's pair rows."""
    P = math.comb(k, 2)
    tri = _triangles(k)
    A = np.zeros((1 + P, 2 + P + len(tri)))
    A[1:, 1:P + 1] = -np.eye(P)
    A[1:, P + 1:-1] = tri.T
    A[0, -1] = 1.0
    b = np.zeros(1 + P)
    b[0] = 1.0
    return _read_only(A, b, np.array([A.shape[1] - 1, *range(1, P + 1)]))


@dataclass(frozen=True, eq=False)
class _Stars:
    """A quasi-bipartite `cut_view` as the star oracle reads it.

    Every non-terminal of the view is a star: its neighbours are terminals,
    at most `_STAR_MAX_SUPPORT` of them.  Coordinates are the terminal
    pairs in `terminal_pairs` order (`pair_index`), and `direct` holds the
    terminal-terminal capacities.  `table` stacks each star's feasible
    packing vertices (flows per pair), star by star: `row_star` is a row's
    star, `row_ids` its index, and `starts` each star's first row.  The
    stars are numbered by support: `groups` holds per support (its pair
    columns, the float capacities of its stars, one row per star), and
    `names` each star's vertex.  `edge_at` gives, per edge of the view's
    shape, the index of its length in [mu | the stars' covering lengths,
    star by star].
    """

    pairs: list
    pair_index: dict
    direct: np.ndarray
    table: np.ndarray
    row_star: np.ndarray
    row_ids: np.ndarray
    starts: np.ndarray
    groups: list
    names: list
    edge_at: np.ndarray


def _stars_of(net: TerminalNetwork, shape: _Shape) -> _Stars | None:
    """The star table of the network's `cut_view`, whose `_Shape` is
    `shape`, or None where the view has no non-terminal, or where some
    non-terminal there has a non-terminal neighbour or more than
    `_STAR_MAX_SUPPORT` neighbours: the star oracle solves where it is not
    None.

    A star's feasible vertices are its basic solutions (`_basis_maps`)
    that are nonnegative up to rounding: each entry, a sum of at most five
    terms +-c_u or +-2 c_u, may lie below zero by at most 1e-15 of the sum
    of its terms' magnitudes, which bounds its float rounding error (about
    4.4e-16 of it).  Per batch of a support's stars, two 2-D products
    take them all, the stars' capacities times the stacked basis maps and
    times their magnitudes (`_basis_floats`).
    """
    position = {t: i for i, t in enumerate(net.terminals)}
    supports: dict[tuple, list] = {}
    for v, out in shape.arcs.items():
        if v in position:
            continue
        if len(out) > _STAR_MAX_SUPPORT or not all(u in position for u, _ in out):
            return None
        supports.setdefault(tuple(sorted(position[u] for u, _ in out)), []).append(v)
    if not supports:
        return None
    pairs = net.terminal_pairs()
    at = {q: i for i, q in enumerate(itertools.combinations(range(net.k), 2))}
    blocks, row_star, groups, names = [], [], [], []
    y_at: dict[tuple[str, str], int] = {}    # (star, terminal) -> covering index
    for support, members in sorted(supports.items()):
        flat, flat_abs, _ = _basis_floats(len(support))
        width = len(support) * (len(support) + 1) // 2      # pairs + slacks
        cols = [at[q] for q in itertools.combinations(support, 2)]
        ends = [net.terminals[u] for u in support]
        caps = np.array([[shape.caps[shape.arc_edge[(v, t)]] for t in ends]
                         for v in members])
        batch = max(1, _BATCH_ENTRIES // flat.shape[1])
        for lo in range(0, len(members), batch):
            part = caps[lo:lo + batch]
            twice = (part @ flat).reshape(len(part), -1, width)
            terms = (part @ flat_abs).reshape(len(part), -1, width)
            # a basis is feasible where all `width` of its entries are: a
            # product counts them, far quicker than `all` over so short an axis
            ok = (twice >= -1e-15 * terms).view(np.uint8) @ np.ones(width, np.uint8) == width
            block = np.zeros((int(ok.sum()), len(pairs)))
            block[:, cols] = twice[ok][:, :len(cols)] / 2
            blocks.append(block)
            row_star.append(len(names) + lo + np.repeat(np.arange(len(ok)), ok.sum(1)))
        for v in members:
            for t in ends:
                y_at[(v, t)] = len(pairs) + len(y_at)
        names += members
        groups.append((cols, caps))
    row_star = np.concatenate(row_star)
    direct = np.zeros(len(pairs))
    pair_index = {p: i for i, p in enumerate(pairs)}
    edge_at = []
    for e, (a, b) in enumerate(shape.edges):
        if (a, b) in pair_index:
            direct[pair_index[(a, b)]] = shape.caps[e]
            edge_at.append(pair_index[(a, b)])
        else:
            edge_at.append(y_at[(a, b)] if (a, b) in y_at else y_at[(b, a)])
    return _Stars(pairs=pairs, pair_index=pair_index, direct=direct,
                  table=np.concatenate(blocks), row_star=row_star,
                  row_ids=np.arange(len(row_star)),
                  starts=np.searchsorted(row_star, np.arange(len(names))),
                  groups=groups, names=names, edge_at=np.array(edge_at, dtype=int))


def _star_cut(stars: _Stars, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, s) at the metric mu: per star the first table row that
    maximises mu . g, the least index among its maximisers by one
    `minimum.reduceat`, and the cut s = those vertices' sum plus the
    terminal-terminal capacities.  F(mu) = s . mu, and F >= s . mu' at
    every mu', so s is a subgradient of F there."""
    vals = stars.table @ mu
    top = np.maximum.reduceat(vals, stars.starts)
    rows = np.minimum.reduceat(np.where(vals == top[stars.row_star], stars.row_ids,
                                        len(vals)), stars.starts)
    return rows, stars.table[rows].sum(0) + stars.direct


def _covering(stars: _Stars, mu: np.ndarray) -> list:
    """The reduced edge lengths at mu, by edge of the view's shape: mu on
    terminal-terminal edges, each star's covering lengths y at mu on its
    edges (`edge_at`).  A star's y is a least c . y over y >= 0 with
    y_u + y_w >= mu_uw, so c . y is its packing value at mu by LP duality;
    the least is taken over the dual solutions of `_basis_maps`' bases that
    are feasible at mu, up to a rounding tolerance.  A group's dual
    solutions are one sum over its pairs of mu times the pair's block of
    the maps (`_basis_floats`)."""
    out = []
    tol = 1e-12 * max(1.0, float(mu.max(initial=0.0)))
    for cols, caps in stars.groups:
        us, ws = _pair_ends(caps.shape[1])
        m = mu[cols]
        y = (m[:, None, None] * _basis_floats(caps.shape[1])[2]).sum(0) / 2
        y = y[(y >= -tol).all(1) & (y[:, us] + y[:, ws] >= m - tol).all(1)]
        out.append(np.maximum(y[(caps @ y.T).argmin(1)], 0.0).ravel())
    return np.concatenate([mu, *out])[stars.edge_at].tolist()


def _closure(mu: np.ndarray, k: int) -> np.ndarray:
    """mu, over the k terminals' pairs in `combinations` order, closed under
    the triangle inequality by Floyd-Warshall."""
    at = _pair_ends(k)
    m = np.zeros((k, k))
    m[at] = mu
    m += m.T
    for t in range(k):
        m = np.minimum(m, m[:, t, None] + m[t])
    return m[at]


def _star_oracle(net, state, demand):
    """The concurrent flow on a quasi-bipartite `cut_view` by Kelley's
    cutting planes over metrics mu on the terminals.

    lambda(d) = min F(mu) over metrics with d . mu = 1, where F(mu) is the
    stars' packing values plus c_T . mu; `_star_cut` gives F and a cut s
    with F >= s . mu everywhere.  The master is the dual of Kelley's: max z
    subject to sum(alpha) = 1 and sum(alpha_i s_i) + sum(beta_j tri_j)
    - z d - surplus = 0, over columns z | surpluses | triangles | cuts,
    from the start alpha_1 = 1 with surpluses, copied from a read-only
    template per k (`_master`).  It is a pricer of
    `flow._columns`, which appends each new cut: the master's row
    multipliers are the next mu, and a round adds the cut at mu until F(mu)
    is within _CUT_TOL of z, relative.

    `state` is the network's record, whose `stars` table is not None.  The
    certificate is Kelley's own bracket on lambda, which `flow._result`
    checks.  Below: with v = sum(alpha_i s_i) + sum(beta_j tri_j) from the
    master's solution and the kept cut vectors, every metric mu with
    d . mu = 1 has F(mu) >= v . mu >= min over d_p > 0 of v_p / d_p, given
    v_p >= 0 where d_p = 0 (an entry below -OPT_TOL * max(1, lambda) fails
    the certificate).  Above: F(mu) / (d . mu) at the master's clipped
    multipliers closed into a metric, one `_star_cut`.  The reduced
    lengths, each star's covering lengths at the clipped multipliers and
    those on terminal-terminal edges (`_covering`), are taken on first read
    of `.dual`; the primal routes z d over the terminal link graph that the
    cuts' flows, weighted by alpha, give (`_star_routes`), on first read of
    `.flow`.

    Raises LPError when the bracket and lambda spread over more than
    OPT_TOL, relative.
    """
    stars = state.stars
    P = len(stars.pairs)
    d = np.zeros(P)
    for p, v in demand.items():
        d[stars.pair_index[p]] = v
    tri = _triangles(net.k)
    rows, s = _star_cut(stars, d)
    cuts, vecs = [rows], [s]
    A, b, basis = _master(net.k)
    A = A.copy()
    A[1:, 0] = -d
    A[1:, -1] = s

    def price(x, lam, y, pivots):
        # the cut is taken at the multipliers as they are: clipping an
        # entry within the simplex's tolerance below zero would misjudge
        # the cut's reduced cost t - s . mu by that entry times s there
        mu = y[1:]
        rows, s = _star_cut(stars, mu)
        # done when the cut at mu is within _CUT_TOL of z, or when the last
        # cut did not move the master: its reduced cost was within the
        # simplex's tolerance, so the next cut would be the same
        if s @ mu <= lam + _CUT_TOL * max(1.0, lam) or (pivots == 0 and len(cuts) > 1):
            return None
        cuts.append(rows)
        vecs.append(s)
        return np.concatenate(([1.0], s))[None]

    lam, x, y, rounds, pivots = _columns(A, b, basis, A.shape[1], price)
    alpha = x[-len(cuts):]
    v = alpha @ np.array(vecs) + x[P + 1:P + 1 + len(tri)] @ tri
    # an undemanded pair's entry below zero, beyond rounding, fails the bound
    lo = ((v[d > 0] / d[d > 0]).min() if (v[d == 0] >= -OPT_TOL * max(1.0, lam)).all()
          else -np.inf)
    mu = np.maximum(y[1:], 0.0)
    metric = _closure(mu, net.k)
    scale = d @ metric
    hi = _star_cut(stars, metric)[1] @ metric / scale if scale > 0 else np.inf
    return _result(net, state, lam, lo, hi, functools.partial(_covering, stars, mu),
                   rounds, pivots, functools.partial(
                       _star_routes, stars, np.array(cuts), alpha, lam, demand))


def _star_routes(stars: _Stars, cuts: np.ndarray, alpha: np.ndarray, lam: float,
                 demand: DemandVector) -> list:
    """Per demanded pair, reduced arc flows that route lam * d_p.

    Star v carries sum_i alpha_i g_v^(i) over the cuts' vertices, so the
    terminal link graph, whose link uw joins two terminals with capacity
    c_uw plus every star's flow for uw, routes lam * d: the master's
    triangle columns say how.  `_path_lp` routes it there; each link's
    flow is then split over the direct edge and the stars in proportion to
    what they give the link.
    """
    flows = np.tensordot(alpha, stars.table[cuts], 1)      # star x pair
    links = flows.sum(0) + stars.direct
    used = np.flatnonzero(links > 0)
    arcs: dict = {t: [] for p in stars.pairs for t in p}
    for e, i in enumerate(used):
        a, b = stars.pairs[i]
        arcs[a].append((b, e))
        arcs[b].append((a, e))
    link = _Shape(edges=[stars.pairs[i] for i in used], caps=links[used].tolist(),
                  arcs=arcs, arc_edge={(u, v): e for u, out in arcs.items() for v, e in out})
    pairs = demand.pairs()
    starts = [(p, path, link.rows(path)) for p in pairs
              for path in [_bfs_path(arcs, *p)]]
    _, _, carried, *_ = _path_lp(link, pairs, [demand[p] for p in pairs], starts)
    routes = _arc_flows(carried, {p: lam * demand[p] for p in pairs})
    shares = {}
    for i in used:
        through = np.flatnonzero(flows[:, i] > 0)
        shares[stars.pairs[i]] = (stars.direct[i] / links[i],
                                  [(stars.names[v], flows[v, i] / links[i]) for v in through])
    out = []
    for p, acc in routes:
        reduced: dict[tuple[str, str], float] = {}
        for (u, w), f in acc.items():
            direct, via = shares[_pair(u, w)]
            if direct > 0:
                reduced[(u, w)] = reduced.get((u, w), 0.0) + f * direct
            for v, share in via:
                reduced[(u, v)] = reduced.get((u, v), 0.0) + f * share
                reduced[(v, w)] = reduced.get((v, w), 0.0) + f * share
        out.append((p, reduced))
    return out
