"""The star oracle on quasi-bipartite views, against column generation."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from flowsparse import TerminalNetwork, concurrent_flow
from flowsparse import flow, stars
from flowsparse.flow import OPT_TOL, FlowError
from flowsparse.generators import gen_quasi_bipartite
from flowsparse.merging import profile_bucket_sparsifier, ratio_type_sparsifier
from flowsparse.sampling import sample_sparsifier

from conftest import check_certificates, fresh, random_demand


def _with_terminal_edges(net, rng):
    """The net with an edge of random capacity between a few terminal pairs."""
    pairs = rng.sample(list(itertools.combinations(net.terminals, 2)),
                       min(3, net.k * (net.k - 1) // 2))
    return TerminalNetwork.make(net.vertices, net.terminals, net.edges + tuple(
        (s, t, rng.randint(1, 12)) for s, t in pairs))


def _full_support_net():
    """Two stars on all five terminals, one on four, and a terminal edge."""
    ts = [f"t{i}" for i in range(5)]
    edges = [("a", t, c) for t, c in zip(ts, (3, 5, 2, 7, 4))]
    edges += [("b", t, c) for t, c in zip(ts, (6, 1, 4, 4, "5/2"))]
    edges += [("c", t, c) for t, c in zip(ts[1:], (2, 9, 3, 3))]
    edges.append(("t0", "t3", 2))
    return TerminalNetwork.make(ts + ["a", "b", "c"], ts, edges)


def _solve(method, net, d):
    """A direct call of one method, `stars._star_oracle` or
    `flow._column_generation`, with the network's record."""
    return method(net, flow._record(net), d)


@pytest.fixture()
def brackets(monkeypatch):
    """The (lambda, lo, hi) that each star solve passes `flow._result`."""
    real, seen = stars._result, []

    def spy(net, state, lam, lo, hi, *rest):
        seen.append((lam, lo, hi))
        return real(net, state, lam, lo, hi, *rest)
    monkeypatch.setattr(stars, "_result", spy)
    return seen


def _assert_bracketed(bracket, *others):
    """Each end of Kelley's bracket lies within OPT_TOL of its lambda,
    relative, and each of `others` (the value from another solver) lies
    inside the bracket to within OPT_TOL."""
    lam, lo, hi = bracket
    tol = OPT_TOL * max(1.0, abs(lam))
    assert abs(lo - lam) <= tol and abs(hi - lam) <= tol
    for value in others:
        assert lo - tol <= value <= hi + tol


def _cross_cases():
    """(name, net, demands) over quasi-bipartite nets, k = 2 to 8: base nets,
    their sample (M = 8 and 32), ratio and profile candidates, base nets
    with terminal-terminal edges, and a hand-built net of full-support
    stars."""
    cases = []
    for seed in range(26):
        k = 2 + seed % 7
        rng = random.Random(4100 + seed)
        base = gen_quasi_bipartite(k, rng.randint(k + 8, 30), seed=seed)
        demands = [random_demand(rng, base) for _ in range(2)]
        nets = {"base": base,
                "sample-8": sample_sparsifier(base, 8, seed).net,
                "sample-32": sample_sparsifier(base, 32, seed).net,
                "ratio": ratio_type_sparsifier(base, 0.25).net,
                "profile": profile_bucket_sparsifier(base, 0.25, demands).net,
                "terminal-edges": _with_terminal_edges(base, rng)}
        cases += [(f"{name}-{seed}", net, demands) for name, net in nets.items()]
    net = _full_support_net()
    rng = random.Random(4099)
    cases.append(("full-support", net, [random_demand(rng, net) for _ in range(4)]))
    return cases


def test_cross_check_against_column_generation(brackets):
    """Where a net's view is star-shaped, the star oracle's value is column
    generation's within 1e-12, its bracket holds both values, and its
    certificates hold on the network."""
    checked = set()
    ks = set()
    for name, net, demands in _cross_cases():
        if flow._record(net).stars is None:
            # no star (at k <= 3 every non-terminal is eliminated), or a
            # merged star past five terminals
            _, index, arcs = net.cut_view
            degrees = [len(arcs[i]) for v, i in index.items() if v not in net.terminal_set]
            assert net.k <= 3 and not degrees or max(degrees, default=0) > 5, name
            continue
        for d in demands:
            brackets.clear()
            res = _solve(stars._star_oracle, net, d)
            ref = _solve(flow._column_generation, fresh(net), d)
            assert abs(res.value - ref.value) <= 1e-12 * ref.value, name
            assert len(brackets) == 1 and brackets[0][0] == res.value
            _assert_bracketed(brackets[0], ref.value)
            assert res.duality_gap <= OPT_TOL
            check_certificates(net, d, res)
        checked.add(name)
        ks.add(net.k)
    assert len(checked) >= 100 and ks == set(range(4, 9))
    assert {name.rsplit("-", 1)[0] for name in checked} == {
        "base", "sample-8", "sample-32", "ratio", "profile", "terminal-edges",
        "full"}


@pytest.mark.parametrize("seed", [99, 168, 243])
def test_capacities_over_fourteen_decades(seed, brackets):
    """Each capacity scaled by its own factor in 10^[-6, 6], times a random
    fraction: vertex feasibility is judged per entry, so no star carries
    more than an edge holds, and Kelley stops at HiGHS's value, which its
    bracket holds."""
    from test_flow import scipy_lambda
    rng = random.Random(seed)
    k = rng.randint(2, 8)
    base = gen_quasi_bipartite(k, rng.randint(k + 5, 45), seed=1000 + seed)
    net = TerminalNetwork.make(base.vertices, base.terminals, [
        (u, v, c * Fraction(rng.randint(1, 97), rng.randint(1, 89)) * Fraction(10) ** rng.randint(-6, 6))
        for u, v, c in base.edges])
    assert flow._record(net).stars is not None
    for d in (random_demand(rng, net) for _ in range(2)):
        brackets.clear()
        res = concurrent_flow(net, d)
        ref = scipy_lambda(net, d)
        assert res.value == pytest.approx(ref, rel=1e-12)
        assert len(brackets) == 1 and brackets[0][0] == res.value
        _assert_bracketed(brackets[0], ref)
        check_certificates(net, d, res)


def test_full_support_star_is_in_the_table():
    net = _full_support_net()
    table = flow._record(net).stars
    assert sorted(len(cols) for cols, _ in table.groups) == [6, 10]
    assert len(table.names) == 3 and table.direct.sum() == 2.0
    assert [len(stars._basis_maps(s)) for s in (2, 3, 4, 5)] == [3, 17, 141, 1548]


def test_dispatch_follows_the_view():
    """Star-shaped views with stars take the star oracle; a view of the
    terminals alone, a star past five terminals and two adjacent
    non-terminals take column generation."""
    qb = gen_quasi_bipartite(5, 30, seed=2)
    terminals_only = gen_quasi_bipartite(3, 12, seed=2)
    six = TerminalNetwork.make([f"t{i}" for i in range(6)] + ["v"],
                               [f"t{i}" for i in range(6)],
                               [("v", f"t{i}", i + 1) for i in range(6)])
    chained = TerminalNetwork.make(["s", "t", "a", "b", "c", "d"], ["s", "t", "c", "d"],
                                   [("a", "s", 1), ("a", "t", 1), ("a", "c", 1),
                                    ("a", "b", 1), ("b", "s", 2), ("b", "t", 1),
                                    ("b", "d", 1)])
    assert flow._record(qb).stars is not None
    assert flow._record(terminals_only).stars is None
    assert flow._record(six).stars is None
    assert flow._record(chained).stars is None
    for net, star_path in ((qb, True), (terminals_only, False), (six, False),
                           (chained, False)):
        d = random_demand(random.Random(1), net)
        res = concurrent_flow(net, d)
        expected = _solve(stars._star_oracle if star_path else flow._column_generation,
                          fresh(net), d)
        assert (res.value, res.rounds, res.pivots) == (
            expected.value, expected.rounds, expected.pivots)


def _split_nets():
    """(base, cut_off, chained): a quasi-bipartite net; the same with a
    terminal ~x1 in a component of its own, a star view; and that with two
    adjacent non-terminals on every terminal of the base, which keep the
    view off the star oracle."""
    base = gen_quasi_bipartite(4, 20, seed=5)
    cut_off = TerminalNetwork.make(
        base.vertices + ("~x0", "~x1"), base.terminals + ("~x1",),
        base.edges + (("~x0", "~x1", 1),), allow_disconnected=True)
    chained = TerminalNetwork.make(
        cut_off.vertices + ("~y0", "~y1"), cut_off.terminals,
        cut_off.edges + (("~y0", "~y1", 1),) + tuple(
            (y, t, 2) for y in ("~y0", "~y1") for t in base.terminals),
        allow_disconnected=True)
    return base, cut_off, chained


def test_disconnected_pair_and_zero_demand_raise_as_before():
    base, cut_off, chained = _split_nets()
    assert flow._record(cut_off).stars is not None
    assert flow._record(chained).stars is None
    d = {(base.terminals[0], "~x1"): 1, base.terminals[:2]: 1}
    for net in (cut_off, chained):
        with pytest.raises(FlowError) as err:
            concurrent_flow(net, d)
        assert str(err.value) == "no path between t0 and ~x1"
    for net in (base, cut_off):
        with pytest.raises(FlowError, match="zero demand"):
            concurrent_flow(net, {})


def test_record_is_built_once_per_network(monkeypatch):
    """`_shape_of` and `_stars_of` run once per network, on the star path
    and on column generation, over split-pair errors, several solves and a
    memo hit; `_lift_of` runs only once a certificate is read, and then
    once, over several results and a memo hit."""
    calls = []
    for module, name in ((flow, "_shape_of"), (flow, "_lift_of"), (stars, "_stars_of")):
        def counting(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    base, cut_off, chained = _split_nets()
    split = {(base.terminals[0], "~x1"): 1}
    rng = random.Random(7)
    demands = [random_demand(rng, base) for _ in range(3)]
    for net, star_path in ((cut_off, True), (chained, False)):
        calls.clear()
        with pytest.raises(FlowError, match="no path"):
            concurrent_flow(net, split)
        results = [concurrent_flow(net, d) for d in demands]
        assert concurrent_flow(net, demands[0]) is results[0]     # a memo hit
        with pytest.raises(FlowError, match="no path"):
            concurrent_flow(net, split)
        assert sorted(calls) == ["_shape_of", "_stars_of"]
        assert results[1].dual and results[0].flow and results[2].dual
        assert concurrent_flow(net, demands[0]).flow is results[0].flow
        assert sorted(calls) == ["_lift_of", "_shape_of", "_stars_of"]
        assert (flow._record(net).stars is not None) == star_path


def test_triangle_rows_hold_on_a_metric():
    rng = np.random.default_rng(3)
    points = rng.random((6, 2))
    mu = np.array([np.abs(points[a] - points[b]).sum()
                   for a, b in itertools.combinations(range(6), 2)])
    rows = stars._triangles(6)
    assert rows.shape == (60, 15) and (rows @ mu <= 1e-12).all()


def _qb_demands():
    net = gen_quasi_bipartite(5, 40, seed=3)
    rng = random.Random(5)
    return net, [random_demand(rng, net) for _ in range(8)]


class TestStarRecord:
    """The star path's twins of the column-generation record tests."""

    def test_table_is_built_once_per_network(self, monkeypatch):
        real = stars._stars_of
        calls = []

        def counting(net, shape):
            calls.append(net)
            return real(net, shape)
        monkeypatch.setattr(stars, "_stars_of", counting)
        net, demands = _qb_demands()
        for d in demands:
            concurrent_flow(net, d)
        assert calls == [net]
        state = flow._record(net)
        assert state.stars is not None and not state.pool and not state.starts
        assert np.array_equal(state.stars.table, real(net, state.shape).table)

    def test_pivots_sum_the_master_simplex_calls(self, monkeypatch):
        import flowsparse.lp
        real = flowsparse.lp.simplex_min
        seen = []

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append((args[1].shape[0], out[5]))
            return out
        monkeypatch.setattr(flowsparse.lp, "simplex_min", counting)
        net, demands = _qb_demands()
        res = concurrent_flow(net, demands[0])
        assert len(seen) == res.rounds and res.pivots == sum(it for _, it in seen) > 0
        assert {rows for rows, _ in seen} == {1 + 10}      # 1 + k(k-1)/2 rows
        assert concurrent_flow(net, demands[0]) is res     # a memo hit
        assert len(seen) == res.rounds

    def test_memo_hit_returns_the_same_result(self):
        net, demands = _qb_demands()
        first = [concurrent_flow(net, d) for d in demands]
        assert all(concurrent_flow(net, d) is res for d, res in zip(demands, first))
        assert first[0].flow is concurrent_flow(net, demands[0]).flow


def test_flow_read_runs_only_the_pricing_dijkstras(monkeypatch):
    """A star result's `.flow` read routes over the terminal link graph by
    `flow._path_lp`, and every `flow._dijkstra` it runs is a pricing round's:
    the weak-duality bound, which column generation's solves take from the
    last round's trees, costs the read nothing, so a source that round
    skipped gets no Dijkstra."""
    calls, pricing = {True: 0, False: 0}, [False]
    real_dijkstra, real_columns = flow._dijkstra, flow._columns

    def dijkstra(*args):
        calls[pricing[0]] += 1
        return real_dijkstra(*args)

    def columns(A, b, basis, at, price):
        def marked(*args):
            pricing[0] = True
            try:
                return price(*args)
            finally:
                pricing[0] = False
        return real_columns(A, b, basis, at, marked)
    monkeypatch.setattr(flow, "_dijkstra", dijkstra)
    monkeypatch.setattr(flow, "_columns", columns)
    for seed in range(1, 4):
        net = gen_quasi_bipartite(5, 40, seed=seed)
        rng = random.Random(seed)
        for d in (random_demand(rng, net) for _ in range(3)):
            res = concurrent_flow(net, d)
            calls.update({True: 0, False: 0})
            assert res.flow.arc_flows
            assert calls[True] > 0 and calls[False] == 0


# ---------------------------------------------------------------------------
# The star kernels against the forms they replaced, kept here as they were
# written, bit for bit
# ---------------------------------------------------------------------------

def _table_by_basis(table):
    """(rows, row_star) of a star table as one batched product per support
    group made them, with one BLAS call per basis."""
    blocks, row_star, first = [], [], 0
    for cols, caps in table.groups:
        maps = stars._basis_maps(caps.shape[1])
        twice = np.matmul(maps, caps.T).transpose(2, 0, 1)
        terms = np.matmul(np.abs(maps), caps.T).transpose(2, 0, 1)
        ok = (twice >= -1e-15 * terms).all(2)
        block = np.zeros((int(ok.sum()), len(table.pairs)))
        block[:, cols] = twice[ok][:, :len(cols)] / 2
        blocks.append(block)
        row_star.append(first + np.repeat(np.arange(len(ok)), ok.sum(1)))
        first += len(caps)
    return np.concatenate(blocks), np.concatenate(row_star)


def _covering_by_einsum(table, mu):
    """`stars._covering` with each group's dual solutions taken by einsum."""
    out = []
    tol = 1e-12 * max(1.0, float(mu.max(initial=0.0)))
    for cols, caps in table.groups:
        maps = stars._basis_maps(caps.shape[1])
        us, ws = stars._pair_ends(caps.shape[1])
        m = mu[cols]
        y = np.einsum("e,bes->bs", m, maps[:, :len(cols)]) / 2
        y = y[(y >= -tol).all(1) & (y[:, us] + y[:, ws] >= m - tol).all(1)]
        out.append(np.maximum(y[(caps @ y.T).argmin(1)], 0.0).ravel())
    return np.concatenate([mu, *out])[table.edge_at].tolist()


def _first_maximisers_by_flatnonzero(table, mu):
    """Per star, the first table row that maximises mu . g, by flatnonzero."""
    vals = table.table @ mu
    top = np.maximum.reduceat(vals, table.starts)
    hit = np.flatnonzero(vals == top[table.row_star])
    star = table.row_star[hit]
    return hit[np.r_[True, star[1:] != star[:-1]]] if hit.size else hit


def _kernel_tables():
    """Star tables of seeded nets whose non-terminals are stars on 2 to 5
    terminals, with capacities over twelve decades, each read on its
    unreduced view (the reduction eliminates the stars on at most three
    terminals); and `_full_support_net`'s table, on its reduced view."""
    tables = []
    for seed in range(10):
        rng = random.Random(5200 + seed)
        ts = [f"t{i}" for i in range(rng.randint(5, 8))]
        mids = [f"v{i}" for i in range(rng.randint(4, 30))]
        edges = [(v, t, Fraction(rng.randint(1, 97), rng.randint(1, 89))
                  * Fraction(10) ** rng.randint(-6, 6))
                 for v in mids for t in rng.sample(ts, rng.randint(2, 5))]
        net = TerminalNetwork.make(ts + mids, ts, edges, allow_disconnected=True)
        tables.append(stars._stars_of(net, flow._shape_of(net.integer_view)))
    tables.append(flow._record(_full_support_net()).stars)
    return tables


def _points(rng, pairs, count):
    """`count` points mu on `pairs` coordinates: zero, then in turn uniform,
    log-uniform over twelve decades and small integers, at which many star
    vertices tie."""
    out = [np.zeros(pairs)]
    for i in range(count - 1):
        out.append(rng.random(pairs) if i % 3 == 0 else
                   10.0 ** rng.uniform(-6, 6, pairs) if i % 3 == 1 else
                   rng.integers(0, 4, pairs).astype(float))
    return out


def test_table_is_the_per_basis_products():
    """`_stars_of` takes each batch's vertices by one 2-D product with the
    stacked basis maps: the same rows, bit for bit, as one product per
    basis, over supports on 2 to 5 terminals, with groups of one star and
    of several."""
    sizes = set()
    for table in _kernel_tables():
        for _, caps in table.groups:
            s = caps.shape[1]
            sizes.add((s, len(caps) == 1))
            assert len(caps) * stars._basis_maps(s)[:, :, 0].size <= stars._BATCH_ENTRIES
        rows, row_star = _table_by_basis(table)
        assert np.array_equal(table.table, rows)
        assert np.array_equal(table.row_star, row_star)
    assert sizes == {(s, one) for s in range(2, 6) for one in (True, False)}


def test_covering_lengths_are_the_einsum_ones():
    """`_covering` takes each group's dual solutions as a sum of mu-weighted
    pair blocks: the same lengths, bit for bit, as the einsum over the
    basis maps."""
    rng = np.random.default_rng(52)
    for table in _kernel_tables():
        for mu in _points(rng, len(table.pairs), 60):
            assert stars._covering(table, mu) == _covering_by_einsum(table, mu)


def test_star_cut_takes_the_first_maximiser():
    """`_star_cut`'s rows are each star's first maximising row, as
    flatnonzero took them, where a star's vertices tie as well; at mu = 0
    every vertex ties and each star's first row is taken."""
    rng = np.random.default_rng(53)
    tied = 0
    for table in _kernel_tables():
        assert np.array_equal(stars._star_cut(table, np.zeros(len(table.pairs)))[0],
                              table.starts)
        for mu in _points(rng, len(table.pairs), 60):
            rows, cut = stars._star_cut(table, mu)
            assert np.array_equal(rows, _first_maximisers_by_flatnonzero(table, mu))
            assert np.array_equal(cut, table.table[rows].sum(0) + table.direct)
            vals = table.table @ mu
            top = np.maximum.reduceat(vals, table.starts)
            tied += int((np.bincount(table.row_star[vals == top[table.row_star]])
                         > 1).sum())
    assert tied > 0
