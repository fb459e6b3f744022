"""The generators' one reconnection rule: a disconnected draw is joined up by
hubs, each a new non-terminal on the first terminals of two components."""

import hashlib

import pytest

from flowsparse.generators import gen_bounded_component, gen_quasi_bipartite
from flowsparse.network import components


# hubs gen_bounded_component(6, 9, 2, seed) adds, seeds 0-5
BOUNDED_HUBS = [1, 1, 0, 0, 1, 2]


@pytest.mark.parametrize("seed", range(6))
def test_bounded_component_draw_is_joined_by_hubs(seed):
    net = gen_bounded_component(6, 9, 2, seed)
    assert net.is_connected()
    terminals = net.terminal_set
    for comp in components(net, terminals):
        touched = {t for v in comp for t in net.adjacency[v] if t in terminals}
        assert len(comp) <= 2 and len(touched) >= 2
    hubs = [v for v in net.vertices if v.startswith("h")]
    assert len(hubs) == BOUNDED_HUBS[seed]
    assert all(len(net.adjacency[h]) == 2 and set(net.adjacency[h]) <= terminals
               for h in hubs)


# (k, n, seed) of gen_quasi_bipartite draws that take 1 to 6 hubs, two each
STITCHED_DRAWS = [(3, 4, 1), (3, 4, 2), (4, 5, 1), (4, 5, 2), (5, 6, 1), (5, 6, 2),
                  (6, 7, 1), (6, 7, 2), (7, 8, 1), (7, 8, 2), (8, 9, 1), (8, 9, 2)]
# sha256 of their canonical fields (capacities as p/q), as drawn before both
# generators shared one reconnection rule
PINNED_STITCHED = "5d7125d4e655e9903be342ef236a347251f43569945e5e61264822b2b81d74a4"


def test_stitched_quasi_bipartite_draws_are_pinned():
    digest = hashlib.sha256()
    hubs = set()
    for k, n, seed in STITCHED_DRAWS:
        net = gen_quasi_bipartite(k, n, seed)
        assert net.is_connected() and net.is_quasi_bipartite()
        hubs.add(len(net.vertices) - n)
        digest.update(repr((net.vertices, net.terminals,
                            tuple((a, b, f"{c.numerator}/{c.denominator}")
                                  for a, b, c in net.edges))).encode())
    assert hubs == {1, 2, 3, 4, 5, 6}
    assert digest.hexdigest() == PINNED_STITCHED
