import pytest

from polyadnet.graph import MultiGraph, empirical_vdd, seed_complete


def test_add_vertex_and_edge():
    g = MultiGraph()
    a = g.add_vertex()
    b = g.add_vertex()
    assert (a, b) == (0, 1)
    g.add_edge(1, 0)
    assert g.edges == [(0, 1)]  # stored with u < v
    assert g.degrees == [1, 1]


def test_parallel_edges_accumulate_degree():
    g = MultiGraph()
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    assert g.degrees == [2, 2]
    assert len(g.edges) == 2


def test_self_loop_rejected():
    g = MultiGraph()
    g.add_vertex()
    with pytest.raises(ValueError):
        g.add_edge(0, 0)


def test_unknown_vertex_rejected():
    g = MultiGraph()
    g.add_vertex()
    with pytest.raises(ValueError):
        g.add_edge(0, 3)


def test_handshake_check():
    g = seed_complete(3)
    g.check_handshake()
    g.degrees[0] += 1  # corrupt on purpose
    with pytest.raises(AssertionError):
        g.check_handshake()


@pytest.mark.parametrize("s,edges", [(2, 1), (3, 3), (4, 6), (7, 21)])
def test_seed_complete_sizes(s, edges):
    g = seed_complete(s)
    assert g.n == s
    assert len(g.edges) == edges
    assert all(d == s - 1 for d in g.degrees)


def test_seed_complete_rejects_small():
    with pytest.raises(ValueError):
        seed_complete(1)


def test_empirical_vdd():
    g = seed_complete(4)
    g.add_vertex()
    g.add_edge(0, 4)
    d = empirical_vdd(g)
    # degrees are now 4,3,3,3,1
    assert d.prob(3) == pytest.approx(0.6)
    assert d.prob(4) == pytest.approx(0.2)
    assert d.prob(1) == pytest.approx(0.2)


def test_empirical_vdd_counts_isolated_vertices():
    g = MultiGraph()
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1)
    g.add_vertex()
    d = empirical_vdd(g)
    assert d.prob(0) == pytest.approx(1 / 3)


def test_add_clique_matches_pairwise_add_edge():
    g = seed_complete(3)
    base = g.add_clique(4)
    h = seed_complete(3)
    for _ in range(4):
        h.add_vertex()
    for i in range(4):
        for j in range(i + 1, 4):
            h.add_edge(3 + i, 3 + j)
    assert base == 3
    assert g.edges == h.edges
    assert g.degrees == h.degrees == [2, 2, 2, 3, 3, 3, 3]
