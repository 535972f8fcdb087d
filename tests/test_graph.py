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


def test_edges_live_in_two_columns():
    g = seed_complete(3)
    g.add_vertex()
    g.add_edge(3, 1)
    assert (list(g.lo), list(g.hi)) == ([0, 0, 1, 1], [1, 2, 2, 3])
    assert g.edge_count == 4
    assert list(g.iter_edges()) == g.edges == [(0, 1), (0, 2), (1, 2), (1, 3)]
    assert repr(g) == "MultiGraph(n=4, edges=4)"


def test_edges_is_a_read_only_copy():
    g = seed_complete(3)
    g.edges.append((0, 1))
    assert g.edge_count == 3
    with pytest.raises(AttributeError):
        g.edges = []


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


def test_add_clique_attachments_match_add_edge():
    # a triad whose bundle target 0 takes one edge from each new vertex,
    # then single ends 2 -> new 0 and 0 -> new 2
    g = seed_complete(3)
    base = g.add_clique(3, [0, 0, 0, 2, 0], [0, 1, 2, 0, 2])
    h = seed_complete(3)
    for _ in range(3):
        h.add_vertex()
    for u, v in [(3, 4), (3, 5), (4, 5), (0, 3), (0, 4), (0, 5), (2, 3), (0, 5)]:
        h.add_edge(u, v)
    assert base == 3
    assert (g.lo, g.hi, g.degrees) == (h.lo, h.hi, h.degrees)
    assert g.degrees == [6, 2, 3, 4, 3, 4]


def test_add_clique_of_one_vertex_has_only_attachments():
    g = seed_complete(2)
    assert g.add_clique(1, [1, 0, 1], [0, 0, 0]) == 2
    assert g.edges == [(0, 1), (1, 2), (0, 2), (1, 2)]
    assert g.degrees == [2, 3, 3]


def test_add_clique_rejects_unequal_columns():
    g = seed_complete(3)
    with pytest.raises(ValueError, match="2 attachment targets for 1 ends"):
        g.add_clique(2, [0, 1], [0])
    assert (g.n, g.edge_count) == (3, 3)


@pytest.mark.parametrize(
    "targets, ends, message",
    [
        ([0, 3], [0, 1], "attachment target 3 is not an existing vertex in range(3)"),  # a self-loop
        ([2, 4], [0, 0], "attachment target 4 is not an existing vertex in range(3)"),  # lo > hi
        ([-1], [0], "attachment target -1 is not an existing vertex in range(3)"),  # would wrap
        ([0, 9], [1, 0], "attachment target 9 is not an existing vertex in range(3)"),  # beyond the graph
        ([1], [-1], "attachment end -1 is not a new vertex offset in range(2)"),  # an existing vertex
        ([1, 2], [0, 2], "attachment end 2 is not a new vertex offset in range(2)"),  # beyond the clique
    ],
)
def test_add_clique_rejects_a_bad_id_before_any_change(targets, ends, message):
    g = seed_complete(3)
    before = (list(g.lo), list(g.hi), list(g.degrees))
    with pytest.raises(ValueError) as info:
        g.add_clique(2, targets, ends)
    assert str(info.value) == message
    assert (list(g.lo), list(g.hi), list(g.degrees)) == before
