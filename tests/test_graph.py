from array import array

import pytest

from polyadnet.graph import MultiGraph, empirical_vdd, seed_complete


def test_from_columns_orders_each_pair():
    g = MultiGraph.from_columns(3, [1, 0], [0, 2])
    assert g.edges == [(0, 1), (0, 2)]  # stored with u < v
    assert g.degrees == [2, 1, 1]


def test_from_columns_takes_int32_columns_without_a_copy():
    lo, hi = array("i", [2, 0, 3]), array("i", [0, 1, 1])
    g = MultiGraph.from_columns(5, lo, hi)
    assert g.lo is lo and g.hi is hi
    assert (list(lo), list(hi)) == ([0, 0, 1], [2, 1, 3])  # ordered in place
    assert g.degrees == [2, 2, 1, 1, 0]  # vertex 4 is isolated
    g.add_clique(1, [4], [0])  # the columns still grow
    assert g.edges[-1] == (4, 5)
    # other sequences, and arrays of another type, are copied
    wide = array("q", [1])
    h = MultiGraph.from_columns(2, wide, (0,))
    assert (h.lo.typecode, list(h.lo), list(h.hi), list(wide)) == ("i", [0], [1], [1])


def test_from_columns_rejects_unequal_columns():
    with pytest.raises(ValueError, match=r"^edge columns of unequal length 2 and 1$"):
        MultiGraph.from_columns(3, [0, 1], [2])


def test_edges_live_in_two_columns():
    g = MultiGraph.from_columns(4, [0, 0, 1, 3], [1, 2, 2, 1])
    assert (list(g.lo), list(g.hi)) == ([0, 0, 1, 1], [1, 2, 2, 3])
    assert g.edge_count == 4
    assert g.edges == [(0, 1), (0, 2), (1, 2), (1, 3)]
    assert repr(g) == "MultiGraph(n=4, edges=4)"


def test_edges_is_a_read_only_copy():
    g = seed_complete(3)
    g.edges.append((0, 1))
    assert g.edge_count == 3
    with pytest.raises(AttributeError):
        g.edges = []


def test_parallel_edges_accumulate_degree():
    g = MultiGraph.from_columns(2, [0, 1], [1, 0])
    assert g.degrees == [2, 2]
    assert len(g.edges) == 2


def test_self_loop_rejected():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        MultiGraph.from_columns(1, [0], [0])


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) references an unknown vertex$"):
        MultiGraph.from_columns(1, [3], [0])


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        ([0, 4, 2], [1, 1, 2], "edge (1, 4) references an unknown vertex"),  # before the self-loop
        ([0, 2, -1], [1, 2, 1], "self-loop at vertex 2"),  # before the negative id
        ([0, -1], [1, 0], "edge (-1, 0) references an unknown vertex"),
        ([5, 0], [5, 9], "self-loop at vertex 5"),  # a self-loop is named as one, even off the graph
    ],
)
def test_from_columns_names_the_first_bad_edge_and_changes_nothing(lo, hi, message):
    cols = array("i", lo), array("i", hi)
    with pytest.raises(ValueError) as info:
        MultiGraph.from_columns(3, *cols)
    assert str(info.value) == message
    assert (list(cols[0]), list(cols[1])) == (lo, hi)


@pytest.mark.parametrize("s,edges", [(2, 1), (3, 3), (4, 6), (7, 21)])
def test_seed_complete_sizes(s, edges):
    g = seed_complete(s)
    assert g.n == s
    assert len(g.edges) == edges
    assert all(d == s - 1 for d in g.degrees)
    assert sum(g.degrees) == 2 * g.edge_count


def test_seed_complete_rejects_small():
    with pytest.raises(ValueError):
        seed_complete(1)


def test_empirical_vdd():
    g = seed_complete(4)
    g.add_clique(1, [0], [0])
    d = empirical_vdd(g)
    # degrees are now 4,3,3,3,1
    assert d.prob(3) == pytest.approx(0.6)
    assert d.prob(4) == pytest.approx(0.2)
    assert d.prob(1) == pytest.approx(0.2)


def test_empirical_vdd_counts_isolated_vertices():
    g = MultiGraph.from_columns(3, [0], [1])
    d = empirical_vdd(g)
    assert d.prob(0) == pytest.approx(1 / 3)


def test_add_clique_matches_expected_pairs():
    g = seed_complete(3)
    base = g.add_clique(4)
    assert base == 3
    assert g.edges == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
    assert g.degrees == [2, 2, 2, 3, 3, 3, 3]


def test_add_clique_attachments_match_expected_pairs():
    # a triad whose bundle target 0 takes one edge from each new vertex,
    # then single ends 2 -> new 0 and 0 -> new 2
    g = seed_complete(3)
    base = g.add_clique(3, [0, 0, 0, 2, 0], [0, 1, 2, 0, 2])
    seed = [(0, 1), (0, 2), (1, 2)]
    want = seed + [(3, 4), (3, 5), (4, 5), (0, 3), (0, 4), (0, 5), (2, 3), (0, 5)]
    assert base == 3
    assert (list(g.lo), list(g.hi)) == ([u for u, _ in want], [v for _, v in want])
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
