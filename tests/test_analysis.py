import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import from_counts

from polyadnet.analysis import (
    compare,
    global_clustering,
    triangle_count,
    write_report,
)
from polyadnet.distributions import DegreeDistribution
from polyadnet.graph import MultiGraph, seed_complete


def dist(probs):
    return DegreeDistribution.from_probs(probs)


def brute_triangles(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0
    for u, v, w in itertools.combinations(range(g.n), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            count += 1
    return count


def random_multigraph(rng, n, m):
    lo, hi = [], []
    while len(lo) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            lo.append(int(u))
            hi.append(int(v))
    return MultiGraph.from_columns(n, lo, hi)


class TestCompare:
    def test_identical_distributions(self):
        d = dist({1: 0.5, 2: 0.5})
        rep = compare(d, d)
        assert rep.tv_distance == 0.0
        assert rep.ks_statistic == 0.0
        assert rep.common_support == (1, 2)

    def test_disjoint_supports(self):
        rep = compare(dist({1: 1.0}), dist({5: 1.0}))
        assert rep.tv_distance == pytest.approx(1.0)
        assert rep.ks_statistic == pytest.approx(1.0)
        assert rep.common_support is None

    def test_hand_computed_case(self):
        rep = compare(dist({1: 0.5, 2: 0.5}), dist({1: 0.25, 2: 0.25, 3: 0.5}))
        assert rep.tv_distance == pytest.approx(0.5)
        assert rep.ks_statistic == pytest.approx(0.5)
        assert rep.per_k_abs_error == pytest.approx({1: 0.25, 2: 0.25, 3: 0.5})

    @given(
        st.dictionaries(st.integers(0, 30), st.integers(1, 50), min_size=1, max_size=10),
        st.dictionaries(st.integers(0, 30), st.integers(1, 50), min_size=1, max_size=10),
        st.dictionaries(st.integers(0, 30), st.integers(1, 50), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, c1, c2, c3):
        d1 = from_counts(c1)
        d2 = from_counts(c2)
        d3 = from_counts(c3)
        r12 = compare(d1, d2)
        r21 = compare(d2, d1)
        assert 0.0 <= r12.tv_distance <= 1.0 + 1e-12
        assert r12.tv_distance == pytest.approx(r21.tv_distance, abs=1e-14)
        # CDF gap never exceeds the L1 mass difference
        assert r12.ks_statistic <= 2.0 * r12.tv_distance + 1e-12
        # triangle inequality through d3
        r13 = compare(d1, d3)
        r32 = compare(d3, d2)
        assert r12.tv_distance <= r13.tv_distance + r32.tv_distance + 1e-12


class TestTriangles:
    @pytest.mark.parametrize("s,expected", [(3, 1), (4, 4), (5, 10), (6, 20)])
    def test_complete_graphs(self, s, expected):
        assert triangle_count(seed_complete(s)) == expected

    def test_path_has_none(self):
        g = MultiGraph.from_columns(5, range(4), range(1, 5))
        assert triangle_count(g) == 0

    def test_empty_and_edgeless_graphs_have_none(self):
        assert triangle_count(MultiGraph()) == 0
        assert triangle_count(MultiGraph.from_columns(2, [], [])) == 0

    def test_parallel_edges_count_once(self):
        g = MultiGraph.from_columns(3, [0, 0, 1, 0, 1], [1, 2, 2, 1, 0])
        assert triangle_count(g) == 1

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            g = random_multigraph(rng, int(rng.integers(8, 45)), int(rng.integers(10, 120)))
            assert triangle_count(g) == brute_triangles(g)


class TestClustering:
    def test_complete_graph_is_one(self):
        g = seed_complete(4)
        assert global_clustering(g, triangle_count(g)) == pytest.approx(1.0)

    def test_k4_with_pendant(self):
        g = seed_complete(4)
        g.add_clique(1, [0], [0])
        # 4 triangles, wedges: C(4,2) at the hub plus 3*C(3,2) = 15
        assert global_clustering(g, triangle_count(g)) == pytest.approx(12 / 15)

    def test_no_wedges_raises(self):
        with pytest.raises(ValueError):
            global_clustering(MultiGraph.from_columns(2, [0], [1]), 0)

    def test_brute_wedge_comparison(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            g = random_multigraph(rng, 20, 40)
            adj = [set() for _ in range(g.n)]
            for u, v in g.edges:
                adj[u].add(v)
                adj[v].add(u)
            wedges = sum(len(a) * (len(a) - 1) // 2 for a in adj)
            if wedges == 0:
                continue
            expected = 3 * brute_triangles(g) / wedges
            assert global_clustering(g, triangle_count(g)) == pytest.approx(expected)


def test_write_report(tmp_path):
    d1 = dist({1: 0.6, 2: 0.4})
    d2 = dist({1: 0.5, 2: 0.5})
    rep = compare(d1, d2)
    path = tmp_path / "report.csv"
    write_report(path, d1, d2, rep, {"triangles": 7})
    text = path.read_text()
    assert "# tv_distance=" in text
    assert "# triangles=7" in text
    assert "k,empirical,theoretical,abs_error" in text
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[1].startswith("1,0.6,0.5,")
