import numpy as np
import pytest
from scipy import stats

from polyadnet.graph import MultiGraph, seed_complete
from polyadnet.layers import TREE_RTOL, LayerIndex, SaturationError
from polyadnet.preference import PreferenceFunction


def path_graph(n):
    g = MultiGraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def total_weight(idx):
    """The Fenwick root: the sum of every layer weight."""
    return idx._tree[idx._size]


def layer_weight(idx, k):
    """The weight of layer k read back from the Fenwick tree."""

    def prefix(i):  # layers 0 .. i - 1
        s = 0.0
        while i:
            s += idx._tree[i]
            i -= i & -i
        return s

    return prefix(k + 1) - prefix(k)


def exact_probs(g, f):
    w = [f(d) for d in g.degrees]
    total = sum(w)
    return [x / total for x in w]


def test_build_layer_weights():
    g = seed_complete(4)  # all degree 3
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    idx.verify(g)
    assert {k: layer_weight(idx, k) for k in range(idx._hi) if layer_weight(idx, k)} == {3: 12.0}
    assert sorted(idx._members[3]) == [0, 1, 2, 3]
    assert total_weight(idx) == pytest.approx(12.0)


def test_path_graph_exact_sampling_probs():
    # degrees 1,2,1 under f(k)=k give probabilities 1/4, 1/2, 1/4
    g = path_graph(3)
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    rng = np.random.default_rng(11)
    draws = idx.sample_many(rng, 40_000)
    counts = np.bincount(draws, minlength=3)
    expected = np.array([0.25, 0.5, 0.25]) * len(draws)
    res = stats.chisquare(counts, expected)
    assert res.pvalue > 0.001


def test_sampling_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(202)
    f = PreferenceFunction.from_rule(
        lambda k: np.sqrt(np.asarray(k, float)) + 1.0, g=0
    )
    for _ in range(5):
        n = int(rng.integers(5, 30))
        g = MultiGraph()
        for _ in range(n):
            g.add_vertex()
        for _ in range(int(rng.integers(n, 4 * n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                g.add_edge(int(u), int(v))
        idx = LayerIndex.build(g, f)
        probs = exact_probs(g, f)
        draws = idx.sample_many(rng, 20_000)
        counts = np.bincount(draws, minlength=n)
        res = stats.chisquare(counts, np.array(probs) * len(draws))
        assert res.pvalue > 0.001


def test_insert_and_bump_keep_weights_consistent():
    g = path_graph(4)
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    v = g.add_vertex()
    idx.insert(v, 0)
    g.add_edge(0, v)
    idx.bump(0, 1, 2)
    idx.bump(v, 0, 1)
    idx.verify(g)
    assert total_weight(idx) == pytest.approx(sum(f(d) for d in g.degrees))


def test_bump_across_many_layers():
    g = seed_complete(3)
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    for t in range(5):
        g.add_edge(0, 1)
        idx.bump(0, 2 + t, 3 + t)
        idx.bump(1, 2 + t, 3 + t)
    idx.verify(g)
    assert layer_weight(idx, 7) == pytest.approx(14.0)


def test_capacity_growth():
    g = MultiGraph()
    g.add_vertex()
    f = PreferenceFunction.linear(g=1)
    idx = LayerIndex.build(g, f)
    v = g.add_vertex()
    idx.insert(v, 5000)  # far beyond the initial capacity
    # verify rebuilds from degrees alone; give v the degrees the index holds
    g.degrees[v] = 5000
    idx.verify(g)
    assert layer_weight(idx, 5000) == pytest.approx(5000.0)
    idx.bump(v, 5000, 9001)
    g.degrees[v] = 9001
    idx.verify(g)
    assert layer_weight(idx, 9001) == pytest.approx(9001.0)


def test_saturation_when_no_weight():
    # window [5, 10] but every vertex has degree 1: nothing to sample
    g = path_graph(2)
    f = PreferenceFunction.constant(1.0, g=5, M=10)
    idx = LayerIndex.build(g, f)
    with pytest.raises(SaturationError):
        idx.sample_many(np.random.default_rng(0), 1)


def test_out_of_window_vertices_never_sampled():
    g = path_graph(3)  # degrees 1,2,1
    f = PreferenceFunction.constant(1.0, g=2, M=3)
    idx = LayerIndex.build(g, f)
    draws = idx.sample_many(np.random.default_rng(3), 500)
    assert set(draws) == {1}


def test_verify_catches_corruption():
    g = path_graph(3)
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    idx.verify(g)
    g.add_edge(0, 2)  # graph changed behind the index's back
    with pytest.raises(AssertionError):
        idx.verify(g)


def test_sample_target_single():
    g = seed_complete(4)
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    v = idx.sample_many(np.random.default_rng(1), 1)[0]
    assert v in range(4)


def test_sampling_deterministic_per_seed():
    g = path_graph(6)
    f = PreferenceFunction.linear()
    idx1 = LayerIndex.build(g, f)
    idx2 = LayerIndex.build(g, f)
    a = idx1.sample_many(np.random.default_rng(99), 50)
    b = idx2.sample_many(np.random.default_rng(99), 50)
    assert a == b


def random_graph(rng, n, edges):
    g = MultiGraph()
    for _ in range(n):
        g.add_vertex()
    for _ in range(edges):
        u, v = rng.integers(0, n, 2)
        if u != v:
            g.add_edge(int(u), int(v))
    return g


def test_saturation_after_bumping_every_vertex_out_of_float_window():
    # float weights leave rounding residue in the tree once every layer is
    # emptied; saturation must come from the vertex count, not the total
    f = PreferenceFunction.from_table({1: 0.1, 2: 0.3, 3: 0.7, 4: 1.1})
    g = MultiGraph()
    for _ in range(6):
        g.add_vertex()
    for i in range(6):
        g.add_edge(i, (i + 1) % 6)  # a 6-cycle, every degree 2
    idx = LayerIndex.build(g, f)
    rng = np.random.default_rng(5)
    assert set(idx.sample_many(rng, 100)) == set(range(6))
    for step in range(3):  # 2 -> 3 -> 4 -> 5, the last out of the window
        for v in range(6):
            idx.bump(v, 2 + step, 3 + step)
            g.degrees[v] += 1  # degrees only; verify reads nothing else
    assert idx._tree[idx._top] > 0.0  # the residue this test is about
    idx.verify(g)  # residue within tolerance although every weight is 0
    with pytest.raises(SaturationError):
        idx.sample_many(rng, 1)
    idx.bump(0, 5, 4)  # one vertex back in the window: it is the only pick
    assert set(idx.sample_many(rng, 50)) == {0}


def test_descent_matches_cumulative_sum_search():
    # integer weights: every pick equals searchsorted over the cumulative
    # layer weights, the same uniforms in the same order
    rng = np.random.default_rng(31)
    g = random_graph(rng, 300, 1500)
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    draws = 5000
    got = idx.sample_many(np.random.default_rng(8), draws)
    hi = max(g.degrees) + 1
    # a freshly built index lists each layer's vertices in id order
    layers = {}
    for v, k in enumerate(g.degrees):
        layers.setdefault(k, []).append(v)
    cs = np.cumsum([f(k) * len(layers.get(k, ())) for k in range(hi)])
    u = np.random.default_rng(8).random(2 * draws)
    ks = np.searchsorted(cs, u[:draws] * cs[-1], side="right")
    want = [layers[int(k)][int(w * len(layers[int(k)]))] for k, w in zip(ks, u[draws:])]
    assert got == want


class ListUniforms:
    """Stands in for a Generator: ``random(n)`` returns the given values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return out


def test_descent_on_exact_layer_boundaries():
    # u * total equal to a cumulative weight picks the next layer, as
    # searchsorted(..., side="right") does
    g = MultiGraph()
    for _ in range(8):
        g.add_vertex()
    for u, v in ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (3, 4)):
        g.add_edge(u, v)
    # degrees 4, 3, 2, 2, 2, 1, 1, 1: layer weights 3, 6, 3, 4, total 16,
    # so u = c / 16 gives u * total = c exactly
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    us = [c / 16 for c in (0, 3, 9, 12)]
    picks = idx.sample_many(ListUniforms(us + [0.0] * len(us)), len(us))
    assert [g.degrees[v] for v in picks] == [1, 2, 3, 4]


def test_verify_checks_the_tree_exactly_for_integer_weights():
    g = seed_complete(5)
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    idx.verify(g)
    idx._tree[4] += 1e-12
    with pytest.raises(AssertionError, match="Fenwick"):
        idx.verify(g)


def test_verify_allows_float_drift_within_tolerance():
    rng = np.random.default_rng(4)
    f = PreferenceFunction.from_table({k: float(rng.uniform(0.1, 3.0)) for k in range(0, 60)})
    g = random_graph(rng, 40, 80)
    idx = LayerIndex.build(g, f)
    for _ in range(3000):  # random walk of degrees, rounding piles up
        u, v = (int(x) for x in rng.integers(0, 40, 2))
        if u != v and max(g.degrees[u], g.degrees[v]) < 58:
            g.add_edge(u, v)
            idx.bump(u, g.degrees[u] - 1, g.degrees[u])
            idx.bump(v, g.degrees[v] - 1, g.degrees[v])
    idx.verify(g)
    total = idx._tree[idx._size]
    idx._tree[idx._size] += 10 * TREE_RTOL * total
    with pytest.raises(AssertionError, match="Fenwick"):
        idx.verify(g)


def test_capacity_growth_keeps_tree_and_sampling():
    g = MultiGraph()
    for _ in range(3):
        g.add_vertex()
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)  # every degree 0, weight 0
    for v, k in ((0, 1), (1, 700), (2, 3000)):
        idx.bump(v, 0, k)
        for _ in range(k):
            g.degrees[v] += 1  # degrees only; verify reads nothing else
    idx.verify(g)
    draws = idx.sample_many(np.random.default_rng(2), 37010)
    counts = np.bincount(draws, minlength=3)
    res = stats.chisquare(counts, np.array([1, 700, 3000]) / 3701 * len(draws))
    assert res.pvalue > 0.001
