import math
import tracemalloc

import numpy as np
import pytest
from oracles import TREE_RTOL, check_index
from scipy import stats

from polyadnet.distributions import DegreeDistribution
from polyadnet.engine import grow
from polyadnet.graph import MultiGraph, seed_complete
from polyadnet.layers import LayerIndex, SaturationError
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction


def path_graph(n):
    return MultiGraph.from_columns(n, range(n - 1), range(1, n))


def random_graph(rng, n, edges):
    """``edges`` uniform vertex pairs on ``n`` vertices, self-loops dropped."""
    pairs = [(int(u), int(v)) for u, v in (rng.integers(0, n, 2) for _ in range(edges)) if u != v]
    return MultiGraph.from_columns(n, [u for u, _ in pairs], [v for _, v in pairs])


def total_weight(idx):
    """The Fenwick root: the sum of every layer weight."""
    return idx._tree[-1]


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
    check_index(idx, g.degrees)
    assert {k: layer_weight(idx, k) for k in range(len(idx._fw)) if layer_weight(idx, k)} == {3: 12.0}
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
        g = random_graph(rng, n, int(rng.integers(n, 4 * n)))
        idx = LayerIndex.build(g, f)
        probs = exact_probs(g, f)
        draws = idx.sample_many(rng, 20_000)
        counts = np.bincount(draws, minlength=n)
        res = stats.chisquare(counts, np.array(probs) * len(draws))
        assert res.pvalue > 0.001


def test_update_keeps_weights_consistent():
    g = path_graph(4)
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    v = g.add_clique(1, [0], [0])
    idx.update(g.degrees, [0], v)
    check_index(idx, g.degrees)
    assert total_weight(idx) == pytest.approx(sum(f(d) for d in g.degrees))


def test_update_across_many_layers():
    g = seed_complete(3)
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)
    g.degrees[0] += 5  # five parallel edges 0-1; check_index reads degrees only
    g.degrees[1] += 5
    idx.update(g.degrees, [0, 1] * 5, g.n)  # a jump of 5 is 5 repeats
    check_index(idx, g.degrees)
    assert layer_weight(idx, 7) == pytest.approx(14.0)


def test_capacity_growth():
    g = MultiGraph.from_columns(1, [], [])
    f = PreferenceFunction.linear(g=1)
    idx = LayerIndex.build(g, f)
    v = 1
    # check_index rebuilds from degrees alone; a new vertex far beyond the
    # initial capacity needs no edges
    g.degrees.append(5000)
    idx.update(g.degrees, (), v)
    check_index(idx, g.degrees)
    assert layer_weight(idx, 5000) == pytest.approx(5000.0)
    g.degrees[v] = 9001
    idx.update(g.degrees, [v] * 4001, v + 1)
    check_index(idx, g.degrees)
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
    check_index(idx, g.degrees)
    g.add_clique(1, [0], [0])  # graph changed behind the index's back
    with pytest.raises(AssertionError):
        check_index(idx, g.degrees)
    idx = LayerIndex.build(g, PreferenceFunction.linear())  # layer 1 holds 2 and 3
    idx._pos[2], idx._pos[3] = idx._pos[3], idx._pos[2]  # right layers, wrong slots
    with pytest.raises(AssertionError, match="slot"):
        check_index(idx, g.degrees)


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


def test_saturation_after_bumping_every_vertex_out_of_float_window():
    # float weights leave rounding residue in the tree once every layer is
    # emptied; saturation must come from the vertex count, not the total
    f = PreferenceFunction.from_table({1: 0.1, 2: 0.3, 3: 0.7, 4: 1.1})
    g = MultiGraph.from_columns(6, range(6), [1, 2, 3, 4, 5, 0])  # a 6-cycle, every degree 2
    idx = LayerIndex.build(g, f)
    rng = np.random.default_rng(5)
    assert set(idx.sample_many(rng, 100)) == set(range(6))
    for step in range(3):  # 2 -> 3 -> 4 -> 5, the last out of the window
        for v in range(6):
            g.degrees[v] += 1  # degrees only; check_index reads nothing else
            idx.update(g.degrees, [v], 6)
    assert total_weight(idx) > 0.0  # the residue this test is about
    check_index(idx, g.degrees)  # residue within tolerance although every weight is 0
    with pytest.raises(SaturationError):
        idx.sample_many(rng, 1)
    g.degrees.append(4)  # one new vertex in the window: it is the only pick
    idx.update(g.degrees, (), 6)
    assert set(idx.sample_many(rng, 50)) == {6}


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
    g = MultiGraph.from_columns(8, [0, 0, 0, 0, 1, 1, 2, 3], [1, 2, 3, 4, 5, 6, 7, 4])
    # degrees 4, 3, 2, 2, 2, 1, 1, 1: layer weights 3, 6, 3, 4, total 16,
    # so u = c / 16 gives u * total = c exactly
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    us = [c / 16 for c in (0, 3, 9, 12)]
    picks = idx.sample_many(ListUniforms(us + [0.0] * len(us)), len(us))
    assert [g.degrees[v] for v in picks] == [1, 2, 3, 4]


def test_largest_uniform_picks_the_highest_live_layer():
    # the largest double below 1 puts u * total just under the total:
    # the descent ends on the last layer of positive weight
    g = MultiGraph.from_columns(8, [0, 0, 0, 0, 1, 1, 2, 3], [1, 2, 3, 4, 5, 6, 7, 4])
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    picks = idx.sample_many(ListUniforms([np.nextafter(1.0, 0.0), 0.0]), 1)
    assert picks == [0] and g.degrees[0] == 4


@pytest.mark.parametrize(
    "degrees, nodes, u, pick",
    [([1, 3], [3], 0.5, 0), ([3], [3], 0.0, 0), ([3], [1, 2], 0.0, 0)],
    ids=["below", "above", "above-past-two"],
)
def test_descent_onto_an_empty_layer_takes_the_nearest_live_one(degrees, nodes, u, pick):
    # a one-ulp residue, as float rounding can leave, on the nodes of an
    # empty layer that hold no live weight makes the descent stop there:
    # node 3 covers layer 2 alone, nodes 1 and 2 cover layer 0 and layers
    # 0-1; the pick moves to the nearest live layer below (degree 1), else
    # above (degree 3, past the empty layers 1 and 2 from layer 0)
    idx = LayerIndex(PreferenceFunction.constant(1.0, g=0))
    idx.update(degrees)
    for i in nodes:
        idx._tree[i] += math.ulp(0.0)
    assert idx.sample_many(ListUniforms([u, 0.0]), 1) == [pick]


def test_verify_checks_the_tree_exactly_for_integer_weights():
    g = seed_complete(5)
    idx = LayerIndex.build(g, PreferenceFunction.linear())
    check_index(idx, g.degrees)
    idx._tree[4] += 1e-12
    with pytest.raises(AssertionError, match="Fenwick"):
        check_index(idx, g.degrees)


def test_verify_allows_float_drift_within_tolerance():
    rng = np.random.default_rng(4)
    f = PreferenceFunction.from_table({k: float(rng.uniform(0.1, 3.0)) for k in range(0, 60)})
    g = random_graph(rng, 40, 80)
    idx = LayerIndex.build(g, f)
    for _ in range(3000):  # random walk of degrees, rounding piles up
        u, v = (int(x) for x in rng.integers(0, 40, 2))
        if u != v and max(g.degrees[u], g.degrees[v]) < 58:
            g.degrees[u] += 1  # an edge u-v; check_index reads degrees only
            g.degrees[v] += 1
            idx.update(g.degrees, [u, v], 40)
    check_index(idx, g.degrees)
    idx._tree[-1] += 10 * TREE_RTOL * total_weight(idx)
    with pytest.raises(AssertionError, match="Fenwick"):
        check_index(idx, g.degrees)


def test_capacity_growth_keeps_tree_and_sampling():
    g = MultiGraph.from_columns(3, [], [])
    f = PreferenceFunction.linear()
    idx = LayerIndex.build(g, f)  # every degree 0, weight 0
    for v, k in ((0, 1), (1, 700), (2, 3000)):
        g.degrees[v] += k  # degrees only; check_index reads nothing else
        idx.update(g.degrees, [v] * k, 3)
    check_index(idx, g.degrees)
    draws = idx.sample_many(np.random.default_rng(2), 37010)
    counts = np.bincount(draws, minlength=3)
    res = stats.chisquare(counts, np.array([1, 700, 3000]) / 3701 * len(draws))
    assert res.pvalue > 0.001


@pytest.mark.parametrize(
    "f",
    [PreferenceFunction.linear(), PreferenceFunction.from_rule(lambda k: np.sqrt(k) + 0.5, g=1)],
    ids=["integer", "float"],
)
def test_update_follows_increments(f):
    # random clique increments with bundles and repeat draws, then one
    # that has all of them and a new vertex past the covered degrees
    rng = np.random.default_rng(23)
    g = seed_complete(4)
    idx = LayerIndex.build(g, f)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        bundles = rng.integers(0, g.n, int(rng.integers(0, 3))).tolist()
        ends = rng.integers(0, n, int(rng.integers(0, 6))).tolist()
        targets = [t for t in bundles for _ in range(n)] + rng.integers(0, g.n, len(ends)).tolist()
        base = g.add_clique(n, targets, [*range(n)] * len(bundles) + ends)
        idx.update(g.degrees, targets, base)
        check_index(idx, g.degrees)
    # bundle target 0; vertex 1 drawn twice; new vertex 0 reaches
    # degree cap, the first one past the covered degrees
    cap = len(idx._fw)
    targets = [0, 0, 1, 1] + rng.integers(2, g.n, cap - 2).tolist()
    ends = [0, 1, 1, 1] + [0] * (cap - 2)
    base = g.add_clique(2, targets, ends)
    assert g.degrees[base] == cap
    idx.update(g.degrees, targets, base)
    check_index(idx, g.degrees)
    assert len(idx._fw) > cap


def point(j):
    return DegreeDistribution.from_probs({j: 1.0})


# the models of the benchmark's grow workload and their seed graph sizes
GROWN = {
    "ba": (ModelParams(gamma=0.0, n=2, mu=0, r1=point(2), rn=point(0)), 4),
    "mixed": (
        ModelParams(
            gamma=0.3, n=3, mu=1, r1=point(1), rn=DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
        ),
        4,
    ),
    "pentads": (ModelParams(gamma=1.0, n=5, mu=0, r1=point(0), rn=point(1)), 5),
}


@pytest.mark.parametrize("name", GROWN)
def test_grown_index_keeps_at_most_16_bytes_per_vertex(monkeypatch, name):
    # members and slots are int32 arrays: after 20k steps the index takes
    # about 8-12 B per vertex, tree and weights included, where lists of
    # boxed ints took about 75. The whole run is traced, so each array is
    # counted as the run's appends and removals left it.
    grown = []
    build = LayerIndex.build

    def kept(g, f):
        grown.append(build(g, f))
        return grown[-1]

    monkeypatch.setattr(LayerIndex, "build", kept)
    p, seed_size = GROWN[name]
    f = PreferenceFunction.linear()
    tracemalloc.start()
    try:
        g = seed_complete(seed_size)
        grow(g, p, f, 20_000, rng_seed=7)
        held = tracemalloc.get_traced_memory()[0]
        grown.clear()
        freed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (held - freed) / g.n <= 16
