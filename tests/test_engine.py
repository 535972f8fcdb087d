import hashlib
import tracemalloc
from array import array
from collections import Counter

import numpy as np
import pytest
from oracles import checking_updates, edge_list_text, expected_counts, read_stats
from scipy import stats

from polyadnet import engine
from polyadnet.distributions import ROWS_PER_WRITE, DegreeDistribution
from polyadnet.engine import (
    grow,
    read_edge_list,
    write_edge_list,
    write_stats,
)
from polyadnet.graph import MultiGraph, seed_complete
from polyadnet.layers import LayerIndex, SaturationError
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction

UNIT = PreferenceFunction.constant(1.0, g=0)
LINEAR = PreferenceFunction.linear()


def point(j):
    return DegreeDistribution.from_probs({j: 1.0})


def test_monad_step_hand_count():
    p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(3), rn=point(0))
    g = seed_complete(4)
    stats = grow(g, p, UNIT, 1, rng_seed=0)
    assert (g.n, len(g.edges)) == (5, 9)
    assert g.degrees[4] == 3
    assert stats.monad_steps == 1 and stats.nad_steps == 0
    assert sum(g.degrees) == 2 * g.edge_count


def test_triad_step_hand_count():
    # one triad, every j_v = 2, one bundle: 3 clique + 3 bundle + 3 single
    # edges, so 9 new edges and the degree sum grows by 18
    p = ModelParams(gamma=1.0, n=3, mu=1, r1=point(0), rn=point(2))
    g = seed_complete(4)
    grow(g, p, UNIT, 1, rng_seed=1)
    assert g.n == 7
    assert len(g.edges) == 6 + 9
    assert sum(g.degrees) == 12 + 18
    # each new vertex: 2 clique neighbours + 2 own free ends
    assert g.degrees[4:] == [4, 4, 4]
    assert sum(g.degrees) == 2 * g.edge_count


def test_pentad_step_hand_count():
    # n=5, all j_v=2, mu=0: 10 clique edges plus 10 free edges
    p = ModelParams(gamma=1.0, n=5, mu=0, r1=point(0), rn=point(2))
    g = seed_complete(4)
    grow(g, p, UNIT, 1, rng_seed=2)
    assert g.n == 9
    assert len(g.edges) == 6 + 20
    assert g.degrees[4:] == [6, 6, 6, 6, 6]


def test_bundle_target_degree_jumps_by_n():
    # j_v = mu = 1 means every free end is bundled: exactly one old vertex
    # takes all three ends at once
    p = ModelParams(gamma=1.0, n=3, mu=1, r1=point(0), rn=point(1))
    g = seed_complete(4)
    grow(g, p, UNIT, 1, rng_seed=3)
    assert sorted(g.degrees[:4]) == [3, 3, 3, 6]
    assert g.degrees[4:] == [3, 3, 3]


def test_narrow_window_forces_parallel_edges():
    # five ends, four admissible targets: some pair of ends must collide
    p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(5), rn=point(0))
    f = PreferenceFunction.constant(1.0, g=3, M=10)
    g = seed_complete(4)
    grow(g, p, f, 1, rng_seed=4)
    assert len(g.edges) == 11
    assert len(set(g.edges)) < 11
    assert sum(g.degrees) == 2 * g.edge_count


def test_all_targets_drawn_before_increment_applies():
    # the new monad vertex must never receive its own edges: with a window
    # that only matches the newcomer's degree, sampling saturates instead
    p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(2), rn=point(0))
    f = PreferenceFunction.constant(1.0, g=1, M=1)
    g = MultiGraph.from_columns(2, [0], [1])  # both vertices start at degree 1
    stats = grow(g, p, f, 1, rng_seed=5)
    # both ends had to land on the two degree-1 vertices
    assert stats.realized_edges == 2
    assert sorted(g.degrees) == [2, 2, 2]


def test_saturation_carries_partial_stats():
    p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(2), rn=point(0))
    f = PreferenceFunction.constant(1.0, g=1, M=1)
    g = MultiGraph.from_columns(2, [0], [1])
    with pytest.raises(SaturationError) as exc_info:
        grow(g, p, f, 10, rng_seed=6)
    stats = exc_info.value.stats
    # each step retires one or two window vertices and adds none, so the
    # run starves after at most two full steps
    assert stats.steps in (1, 2)
    assert g.n == 2 + stats.realized_vertices  # failed increment left no trace
    assert all(d != 1 for d in g.degrees)


def test_gamma_zero_runs_only_monads():
    p = ModelParams(gamma=0.0, n=4, mu=0, r1=point(1), rn=point(0))
    g = seed_complete(3)
    stats = grow(g, p, LINEAR, 200, rng_seed=7)
    assert stats.monad_steps == 200
    assert stats.nad_steps == 0
    assert g.n == 203


def test_gamma_one_runs_only_nads():
    p = ModelParams(gamma=1.0, n=3, mu=0, r1=point(0), rn=point(1))
    g = seed_complete(3)
    stats = grow(g, p, LINEAR, 100, rng_seed=8)
    assert stats.nad_steps == 100
    assert g.n == 303


def test_growth_rates_match_expectation():
    rn = DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
    p = ModelParams(gamma=0.25, n=3, mu=1, r1=point(2), rn=rn)
    g = seed_complete(4)
    steps = 2000
    stats = grow(g, p, LINEAR, steps, rng_seed=9)
    # expectations 1.5 vertices and 3.375 edges per step; bounds are ~4 sigma
    assert abs(stats.realized_vertices / steps - 1.5) < 0.08
    assert abs(stats.realized_edges / steps - 3.375) < 0.25
    assert sum(g.degrees) == 2 * g.edge_count


def test_zero_steps_leaves_seed():
    p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(2), rn=point(0))
    g = seed_complete(5)
    stats = grow(g, p, LINEAR, 0, rng_seed=10)
    assert stats.steps == 0
    assert g.n == 5 and len(g.edges) == 10


def test_periodic_self_check_passes():
    rn = DegreeDistribution.from_probs({1: 0.6, 3: 0.4})
    p = ModelParams(gamma=0.4, n=3, mu=1, r1=point(2), rn=rn)
    g = seed_complete(4)
    with checking_updates(50):
        grow(g, p, LINEAR, 400, rng_seed=11)
    assert sum(g.degrees) == 2 * g.edge_count


def test_same_seed_same_graph():
    rn = DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
    p = ModelParams(gamma=0.3, n=3, mu=1, r1=point(2), rn=rn)
    g1 = seed_complete(4)
    g2 = seed_complete(4)
    grow(g1, p, LINEAR, 500, rng_seed=12)
    grow(g2, p, LINEAR, 500, rng_seed=12)
    assert g1.edges == g2.edges
    g3 = seed_complete(4)
    grow(g3, p, LINEAR, 500, rng_seed=13)
    assert g3.edges != g1.edges


def test_negative_steps_rejected():
    p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(2), rn=point(0))
    with pytest.raises(ValueError):
        grow(seed_complete(3), p, LINEAR, -1, rng_seed=0)


def test_edge_list_round_trip(tmp_path):
    # a parallel edge 1-0, and vertex 3 isolated: only the header preserves it
    g = MultiGraph.from_columns(4, [0, 0, 1, 1], [1, 2, 2, 0])
    path = tmp_path / "edges.tsv"
    write_edge_list(g, path, {"rng_seed": 42, "gamma": 0.5})
    back, header = read_edge_list(path)
    assert back.n == 4
    assert back.edges == g.edges
    assert back.degrees == g.degrees
    assert header["vertices"] == "4"
    assert header["rng_seed"] == "42"


def test_edge_list_rejects_bad_vertex_count(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("# vertices=2\n0\t5\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


@pytest.mark.parametrize("raw", ["abc", "-4", "4.0", ""])
def test_edge_list_names_a_bad_vertex_header(tmp_path, raw):
    path = tmp_path / "e.tsv"
    path.write_text(f"# vertices={raw}\n0\t1\n")
    with pytest.raises(ValueError) as info:
        read_edge_list(path)
    assert str(info.value) == f"header vertices={raw!r} is not a non-negative integer"


def test_edge_list_rejects_malformed_row(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\t2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def _chained_pentads(m: int) -> MultiGraph:
    """``m`` edges: pentad cliques, each tied to the one before by a double
    edge, topped up with parallel edges and followed by an isolated vertex."""
    g = seed_complete(5)
    while g.edge_count + 12 <= m:
        g.add_clique(5, [g.n - 1] * 2, [0, 0])
    extra = m - g.edge_count
    lo, hi = g.lo + array("i", [0] * extra), g.hi + array("i", [1] * extra)
    return MultiGraph.from_columns(g.n + 1, lo, hi)  # the last vertex is isolated


@pytest.mark.parametrize("m", [10, ROWS_PER_WRITE, 2 * ROWS_PER_WRITE + 7])
def test_edge_list_bytes_match_oracle(tmp_path, m):
    # one block, exactly one full block, and blocks with a short last one
    g = _chained_pentads(m)
    assert g.edge_count == m
    header = {"rng_seed": 42, "gamma": 0.5}
    write_edge_list(g, tmp_path / "edges.tsv", header)
    assert (tmp_path / "edges.tsv").read_bytes() == edge_list_text(g, header)


def test_edge_list_bytes_match_oracle_for_ids_of_every_width(tmp_path):
    # one block whose ids take 1 to 7 digits, 0 and powers of ten among them
    lo = [0, 0, 9, 10, 99, 100, 0, 999_999, 5]
    hi = [1, 1_000_000, 10, 11, 100, 101, 999_999, 1_000_000, 1_000_000]
    g = MultiGraph.from_columns(1_000_001, lo, hi)
    write_edge_list(g, tmp_path / "edges.tsv", {"k": "v"})
    assert (tmp_path / "edges.tsv").read_bytes() == edge_list_text(g, {"k": "v"})


def test_edge_list_without_edges_matches_oracle(tmp_path):
    g = MultiGraph.from_columns(1, [], [])
    write_edge_list(g, tmp_path / "edges.tsv")
    assert (tmp_path / "edges.tsv").read_bytes() == edge_list_text(g, {}) == b"# vertices=1\n"


def test_edge_list_round_trip_keeps_columns(tmp_path):
    g = _chained_pentads(2 * ROWS_PER_WRITE + 7)
    write_edge_list(g, tmp_path / "edges.tsv")
    back, _ = read_edge_list(tmp_path / "edges.tsv")
    assert (back.lo, back.hi, back.degrees) == (g.lo, g.hi, g.degrees)
    # the columns read back still grow
    back.add_clique(1, [0], [0])
    assert back.edge_count == g.edge_count + 1


def test_write_edge_list_streams_its_rows(tmp_path):
    # joined in memory, the rows of 200k edges would take about 18 MB:
    # their strings plus the text; a block of ROWS_PER_WRITE rows is under 1 MB
    g = _chained_pentads(200_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_edge_list(g, tmp_path / "edges.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2 * 2**20


def test_edge_list_rejects_out_of_range_id(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n1\t4294967296\n")
    with pytest.raises(ValueError, match=r"^line 2: vertex id out of range in '1\\t4294967296'$"):
        read_edge_list(path)


def test_stats_round_trip(tmp_path):
    path = tmp_path / "stats.txt"
    write_stats({"steps": 10, "saturated": False}, path)
    back = read_stats(path)
    assert back == {"steps": "10", "saturated": "False"}


def test_edge_list_rejects_self_loop(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("# vertices=3\n0\t1\n2\t2\n")
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        read_edge_list(path)


def test_edge_list_rejects_negative_id(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("# vertices=3\n1\t-1\n")
    with pytest.raises(ValueError, match=r"^edge \(-1, 1\) references an unknown vertex$"):
        read_edge_list(path)


def test_edge_list_reports_row_and_count_errors_before_bad_edges(tmp_path):
    # the whole file is parsed and the header checked before edges are
    path = tmp_path / "edges.tsv"
    path.write_text("1\t1\n0\t1\t2\n")
    with pytest.raises(ValueError, match="expected 'u<TAB>v'"):
        read_edge_list(path)
    path.write_text("# vertices=2\n1\t1\n0\t5\n")
    with pytest.raises(ValueError, match="header vertex count 2 below max id 5"):
        read_edge_list(path)


# ---- golden streams -----------------------------------------------------
#
# sha256 of the edge list ("u<TAB>v" lines) after 2000 steps from the seed
# graph, recorded before the engine drew its uniforms in blocks and kept
# its layer weights in a Fenwick tree (the bundles stream before monads
# and polyads shared one increment body, the gapped stream while degree
# tables were still dicts, the window_exit stream while the graph and the
# index took an increment in two calls); engine changes must keep every
# graph byte for byte.

MIXED = ModelParams(
    gamma=0.3, n=3, mu=1, r1=point(1), rn=DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
)
BA = ModelParams(gamma=0.0, n=2, mu=0, r1=point(2), rn=point(0))
PENTADS = ModelParams(gamma=1.0, n=5, mu=0, r1=point(0), rn=point(1))
# two bundles per tetrad: one polyad of the stream draws the same target for both
BUNDLES = ModelParams(
    gamma=0.5, n=4, mu=2, r1=point(2), rn=DegreeDistribution.from_probs({2: 0.5, 3: 0.5})
)
# r1 and rn with an interior gap: sample's picks skip a zero-mass degree
GAPPED = ModelParams(
    gamma=0.3,
    n=3,
    mu=1,
    r1=DegreeDistribution.from_probs({1: 0.5, 3: 0.5}),
    rn=DegreeDistribution.from_probs({1: 0.5, 3: 0.5}),
)
FLOAT_TABLE = PreferenceFunction.from_table({k: 0.5 + k**0.8 for k in range(1, 401)})
POWER_1_5 = PreferenceFunction.from_rule(lambda k: np.asarray(k, dtype=float) ** 1.5, g=1)
# a bounded window: 78 vertices leave it by degree 15, emptying weighted
# layers into zero-weight ones and lowering the live count
WINDOW_EXIT = PreferenceFunction.from_table({k: 0.5 + k**0.8 for k in range(1, 13)})

GOLDEN = {
    "ba": (BA, LINEAR, 4, "01eff099683ee157d84903fd5936fe9f8177d672a8e94e97eb477971dc692030"),
    "mixed": (MIXED, LINEAR, 4, "25f45b5bd5823739f451ab9790bc50bbf4d4352d66dbe245c3f477c5438a6fca"),
    "pentads": (PENTADS, LINEAR, 5, "23da56237313fadc28d4cc9a5d4ded548f6ffd390b4af88ee7bd2fdfdd6d7ba1"),
    "float_table": (MIXED, FLOAT_TABLE, 4, "dc2b19ad86445775247108178c86b519859cff5a60544f1b50e7c974f0dbd060"),
    "power_1_5": (BA, POWER_1_5, 4, "f393b4a6d81d3aa098511217704ab4d77a899ba803b5376844b85248e806cd9c"),
    "bundles": (BUNDLES, LINEAR, 4, "9bd8fc0461694e255f7906f8d5cfa33f2e6ba9b5f0d6f459866ed7847a330010"),
    "gapped": (GAPPED, LINEAR, 4, "65779cd5f2535e19eb61f01c0a3e06f7672736204a506b38ac5b58d4fe06b9a6"),
    "window_exit": (MIXED, WINDOW_EXIT, 4, "9dc0577b21cf8d1ee9bffd12a9192e949dcd804f71362dcdea2e91c07fbff108"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_stream(name):
    p, f, seed_size, digest = GOLDEN[name]
    g = seed_complete(seed_size)
    grow(g, p, f, 2000, rng_seed=21)
    data = "".join(f"{u}\t{v}\n" for u, v in g.edges).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_block_uniforms_match_scalar_draws():
    block = engine._BLOCK
    buf = engine._Uniforms(np.random.default_rng(77))
    ref = np.random.default_rng(77)
    # scalars and short vectors across several block boundaries, a vector
    # that straddles a boundary, one larger than a whole block, and an
    # empty request
    sizes = [None] * (block - 3) + [7, None, 0, 5] * 50 + [2 * block + 11]
    sizes += [None, 3] * (block // 2) + [block - 1, None]
    for size in sizes:
        got = buf.random(size)
        if size is None:
            want = ref.random()
            assert isinstance(got, float)
            assert got == want
        else:
            want = [ref.random() for _ in range(size)]
            assert isinstance(got, list)
            assert got == want


# The exact finite-time law: Hotelling's T^2 of the degree counts of many
# 200-step runs against oracles.expected_counts, as (model, preference,
# seed size, seeds, kept degrees). For each model the seeds, the kept
# degrees (expected count >= 2) and the quantile were fixed before its
# first run. Under the F law of T^2 a correct engine fails a model with
# chance 1e-4, the test as a whole (four models) with about 4e-4. An
# engine that draws by f = k + 0.1 while the oracle keeps f = k fails BA
# with p about 2e-22 (pentads alone would pass it, p 0.29), a change
# that the stationary criterion 3 (mean TV < 0.02) does not see. BA m = 1
# carries an offset preference, f = k + 1, and the triads a bundle per
# step (mu = 1), which moves a vertex n degrees at once.
FINITE_TIME = {
    "ba_m2": (BA, LINEAR, 4, range(1000, 2200), list(range(2, 10))),
    "pentads": (PENTADS, LINEAR, 5, range(1000, 1400), list(range(5, 15))),
    "ba_m1_offset": (
        ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0)),
        PreferenceFunction.from_rule(lambda k: k + 1.0, g=0),
        4, range(3000, 4200), list(range(1, 7)),
    ),
    "bundle_triads": (
        ModelParams(gamma=1.0, n=3, mu=1, r1=point(0), rn=point(2)),
        LINEAR, 4, range(5000, 5500), list(range(4, 18)),
    ),
}


@pytest.mark.parametrize("name", list(FINITE_TIME))
def test_degree_counts_after_200_steps_have_the_exact_expectation(name):
    p, f, seed_size, seeds, kept = FINITE_TIME[name]
    expected = expected_counts(p, f, seed_size, 200)
    assert np.flatnonzero(expected >= 2).tolist() == kept
    rows = []
    for seed in seeds:
        g = seed_complete(seed_size)
        grow(g, p, f, 200, rng_seed=seed)
        rows.append(np.bincount(g.degrees, minlength=len(expected))[kept])
    x = np.array(rows, dtype=float)
    r, q = x.shape
    d = x.mean(axis=0) - expected[kept]
    t2 = r * d @ np.linalg.solve(np.cov(x, rowvar=False), d)
    limit = stats.f.isf(1e-4, q, r - q) * q * (r - 1) / (r - q)
    assert t2 < limit, f"T^2 = {t2:.2f} over {q} degrees, limit {limit:.2f}"


def test_expected_counts_of_one_step_and_its_totals():
    # one BA step from K4 by hand: each seed vertex takes each of the two
    # draws with chance 3/12, so it gains 0, 1 or 2 with 9/16, 6/16, 1/16
    assert expected_counts(BA, LINEAR, 4, 1).tolist() == [0, 0, 1, 2.25, 1.5, 0.25]
    # a triad with one bundle adds 3 vertices and 9 edges a step: the
    # clique's 3, 3 single ends and the bundle's 3
    triads = ModelParams(gamma=1.0, n=3, mu=1, r1=point(0), rn=point(2))
    counts = expected_counts(triads, LINEAR, 4, 50)
    assert counts.sum() == pytest.approx(4 + 3 * 50)
    assert counts @ np.arange(len(counts)) == pytest.approx(12 + 18 * 50)


@pytest.mark.parametrize(
    "p, f, message",
    [
        (MIXED, LINEAR, "increment type random"),
        (ModelParams(gamma=1.0, n=3, mu=1, r1=point(0), rn=MIXED.rn), LINEAR, "not a point mass"),
        (BA, PreferenceFunction.linear(g=3), "outside the window"),
        (BA, PreferenceFunction.linear(M=100), "outside the window"),
        (BA, POWER_1_5, "not affine"),
    ],
    ids=["mixed-steps", "random-ends", "seed-below-window", "bounded-window", "power"],
)
def test_expected_counts_refuses_a_random_total_weight(p, f, message):
    with pytest.raises(ValueError, match=message):
        expected_counts(p, f, 4, 200)


def test_graph_keeps_few_bytes_per_edge():
    # tracemalloc slows the engine tenfold, so the graph is grown untraced
    # and rebuilt under tracing in the layout grow's update appends: per
    # pentad step one add_clique(5) with its five attachment edges
    g = seed_complete(5)
    grow(g, PENTADS, LINEAR, 20_000, rng_seed=5)
    edges = g.edges
    tracemalloc.start()
    try:
        h = seed_complete(5)
        for m in range(10, len(edges), 15):
            base = h.n
            attach = edges[m + 10 : m + 15]
            h.add_clique(5, [u for u, _ in attach], [v - base for _, v in attach])
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert h.edges == edges and h.degrees == g.degrees
    # two int32 columns take 8 B per edge; the degree list and its ints
    # add the rest (a list of (u, v) tuples would keep about 78 B)
    assert live / len(edges) <= 40


@pytest.mark.parametrize("name", ["ba", "mixed", "pentads", "bundles"])
def test_grow_adds_each_increment_in_one_graph_call(monkeypatch, name):
    # grow hands an increment's clique and attachment edges to the layer
    # index in one update call, which appends them to the graph: a monad
    # as a clique of one vertex, an n-ad of n; add_clique is never called
    sizes = []
    update = LayerIndex.update

    def counted(idx, g, n, *args):
        sizes.append(n)
        return update(idx, g, n, *args)

    def unchecked(*args):
        raise AssertionError("grow called add_clique")

    p, f, seed_size, _ = GOLDEN[name]
    g = seed_complete(seed_size)
    monkeypatch.setattr(LayerIndex, "update", counted)
    monkeypatch.setattr(MultiGraph, "add_clique", unchecked)
    with checking_updates(50):
        stats = grow(g, p, f, 300, rng_seed=3)
    assert Counter(sizes) == Counter({1: stats.monad_steps, p.n: stats.nad_steps})
    assert sum(g.degrees) == 2 * g.edge_count
