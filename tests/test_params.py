import math

import pytest
from hypothesis import given, settings, strategies as st
from oracles import arrival_loop, from_counts

from polyadnet.distributions import DegreeDistribution
from polyadnet.params import ModelParams

POINT = DegreeDistribution.from_probs({0: 1.0})
TWO = DegreeDistribution.from_probs({2: 1.0})

# per-vertex free-edge table used throughout the heavier tests
RN_TABLE = {1: 0.39091, 2: 0.04, 3: 0.08, 4: 0.12, 5: 0.16, 6: 0.2, 7: 0.00909}
R1_TABLE = {1: 0.049737, 2: 0.950263}


def make(gamma=0.0, n=2, mu=0, r1=TWO, rn=POINT):
    return ModelParams(gamma=gamma, n=n, mu=mu, r1=r1, rn=rn)


def test_pure_monad_configuration_is_valid():
    p = make()
    assert p.gamma == 0.0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"gamma": -0.1}, r"gamma=-0.1 outside \[0, 1\]"),
        ({"gamma": 1.5}, r"gamma=1.5 outside \[0, 1\]"),
        ({"n": 1}, "polyad size n=1 must be an integer >= 2"),
        ({"n": 2.5}, "polyad size n=2.5 must be an integer >= 2"),
        ({"mu": -1}, "bundle count mu=-1 must be an integer >= 0"),
        # rn={0:1} cannot supply one bundle end per vertex
        ({"mu": 1}, "rn support starts at 0, below mu=1; every polyad vertex"),
        ({"r1": {2: 1.0}}, "r1 and rn must be DegreeDistribution instances"),
        # the first violated constraint is named
        ({"gamma": 2.0, "n": 1}, "gamma=2.0 outside"),
    ],
)
def test_invalid_params_are_rejected_when_built(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make(**kwargs)


def test_mu_within_rn_support_is_fine():
    rn = DegreeDistribution.from_probs({2: 0.5, 3: 0.5})
    assert make(gamma=0.5, n=3, mu=2, rn=rn).mu == 2


def test_vertices_per_step():
    assert make().c == 1.0
    p = make(gamma=0.25, n=3, mu=1, rn=DegreeDistribution.from_probs({1: 0.5, 2: 0.5}))
    assert p.c == pytest.approx(1.5)
    assert make(gamma=1.0, n=5, rn=POINT).c == 5.0


def test_end_rates_of_a_bundle_model():
    # m1 = 2, mn = 1.5: b = 0.7 * 2 + 0.3 * 3 * (1.5 - 1); the rates keep
    # the operation order of the inline forms they replaced, bit for bit
    p = make(gamma=0.3, n=3, mu=1, rn=DegreeDistribution.from_probs({1: 0.5, 2: 0.5}))
    assert (p.b, p.bundle_rate, p.a, p.drift) == pytest.approx((1.85, 0.3, 2.15, 2.75), abs=1e-15)
    assert p.a == p.b + p.gamma * p.mu
    assert p.drift == p.b + p.n * p.gamma * p.mu


def test_edges_per_step_dyad_clique_only():
    p = make(gamma=1.0, n=2, mu=0, rn=POINT)
    assert p.edges_per_step == pytest.approx(1.0)


def test_edges_per_step_pure_monad():
    assert make().edges_per_step == pytest.approx(2.0)


def test_edges_per_step_mixed():
    rn = DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
    p = make(gamma=0.25, n=3, mu=1, rn=rn)
    # 0.25*(3*1.5 + 3) + 0.75*2 by hand
    assert p.edges_per_step == pytest.approx(3.375)


def test_pentad_run_constants():
    rn = DegreeDistribution.from_probs(RN_TABLE)
    r1 = DegreeDistribution.from_probs(R1_TABLE)

    # independent recomputation of the table means
    mn = math.fsum(k * v for k, v in RN_TABLE.items())
    assert mn == pytest.approx(3.25454, abs=1e-12)
    assert rn.mean_degree == pytest.approx(mn, abs=1e-15)
    assert r1.mean_degree == pytest.approx(1.950263, abs=1e-12)

    p = make(gamma=0.01, n=5, mu=1, r1=r1, rn=rn)
    expected = 0.01 * (5 * mn + 10) + 0.99 * 1.950263
    assert expected == pytest.approx(2.19348737, abs=1e-9)
    assert p.edges_per_step == pytest.approx(expected, abs=1e-15)
    assert p.c == pytest.approx(1.04)


COUNTS = st.dictionaries(st.integers(0, 12), st.integers(1, 9), min_size=1, max_size=5)


@given(st.sampled_from([0.0, 0.3, 1.0]), st.integers(2, 5), COUNTS, COUNTS, st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_arrival_matches_the_loop_over_table_entries(gamma, n, c1, cn, k_max):
    # gapped tables included; the vectorized sum keeps the loop's bits
    r1, rn = from_counts(c1), from_counts(cn)
    p = make(gamma=gamma, n=n, r1=r1, rn=rn)
    arr = p.arrival_array(0, max(k_max, p.arrival_max) + 1).tolist()
    assert [x.hex() for x in arr] == [x.hex() for x in arrival_loop(p, k_max)]


def test_params_are_frozen():
    p = make()
    with pytest.raises(Exception):
        p.gamma = 0.5
