import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import compare_probs, cumulative_probs, from_counts, sample_probs

from polyadnet.analysis import compare
from polyadnet.distributions import (
    DegreeDistribution,
    read_distribution,
    write_distribution,
)


def test_from_probs_basic():
    d = DegreeDistribution.from_probs({2: 0.5, 5: 0.5})
    assert d.prob(2) == 0.5
    assert d.prob(3) == 0.0
    assert d.support_min == 2
    assert d.support_max == 5
    assert d.mean_degree == pytest.approx(3.5)


def test_from_probs_drops_zero_entries():
    d = DegreeDistribution.from_probs({1: 1.0, 7: 0.0})
    assert d.items() == [(1, 1.0)]
    assert d.support_max == 1


@pytest.mark.parametrize(
    "probs",
    [
        {},
        {1: 0.5},
        {1: 1.2},
        {-1: 1.0},
        {1: -0.1, 2: 1.1},
        {1.5: 1.0},
        {1: float("nan")},
        {1: 0.4, 2: 0.6 - 1e-7},  # mass off by 1e-7, above NORMALIZATION_TOL
    ],
)
def test_from_probs_rejects_bad_input(probs):
    with pytest.raises(ValueError):
        DegreeDistribution.from_probs(probs)


def test_from_probs_takes_numpy_integer_degrees_as_ints():
    d = DegreeDistribution.from_probs({np.int64(2): 0.5, np.int32(4): 0.5})
    assert d.items() == [(2, 0.5), (4, 0.5)]
    assert type(d.support_min) is int and type(d.support_max) is int


@pytest.mark.parametrize("k", [True, np.bool_(True), 1.0, np.float64(1.0), "1"])
def test_from_probs_rejects_a_degree_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="is not an integer"):
        DegreeDistribution.from_probs({k: 1.0})


def test_mean_degree_of_matches_property():
    d = DegreeDistribution.from_probs({0: 0.25, 4: 0.75})
    assert d.mean_degree == 0.25 * 0 + 0.75 * 4 == pytest.approx(3.0)


def test_sample_matches_support(rng=None):
    import numpy as np

    d = DegreeDistribution.from_probs({1: 0.2, 3: 0.3, 9: 0.5})
    rng = np.random.default_rng(0)
    draws = [d.sample(rng) for _ in range(2000)]
    assert set(draws) <= {1, 3, 9}
    # loose frequency check, 2000 draws keep 3 sigma well under 0.05
    assert abs(draws.count(9) / 2000 - 0.5) < 0.05


def test_sample_is_deterministic_per_seed():
    import numpy as np

    d = DegreeDistribution.from_probs({1: 0.3, 2: 0.7})
    a = [d.sample(np.random.default_rng(5)) for _ in range(3)]
    b = [d.sample(np.random.default_rng(5)) for _ in range(3)]
    assert a == b


def test_write_read_round_trip(tmp_path):
    d = DegreeDistribution.from_probs({1: 0.049737, 2: 0.950263})
    path = tmp_path / "r1.tsv"
    write_distribution(d, path, {"tool": "test"})
    back = read_distribution(path)
    assert back == d


def test_read_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t0.3\n2\t0.3\n")
    with pytest.raises(ValueError):
        read_distribution(path)


def test_read_renormalizes_within_tolerance(tmp_path):
    path = tmp_path / "close.tsv"
    path.write_text(f"1\t{0.5 + 2e-7!r}\n2\t0.5\n")
    d = read_distribution(path)
    assert math.fsum(p for _, p in d.items()) == pytest.approx(1.0, abs=1e-15)


def test_read_rejects_a_table_without_data_lines(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# tool=test\n\n")
    with pytest.raises(ValueError, match="^no data lines$"):
        read_distribution(path)


def test_read_rejects_duplicate_degree(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("1\t0.5\n1\t0.5\n")
    with pytest.raises(ValueError):
        read_distribution(path)


COUNTS = st.dictionaries(st.integers(0, 40), st.integers(1, 100), min_size=1, max_size=8)


@given(COUNTS, COUNTS, st.integers(0, 60), st.integers(0, 2**32 - 1))
@example({3: 1}, {3: 1}, 0, 0)  # one entry, the same on both sides
@example({1: 1}, {5: 1}, 0, 1)  # disjoint single entries
@example({1: 2, 4: 1, 9: 1}, {2: 1, 6: 3}, 0, 2)  # interior gaps, interleaved
@example({0: 1, 2: 1}, {0: 1, 2: 1}, 50, 3)  # gapped and disjoint
@settings(max_examples=150, deadline=None)
def test_dense_tables_match_dict_oracles(c1, c2, shift, seed):
    # compare and sample on the dense tables give the bits, running sums and
    # picks of the dict-based forms, over gaps, disjoint supports and single
    # entries
    c2 = {k + shift: c for k, c in c2.items()}
    probs1 = {k: c / sum(c1.values()) for k, c in sorted(c1.items())}
    probs2 = {k: c / sum(c2.values()) for k, c in sorted(c2.items())}
    d1, d2 = from_counts(c1), from_counts(c2)
    assert list(d1.items()) == list(probs1.items())
    rep = compare(d1, d2)
    tv, ks, errs = compare_probs(probs1, probs2)
    assert (repr(rep.tv_distance), repr(rep.ks_statistic)) == (repr(tv), repr(ks))
    assert list(rep.per_k_abs_error.items()) == list(errs.items())
    for d, probs in ((d1, probs1), (d2, probs2)):
        # the running sums themselves, not only the picks they give
        assert d._cumulative == cumulative_probs(probs)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [d.sample(rng) for _ in range(200)] == [sample_probs(probs, ref) for _ in range(200)]
