import math

import pytest
from hypothesis import given, strategies as st

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
    assert 7 not in d.probs
    assert d.support_max == 1


def test_total_mass_uses_fsum():
    # 10 x 0.1 sums to exactly 1.0 under fsum but not under naive addition
    d = DegreeDistribution.from_probs({k: 0.1 for k in range(10)})
    assert d.total_mass == 1.0


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


def test_from_counts():
    d = DegreeDistribution.from_counts({3: 30, 4: 10})
    assert d.prob(3) == pytest.approx(0.75)
    assert d.prob(4) == pytest.approx(0.25)


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


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=100),
        min_size=1,
        max_size=8,
    )
)
def test_from_counts_normalizes(counts):
    d = DegreeDistribution.from_counts(counts)
    assert math.isclose(d.total_mass, 1.0, abs_tol=1e-12)
    assert d.support_min >= 0


def test_write_read_round_trip(tmp_path):
    d = DegreeDistribution.from_probs({1: 0.049737, 2: 0.950263})
    path = tmp_path / "r1.tsv"
    write_distribution(d, path, {"tool": "test"})
    back = read_distribution(path)
    assert back.probs == d.probs


def test_read_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t0.3\n2\t0.3\n")
    with pytest.raises(ValueError):
        read_distribution(path)


def test_read_renormalizes_within_tolerance(tmp_path):
    path = tmp_path / "close.tsv"
    path.write_text(f"1\t{0.5 + 2e-7!r}\n2\t0.5\n")
    d = read_distribution(path)
    assert d.total_mass == pytest.approx(1.0, abs=1e-15)


def test_read_rejects_duplicate_degree(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("1\t0.5\n1\t0.5\n")
    with pytest.raises(ValueError):
        read_distribution(path)
