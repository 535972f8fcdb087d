import math
import re
from fractions import Fraction

import numpy as np
import pytest

from polyadnet.distributions import DegreeDistribution, read_distribution
from polyadnet.params import ModelParams
from polyadnet import solver
from polyadnet.preference import PreferenceFunction
from polyadnet.solver import (
    NonConvergenceError,
    read_q_table,
    solve_stationary,
    write_q_table,
)

from oracles import q_dyad, q_from_recurrence, q_gamma0

UNIT = PreferenceFunction.constant(1.0, g=0)
LINEAR = PreferenceFunction.linear()


def point(j):
    return DegreeDistribution.from_probs({j: 1.0})


def ba_params(m=2):
    return ModelParams(gamma=0.0, n=2, mu=0, r1=point(m), rn=point(0))


class TestOracles:
    def test_ba_closed_form(self):
        # pure-monad linear attachment has the classic closed form
        # Q_k = 2m(m+1) / (k (k+1) (k+2))
        m = 2
        sol = solve_stationary(ba_params(m), LINEAR, tol=1e-11, k_max=40_000)
        assert abs(sol.mean_f - 2 * m) < 1e-7
        for k in range(m, 200):
            exact = 2 * m * (m + 1) / (k * (k + 1) * (k + 2))
            assert abs(sol.q.prob(k) - exact) / exact < 1e-6

    def test_geometric_law_for_flat_preference(self):
        # one free edge per monad and uniform preference halves each class
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        sol = solve_stationary(p, PreferenceFunction.constant(1.0, g=1), k_max=200)
        assert abs(sol.mean_f - 1.0) < 1e-10
        for k in range(1, 40):
            assert sol.q.prob(k) == pytest.approx(0.5**k, rel=1e-9)

    def test_finite_window_park_oracle(self):
        # flat preference on [1,5]: vertices park at degree 6 and the mean
        # solves a quintic; root found here independently via numpy
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        f = PreferenceFunction.constant(1.0, g=1, M=5)
        sol = solve_stationary(p, f, tol=1e-12)
        roots = np.roots([1, 1, 1, 1, 1, -1])
        t = [r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1][0]
        x_oracle = 1.0 / t - 1.0
        assert x_oracle == pytest.approx(0.9659482366454843, abs=1e-12)
        assert sol.mean_f == pytest.approx(x_oracle, abs=1e-10)
        assert sol.k_max == 7  # M + n covers every reachable degree
        assert sol.tail_mass_bound == 0.0
        assert sol.q.total_mass == pytest.approx(1.0, abs=1e-12)
        # parked class: inflow Q_5 per step, dilution x
        assert sol.q.prob(6) == pytest.approx(sol.q.prob(5) / sol.mean_f, rel=1e-10)

    def test_mixed_three_term_fractions(self):
        # gamma=1/2, n=2, mu=1, flat f, single free edge everywhere; at
        # x=1 the sweep is exact rational arithmetic, done here inline
        p = ModelParams(gamma=0.5, n=2, mu=1, r1=point(1), rn=point(1))
        got = q_from_recurrence(p, UNIT, mean_f=1.0, k_max=6)

        half = Fraction(1, 2)
        arr = {1: half, 2: Fraction(1)}
        q = {-1: Fraction(0), 0: Fraction(0)}
        for k in range(1, 7):
            num = arr.get(k, Fraction(0)) + half * q[k - 1] + half * q[k - 2]
            q[k] = num / Fraction(5, 2)
        expected = [Fraction(1, 5), Fraction(11, 25), Fraction(16, 125),
                    Fraction(71, 625), Fraction(151, 3125), Fraction(506, 15625)]
        assert [q[k] for k in range(1, 7)] == expected
        for k in range(1, 7):
            assert got[k] == pytest.approx(float(q[k]), abs=1e-15)

    def test_flat_preference_fixed_point_is_one(self):
        # with f identically 1 the mean preference is 1 by construction
        rn = DegreeDistribution.from_probs({1: 0.5, 3: 0.5})
        p = ModelParams(gamma=0.5, n=3, mu=1, r1=point(2), rn=rn)
        sol = solve_stationary(p, UNIT, k_max=3000)
        assert sol.mean_f == pytest.approx(1.0, abs=1e-9)


class TestReductions:
    def test_gamma0_matches_general_kernel(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            r1 = _random_dist(rng, lo=1, hi=6)
            f = _random_pref(rng)
            p = ModelParams(gamma=0.0, n=2, mu=0, r1=r1, rn=point(0))
            x = float(rng.uniform(0.3, 5.0))
            a = q_from_recurrence(p, f, x, 60)
            b = q_gamma0(r1, f, x, 60)
            assert max(abs(a[k] - b[k]) for k in range(61)) < 1e-12

    def test_dyad_matches_general_kernel(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            mu = int(rng.integers(0, 2))
            rn = _random_dist(rng, lo=max(mu, 1), hi=max(mu, 1) + 4)
            f = _random_pref(rng)
            p = ModelParams(gamma=1.0, n=2, mu=mu, r1=point(0), rn=rn)
            x = float(rng.uniform(0.3, 5.0))
            a = q_from_recurrence(p, f, x, 60)
            b = q_dyad(rn, f, mu, x, 60)
            assert max(abs(a[k] - b[k]) for k in range(61)) < 1e-12

    def test_list_kernel_matches_array_indexed_sweep(self):
        # the sweep written on numpy arrays with scalar indexing; the list
        # kernel must reproduce it bit for bit
        def array_sweep(arr, fa, gamma, n, mu, b, a, x):
            q = np.zeros(arr.shape[0])
            t = np.zeros(arr.shape[0])
            denom0 = x * (1.0 + gamma * (n - 1.0))
            for k in range(arr.shape[0]):
                num = arr[k] * x
                if k >= 1:
                    num += b * t[k - 1]
                if k >= n:
                    num += gamma * mu * t[k - n]
                q[k] = num / (denom0 + fa[k] * a)
                t[k] = fa[k] * q[k]
            return q, t

        rng = np.random.default_rng(23)
        for gamma, n, mu in ((0.0, 2, 0), (0.3, 3, 1), (1.0, 2, 1), (0.6, 5, 2)):
            p = ModelParams(
                gamma=gamma, n=n, mu=mu, r1=_random_dist(rng, lo=1, hi=6),
                rn=_random_dist(rng, lo=mu, hi=mu + 4),
            )
            f = _random_pref(rng)
            x = float(rng.uniform(0.3, 5.0))
            arr = p.arrival(300)
            fa = f.weight_array(300)
            q, t = solver._sweep_kernel(arr, fa.tolist(), p, x)
            q_ref, t_ref = array_sweep(np.array(arr), fa, gamma, n, mu, p.b, p.a, x)
            assert q.tobytes() == q_ref.tobytes()
            assert t.tobytes() == t_ref.tobytes()

    def test_recurrence_includes_zero_entries(self):
        q = q_from_recurrence(ba_params(2), LINEAR, 4.0, 10)
        assert set(q) == set(range(11))
        assert q[0] == 0.0 and q[1] == 0.0


class TestSolveBehaviour:
    def test_scale_invariance(self):
        p = ba_params(1)
        s1 = solve_stationary(p, LINEAR, k_max=5000)
        s2 = solve_stationary(p, LINEAR.scaled(2.0), k_max=5000)
        assert s2.mean_f == pytest.approx(2.0 * s1.mean_f, rel=1e-9)
        for k in range(1, 100):
            assert s2.q.prob(k) == pytest.approx(s1.q.prob(k), rel=1e-9, abs=1e-15)

    def test_truncation_mass_is_accounted_exactly(self):
        sol = solve_stationary(ba_params(2), LINEAR, k_max=500)
        assert sol.tail_mass_bound > 1e-7  # visibly truncated on purpose
        assert sol.q.total_mass + sol.tail_mass_bound == pytest.approx(1.0, abs=1e-12)

    def test_balance_residual_is_tiny(self):
        rn = DegreeDistribution.from_probs({1: 0.4, 2: 0.6})
        p = ModelParams(gamma=0.3, n=3, mu=1, r1=point(2), rn=rn)
        sol = solve_stationary(p, LINEAR, k_max=20_000)
        assert sol.balance_residual < 1e-13

    def test_auto_k_for_bounded_window(self):
        p = ModelParams(gamma=0.5, n=4, mu=0, r1=point(2), rn=point(1))
        f = PreferenceFunction.constant(1.0, g=1, M=50)
        sol = solve_stationary(p, f)
        assert sol.k_max == 54
        assert sol.tail_mass_bound == 0.0

    def test_bisection_fallback_agrees_with_iteration(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        f = PreferenceFunction.constant(1.0, g=1, M=5)
        by_iter = solve_stationary(p, f, tol=1e-11)
        forced = solve_stationary(p, f, tol=1e-11, max_iter=2)
        assert forced.method == "bisection"
        assert by_iter.method == "iteration"
        assert forced.mean_f == pytest.approx(by_iter.mean_f, abs=1e-9)

    def test_superlinear_preference_diverges(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        f = PreferenceFunction.from_rule(
            lambda k: np.asarray(k, float) ** 2, g=1
        )
        with pytest.raises(NonConvergenceError) as info:
            solve_stationary(p, f, k_max=3000)
        # the message quotes the means of the last two truncation levels
        quoted = re.search(r"\((\S+) -> (\S+) at k_max=3000\)", str(info.value))
        assert quoted is not None
        assert float(quoted.group(1)) != float(quoted.group(2))

    def test_k_max_below_arrivals_rejected(self):
        rn = DegreeDistribution.from_probs({7: 1.0})
        p = ModelParams(gamma=1.0, n=5, mu=0, r1=point(0), rn=rn)
        with pytest.raises(ValueError):
            solve_stationary(p, LINEAR, k_max=10)  # arrivals enter at 11

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            solve_stationary(ba_params(), LINEAR, tol=0.0)

    def test_degenerate_no_attachment_rejected(self):
        p = ModelParams(gamma=1.0, n=3, mu=0, r1=point(0), rn=point(0))
        with pytest.raises(ValueError):
            solve_stationary(p, LINEAR)

    def test_negative_mean_rejected_in_sweep(self):
        with pytest.raises(ValueError):
            q_from_recurrence(ba_params(), LINEAR, -1.0, 50)


def test_q_table_round_trip(tmp_path):
    sol = solve_stationary(ba_params(1), LINEAR, k_max=2000)
    path = tmp_path / "q.csv"
    write_q_table(sol, path, {"tool": "test"})
    probs, meta = read_q_table(path)
    assert meta["tool"] == "test"
    assert float(meta["mean_f"]) == sol.mean_f
    assert probs == dict(sol.q.items())


def test_q_table_rejects_duplicates(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("k,Q\n1,0.5\n1,0.5\n")
    with pytest.raises(ValueError):
        read_q_table(path)


@pytest.mark.parametrize(
    "name, text",
    [("q.csv", "# tool=test\nk,Q\n1,0.5\nx,0.5\n"), ("q.tsv", "# tool=test\n\n1\t0.5\nx\t0.5\n")],
    ids=["csv", "tab"],
)
def test_table_rejects_bad_row_with_its_location(tmp_path, name, text):
    # the k,Q and the tab format both name the file and line of a bad row
    path = tmp_path / name
    path.write_text(text)
    want = rf"^{re.escape(str(path))}:4: invalid literal for int\(\) with base 10: 'x'$"
    with pytest.raises(ValueError, match=want):
        read_q_table(path)
    with pytest.raises(ValueError, match=want):
        read_distribution(path)


def _random_dist(rng, lo, hi):
    ks = sorted(rng.choice(np.arange(lo, hi + 1), size=3, replace=False))
    w = rng.uniform(0.1, 1.0, size=3)
    w /= w.sum()
    # nudge the last weight so the fsum is exactly one
    probs = {int(k): float(v) for k, v in zip(ks, w)}
    last = ks[-1]
    probs[int(last)] = float(1.0 - math.fsum(v for k, v in probs.items() if k != last))
    return DegreeDistribution.from_probs(probs)


def _random_pref(rng):
    c = float(rng.uniform(0.5, 2.0))
    e = float(rng.uniform(0.2, 1.0))
    return PreferenceFunction.from_rule(
        lambda k, c=c, e=e: c * np.asarray(k, float) ** e, g=1
    )
