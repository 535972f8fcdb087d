import hashlib
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polyadnet.distributions import (
    ROWS_PER_WRITE,
    DegreeDistribution,
    read_degree_table,
    read_distribution,
)
from polyadnet.analysis import compare
from polyadnet.engine import grow
from polyadnet.graph import seed_complete
from polyadnet.layers import SaturationError
from polyadnet.params import ModelParams
from polyadnet import solver
from polyadnet.preference import PreferenceError, PreferenceFunction
from polyadnet.solver import (
    NonConvergenceError,
    solve_stationary,
    write_q_table,
)

from oracles import flux_residual_whole, gamma_ratio_q, q_dyad, q_from_recurrence, q_gamma0, sweep

UNIT = PreferenceFunction.constant(1.0, g=0)
LINEAR = PreferenceFunction.linear()


def point(j):
    return DegreeDistribution.from_probs({j: 1.0})


def ba_params(m=2):
    return ModelParams(gamma=0.0, n=2, mu=0, r1=point(m), rn=point(0))


# solves first recorded before the bracketed loop replaced the
# grid-and-brentq fallback: (model, f, window end) -> (mean_f, iterations,
# method, sha256 of repr(list(q.items()))); the linear rule is unbounded
# and solved at k_max 4096. Every row was recorded again when the secant
# step from f at the mean degree replaced the damped step from x = a
# (603 sweeps in all before, 138 after; only the ("ba", "linear") table
# kept its digest): mean_f moved within tol and the tables with it
NEUTRAL = {
    ("ba", "linear", None): (4.0, 1, "iteration",
        "3d500056100c555e8d3b1788e00d8d1083baa20772a92f3a4be767c83634bfdf"),
    ("crit3", "linear", None): (4.218244942307692, 1, "iteration",
        "916cd5a3ea19600f22aeef414ef0ded925446d2d91b819e1d7706b489285d655"),
    ("mixed", "linear", None): (3.6875, 1, "iteration",
        "d5d4b84e9033533ff57799b6d1f0f377fcb3440e0ce6e810642b47595c0bad80"),
    ("m1", "k2", 20): (3.923982001934852, 5, "iteration",
        "944ffb272523776be2784b2f4a799314d33480876e1f271f90d208e4842d2376"),
    ("m2", "k2", 60): (17.61208164429546, 7, "iteration",
        "05562db4773033db69e92dd8106155b3eb1b9c8904a9873dc1a216c36d36b64f"),
    ("mixed", "k2", 200): (27.897481772426413, 11, "iteration",
        "4347ca8b118c21b62ccb7a75cc9d8b3a9b8569a70755d70f72f19190c6ce20a5"),
    ("m1", "k2", 200): (7.310479038182456, 10, "bisection",
        "8ea2643f5f765bd02f600ff17ae181f0a953416961f3805ee7b5068c8c8582bc"),
    ("m2", "k2", 200): (23.20488635648653, 10, "iteration",
        "4ce5b9f939233d813df3ae417cdd5541f601efbe665fbd09a253ba7bb7a705fc"),
    ("m2", "k3", 20): (39.3891155557918, 6, "iteration",
        "6ef78a6145808cf5026acf3904f1fcabbf23f02d789b62faa032fc4189e62f30"),
    ("mixed", "k3", 60): (132.5310932167037, 8, "iteration",
        "c9c8ca8df0c03db3424f517ee3f27043bf72e38a6be959a2eff6d76527d78760"),
    ("m1", "k3", 200): (18.470329778782492, 10, "iteration",
        "e649a865c0322d6169c3c40a5d732e23c94323af8aefad2c188874da3bfdb548"),
    ("mixed", "k6", 20): (7018.627080330069, 6, "iteration",
        "484c70e58c42fba35ba5aa40f283f838d9304343af2a36ea541e08a375051f34"),
    ("m1", "k6", 60): (35.70853467278371, 6, "iteration",
        "bad5de5c4ed7796659fa91c0d9f2a3110357835ec00b438feb6ed1388ee759f7"),
    ("m2", "k6", 200): (2781.6327202667176, 7, "iteration",
        "bcb088fed96b02b8a36d764356397cf4e681b1ced4e08fac43bf5ca67d6c03c3"),
    ("m1", "k6", 200): (78.56510869742463, 6, "iteration",
        "0c3775aebb06f7b2cdb2307f7ab3d079f21904276f7c4f710063cf600e217f68"),
    ("mixed", "k6", 200): (35982.13523381681, 8, "iteration",
        "5b29c979d63ca4e8b31740f3550e015c3fffe8cd716c35fdce5254f6a6b8d2dd"),
    ("m1", "exp", 20): (3.623063997457416, 7, "iteration",
        "4738eceea7c83fa3d8e2cbcc494c7bf264e2abe69a6ce0ef57e8865c4bda957b"),
    ("m2", "exp", 60): (11.858897256420086, 8, "iteration",
        "5d1a391afcd9dce8449d155935ff83a3df745f6671f8d0417262b46d6400a645"),
    ("mixed", "exp", 200): (28.694080595065547, 10, "iteration",
        "774fc916992d09d5df6463c40e6927697d425c394c3a28a64f371acff48db197"),
    ("mixed", "alt", 10): (0.009599151914121782, 10, "iteration",
        "c2b0580f7b037d26ef8b0347a61a0ce7e9eb5b9626c4576a06cc10bba1f0fc05"),
}
NEUTRAL_RULES = {
    "k2": lambda k: k**2,
    "k3": lambda k: k**3,
    "k6": lambda k: k**6,
    "exp": lambda k: math.exp(0.5 * k),
    "alt": lambda k: 1e3 if k % 2 else 1e-3,
}


PENTADS = ModelParams(gamma=1.0, n=5, mu=0, r1=point(0), rn=point(1))


def _model(name):
    if name == "mixed":
        rn = DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
        return ModelParams(gamma=0.3, n=3, mu=1, r1=point(1), rn=rn)
    if name == "crit3":
        r1 = DegreeDistribution.from_probs({1: 0.049737, 2: 0.950263})
        rn = DegreeDistribution.from_probs(
            {1: 0.39091, 2: 0.04, 3: 0.08, 4: 0.12, 5: 0.16, 6: 0.2, 7: 0.00909}
        )
        return ModelParams(gamma=0.01, n=5, mu=1, r1=r1, rn=rn)
    return ba_params({"m1": 1, "m2": 2, "ba": 2}[name])


def _count_sweeps(monkeypatch):
    calls = []
    kernel = solver._sweep_kernel

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(solver, "_sweep_kernel", counted)
    return calls


def _sweep_sizes(monkeypatch):
    """Table length of every sweep, in order."""
    sizes = []
    kernel = solver._sweep_kernel

    def sized(q, *args):
        sizes.append(len(q))
        return kernel(q, *args)

    monkeypatch.setattr(solver, "_sweep_kernel", sized)
    return sizes


def _after_each_sweep(monkeypatch, edit):
    """Run edit(q, t), numpy views of the sweep's tables, after every sweep."""
    kernel = solver._sweep_kernel

    def edited(q, t, *args):
        f_end = kernel(q, t, *args)
        edit(np.frombuffer(q), np.frombuffer(t))
        return f_end

    monkeypatch.setattr(solver, "_sweep_kernel", edited)


def _assert_probe_rejects(monkeypatch, power, k_max):
    f = PreferenceFunction.from_rule(lambda k: np.asarray(k, float) ** power, g=1)
    sweeps = _count_sweeps(monkeypatch)
    with pytest.raises(NonConvergenceError) as info:
        solve_stationary(ba_params(1), f, k_max=k_max)
    # the message quotes the probed growth exponent
    quoted = re.search(r"is 2\^\(p-1\) with p = (\S+) at K=1048576", str(info.value))
    assert quoted is not None
    assert float(quoted.group(1)) == pytest.approx(power, rel=1e-6)
    assert sweeps == []


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
        assert math.fsum(p for _, p in sol.q.items()) == pytest.approx(1.0, abs=1e-12)
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

        # the kernel evaluates f ROWS_PER_WRITE degrees at a time; the last
        # table (K = 20,000) spans three such blocks
        assert 2 * ROWS_PER_WRITE < 20_000 + 1 <= 3 * ROWS_PER_WRITE
        rng = np.random.default_rng(23)
        for gamma, n, mu, K in (
            (0.0, 2, 0, 300), (0.3, 3, 1, 300), (1.0, 2, 1, 300), (0.6, 5, 2, 300), (0.3, 3, 1, 20_000)
        ):
            p = ModelParams(
                gamma=gamma, n=n, mu=mu, r1=_random_dist(rng, lo=1, hi=6),
                rn=_random_dist(rng, lo=mu, hi=mu + 4),
            )
            f = _random_pref(rng)
            x = float(rng.uniform(0.3, 5.0))
            q, t, f_end = sweep(p, f, x, K)
            fa = f.weight_array(K)
            q_ref, t_ref = array_sweep(p.arrival_array(0, K + 1), fa, gamma, n, mu, p.b, p.a, x)
            assert f_end == fa[K]
            assert q.tobytes() == q_ref.tobytes()
            assert t.tobytes() == t_ref.tobytes()

    @pytest.mark.parametrize(
        "model, K", [("crit3", 20_000), ("mixed", 16_389), ("pentads", 9_000), ("n4", 3)]
    )
    def test_block_residual_matches_the_whole_table_form(self, model, K):
        # the residual is evaluated ROWS_PER_WRITE entries at a time; across
        # block boundaries, and on a table shorter than the bundle size n,
        # it must give the whole-array value bit for bit
        if model == "n4":
            p = ModelParams(gamma=0.5, n=4, mu=0, r1=point(1), rn=point(0))
        else:
            p = PENTADS if model == "pentads" else _model(model)
        x = 2.5
        q, t, _ = sweep(p, LINEAR, x, K)
        assert solver._flux_residual(q, t, p, x) == flux_residual_whole(q, t, p, x)

    def test_recurrence_includes_zero_entries(self):
        q = q_from_recurrence(ba_params(2), LINEAR, 4.0, 10)
        assert set(q) == set(range(11))
        assert q[0] == 0.0 and q[1] == 0.0


class TestSolveBehaviour:
    def test_scale_invariance(self):
        p = ba_params(1)
        s1 = solve_stationary(p, LINEAR, k_max=5000)
        s2 = solve_stationary(p, PreferenceFunction.from_rule(lambda k: 2 * k, g=1), k_max=5000)
        assert s2.mean_f == pytest.approx(2.0 * s1.mean_f, rel=1e-9)
        for k in range(1, 100):
            assert s2.q.prob(k) == pytest.approx(s1.q.prob(k), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("M, k_max", [(100, None), (math.inf, 4096)])
    def test_rescaling_f_changes_no_stop(self, M, k_max):
        # f and lam f define the same model: the solve neither diverges nor
        # loses its bracket at any scale, and mean_f scales with lam
        p = ba_params(2)

        def solve(lam):
            f = PreferenceFunction.from_rule(lambda k: lam * np.asarray(k, float), g=1, M=M)
            return solve_stationary(p, f, k_max=k_max)

        ref = solve(1.0)
        for lam in (1e-12, 1e-6, 1e6, 1e15):
            sol = solve(lam)
            assert sol.mean_f / lam == pytest.approx(ref.mean_f, rel=1e-10), lam
            assert compare(sol.q, ref.q).tv_distance < 1e-9, lam

    @pytest.mark.parametrize("M, k_max", [(100, None), (math.inf, 4096)])
    def test_sweep_count_does_not_depend_on_the_scale_of_f(self, monkeypatch, M, k_max):
        # the start, f at the mean degree, and every step after it have
        # the units of f, so lam f sweeps exactly as often as f
        sweeps = _count_sweeps(monkeypatch)
        counts = []
        for lam in (1e-12, 1e-6, 1.0, 1e6, 1e12):
            f = PreferenceFunction.from_rule(lambda k: lam * np.asarray(k, float), g=1, M=M)
            sweeps.clear()
            solve_stationary(ba_params(2), f, k_max=k_max)
            counts.append(len(sweeps))
        assert counts == [counts[0]] * 5

    def test_bracket_collapse_above_zero_returns_bisection(self):
        # tol = 1e-17 is below what any step can reach: the bracket
        # narrows to 4 ulp of its lower end and the solve returns there
        f = PreferenceFunction.linear(g=1, M=100)
        sol = solve_stationary(ba_params(2), f, tol=1e-17)
        assert (sol.method, sol.iterations) == ("bisection", 8)
        assert sol.mean_f == pytest.approx(solve_stationary(ba_params(2), f).mean_f, rel=1e-10)

    def test_truncation_mass_is_accounted_exactly(self):
        sol = solve_stationary(ba_params(2), LINEAR, k_max=500)
        assert sol.tail_mass_bound > 1e-7  # visibly truncated on purpose
        assert math.fsum(p for _, p in sol.q.items()) + sol.tail_mass_bound == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("k_max", [None, 40, 300])
    def test_bounded_window_solves_in_one_phase(self, monkeypatch, k_max):
        # a bounded window never closes its tail or grows its table: one
        # phase on M + n + 1 entries by default, on k_max + 1 for an
        # explicit k_max; one below the cutoff M + n reports the mass it
        # cuts off and raises nothing
        def closure(*args):
            raise AssertionError("a bounded window closed its tail")

        phases = []
        solve_at = solver._solve_at

        def recorded(p, f, K, *args):
            phases.append(K)
            return solve_at(p, f, K, *args)

        monkeypatch.setattr(solver, "_tail_closure", closure)
        monkeypatch.setattr(solver, "_solve_at", recorded)
        sizes = _sweep_sizes(monkeypatch)
        sol = solve_stationary(ba_params(2), PreferenceFunction.linear(g=1, M=100), k_max=k_max)
        K = 102 if k_max is None else k_max
        assert phases == [K] and sol.k_max == K
        assert sizes == [K + 1] * sol.iterations
        assert (sol.tail_mass_bound > 0.0) == (K < 102)

    @pytest.mark.parametrize("case", list(NEUTRAL), ids=lambda c: "-".join(map(str, c)))
    def test_iteration_solves_are_unchanged(self, case):
        model, rule, top = case
        if rule == "linear":
            sol = solve_stationary(_model(model), LINEAR, k_max=4096)
        else:
            f = PreferenceFunction.from_table(
                {k: float(NEUTRAL_RULES[rule](k)) for k in range(1, top + 1)}
            )
            sol = solve_stationary(_model(model), f)
        digest = hashlib.sha256(repr(list(sol.q.items())).encode()).hexdigest()
        assert (sol.mean_f, sol.iterations, sol.method, digest) == NEUTRAL[case]

    def test_crawling_table_bisects(self, monkeypatch):
        # a damped step crawled on this alternating table for over 400
        # sweeps; the secant leaves the bracket, bisects it and lands on
        # the root that brentq found before
        f = PreferenceFunction.from_table(
            {k: NEUTRAL_RULES["alt"](k) for k in range(1, 11)}
        )
        sweeps = _count_sweeps(monkeypatch)
        sol = solve_stationary(ba_params(1), f)
        assert sol.method == "bisection"
        assert sol.iterations == len(sweeps) <= 14
        assert sol.mean_f == pytest.approx(1.4137136507605705, rel=1e-7)

    def test_residual_is_relative_below_one(self):
        # mean_f is about 0.0096 here; an absolute residual of 1e-10 left a
        # relative error of 4.6e-8 against a tighter solve
        f = PreferenceFunction.from_table(
            {k: NEUTRAL_RULES["alt"](k) for k in range(1, 11)}
        )
        loose = solve_stationary(_model("mixed"), f).mean_f
        tight = solve_stationary(_model("mixed"), f, tol=1e-14).mean_f
        assert abs(loose - tight) <= 1e-9 * tight

    def test_superlinear_preference_diverges(self, monkeypatch):
        _assert_probe_rejects(monkeypatch, 2.0, k_max=3000)

    @pytest.mark.parametrize("power", [1.5, 1.01, 1.0002])
    def test_superlinear_default_schedule_rejects_before_any_sweep(self, monkeypatch, power):
        # with no k_max the probe must answer before the default schedule
        # sweeps any table
        _assert_probe_rejects(monkeypatch, power, k_max=None)

    def test_tail_that_never_closes_fails(self, monkeypatch):
        # BA's tail bound falls like K^-2: capped at 8192 entries it stays
        # near 1e-7, and the schedule must not return it as converged; the
        # message names tau = 3 and the size K (bound / tol)^(1/2) that
        # tol would need
        monkeypatch.setattr(solver, "K_CAP", 8192)
        with pytest.raises(NonConvergenceError) as exc:
            solve_stationary(ba_params(), LINEAR)
        bound = float(re.match(r"tail mass bound (\S+) ", str(exc.value)).group(1))
        assert bound > 1e-10
        need = re.search(
            r"at k_max=8192 \(K_CAP=8192\) is not below max\(tol, 1e-12\)=1e-10: "
            r"Q_k falls like k\^-tau with tau=3, so the bound falls like "
            r"k_max\^\(1-tau\) and needs about (\S+) entries$",
            str(exc.value),
        )
        assert need is not None
        assert float(need.group(1)) == pytest.approx(8192 * (bound / 1e-10) ** 0.5, rel=5e-3)

    @pytest.mark.parametrize(
        "gamma, r1, rn, degree, born",
        [
            (0.0, {1: 0.5, 2_000_000: 0.5}, {0: 1.0}, 2_000_000, 0.5),
            # an n-ad vertex with j free ends enters at degree j + n - 1;
            # born = gamma n rn_j / c = 0.5 * 3 * 0.4 / 2
            (0.5, {2: 1.0}, {1: 0.6, 1_000_000: 0.4}, 1_000_002, 0.3),
        ],
        ids=["monad", "triad"],
    )
    def test_arrival_above_the_cap_is_rejected_before_any_sweep(
        self, monkeypatch, gamma, r1, rn, degree, born
    ):
        # no default table (at most K_CAP entries) can hold the vertices
        # born above K_CAP, so the schedule fails at once, naming their mass
        def no_sweep(*args):
            raise AssertionError("swept a table")

        monkeypatch.setattr(solver, "_sweep_kernel", no_sweep)
        p = ModelParams(
            gamma=gamma,
            n=3,
            mu=0,
            r1=DegreeDistribution.from_probs(r1),
            rn=DegreeDistribution.from_probs(rn),
        )
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError) as exc:
            solve_stationary(p, LINEAR)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == (
            f"arrival degree {degree} is above K_CAP=1000000: vertices born above "
            f"K_CAP hold at least {born:.6g} of the stationary mass (sum of arr_k / c "
            f"over k > K_CAP), beyond every default table; give k_max >= {degree} "
            "to solve on a larger table"
        )

    @pytest.mark.parametrize("offset", [5.0, -0.5])
    def test_affine_preference_is_linear(self, offset):
        # f = k + offset probes at p = 1 -/+ O(1/K) and counts as linear;
        # its tail closure is exact, so mean_f = 2E/V + offset
        f = PreferenceFunction.from_rule(
            lambda k: np.asarray(k, float) + offset, g=1
        )
        p = ba_params(2)
        sol = solve_stationary(p, f, tol=1e-13, k_max=4096)
        assert sol.mean_f == pytest.approx(4.0 + offset, abs=1e-12)
        assert solve_stationary(p, f).tail_mass_bound < 1e-10

    @pytest.mark.parametrize("beta", [6.0, 2.0, 0.0, -0.5])
    def test_offset_preference_gives_the_gamma_ratio(self, beta):
        # BA (m = 2) with f = k + beta: Q_k is proportional to
        # Gamma(k + beta) / Gamma(k + beta + tau), tau = 3 + beta / m, and
        # mean_f = 2m + beta
        f = PreferenceFunction.from_rule(lambda k: np.asarray(k, float) + beta, g=2)
        sol = solve_stationary(ba_params(2), f)
        ks = range(3, 2000)
        ratio = sol.table[3:2000] / np.array(gamma_ratio_q(beta, 2, ks))
        assert ratio.max() / ratio.min() - 1.0 <= 1e-8
        assert sol.mean_f == pytest.approx(4.0 + beta, rel=1e-9)

    @pytest.mark.parametrize("model", ["crit3", "mixed"])
    def test_bundle_model_local_exponent_approaches_tau_from_below(self, model):
        # f = k: Q_k ~ k^-tau with tau = 1 + c mean_f / (b + n gamma mu);
        # the local exponent log2(Q_k / Q_2k) stays below tau and falls
        # short by O(1/k), so k times the shortfall is flat in k (measured
        # 2.553-2.563 for crit3, 7.49-7.56 for mixed)
        p = _model(model)
        sol = solve_stationary(p, LINEAR)
        tau = 1.0 + p.c * sol.mean_f / (p.b + p.n * p.gamma * p.mu)
        ks = np.array([256, 512, 1024, 2048, 4096])
        local = np.log2(sol.table[ks] / sol.table[2 * ks])
        assert (local < tau).all(), (tau, local)
        scaled = ks * (tau - local)
        assert scaled.max() / scaled.min() - 1.0 <= 0.02, scaled

    @pytest.mark.parametrize("m", [1, 2])
    def test_sublinear_preference_gives_a_stretched_exponential(self, m):
        # monads with f = k^0.5: Q_{k+1} / Q_k = f(k) / (mu + f(k+1)) with
        # mu = mean_f / m for k > m, which decays like exp(-2 mu sqrt(k))
        # (Krapivsky, Redner and Leyvraz); the first table already closes
        f = PreferenceFunction.from_rule(lambda k: np.sqrt(np.asarray(k, float)), g=1)
        sol = solve_stationary(ba_params(m), f)
        assert sol.k_max == solver.K_START
        assert sol.tail_mass_bound < 1e-40
        assert sol.method == "iteration"
        mu = sol.mean_f / m
        k = np.arange(m + 1, 1025, dtype=float)
        got = np.log(sol.table[m + 1 : 1025] / sol.table[m + 2 : 1026])
        want = np.log1p(mu / np.sqrt(k + 1.0)) + 0.5 * np.log1p(1.0 / k)
        assert np.abs(got / want - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("beta, tau, need", [(-1.0, 2.5, 5.6e6), (-1.5, 2.25, 5.9e7)])
    def test_heavy_tail_failure_names_tau_and_the_size_tol_needs(self, beta, tau, need):
        # the tail closes, but its mass falls like K^(1 - tau): at K_CAP
        # the bound is still above tol, and tol would take about
        # K_CAP (bound / tol)^(1 / (tau - 1)) entries
        f = PreferenceFunction.from_rule(lambda k: np.asarray(k, float) + beta, g=2)
        with pytest.raises(NonConvergenceError) as exc:
            solve_stationary(ba_params(2), f)
        msg = str(exc.value)
        bound = float(re.match(r"tail mass bound (\S+) at k_max=1000000 ", msg).group(1))
        quoted = re.search(r"tau=(\S+), .* needs about (\S+) entries$", msg)
        assert float(quoted.group(1)) == pytest.approx(tau, rel=1e-6)
        size = float(quoted.group(2))
        assert size == pytest.approx(solver.K_CAP * (bound / 1e-10) ** (1.0 / (tau - 1.0)), rel=5e-3)
        assert size == pytest.approx(need, rel=0.05)

    @pytest.mark.parametrize("model", ["m1", "m2", "crit3", "mixed", "pentads"])
    def test_tail_closed_mean_is_exact_on_small_tables(self, model):
        # f = k: mean_f is the mean degree 2E/V, and the closure is exact
        # for linear f, so already a 256-entry table gives it
        p = PENTADS if model == "pentads" else _model(model)
        exact = 2.0 * p.edges_per_step / p.c
        for k_max in (256, 1024, 4096):
            sol = solve_stationary(p, LINEAR, tol=1e-13, k_max=k_max)
            assert abs(sol.mean_f - exact) <= 1e-12, (k_max, sol.mean_f)

    @pytest.mark.parametrize("model", ["ba", "mixed", "pentads", "crit3"])
    @pytest.mark.parametrize("slope, offset", [(1.0, 0.0), (1.0, 3.0), (0.0, 1.0)], ids=["k", "k+3", "1"])
    def test_affine_mean_is_the_start(self, monkeypatch, model, slope, offset):
        # every stationary table has the mean degree 2E/c, so f = slope k
        # + offset on every reachable degree has x = slope 2E/c + offset:
        # the start itself, and each phase stops after one sweep
        p = PENTADS if model == "pentads" else _model(model)
        f = PreferenceFunction.from_rule(lambda k: slope * np.asarray(k, float) + offset, g=1)
        sizes = _sweep_sizes(monkeypatch)
        sol = solve_stationary(p, f)
        exact = slope * 2.0 * p.edges_per_step / p.c + offset
        assert abs(sol.mean_f - exact) <= 4.0 * math.ulp(exact)
        assert sizes[0] == solver.K_START + 1 and sizes[-1] == sol.k_max + 1
        assert len(set(sizes)) == len(sizes)

    def test_window_out_of_reach_is_rejected(self, monkeypatch):
        # every vertex enters at degree 1, below the window [2, 10], so no
        # vertex can ever attach
        sweeps = _count_sweeps(monkeypatch)
        f = PreferenceFunction.constant(5.0, g=2, M=10)
        with pytest.raises(NonConvergenceError, match=r"\[2, 10\].*degrees 1\.\.1"):
            solve_stationary(ba_params(1), f)
        assert sweeps == []

    def test_no_fixed_point_without_a_sign_change(self, monkeypatch):
        # a NaN tail closure never shows g(x) > x, so no bracket forms
        monkeypatch.setattr(solver, "_tail_closure", lambda *args: math.nan)
        with pytest.raises(NonConvergenceError, match="no mean-preference fixed point"):
            solve_stationary(ba_params(1), LINEAR, k_max=100)

    def test_no_fixed_point_when_the_window_empties(self):
        # BA m = 2 with f = 1 on [2, 2] alone: vertices enter at degree 2
        # and leave the window at their first attachment, so g(x) = Q_2 =
        # x / (x + 2) stays below every x > 0; growth from the CLI's
        # default K4 seed, all at degree 3, saturates at once
        f = PreferenceFunction.constant(1.0, g=2, M=2)
        with pytest.raises(NonConvergenceError, match=r"^no mean-preference fixed point: .* at k_max=4$"):
            solve_stationary(ba_params(2), f)
        with pytest.raises(SaturationError, match="^no attachable vertex"):
            grow(seed_complete(4), ba_params(2), f, 10, rng_seed=1)

    @pytest.mark.parametrize(
        "last, weight, degree",
        [(2999, math.nan, 3000), (10**6, math.nan, 2**20), (2**21, 0.0, 2**22), (2**21, -1.0, 2**22)],
    )
    def test_the_first_bad_degree_of_the_table_or_the_probe_is_named(self, last, weight, degree):
        # f is k up to last and weight above: the first bad degree of the
        # first table (4097 entries) is named, else the first of the
        # probe's K, 2K and 4K
        f = PreferenceFunction.from_rule(lambda k: np.where(k <= last, k * 1.0, weight), g=1)
        message = f"preference rule gives {weight} at degree {degree}, not a finite weight > 0"
        with pytest.raises(PreferenceError, match=f"^{re.escape(message)}$"):
            solve_stationary(ba_params(2), f)

    def test_an_affine_rule_with_a_large_negative_offset_is_linear(self, monkeypatch):
        # f = k - 200 from degree 201 and every vertex born at 202: the
        # mean degree is 404 and f is affine, so x = 404 - 200 = 204 is the
        # handshake start itself; f(2K) / f(K) at K = 2^20 is 2^1.00014,
        # which a ratio test would call superlinear, but the slopes match
        sweeps = _count_sweeps(monkeypatch)
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(202), rn=point(0))
        f = PreferenceFunction.from_rule(lambda k: k - 200.0, g=201)
        assert solve_stationary(p, f, k_max=4096).mean_f == 204.0
        assert sweeps == [1]

    def test_k_max_below_arrivals_rejected(self):
        rn = DegreeDistribution.from_probs({7: 1.0})
        p = ModelParams(gamma=1.0, n=5, mu=0, r1=point(0), rn=rn)
        with pytest.raises(ValueError):
            solve_stationary(p, LINEAR, k_max=10)  # arrivals enter at 11

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf])
    def test_bad_tol_rejected(self, monkeypatch, tol):
        # rejected before any sweep: a NaN tol never closed the bracket and
        # an infinite one took the first sweep's x; the wrapped kernel fails
        # instead of hanging
        sweeps = []

        def kernel(*args):
            sweeps.append(args)
            raise AssertionError("swept with a bad tol")

        monkeypatch.setattr(solver, "_sweep_kernel", kernel)
        with pytest.raises(ValueError, match=r"must be finite and > 0$"):
            solve_stationary(ba_params(), LINEAR, tol=tol)
        assert sweeps == []

    def test_degenerate_no_attachment_rejected(self):
        p = ModelParams(gamma=1.0, n=3, mu=0, r1=point(0), rn=point(0))
        with pytest.raises(ValueError):
            solve_stationary(p, LINEAR)

    def test_negative_mean_rejected_in_sweep(self):
        with pytest.raises(ValueError):
            q_from_recurrence(ba_params(), LINEAR, -1.0, 50)

    @pytest.mark.parametrize("M, k_max", [(100, None), (math.inf, 4096)])
    def test_a_sweep_without_mass_is_lost_mass(self, monkeypatch, M, k_max):
        # an empty first sweep is named, not divided by: the guard runs
        # before the first sweep's table mean
        def empty(q, t):
            q[:] = 0.0
            t[:] = 0.0

        _after_each_sweep(monkeypatch, empty)
        with pytest.raises(NonConvergenceError, match="^stationary sweep lost all probability mass$"):
            solve_stationary(ba_params(2), PreferenceFunction.linear(g=1, M=M), k_max=k_max)

    def test_a_sweep_with_nan_mass_stops_at_once(self, monkeypatch):
        # a NaN total is neither > 0 nor <= 0; unnamed, it bisected x for
        # about a thousand sweeps until s / total divided by zero
        def nan(q, t):
            q[-1] = math.nan

        sweeps = _count_sweeps(monkeypatch)
        _after_each_sweep(monkeypatch, nan)
        with pytest.raises(NonConvergenceError, match="^stationary sweep probability mass is NaN$"):
            solve_stationary(ba_params(2), PreferenceFunction.linear(g=1, M=100))
        assert len(sweeps) == 1

    def test_negative_mass_is_a_runtime_error(self, monkeypatch):
        # -1e-300 leaves every sum and so the fixed point as they were
        def negative(q, t):
            q[-1] = -1e-300

        _after_each_sweep(monkeypatch, negative)
        with pytest.raises(RuntimeError, match="^negative or NaN probability mass in stationary sweep$"):
            solve_stationary(ba_params(2), PreferenceFunction.linear(g=1, M=100))

    def test_unnormalized_table_is_rejected(self, monkeypatch):
        # doubling q and t keeps sum f Q / sum Q, so the solve converges as
        # before on a table of mass 2
        def double(q, t):
            q *= 2.0
            t *= 2.0

        _after_each_sweep(monkeypatch, double)
        with pytest.raises(RuntimeError) as exc:
            solve_stationary(ba_params(2), PreferenceFunction.linear(g=1, M=100))
        mass = re.match(r"^probabilities sum to (\S+), off by more than 1e-09$", str(exc.value)).group(1)
        assert float(mass) == pytest.approx(2.0, rel=1e-12)

    def test_mean_that_keeps_growing_diverges(self, monkeypatch):
        # an infinite sum f Q reads g(x) > x at every x, so x steps by 8x
        # from f(4) = 4 until its next step could overflow: 4 * 8^340 is
        # below the largest double, 4 * 8^341 above it
        def infinite(q, t):
            t[0] = math.inf

        sweeps = _count_sweeps(monkeypatch)
        _after_each_sweep(monkeypatch, infinite)
        with pytest.raises(NonConvergenceError, match=r"^mean preference diverges; no stationary distribution"):
            solve_stationary(ba_params(2), PreferenceFunction.linear(g=1, M=100))
        assert len(sweeps) == 341


def test_q_table_round_trip(tmp_path):
    sol = solve_stationary(ba_params(1), LINEAR, k_max=2000)
    path = tmp_path / "q.csv"
    write_q_table(sol, path, {"tool": "test"})
    probs, meta = read_degree_table(path)
    assert meta["tool"] == "test"
    assert float(meta["mean_f"]) == sol.mean_f
    assert probs == dict(sol.q.items())


def test_q_table_skips_interior_zeros(tmp_path):
    # bundles only (gamma = 1, n = 3, mu = 1, rn = {1: 1}): vertices enter
    # at degree 3 and every attachment adds 3, so Q is positive only at
    # multiples of 3, 1365 of the 4097 entries
    p = ModelParams(gamma=1.0, n=3, mu=1, r1=point(0), rn=point(1))
    sol = solve_stationary(p, LINEAR)
    assert sol.table.shape == (4097,)
    path = tmp_path / "q.csv"
    write_q_table(sol, path)
    rows = [line for line in path.read_text().splitlines() if line[0].isdigit()]
    assert rows == [f"{k},{v!r}" for k, v in sol.q.items()]
    assert len(rows) == 1365
    assert all(float(row.split(",")[1]) > 0.0 for row in rows)


def test_solve_and_write_stay_within_64_bytes_per_entry(tmp_path):
    # the solution keeps one dense float64 table and the writer streams
    # it: traced memory peaks at most 64 bytes per table entry, where a
    # dict of boxed entries took about 150, and writing never builds q
    tracemalloc.start()
    try:
        sol = solve_stationary(ba_params(2), LINEAR, k_max=100_000)
        write_q_table(sol, tmp_path / "q.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "q" not in vars(sol)
    assert peak <= 64 * (sol.k_max + 1)


def test_default_solve_peaks_at_24_bytes_per_entry():
    # the sweep refills one pair of float64 tables, q and t, and evaluates
    # f one block at a time: a default BA solve traces at most 24 bytes per
    # entry (measured 18.2), where a whole f array took 35
    tracemalloc.start()
    try:
        sol = solve_stationary(ba_params(2), LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.table.shape == (245_391,)
    assert peak <= 24 * sol.table.shape[0]


def test_q_is_a_view_of_the_table():
    # sol.q trims the table to its positive range without a copy or a boxed
    # entry; a dict of the 245,389 entries traced a 27.1 MB peak
    sol = solve_stationary(ba_params(2), LINEAR)
    tracemalloc.start()
    try:
        q = sol.q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(q.table, sol.table)
    assert (q.support_min, q.support_max) == (2, sol.k_max)
    assert peak < 1_000_000


def test_q_table_rejects_duplicates(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("k,Q\n1,0.5\n1,0.5\n")
    with pytest.raises(ValueError):
        read_degree_table(path)


@pytest.mark.parametrize(
    "name, text",
    [("q.csv", "# tool=test\nk,Q\n1,0.5\nx,0.5\n"), ("q.tsv", "# tool=test\n\n1\t0.5\nx\t0.5\n")],
    ids=["csv", "tab"],
)
def test_table_rejects_bad_row_with_its_location(tmp_path, name, text):
    # the k,Q and the tab format both name the line of a bad row; the
    # caller that opened the file names it
    path = tmp_path / name
    path.write_text(text)
    want = r"^line 4: invalid literal for int\(\) with base 10: 'x'$"
    with pytest.raises(ValueError, match=want):
        read_degree_table(path)
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
