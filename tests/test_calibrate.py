import math

import pytest

from polyadnet.calibrate import CalibrationResult, calibrate
from polyadnet.distributions import DegreeDistribution
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction
from polyadnet.solver import solve_stationary


def point(j):
    return DegreeDistribution.from_probs({j: 1.0})


def pentad_params():
    r1 = DegreeDistribution.from_probs({1: 0.049737, 2: 0.950263})
    rn = DegreeDistribution.from_probs(
        {1: 0.39091, 2: 0.04, 3: 0.08, 4: 0.12, 5: 0.16, 6: 0.2, 7: 0.00909}
    )
    return ModelParams(gamma=0.01, n=5, mu=1, r1=r1, rn=rn)


class TestNormalizer:
    def test_monads_only_is_mean_free_edges(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(3), rn=point(0))
        assert p.a == 3.0

    def test_dyads_with_bundle(self):
        # two ends per vertex, one bundled pair counts once: 2*2 - 1
        p = ModelParams(gamma=1.0, n=2, mu=1, r1=point(0), rn=point(2))
        assert p.a == 3.0

    def test_pentad_run_value(self):
        assert pentad_params().a == pytest.approx(2.05348737, abs=1e-9)

    def test_degenerate_zero(self):
        p = ModelParams(gamma=1.0, n=3, mu=0, r1=point(0), rn=point(0))
        assert p.a == 0.0
        target = DegreeDistribution.from_probs({2: 1.0})
        with pytest.raises(ValueError):
            calibrate(target, p)


class TestRoundTrip:
    def test_recovers_scaled_preference(self):
        f_true = PreferenceFunction.from_table(
            {k: k**1.3 + 2.0 for k in range(1, 61)}
        )
        p = ModelParams(
            gamma=0.3,
            n=3,
            mu=1,
            r1=point(2),
            rn=DegreeDistribution.from_probs({1: 0.5, 2: 0.5}),
        )
        sol = solve_stationary(p, f_true, tol=1e-12)
        # degree 1 is unreachable here (monads arrive at 2, triads at 3+),
        # so the identifiable window starts at 2
        assert sol.q.support_min == 2
        res = calibrate(sol.q, p, window=(2, 60))
        assert res.feasible
        # recovered weights equal (a / mean_f) * true weights pointwise
        scale = res.a / sol.mean_f
        for k in range(2, 61):
            assert res.f(k) == pytest.approx(scale * f_true(k), rel=1e-9)
        # and they satisfy the <f> = a normalization on the target
        sfq = math.fsum(res.f(k) * sol.q.prob(k) for k in range(2, 61))
        assert sfq == pytest.approx(res.a, abs=1e-10)

    def test_gamma0_collapsed_form_agrees(self):
        # at gamma=0 the sweep reduces to
        # f_k = (r_k - Q_k)/Q_k + f_{k-1} Q_{k-1}/Q_k, written here
        # separately as a cross-check of the full formula
        r1 = DegreeDistribution.from_probs({1: 0.3, 2: 0.7})
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=r1, rn=point(0))
        f_true = PreferenceFunction.from_table({k: float(k) for k in range(1, 41)})
        sol = solve_stationary(p, f_true, tol=1e-12)
        res = calibrate(sol.q, p, window=(1, 40))

        prev_t = 0.0
        for k in range(1, 41):
            qk = sol.q.prob(k)
            fk = (r1.prob(k) - qk) / qk + prev_t / qk
            assert res.raw_weights[k] == pytest.approx(fk, rel=1e-12, abs=1e-12)
            prev_t = fk * qk

    def test_pentad_window_round_trip(self):
        p = pentad_params()
        f_true = PreferenceFunction.from_table({k: float(k) for k in range(1, 121)})
        sol = solve_stationary(p, f_true, tol=1e-12)
        res = calibrate(sol.q, p, window=(1, 120))
        assert res.feasible
        ratios = [res.f(k) / k for k in range(1, 121)]
        assert max(ratios) - min(ratios) < 1e-9 * ratios[0]


class TestInfeasibility:
    def test_truncated_target_fails_at_cutoff(self):
        p = pentad_params()
        f_true = PreferenceFunction.from_table({k: float(k) for k in range(1, 201)})
        sol = solve_stationary(p, f_true, tol=1e-12)
        cutoff = 90
        probs = {k: sol.q.prob(k) for k in range(sol.q.support_min, cutoff + 1)}
        s = math.fsum(probs.values())
        trunc = DegreeDistribution.from_probs({k: v / s for k, v in probs.items()})

        res = calibrate(trunc, p)
        assert not res.feasible
        assert res.f is None
        assert res.first_infeasible_k == cutoff
        assert res.raw_weights[cutoff] <= 0.0
        # weights before the cutoff still track the true preference
        assert res.raw_weights[cutoff // 2] > 0.0

    def test_result_fields_on_success(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        f_true = PreferenceFunction.constant(1.0, g=1, M=30)
        sol = solve_stationary(p, f_true, tol=1e-12)
        res = calibrate(sol.q, p, window=(1, 30))
        assert isinstance(res, CalibrationResult)
        assert res.feasible and res.first_infeasible_k is None
        assert (res.f.g, res.f.M) == (1, 30)
        assert set(res.raw_weights) == set(range(1, 31))


class TestValidation:
    def test_zero_mass_inside_window_rejected(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        target = DegreeDistribution.from_probs({1: 0.4, 2: 0.3, 4: 0.3})
        with pytest.raises(ValueError, match="degree 3"):
            calibrate(target, p, window=(1, 4))

    def test_window_wider_than_support_rejected(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        target = DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
        with pytest.raises(ValueError):
            calibrate(target, p, window=(1, 10))

    def test_empty_or_negative_window_rejected(self):
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        target = DegreeDistribution.from_probs({1: 0.5, 2: 0.5})
        with pytest.raises(ValueError):
            calibrate(target, p, window=(3, 2))
        with pytest.raises(ValueError):
            calibrate(target, p, window=(-1, 2))

    def test_default_window_is_target_support(self):
        # the support reaches degree 26, one attachment past the window of
        # f_true, where the swept weight is zero within its rounding bound;
        # the recovered window ends below it, on f_true's [1, 25]
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(1), rn=point(0))
        f_true = PreferenceFunction.constant(2.0, g=1, M=25)
        sol = solve_stationary(p, f_true, tol=1e-12)
        res = calibrate(sol.q, p)
        assert (sol.q.support_min, sol.q.support_max) == (1, 26)
        assert (res.f.g, res.f.M) == (1, 25)

    @pytest.mark.parametrize("M", [30, 100, 300])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_default_window_ends_where_f_is_zero_within_rounding(self, m, M):
        # the solved table of f = k on [1, M] reaches M + 1, where the true
        # weight is 0 and the swept one is a rounding residual of either
        # sign; it no longer decides feasibility
        p = ModelParams(gamma=0.0, n=2, mu=0, r1=point(m), rn=point(0))
        sol = solve_stationary(p, PreferenceFunction.linear(g=1, M=M))
        assert sol.q.support_max == M + 1
        res = calibrate(sol.q, p)
        assert res.feasible and (res.f.g, res.f.M) == (m, M)
        ratios = [res.f(k) / k for k in range(m, M + 1)]
        assert max(ratios) - min(ratios) <= 1e-11 * ratios[0]
        assert set(res.raw_weights) == set(range(m, M + 2))
