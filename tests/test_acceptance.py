"""End-to-end gate with pinned tolerances and runtime budgets.

Each check prints a single PASS or FAIL line with the measured numbers,
bypassing output capture so the whole gate can be scanned in the test
log. Budgets are wall clock for warm code paths; the module fixture
runs one small solve and one short growth run before anything is timed.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from polyadnet.analysis import compare, triangle_count
from polyadnet.calibrate import calibrate
from polyadnet.cli import main
from polyadnet.distributions import DegreeDistribution
from polyadnet.engine import grow
from polyadnet.graph import MultiGraph, empirical_vdd, seed_complete
from polyadnet.layers import LayerIndex
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction
from polyadnet.solver import solve_stationary

from oracles import checking_updates, q_dyad, q_from_recurrence, q_gamma0

LINEAR = PreferenceFunction.linear()


def point(j):
    return DegreeDistribution.from_probs({j: 1.0})


def params(gamma, n, mu, r1, rn):
    return ModelParams(gamma=gamma, n=n, mu=mu, r1=r1, rn=rn)


def report(capsys, ok, line):
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run one small solve and one short growth run, untimed, so that no
    budget pays for first-call costs."""
    p = params(0.5, 3, 1, point(1), point(2))
    solve_stationary(p, LINEAR, k_max=256)
    g = seed_complete(4)
    grow(g, p, LINEAR, 50, rng_seed=1)


def test_criterion_1_linear_kernel_closed_form(capsys):
    m = 2
    p = params(0.0, 2, 0, point(m), point(0))
    t0 = time.perf_counter()
    sol = solve_stationary(p, LINEAR, tol=1e-12, k_max=200_000)
    elapsed = time.perf_counter() - t0
    rel = max(
        abs(sol.q.prob(k) - 2 * m * (m + 1) / (k * (k + 1) * (k + 2)))
        / (2 * m * (m + 1) / (k * (k + 1) * (k + 2)))
        for k in range(m, 501)
    )
    mean_err = abs(sol.mean_f - 2 * m)
    ok = rel < 1e-8 and mean_err < 1e-8 and elapsed < 1.0
    report(
        capsys,
        ok,
        "criterion 1: closed-form check, max rel err "
        f"{rel:.2e} (tol 1e-08), mean_f err {mean_err:.2e} (tol 1e-08), "
        f"{elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_special_case_reductions(capsys):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        k_max = 64
        x = float(rng.uniform(0.3, 6.0))
        g_lo = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            width = int(rng.integers(6, 30))
            weights = {
                k: float(rng.uniform(0.05, 4.0)) for k in range(g_lo, g_lo + width)
            }
            f = PreferenceFunction.from_table(weights)
        else:
            f = PreferenceFunction.linear(g=g_lo)

        if trial % 2 == 0:
            sup = sorted(rng.choice(np.arange(1, 7), size=2, replace=False))
            w = rng.dirichlet([1.0, 1.0])
            r1 = DegreeDistribution.from_probs(
                {int(sup[0]): float(w[0]), int(sup[1]): float(w[1])}
            )
            p = params(0.0, 2, 0, r1, point(0))
            full = q_from_recurrence(p, f, x, k_max)
            aside = q_gamma0(r1, f, x, k_max)
        else:
            mu = int(rng.integers(0, 3))
            sup = sorted(set(int(v) for v in rng.integers(mu, mu + 5, size=2)))
            w = rng.dirichlet(np.ones(len(sup)))
            rn = DegreeDistribution.from_probs(
                {s: float(w[i]) for i, s in enumerate(sup)}
            )
            p = params(1.0, 2, mu, point(0), rn)
            full = q_from_recurrence(p, f, x, k_max)
            aside = q_dyad(rn, f, mu, x, k_max)
        assert full.keys() == aside.keys()
        worst = max(worst, max(abs(full[k] - aside[k]) for k in full))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(
        capsys,
        ok,
        "criterion 2: reductions over 100 draws, max elementwise gap "
        f"{worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_3_theory_vs_simulation(capsys):
    rn = DegreeDistribution.from_probs(
        {1: 0.39091, 2: 0.04, 3: 0.08, 4: 0.12, 5: 0.16, 6: 0.2, 7: 0.00909}
    )
    r1 = DegreeDistribution.from_probs({1: 0.049737, 2: 0.950263})
    p = params(0.01, 5, 1, r1, rn)
    t0 = time.perf_counter()
    sol = solve_stationary(p, LINEAR, tol=1e-9)
    tvs = []
    for seed in range(10):
        g = seed_complete(4)
        with checking_updates(25_000):
            grow(g, p, LINEAR, 50_000, rng_seed=seed)
        tvs.append(compare(empirical_vdd(g), sol.q).tv_distance)
    elapsed = time.perf_counter() - t0
    mean_tv = sum(tvs) / len(tvs)
    ok = mean_tv < 0.02 and elapsed < 60.0
    report(
        capsys,
        ok,
        f"criterion 3: 50k-step runs vs solver, mean TV {mean_tv:.4f} "
        f"(tol 0.02, worst seed {max(tvs):.4f}), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_calibration_round_trip(capsys):
    p = params(0.3, 3, 1, point(1), DegreeDistribution.from_probs({1: 0.5, 2: 0.5}))
    f_true = PreferenceFunction.linear(g=1, M=300)
    t0 = time.perf_counter()
    sol = solve_stationary(p, f_true, tol=1e-12)
    result = calibrate(sol.q, p, window=(1, 300))
    assert result.feasible
    ratios = [result.f(k) / f_true(k) for k in range(1, 301)]
    prop_err = max(abs(r / ratios[0] - 1.0) for r in ratios)
    a = p.a
    mean_constraint = abs(
        math.fsum(result.f(k) * sol.q.prob(k) for k in range(1, 301)) - a
    )
    g = seed_complete(4)
    with checking_updates(50_000):
        grow(g, p, result.f, 100_000, rng_seed=4)
    tv = compare(empirical_vdd(g), sol.q).tv_distance
    elapsed = time.perf_counter() - t0
    ok = prop_err < 1e-6 and mean_constraint < 1e-8 and tv < 0.03 and elapsed < 90.0
    report(
        capsys,
        ok,
        "criterion 4: round trip on [1,300], proportionality err "
        f"{prop_err:.2e} (tol 1e-06), mean constraint gap {mean_constraint:.2e} "
        f"(tol 1e-08), 100k-step TV {tv:.4f} (tol 0.03), {elapsed:.1f}s (budget 90s)",
    )


def _chisq_pvalue(observed, expected):
    """Chi-square p after pooling cells with expected count below five."""
    order = np.argsort(expected)
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for i in order:
        o_acc += observed[i]
        e_acc += expected[i]
        if e_acc >= 5.0:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0:
        if exp_bins:
            obs_bins[-1] += o_acc
            exp_bins[-1] += e_acc
        else:
            obs_bins, exp_bins = [o_acc], [e_acc]
    if len(exp_bins) < 2:
        return 1.0
    return sps.chisquare(obs_bins, f_exp=exp_bins).pvalue


def test_criterion_5_sampler_exactness(capsys):
    rng = np.random.default_rng(55)
    draws = 100_000
    t0 = time.perf_counter()
    worst_p = 1.0
    for trial in range(50):
        n_vertices = int(rng.integers(5, 201))
        pairs = [rng.integers(0, n_vertices, 2) for _ in range(2 * n_vertices)]
        pairs = [(int(u), int(v)) for u, v in pairs if u != v]
        g = MultiGraph.from_columns(n_vertices, [u for u, _ in pairs], [v for _, v in pairs])
        kind = trial % 3
        if kind == 0:
            f = PreferenceFunction.linear(g=1)
        elif kind == 1:
            f = PreferenceFunction.constant(1.0, g=1, M=6)
        else:
            f = PreferenceFunction.from_table(
                {k: float(rng.uniform(0.2, 3.0)) for k in range(1, 40)}
            )
        weights = np.array([f(k) for k in g.degrees], dtype=float)
        if weights.sum() <= 0:
            continue
        probs = weights / weights.sum()
        idx = LayerIndex.build(g, f)
        assert idx.sample_many(np.random.default_rng(0), 1)[0] in range(n_vertices)
        hits = np.bincount(idx.sample_many(rng, draws), minlength=n_vertices)
        worst_p = min(worst_p, _chisq_pvalue(hits.astype(float), probs * draws))
    elapsed = time.perf_counter() - t0
    ok = worst_p > 0.001 and elapsed < 30.0
    report(
        capsys,
        ok,
        f"criterion 5: 50 frozen graphs x {draws} draws, min chi-square p "
        f"{worst_p:.4f} (floor 0.001), {elapsed:.1f}s (budget 30s)",
    )


def _brute_triangles(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return sum(
        1
        for u, v, w in itertools.combinations(range(g.n), 3)
        if v in adj[u] and w in adj[u] and w in adj[v]
    )


def test_criterion_6_triangle_floor(capsys):
    p = params(1.0, 5, 0, point(0), point(1))
    floors_ok = True
    brute_ok = True
    checked = 0
    for seed, steps in ((6, 11), (7, 11), (8, 400)):
        g = seed_complete(5)
        grow(g, p, LINEAR, steps, rng_seed=seed)
        tri = triangle_count(g)
        floors_ok = floors_ok and tri >= 10 * steps
        if g.n <= 60:
            brute_ok = brute_ok and tri == _brute_triangles(g)
            checked += 1
    ok = floors_ok and brute_ok and checked >= 2
    report(
        capsys,
        ok,
        "criterion 6: pentad runs keep triangle_count >= 10 per step "
        f"(floor {'held' if floors_ok else 'broken'}) and match the cubic "
        f"oracle on {checked} small graphs",
    )


def test_criterion_7_rate_bookkeeping(capsys):
    p = params(0.25, 3, 1, point(2), DegreeDistribution.from_probs({1: 0.5, 2: 0.5}))
    steps = 10_000
    v_rates, e_rates = [], []
    t0 = time.perf_counter()
    for seed in range(30):
        g = seed_complete(4)
        stats = grow(g, p, LINEAR, steps, rng_seed=100 + seed)
        v_rates.append(stats.realized_vertices / steps)
        e_rates.append(stats.realized_edges / steps)
    elapsed = time.perf_counter() - t0
    v_mean, e_mean = np.mean(v_rates), np.mean(e_rates)
    v_se = np.std(v_rates, ddof=1) / math.sqrt(len(v_rates))
    e_se = np.std(e_rates, ddof=1) / math.sqrt(len(e_rates))
    e_expect = p.edges_per_step
    assert e_expect == pytest.approx(3.375)
    v_gap, e_gap = abs(v_mean - 1.5), abs(e_mean - e_expect)
    ok = v_gap <= 3 * v_se and e_gap <= 3 * e_se
    report(
        capsys,
        ok,
        f"criterion 7: vertices/step {v_mean:.4f} vs 1.5 (gap {v_gap:.2e}, "
        f"3se {3 * v_se:.2e}), edges/step {e_mean:.4f} vs {e_expect} "
        f"(gap {e_gap:.2e}, 3se {3 * e_se:.2e}), {elapsed:.1f}s",
    )


def test_criterion_8_byte_determinism(capsys, tmp_path):
    import yaml

    (tmp_path / "r1.tsv").write_text("2\t1.0\n")
    (tmp_path / "rn.tsv").write_text("1\t0.5\n2\t0.5\n")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        yaml.safe_dump(
            dict(
                gamma=0.3,
                n=3,
                mu=1,
                r1_path="r1.tsv",
                rn_path="rn.tsv",
                preference_rule={"kind": "linear", "g": 1},
                seed_size=4,
                steps=2000,
                rng_seed=17,
            )
        )
    )
    lanes = []
    for name in ("a", "b"):
        code = main(
            ["generate", "--config", str(cfg), "--out", str(tmp_path / name)]
        )
        assert code == 0
        lanes.append((tmp_path / name / "edges.tsv").read_bytes())
    ok = lanes[0] == lanes[1] and len(lanes[0]) > 0
    report(
        capsys,
        ok,
        "criterion 8: repeated runs with one config and seed give byte-identical "
        f"edge lists ({len(lanes[0])} bytes)",
    )
