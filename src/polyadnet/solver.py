"""Stationary degree distribution of the growth model.

The proportion Q_k of degree-k vertices obeys a one-sided recurrence once
the mean preference x = sum_k f(k) Q_k is known. Cliques couple Q_k to
Q_{k-n} through conjugate bundles and to Q_{k-1} through single edge ends,
so for fixed x the whole table follows in one forward sweep:

    Q_k = [arr_k x + b f(k-1) Q_{k-1} + gamma mu f(k-n) Q_{k-n}]
          / [x (1 + gamma (n-1)) + f(k) a]

with the arrival mass arr_k, the single-end rate b and the total end rate
a = b + gamma mu as ModelParams defines them in params.py, where the
dilution c = 1 + gamma (n-1) is written too. The sweep starts at k = 0;
entries below the preference window are arrival-fed only, matching the
boundary convention where Q vanishes for negative index.

x itself is pinned by the fixed point x = sum f(k) Q_k(x), solved here by
one loop: damped iteration inside a sign bracket of the root, bisecting
when a step would leave it or the iteration stalls. Truncation at k_max
is controlled exactly: telescoping the recurrence shows the missing mass
beyond k_max equals

    [b t_K + gamma mu (t_{K-n+1} + ... + t_K)] / [x (1 + gamma (n-1))]

where t_k = f(k) Q_k, so the solver can report a rigorous tail bound and
grow k_max until it is negligible. For preference windows without an
upper bound the mean is additionally closed with a power-law tail fit so
that modest tables already give the fixed point to high accuracy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import count

import numpy as np
from scipy.special import zeta

from .distributions import DegreeDistribution, read_degree_table, write_table
from .params import ModelParams, validate_params
from .preference import PreferenceFunction

__all__ = [
    "NonConvergenceError",
    "StationarySolution",
    "read_q_table",
    "solve_stationary",
    "write_q_table",
]

K_START = 4096
K_CAP = 1_000_000
BETA = 0.5  # damping of the fixed-point step
MAX_ITER = 400  # damped sweeps before every step bisects
_DIVERGED = float("inf")


class NonConvergenceError(RuntimeError):
    """No finite mean-preference fixed point was found."""


def _sweep_kernel(arr, fa, p: ModelParams, x):
    """One forward sweep of the recurrence at mean x for parameters p.

    arr and fa (arrival mass and f over 0..K) are plain lists: indexing
    Python floats is several times faster than scalar indexing of numpy
    arrays. q and t = f q are filled as array('d') and returned as numpy
    views of it, which keeps a table at 8 bytes per entry.
    """
    size = len(arr)
    q = array("d", [0.0]) * size
    t = array("d", [0.0]) * size
    n, a, b = p.n, p.a, p.b
    denom0 = x * p.c
    gmu = p.gamma * p.mu
    tk = 0.0
    for k in range(size):
        num = arr[k] * x
        if k >= 1:
            num += b * tk
        if k >= n:
            num += gmu * t[k - n]
        fk = fa[k]
        qk = num / (denom0 + fk * a)
        q[k] = qk
        t[k] = tk = fk * qk
    return np.frombuffer(q), np.frombuffer(t)


def _tail_mass(t: np.ndarray, p: ModelParams, x: float) -> float:
    """Exact mass the recurrence would place beyond the table end."""
    K = t.shape[0] - 1
    bundle = p.gamma * p.mu * float(t[max(0, K - p.n + 1) : K + 1].sum())
    return (p.b * float(t[K]) + bundle) / (x * p.c)


def _tail_mean(t: np.ndarray, f: PreferenceFunction) -> float:
    """Estimate sum of t_k beyond the table for unbounded windows.

    Fits the decay exponent of t_k on the top half of the table and closes
    the sum with a Hurwitz zeta value. Returns 0 when the window already
    ends inside the table or the table is too short to fit, and inf when
    the fitted tail does not converge.
    """
    K = t.shape[0] - 1
    if f.M <= K or K < 2 or t[K] <= 0.0:
        return 0.0
    ks = np.unique(np.geomspace(max(2, K // 2), K, 48).astype(np.int64))
    vals = t[ks]
    ok = vals > 0.0
    if ok.sum() < 3:
        return 0.0
    slope = np.polyfit(np.log(ks[ok]), np.log(vals[ok]), 1)[0]
    qhat = -float(slope)
    if qhat <= 1.0:
        return _DIVERGED
    log_k = qhat * math.log(K)
    if log_k < 250.0:
        z = float(zeta(qhat, K + 1))
        if z > 0.0:
            return float(t[K]) * math.exp(log_k) * z
    # very steep decay: zeta underflows, fall back to the integral form
    # sum_{j>K} j^-q ~ (K+1)^(1-q) / (q-1); the whole remainder is
    # negligible at this point anyway
    ratio = (K / (K + 1.0)) ** qhat
    return float(t[K]) * ratio * (K + 1.0) / (qhat - 1.0)


@dataclass(frozen=True)
class StationarySolution:
    """Converged stationary table plus its quality diagnostics.

    mean_f is the fixed-point mean preference (tail-closed, so it can be
    slightly more accurate than summing f against the truncated table).
    balance_residual is the largest per-degree gain-loss imbalance when
    the table is pushed through an independently written flux balance.
    tail_mass_bound is the exact probability mass beyond k_max.
    """

    q: DegreeDistribution
    mean_f: float
    k_max: int
    iterations: int
    balance_residual: float
    tail_mass_bound: float
    method: str = "iteration"


def _flux_residual(q, t, p: ModelParams, x: float) -> float:
    """Max gain-loss imbalance over the table, written flux by flux.

    Per unit step, classes gain arr_k new vertices, single ends promote
    k-1 -> k at rate b, bundles promote k-n -> k at rate gamma mu, and the
    vertex pool dilutes by 1 + gamma (n-1). This regroups the recurrence
    by flux rather than by Q, so a transcription slip in either form shows
    up as a nonzero residual.
    """
    K = q.shape[0] - 1
    m1 = p.r1.mean_degree
    mn = p.rn.mean_degree
    gamma, n, mu = p.gamma, p.n, p.mu
    prob = t / x
    r1v = np.zeros(K + 1)
    for k, pr in p.r1.items():
        r1v[k] = pr
    rnv = np.zeros(K + 1)
    for j, pr in p.rn.items():
        rnv[j + n - 1] = pr
    p1 = np.concatenate(([0.0], prob[:-1]))
    pn = np.concatenate((np.zeros(n), prob[:-n])) if n <= K else np.zeros(K + 1)
    gain = (1.0 - gamma) * (r1v + m1 * (p1 - prob))
    gain += gamma * (n * rnv + mu * (pn - prob) + n * (mn - mu) * (p1 - prob))
    res = q * (1.0 + gamma * (n - 1.0)) - gain
    return float(np.abs(res).max())


def solve_stationary(
    p: ModelParams,
    f: PreferenceFunction,
    tol: float = 1e-10,
    k_max: int | None = None,
) -> StationarySolution:
    """Solve the fixed point x = sum f(k) Q_k(x) and return the table.

    k_max defaults to an exact cutoff for bounded preference windows (no
    degree above M + n is ever reachable with positive preference flow)
    and otherwise grows by doubling until the exact tail bound drops
    below max(tol, 1e-12) or the cap of one million entries is hit.

    Truncating an unbounded window can manufacture a fake fixed point
    whose value depends on the table size (superlinear f does exactly
    this), so unbounded solves are accepted only when the mean is stable
    under doubling the table. An explicit k_max above 2 * K_START on an
    unbounded window first solves at K_START entries and starts from
    that mean. iterations counts the last level's sweeps and method is
    "bisection" if any of them bisected (see _solve_at).
    NonConvergenceError means the mean ran away, kept moving with the
    truncation level, lost its mass or has no fixed point; ValueError
    flags a non-positive tol or a k_max below the largest arrival degree.
    """
    validate_params(p)
    if tol <= 0.0:
        raise ValueError(f"tol={tol} must be positive")
    arr_max = p.arrival_max
    a = p.a
    if a <= 0.0:
        raise ValueError("model adds no edge ends per step; no attachment to solve")

    unbounded = not math.isfinite(f.M)
    if k_max is not None:
        if k_max < arr_max:
            raise ValueError(
                f"k_max={k_max} is below the largest arrival degree {arr_max}"
            )
        half = int(k_max) // 2
        if unbounded and half >= max(arr_max, 32):
            schedule = [half, int(k_max)]
        else:
            schedule = [int(k_max)]
    elif not unbounded:
        schedule = [max(int(f.M) + p.n, arr_max)]
    else:
        schedule = [max(K_START, arr_max)]
        while schedule[-1] < K_CAP:
            schedule.append(min(2 * schedule[-1], K_CAP))
    tail_tol = max(tol, 1e-12)
    # truncation-dependent fake roots move with the table size (roughly
    # doubling per stage); honest solutions drift by under 1e-5 relative
    stab = 1e-3

    x = a
    if k_max is not None and unbounded and k_max > 2 * K_START:
        # a cold first level spends most of its sweeps far from the root;
        # take them at the default schedule's first size instead
        x = _solve_at(p, f, max(K_START, arr_max), x, tol)[0]

    means = []
    for K in schedule:
        x, iters, method, (q, t) = _solve_at(p, f, K, x, tol)
        tail = _tail_mass(t, p, x)
        stable = bool(means) and abs(x - means[-1]) <= stab * max(1.0, abs(x))
        means.append(x)
        if not unbounded or (stable and tail < tail_tol):
            break
    if unbounded and len(schedule) > 1 and not stable:
        raise NonConvergenceError(
            "stationary mean keeps moving as the truncated table grows "
            f"({means[-2]!r} -> {means[-1]!r} at k_max={K}); "
            "no table-independent fixed point"
        )

    if q.min() < 0.0:
        raise RuntimeError("negative probability mass in stationary sweep")
    residual = _flux_residual(q, t, p, x)
    probs = {k: v for k, v in enumerate(q.tolist()) if v > 0.0}
    dist = DegreeDistribution.from_probs(
        probs, norm_tol=max(1e-9, 10.0 * tail + 1e-12)
    )
    return StationarySolution(
        q=dist,
        mean_f=x,
        k_max=K,
        iterations=iters,
        balance_residual=residual,
        tail_mass_bound=tail,
        method=method,
    )


def _solve_at(p, f, K, x0, tol):
    """Fixed-point solve on a table of K + 1 entries, warm-started at x0.

    A sweep at x gives g(x) = sum f Q / sum Q (tail-closed) and the damped
    step (1 - BETA) x + BETA clamp(g(x), x/8, 8x). The sign of g(x) - x
    (an infinite tail counts as g > x) narrows a bracket [lo, hi]; g need
    not be monotone, so only these signs set it. A step that would leave
    the bracket, and every step after MAX_ITER sweeps, bisects it instead
    (8x while hi is unbounded). Returns (x, iterations, method, (q, t)).
    """
    arr = p.arrival(K)
    fa = f.weight_array(K).tolist()
    a = p.a
    x = x0
    lo, hi = 0.0, math.inf
    method = "iteration"
    for it in count(1):
        q, t = _sweep_kernel(arr, fa, p, x)
        total = float(q.sum())
        if total <= 0.0:
            raise NonConvergenceError("stationary sweep lost all probability mass")
        s = float(t.sum()) + _tail_mean(t, f)
        if math.isinf(s):
            x_new = 8.0 * x
        else:
            x_new = min(max(s / total, 0.125 * x), 8.0 * x)
        if x_new > 1e14 * a:
            raise NonConvergenceError(
                "mean preference diverges; no stationary distribution "
                f"(x exceeded {1e14 * a:.3g})"
            )
        if math.isfinite(s) and abs(s / total - x) <= tol * max(1.0, x):
            return x, it, method, (q, t)
        if math.isinf(s) or s / total > x:
            lo = x
        else:
            hi = x
        # 4 eps: no narrower bracket exists in double precision
        if hi - lo <= max(tol, 4.0 * math.ulp(1.0)) * max(1.0, lo):
            if lo == 0.0:
                raise NonConvergenceError(
                    "no mean-preference fixed point: g(x) - x never turned "
                    f"positive down to x={hi!r} at k_max={K}"
                )
            return x, it, "bisection", (q, t)
        x_next = (1.0 - BETA) * x + BETA * x_new
        if it >= MAX_ITER or not lo < x_next < hi:
            x_next = 8.0 * x if math.isinf(hi) else 0.5 * (lo + hi)
            method = "bisection"
        x = x_next


def write_q_table(sol: StationarySolution, path, header=None) -> None:
    """CSV export: header comments with diagnostics, then k,Q rows.

    Extra header entries (tool version, parameter echo) go in front of the
    solver diagnostics, all as "# key=value" comment lines.
    """
    diagnostics = {
        "mean_f": repr(sol.mean_f),
        "k_max": sol.k_max,
        "tail_mass_bound": repr(sol.tail_mass_bound),
        "balance_residual": repr(sol.balance_residual),
        "iterations": sol.iterations,
        "method": sol.method,
    }
    rows = (f"{k},{val!r}" for k, val in sol.q.items())
    write_table(path, {**(header or {}), **diagnostics}, rows, title="k,Q")


def read_q_table(path) -> tuple[dict[int, float], dict[str, str]]:
    """Read a table written by write_q_table; values are kept verbatim."""
    return read_degree_table(path)
