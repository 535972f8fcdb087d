"""Stationary degree distribution of the growth model.

The proportion Q_k of degree-k vertices obeys a one-sided recurrence once
the mean preference x = sum_k f(k) Q_k is known. Cliques couple Q_k to
Q_{k-n} through conjugate bundles and to Q_{k-1} through single edge ends,
so for fixed x the whole table follows in one forward sweep:

    Q_k = [arr_k x + b f(k-1) Q_{k-1} + gamma mu f(k-n) Q_{k-n}]
          / [x (1 + gamma (n-1)) + f(k) a]

with the arrival mass arr_k, the single-end rate b, the bundle rate
gamma mu and the total end rate a = b + gamma mu as ModelParams defines
them in params.py, where the dilution c = 1 + gamma (n-1) and the degree
drift b + n gamma mu are written too. The sweep starts at k = 0;
entries below the preference window are arrival-fed only, matching the
boundary convention where Q vanishes for negative index.

x itself is pinned by the fixed point x = sum f(k) Q_k(x), solved here by
one loop: damped iteration inside a sign bracket of the root, bisecting
when a step would leave it or the iteration stalls. Truncation at k_max
is controlled exactly: telescoping the recurrence shows the missing mass
beyond k_max equals

    [b t_K + gamma mu (t_{K-n+1} + ... + t_K)] / [x (1 + gamma (n-1))]

where t_k = f(k) Q_k, so the solver reports a rigorous tail bound.

A preference window without an upper bound is first probed far beyond
any table: p = log2(f(2K) / f(K)) at K = 2^20. Superlinear f (p > 1) has
no stationary distribution (Krapivsky, Redner and Leyvraz, PRL 85, 4629,
2000) and is rejected before any sweep. Otherwise f(k) ~ alpha k with
alpha = (f(2K) - f(K)) / K, and the recurrence makes t_k fall like k^-s,

    s = c x / (alpha (b + n gamma mu)),

so Q_k ~ k^-tau with tau = s + 1 (tau = 3 for Barabasi-Albert). The mean
counts the exact missing mass above, and closes the sum of t the same
way: weighting the recurrence by f, continued past K as f(K) + alpha
(k - K), telescopes to

    sum_{j>K} t_j = [b f(K+1) t_K + gamma mu (f(K+1) t_{K-n+1} + ...
                     + f(K+n) t_K)] / [x c (1 - 1/s)],

exact for affine f and infinite for s <= 1. Without bundles this is the
gamma-ratio tail t_K (K + beta) / (s - 1) of t_k ~ Gamma(k + beta) /
Gamma(k + beta + s).

Every window runs one schedule. The window sets only the first table
size and alpha: a bounded window solves at M + n entries (no degree
above is reachable, so its tail mass is exactly 0) or at an explicit
k_max, with no closure; an unbounded one at K_START entries, or a
smaller explicit k_max, with alpha from the probe. A second phase only
grows the table, re-solving warm at an explicit larger k_max, or else
at the size where the exact bound's decay takes it below tol.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat

import numpy as np

from .distributions import ROWS_PER_WRITE, DegreeDistribution, write_table
from .params import ModelParams
from .preference import PreferenceError, PreferenceFunction

__all__ = [
    "NonConvergenceError",
    "StationarySolution",
    "solve_stationary",
    "write_q_table",
]

K_START = 4096
K_CAP = 1_000_000
K_PROBE = 2**20
# an affine f = alpha k + beta probes at p ~ 1 - beta / (2 alpha K ln 2);
# at K_PROBE this slack keeps every beta > -145 alpha linear
LINEAR_SLACK = 1e-4
BETA = 0.5  # damping of the fixed-point step
MAX_ITER = 400  # damped sweeps before every step bisects


class NonConvergenceError(RuntimeError):
    """No finite mean-preference fixed point was found."""


def _sweep_kernel(q, t, arr, f: PreferenceFunction, p: ModelParams, x):
    """One forward sweep of the recurrence at mean x for parameters p.

    Fills the array('d') tables q and t = f q, 8 bytes per entry each,
    in place, and returns f at the last degree as the sweep evaluated it.
    arr is the arrival mass over 0..arrival_max, a list; it is zero
    beyond. f is evaluated ROWS_PER_WRITE degrees at a time, so the sweep
    holds q, t and one block of f and no full f table. arr (a list) and
    each block (through a memoryview, which boxes one float at a time
    rather than the whole block) are read as Python floats, several times
    faster than scalar indexing of numpy arrays.
    """
    size = len(q)
    n, a, b = p.n, p.a, p.b
    denom0 = x * p.c
    gmu = p.bundle_rate
    tk = fk = 0.0
    for lo in range(0, size, ROWS_PER_WRITE):
        hi = min(lo + ROWS_PER_WRITE, size)
        fb = memoryview(f.weight_array(hi - 1, lo))
        for k, fk, ak in zip(range(lo, hi), fb, chain(arr[lo:hi], repeat(0.0))):
            num = ak * x + b * tk  # tk is 0.0 at degree 0
            if k >= n:
                num += gmu * t[k - n]
            qk = num / (denom0 + fk * a)
            q[k] = qk
            t[k] = tk = fk * qk
    return fk


def _tail_mass(t: np.ndarray, p: ModelParams, x: float) -> float:
    """Exact mass the recurrence would place beyond the table end."""
    K = t.shape[0] - 1
    bundle = p.bundle_rate * float(t[max(0, K - p.n + 1) : K + 1].sum())
    return (p.b * float(t[K]) + bundle) / (x * p.c)


def _tail_closure(t: np.ndarray, p: ModelParams, x: float, alpha: float, f_end: float) -> float:
    """Sum of t_k beyond the table, exact while f(k) = f_end + alpha (k - K).

    Weighting the recurrence by f and summing it over k > K telescopes as
    the mass does: the preference carried out of the table, by single ends
    into K + 1 and by bundles into K + 1..K + n, over the net loss rate
    x c - alpha (b + n gamma mu) = x c (1 - 1/s). Returns inf for s <= 1.
    """
    K = t.shape[0] - 1
    loss = x * p.c - alpha * p.drift
    if loss <= 0.0:
        return math.inf
    lo = max(0, K - p.n + 1)
    # a bundle end on degree i moves its vertex to i + n
    bundle = sum(
        (f_end + alpha * (i + p.n - K)) * ti for i, ti in enumerate(t[lo:].tolist(), lo)
    )
    return (p.b * (f_end + alpha) * float(t[K]) + p.bundle_rate * bundle) / loss


def _linear_rate(f: PreferenceFunction) -> float:
    """alpha of f(k) ~ alpha k on an unbounded window, probed at K_PROBE.

    Raises NonConvergenceError when p = log2(f(2K) / f(K)) exceeds 1 (up
    to LINEAR_SLACK): f is superlinear and no stationary distribution
    exists. A rule that overflows there counts as p = inf.
    """
    K = max(K_PROBE, f.g)
    lo, hi = f(K), f(2 * K)
    p_hat = math.log2(hi / lo) if math.isfinite(lo + hi) else math.inf
    if p_hat > 1.0 + LINEAR_SLACK:
        raise NonConvergenceError(
            f"preference grows superlinearly: f(2K)/f(K) = 2^{p_hat:.6g} at "
            f"K={K}, and f(k) ~ k^p with p > 1 has no stationary distribution"
        )
    return max(0.0, (hi - lo) / K)


def _check_reachable(p: ModelParams, f: PreferenceFunction) -> None:
    """Reject a window that no arrival degree lies in: nothing can attach."""
    entry = [k for k, m in enumerate(p.arrival(p.arrival_max)) if m > 0.0]
    if not any(f.g <= k <= f.M for k in entry):
        raise NonConvergenceError(
            f"no arrival degree lies in the preference window [{f.g}, {f.M}]: "
            f"new vertices enter at degrees {entry[0]}..{entry[-1]}, so no "
            "vertex can ever attach"
        )


@dataclass(frozen=True)
class StationarySolution:
    """Converged stationary table plus its quality diagnostics.

    table holds Q_k for k = 0..k_max as the sweep left it: a read-only
    float64 array, 8 bytes per entry, zeros included. q is the same table
    as a DegreeDistribution: a view of table trimmed to its positive
    range, no copy. table takes no part in == (the scalar fields do).
    mean_f is the fixed-point mean preference (tail-closed, so it can be
    slightly more accurate than summing f against the truncated table).
    balance_residual is the largest per-degree gain-loss imbalance when
    the table is pushed through an independently written flux balance.
    tail_mass_bound is the exact probability mass beyond k_max.
    """

    table: np.ndarray = field(repr=False, compare=False)
    mean_f: float
    k_max: int
    iterations: int
    balance_residual: float
    tail_mass_bound: float
    method: str = "iteration"

    @cached_property
    def q(self) -> DegreeDistribution:
        # checked >= 0 and normalized when solved
        return DegreeDistribution.from_array(self.table)


def _blocks(a: np.ndarray):
    """(start, slice) pairs covering a, ROWS_PER_WRITE entries each."""
    return ((lo, a[lo : lo + ROWS_PER_WRITE]) for lo in range(0, a.shape[0], ROWS_PER_WRITE))


def _flux_residual(q, t, p: ModelParams, x: float) -> float:
    """Max gain-loss imbalance over the table, written flux by flux.

    Per unit step, classes gain arr_k new vertices, single ends promote
    k-1 -> k at rate b, bundles promote k-n -> k at rate gamma mu, and the
    vertex pool dilutes by 1 + gamma (n-1). This regroups the recurrence
    by flux rather than by Q, so a transcription slip in either form shows
    up as a nonzero residual. It is evaluated block by block, so its
    temporaries stay a few blocks long whatever the table size.
    """
    m1 = p.r1.mean_degree
    mn = p.rn.mean_degree
    gamma, n, mu = p.gamma, p.n, p.mu
    worst = []
    for lo, qb in _blocks(q):
        hi = lo + qb.shape[0]
        # prob_k = t_k / x for k = lo - n .. hi - 1, zero below degree 0
        ext = np.zeros(hi - lo + n)
        ext[max(0, n - lo) :] = t[max(0, lo - n) : hi] / x
        prob, p1, pn = ext[n:], ext[n - 1 : -1], ext[:-n]
        r1v = p.r1.array(lo, hi)
        rnv = p.rn.array(lo - n + 1, hi - n + 1)
        gain = (1.0 - gamma) * (r1v + m1 * (p1 - prob))
        gain += gamma * (n * rnv + mu * (pn - prob) + n * (mn - mu) * (p1 - prob))
        res = qb * (1.0 + gamma * (n - 1.0)) - gain
        worst.append(np.abs(res).max())
    return float(np.max(worst))


def solve_stationary(
    p: ModelParams,
    f: PreferenceFunction,
    tol: float = 1e-10,
    k_max: int | None = None,
) -> StationarySolution:
    """Solve the fixed point x = sum f(k) Q_k(x) and return the table.

    One schedule serves both windows. The first phase solves on k_max
    entries, by default the exact cutoff M + n of a bounded window (no
    degree above it is reachable with positive preference flow, so the
    tail bound is 0), or for an unbounded window min(k_max, K_START)
    entries with the tail closed by the probe's alpha (superlinear f is
    rejected before any sweep). A second phase only grows the table:
    warm at an explicit larger k_max, or else at the size where the exact
    tail bound is predicted to drop below max(tol, 1e-12), doubling while
    it has not (up to K_CAP entries). iterations counts the last phase's
    sweeps and method is "bisection" if any of them bisected (see
    _solve_at).
    NonConvergenceError means f is superlinear, no arrival degree lies in
    the window, the mean ran away, lost its mass or has no fixed point,
    or, without k_max, an unbounded window has an arrival degree above
    K_CAP (raised before any sweep; the message names the mass born
    above K_CAP) or its tail bound is not below max(tol, 1e-12) at
    K_CAP entries (the message names tau and the table size tol would
    need); ValueError flags a tol that is not finite and > 0, or
    a k_max below the largest arrival degree. PreferenceError names the
    first degree of the first table where f is not finite and > 0, or
    else the probed degree.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol={tol} must be finite and > 0")
    arr_max = p.arrival_max
    bounded = math.isfinite(f.M)
    if k_max is None and not bounded and arr_max > K_CAP:
        # a degree never falls, so the mass beyond K_CAP is at least the
        # share of vertices born above it
        born = float(p.arrival_array(K_CAP + 1, arr_max + 1).sum()) / p.c
        raise NonConvergenceError(
            f"arrival degree {arr_max} is above K_CAP={K_CAP}: vertices born above "
            f"K_CAP hold at least {born:.6g} of the stationary mass (sum of arr_k / c "
            f"over k > K_CAP), beyond every default table; give k_max >= {arr_max} "
            "to solve on a larger table"
        )
    a = p.a
    if a <= 0.0:
        raise ValueError("model adds no edge ends per step; no attachment to solve")
    if k_max is not None and k_max < arr_max:
        raise ValueError(f"k_max={k_max} is below the largest arrival degree {arr_max}")
    _check_reachable(p, f)

    K = max(int(f.M) + p.n if bounded else K_START, arr_max)
    if k_max is not None:
        # a bounded window needs no tail closure, so it solves at k_max at once
        K = int(k_max) if bounded else min(int(k_max), K)
    alpha = None
    if not bounded:
        try:
            alpha = _linear_rate(f)
        except PreferenceError:
            f.weight_array(K)  # names the first bad degree if the table has one
            raise
    x, iters, method, (q, t) = _solve_at(p, f, K, a, tol, alpha)
    tail = _tail_mass(t, p, x)
    tail_tol = max(tol, 1e-12)
    size = K if k_max is None else int(k_max)
    if k_max is None and tail >= tail_tol:
        # the bound at K/2 is that of the table's first half, since the
        # sweep runs forward; its decay across the top half still rises
        # toward s at K_START on every model tested, so extrapolating it
        # lands just under tail_tol (and the table doubles if it does not)
        half = _tail_mass(t[: K // 2 + 1], p, x)
        size = 2 * K
        if half > tail:
            decay = math.log2(half / tail)
            size = math.ceil(K * (tail / tail_tol) ** (1.0 / decay))
        size = min(K_CAP, size)
    while size > K:
        K = size
        x, iters, method, (q, t) = _solve_at(p, f, K, x, tol, alpha)
        tail = _tail_mass(t, p, x)
        if k_max is None and tail >= tail_tol:
            size = min(K_CAP, 2 * K)
    if k_max is None and tail >= tail_tol:
        # the mass beyond K falls like K^(1 - tau), tau = s + 1
        drift = alpha * p.drift
        tau = 1.0 + p.c * x / drift if drift > 0.0 else math.inf
        need = K * (tail / tail_tol) ** (1.0 / (tau - 1.0))
        raise NonConvergenceError(
            f"tail mass bound {tail!r} at k_max={K} (K_CAP={K_CAP}) "
            f"is not below max(tol, 1e-12)={tail_tol!r}: Q_k falls like "
            f"k^-tau with tau={tau:.6g}, so the bound falls like "
            f"k_max^(1-tau) and needs about {need:.3g} entries"
        )

    if not q.min() >= 0.0:
        raise RuntimeError("negative or NaN probability mass in stationary sweep")
    residual = _flux_residual(q, t, p, x)
    mass = math.fsum(chain.from_iterable(block.tolist() for _, block in _blocks(q)))
    norm_tol = max(1e-9, 10.0 * tail + 1e-12)
    if abs(mass - 1.0) > norm_tol:
        raise ValueError(f"probabilities sum to {mass!r}, off by more than {norm_tol}")
    q.flags.writeable = False
    return StationarySolution(
        table=q,
        mean_f=x,
        k_max=K,
        iterations=iters,
        balance_residual=residual,
        tail_mass_bound=tail,
        method=method,
    )


def _solve_at(p, f, K, x0, tol, alpha):
    """Fixed-point solve on a table of K + 1 entries, warm-started at x0.

    A sweep at x gives g(x) = sum f Q / sum Q, where for an unbounded
    window (alpha not None) both sums count the table's tail: the exact
    mass and the closure of t for f(k) ~ alpha k. The damped step is
    (1 - BETA) x + BETA clamp(g(x), x/8, 8x). The sign of g(x) - x (an
    infinite tail gives g = inf, so g > x and the clamp is 8x) narrows a
    bracket [lo, hi]; g need not be monotone, so only these signs set it,
    and a NaN g counts as g <= x. A step that would leave the
    bracket, and every step after MAX_ITER sweeps, bisects it instead
    (8x while hi is unbounded). The loop stops at |g(x) - x| <= tol x, a
    relative test at every scale of x, or when the bracket is narrower
    than tol relative to lo, or, while lo is 0, to the first sweep's
    table-only mean of f: x has the units of f, so no stop depends on
    how f is scaled. Only an x whose next step could overflow counts as
    diverging. Every sweep refills the same pair of array('d') tables,
    16 bytes per entry in all, the only arrays of table length. Returns
    (x, iterations, method, (q, t)), numpy views of the last sweep's
    tables.
    """
    arr = p.arrival(p.arrival_max)
    qa = array("d", [0.0]) * (K + 1)
    ta = array("d", [0.0]) * (K + 1)
    q, t = np.frombuffer(qa), np.frombuffer(ta)
    x = x0
    lo, hi = 0.0, math.inf
    method = "iteration"
    for it in count(1):
        f_end = _sweep_kernel(qa, ta, arr, f, p, x)
        total = float(q.sum())
        s = float(t.sum())
        if not total > 0.0:
            why = "lost all probability mass" if total <= 0.0 else "probability mass is NaN"
            raise NonConvergenceError(f"stationary sweep {why}")
        if it == 1:
            scale = s / total
        if alpha is not None:
            total += _tail_mass(t, p, x)
            s += _tail_closure(t, p, x, alpha, f_end)
        gx = s / total
        if abs(gx - x) <= tol * x:
            return x, it, method, (q, t)
        if math.isinf(8.0 * x):  # the next step could overflow
            raise NonConvergenceError(
                f"mean preference diverges; no stationary distribution (x reached {x!r})"
            )
        if gx > x:
            lo = x
        else:
            hi = x
        # 4 eps: no narrower bracket exists in double precision
        if hi - lo <= max(tol, 4.0 * math.ulp(1.0)) * (lo or scale):
            if lo == 0.0:
                raise NonConvergenceError(
                    "no mean-preference fixed point: g(x) - x never turned "
                    f"positive down to x={hi!r} at k_max={K}"
                )
            return x, it, "bisection", (q, t)
        x_next = (1.0 - BETA) * x + BETA * min(max(gx, 0.125 * x), 8.0 * x)
        if it >= MAX_ITER or not lo < x_next < hi:
            x_next = 8.0 * x if math.isinf(hi) else 0.5 * (lo + hi)
            method = "bisection"
        x = x_next


def write_q_table(sol: StationarySolution, path, header=None) -> None:
    """CSV export: header comments with diagnostics, then k,Q rows.

    Extra header entries (tool version, parameter echo) go in front of the
    solver diagnostics, all as "# key=value" comment lines. The rows are
    the positive entries of sol.table, read ROWS_PER_WRITE at a time, so
    the export never builds sol.q.
    """
    diagnostics = {
        "mean_f": repr(sol.mean_f),
        "k_max": sol.k_max,
        "tail_mass_bound": repr(sol.tail_mass_bound),
        "balance_residual": repr(sol.balance_residual),
        "iterations": sol.iterations,
        "method": sol.method,
    }
    rows = (
        f"{k},{val!r}"
        for lo, block in _blocks(sol.table)
        for k, val in enumerate(block.tolist(), lo)
        if val > 0.0
    )
    write_table(path, {**(header or {}), **diagnostics}, rows, title="k,Q")
