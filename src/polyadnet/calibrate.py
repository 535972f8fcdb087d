"""Recover the preference function from a target degree distribution.

Solving the stationary recurrence for f instead of Q turns the forward
sweep around: with the scale convention <f> = a (the mean number of
attachments per step, a bundle counting once), each window degree gets

    f(k) = arr_k / Q_k - c
           + [b f(k-1) Q_{k-1} + gamma mu f(k-n) Q_{k-n}] / (a Q_k)

where arr_k is the arrival mass at degree k, b the single-end rate,
gamma mu the bundle rate, a = b + gamma mu and c = 1 + gamma (n-1) the
dilution; params.py defines all of them once for this sweep and the
solver's. Degrees below the window contribute nothing because f
vanishes there, so the sweep is explicit.

Any positive rescaling of f leaves the model unchanged, so the <f> = a
convention is just a normalization pick. Not every distribution is
reachable by the model. When the sweep forces f(k) <= 0 the target is
infeasible for these increment parameters; the result then carries the
first offending degree and the raw weights for inspection instead of a
preference function. The sweep carries a first-order bound on the
rounding of each weight, and a weight within its bound counts as not
positive: a weight that is 0 in exact arithmetic has a sign that is
rounding alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import DegreeDistribution
from .params import InputError, ModelParams
from .preference import PreferenceFunction

__all__ = ["CalibrationResult", "calibrate"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration sweep.

    f is None when the target is infeasible; raw_weights always holds the
    swept values (useful to see how badly and where positivity fails).
    """

    f: PreferenceFunction | None
    a: float
    feasible: bool
    first_infeasible_k: int | None
    raw_weights: dict[int, float]


def calibrate(
    q_target: DegreeDistribution,
    p: ModelParams,
    window: tuple[int, int] | None = None,
) -> CalibrationResult:
    """Sweep out the preference weights hitting q_target, if any exist.

    The window defaults to the target's support range. If every weight
    from the first one that is not positive to the top of that range is
    zero within its rounding bound, the recovered window ends just below
    it: the solved table of a bounded window [g, M] reaches M + 1, where
    f is 0. Window degrees must carry positive target mass (a zero inside
    the window would need infinite preference on its neighbours to stay
    empty).

    Args:
        q_target: distribution the stationary model should reproduce.
        p: increment parameters (gamma, n, mu, r1, rn).
        window: inclusive (g, M) degree range to recover f on.

    Raises:
        InputError: window degrees without target mass, a window outside
            the target support, or a model that attaches no edge ends.
    """
    g, m_top = window or (q_target.support_min, q_target.support_max)
    if g > m_top:
        raise InputError(f"empty window ({g}, {m_top})")
    if g < 0:
        raise InputError(f"window start {g} must be >= 0")

    a = p.a
    if a <= 0.0:
        raise InputError(
            "no edge ends attach to old vertices per step; "
            "the preference function is unidentifiable"
        )
    b, c, n = p.b, p.c, p.n
    gmu = p.bundle_rate
    arrival = p.arrival_array(0, m_top + 1).tolist()
    weights: dict[int, float] = {}
    bounds: dict[int, float] = {}
    t = [0.0] * n  # t_j = f(j) Q_j from j = g - n on; zero below the window
    dt = [0.0] * n  # first-order rounding bound carried in each t_j
    for k in range(g, m_top + 1):
        qk = q_target.prob(k)
        if qk <= 0.0:
            raise InputError(
                f"target has no mass at degree {k} inside the window; "
                "calibration needs positive probability on every window degree"
            )
        num = arrival[k] * a - c * a * qk
        num += b * t[-1] + gmu * t[-n]
        weights[k] = fk = num / (a * qk)
        # each term passes through at most four roundings; t carries its
        # own bound in
        terms = arrival[k] * a + c * a * qk + b * abs(t[-1]) + gmu * abs(t[-n])
        bounds[k] = err = (4.0 * math.ulp(terms) + b * dt[-1] + gmu * dt[-n]) / (a * qk)
        t.append(fk * qk)
        dt.append(err * qk)
    # a weight within its rounding bound counts as not positive
    first_bad = next((k for k in weights if weights[k] <= bounds[k]), None)
    top = m_top
    if window is None and first_bad not in (None, g):
        if all(abs(weights[k]) <= bounds[k] for k in range(first_bad, m_top + 1)):
            # the target reaches past the window of f, where f is 0
            top, first_bad = first_bad - 1, None
    feasible = first_bad is None
    f = PreferenceFunction.from_table({k: weights[k] for k in range(g, top + 1)}) if feasible else None
    return CalibrationResult(
        f=f,
        a=a,
        feasible=feasible,
        first_infeasible_k=first_bad,
        raw_weights=weights,
    )
