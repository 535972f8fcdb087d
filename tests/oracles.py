"""Reference computations for the test suite.

q_from_recurrence runs the solver's own sweep once at a given mean; the
monads-only and dyads-only reductions are written out separately by
hand, so comparing them with it checks the general recurrence term by
term. edge_list_text is the edge-list file written the plain way, one
f-string per line joined in memory.
"""

from polyadnet.distributions import DegreeDistribution
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction
from polyadnet.solver import _sweep_kernel


def q_from_recurrence(
    p: ModelParams,
    f: PreferenceFunction,
    mean_f: float,
    k_max: int,
) -> dict[int, float]:
    """One forward sweep of the full recurrence at a given mean x.

    Returns {k: Q_k} for every k in 0..k_max, zeros included. The result
    is a probability distribution only when mean_f solves the fixed point
    and k_max is large enough; use solve_stationary for that.
    """
    if mean_f <= 0.0:
        raise ValueError(f"mean_f={mean_f} must be positive")
    if k_max < p.arrival_max:
        raise ValueError(
            f"k_max={k_max} is below the largest arrival degree {p.arrival_max}"
        )
    fa = f.weight_array(k_max).tolist()
    q, _ = _sweep_kernel(p.arrival(k_max), fa, p, mean_f)
    return dict(enumerate(q.tolist()))


def q_gamma0(
    r1: DegreeDistribution,
    f: PreferenceFunction,
    mean_f: float,
    k_max: int,
) -> dict[int, float]:
    """Monads-only reduction, written out separately as a cross-check.

    Q_k = (r1_k x + m1 f(k-1) Q_{k-1}) / (x + f(k) m1).
    """
    m1 = r1.mean_degree
    x = mean_f
    q: dict[int, float] = {}
    prev = 0.0
    for k in range(k_max + 1):
        val = (r1.prob(k) * x + m1 * f(k - 1) * prev) / (x + f(k) * m1)
        q[k] = val
        prev = val
    return q


def q_dyad(
    rn: DegreeDistribution,
    f: PreferenceFunction,
    mu: int,
    mean_f: float,
    k_max: int,
) -> dict[int, float]:
    """Dyads-only reduction (gamma = 1, n = 2), again as a cross-check.

    Q_k = (2 rn_{k-1} x + (2 mn - 2 mu) f(k-1) Q_{k-1} + mu f(k-2) Q_{k-2})
          / (2 x + f(k) (2 mn - mu)).
    """
    mn = rn.mean_degree
    x = mean_f
    q: dict[int, float] = {}
    p1 = p2 = 0.0
    for k in range(k_max + 1):
        num = 2.0 * rn.prob(k - 1) * x + (2.0 * mn - 2.0 * mu) * f(k - 1) * p1
        num += mu * f(k - 2) * p2
        val = num / (2.0 * x + f(k) * (2.0 * mn - mu))
        q[k] = val
        p2, p1 = p1, val
    return q


def edge_list_text(g, header: dict) -> bytes:
    """The bytes ``write_edge_list(g, path, header)`` must put in the file."""
    lines = [f"# {k}={v}\n" for k, v in {"vertices": g.n, **header}.items()]
    lines += [f"{u}\t{v}\n" for u, v in g.edges]
    return "".join(lines).encode()
