"""Reference computations for the test suite.

sweep runs the solver's own sweep once at a given mean and returns its
tables; q_from_recurrence gives that sweep's Q as a dict. The
monads-only and dyads-only reductions are written out separately by
hand, so comparing them with it checks the general recurrence term by
term. flux_residual_whole is the solver's flux residual evaluated on
whole-table arrays, the reference for its block-wise form. gamma_ratio_q
is the closed form of Barabasi-Albert with an
additive offset. edge_list_text is the edge-list file written the plain way, one
f-string per line joined in memory. check_index rebuilds a layer index
from the degrees and compares it with the maintained one;
checking_updates runs that check every so many updates of a run.
two_call_step is an increment as the graph and the layer index took it
in two calls, add_clique and then a second walk over the targets: the
reference the one-pass LayerIndex.update must match bit for bit.
compare_probs and sample_probs are compare and DegreeDistribution.sample
as they were written while a degree table was a dict, and arrival_loop is
ModelParams.arrival as a loop over the table entries; cumulative_probs
is the running sums sample_probs bisects, laid over every degree:
references that the dense-array forms must match bit for bit.
from_counts builds a distribution from counts by degree, and read_stats
reads a key=value file as write_stats writes it.
"""

import math
from array import array
from bisect import bisect_right
from contextlib import contextmanager

import numpy as np

from polyadnet.distributions import DegreeDistribution
from polyadnet.layers import LayerIndex
from polyadnet.params import ModelParams
from polyadnet.preference import PreferenceFunction
from polyadnet.solver import _sweep_kernel


def sweep(p: ModelParams, f: PreferenceFunction, mean_f: float, k_max: int):
    """The solver's sweep at mean_f over 0..k_max: numpy arrays q and t,
    and f(k_max) as the sweep evaluated it."""
    q = array("d", [0.0]) * (k_max + 1)
    t = array("d", [0.0]) * (k_max + 1)
    f_end = _sweep_kernel(q, t, p.arrival(p.arrival_max), f, p, mean_f)
    return np.frombuffer(q), np.frombuffer(t), f_end


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
    q, _, _ = sweep(p, f, mean_f, k_max)
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


def flux_residual_whole(q, t, p: ModelParams, x: float) -> float:
    """Max gain-loss imbalance over the table, in one pass over whole arrays."""
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


def gamma_ratio_q(beta: float, m: int, ks) -> list[float]:
    """Unnormalized Q_k = Gamma(k + beta) / Gamma(k + beta + tau) at each k.

    The stationary law of monads of m edges attaching by f(k) = k + beta
    (Dorogovtsev, Mendes and Samukhin, PRL 85, 4633, 2000), tau = 3 +
    beta / m, for degrees above the entry degree m. Needs k + beta > 0.
    """
    tau = 3.0 + beta / m
    return [math.exp(math.lgamma(k + beta) - math.lgamma(k + beta + tau)) for k in ks]


def compare_probs(probs1: dict[int, float], probs2: dict[int, float]):
    """(tv_distance, ks_statistic, per_k_abs_error) of two degree -> probability
    dicts with positive values, over the sorted union of their keys."""
    ks = sorted(set(probs1) | set(probs2))
    p = np.array([probs1.get(k, 0.0) for k in ks])
    q = np.array([probs2.get(k, 0.0) for k in ks])
    diff = p - q
    tv = 0.5 * float(np.abs(diff).sum())
    ks_stat = float(np.abs(np.cumsum(diff)).max()) if ks else 0.0
    return tv, ks_stat, {k: abs(float(d)) for k, d in zip(ks, diff)}


def sample_probs(probs: dict[int, float], rng) -> int:
    """One draw from a degree -> probability dict with positive values:
    cumulative sums in degree order, then a bisection of one uniform."""
    vals = sorted(probs)
    cum: list[float] = []
    acc = 0.0
    for k in vals:
        acc += probs[k]
        cum.append(acc)
    if len(vals) == 1:
        return vals[0]
    i = bisect_right(cum, rng.random() * cum[-1])
    return vals[min(i, len(vals) - 1)]


def cumulative_probs(probs: dict[int, float]) -> list[float]:
    """The running sums sample_probs adds up, at every degree from the
    smallest key to the largest; a degree without a key repeats the sum."""
    cum: list[float] = []
    acc = 0.0
    for k in range(min(probs), max(probs) + 1):
        if k in probs:
            acc += probs[k]
        cum.append(acc)
    return cum


def arrival_loop(p: ModelParams, k_max: int) -> list[float]:
    """Arrival mass over 0..max(k_max, arrival_max), one table entry at a time."""
    arr = [0.0] * (max(k_max, p.arrival_max) + 1)
    if p.gamma < 1.0:
        for k, pr in p.r1.items():
            arr[k] += (1.0 - p.gamma) * pr
    if p.gamma > 0.0:
        for j, pr in p.rn.items():
            arr[j + p.n - 1] += p.gamma * p.n * pr
    return arr


def from_counts(counts: dict[int, int]) -> DegreeDistribution:
    """The distribution of positive integer counts by degree."""
    total = sum(counts.values())
    return DegreeDistribution.from_probs({k: c / total for k, c in counts.items()})


def read_stats(path) -> dict[str, str]:
    """A ``key=value`` file as write_stats writes it; the last of a repeated key wins."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and line[0] != "#":
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    return out


def edge_list_text(g, header: dict) -> bytes:
    """The bytes ``write_edge_list(g, path, header)`` must put in the file."""
    lines = [f"# {k}={v}\n" for k, v in {"vertices": g.n, **header}.items()]
    lines += [f"{u}\t{v}\n" for u, v in g.edges]
    return "".join(lines).encode()


# check_index: allowed drift of a tree node for non-integer weights,
# relative to the total weight; incremental float updates round
# differently from a fresh build
TREE_RTOL = 1e-9


def _fenwick(values: list[float], size: int) -> list[float]:
    """Fenwick tree (1-based, ``size`` a power of two) over ``values``."""
    tree = [0.0] * (size + 1)
    tree[1 : len(values) + 1] = values
    for i in range(1, size):
        j = i + (i & -i)
        if j <= size:
            tree[j] += tree[i]
    return tree


def check_index(idx: LayerIndex, degrees: list[int]) -> None:
    """Rebuild ``idx`` from ``degrees`` and compare; raises on any drift.

    Membership and the live count must match exactly, every vertex must
    sit at its slot (``_members[degrees[v]][_pos[v]] == v``), and so must
    every Fenwick node when all weights up to the highest degree are integers.
    Degrees never fall, so that degree is the highest the index has seen.
    With non-integer weights a node may differ from a fresh build by
    ``TREE_RTOL`` times the total weight, or times the largest f(k) seen
    when that is larger (a tree emptied of its weight keeps a residue).
    """
    fresh = LayerIndex(idx.f)
    fresh._settle(degrees)

    def layers(index):
        return {k: sorted(lst) for k, lst in enumerate(index._members) if lst}

    if layers(idx) != layers(fresh):
        raise AssertionError("layer membership drifted from the graph")
    if idx._live != fresh._live:
        raise AssertionError("live vertex count drifted from the graph")
    members, pos = idx._members, idx._pos
    if len(pos) != len(degrees):
        raise AssertionError(f"{len(pos)} slots for {len(degrees)} vertices")
    for v, k in enumerate(degrees):
        i = pos[v]
        if not 0 <= i < len(members[k]) or members[k][i] != v:
            raise AssertionError(f"vertex {v} is not at its slot {i} of layer {k}")
    size = len(idx._tree) - 1
    ref = _fenwick(
        [w * len(lst) if lst and w > 0.0 else 0.0 for w, lst in zip(idx._fw, idx._members)],
        size,
    )
    # weights that were ever added, not only the current ones: an
    # emptied layer of weight 0.3 can leave rounding residue behind
    seen = idx._fw[: max(degrees, default=0) + 1]
    if all(x.is_integer() for x in seen):
        if idx._tree != ref:
            raise AssertionError("Fenwick tree differs from a rebuilt one")
    else:
        tol = TREE_RTOL * max(ref[size], max(seen))
        worst = max(abs(x - y) for x, y in zip(idx._tree, ref))
        if worst > tol:
            raise AssertionError(
                f"Fenwick tree drifted by {worst!r}, above {TREE_RTOL} of the total"
            )


def two_call_step(g, idx: LayerIndex, n: int, targets=(), ends=()) -> None:
    """``idx.update(g, n, targets, ends)`` as two calls: ``add_clique``, then
    the index rebuilds the gains from ``targets`` and re-reads the degrees."""
    first = g.add_clique(n, targets, ends)
    degrees = g.degrees
    gains: dict[int, int] = {}
    for t in targets:
        gains[t] = gains.get(t, 0) + 1
    for v in range(first, len(degrees)):
        gains[v] = 0  # a new vertex: in no layer yet
    members, pos = idx._members, idx._pos
    pos.frombytes(bytes(pos.itemsize * (len(degrees) - len(pos))))
    change: dict[int, int] = {}
    size = len(idx._tree) - 1
    kmax = 0
    for v, h in gains.items():
        k = degrees[v]
        if k > kmax:
            kmax = k
            if k >= size:
                size = idx._ensure(k)
        if h:
            lst = members[k - h]
            i = pos[v]
            last = lst[-1]
            lst[i] = last
            pos[last] = i
            del lst[-1]
            change[k - h] = change.get(k - h, 0) - 1
        lst = members[k]
        pos[v] = len(lst)
        lst.append(v)
        change[k] = change.get(k, 0) + 1
    fw, tree = idx._fw, idx._tree
    join = 1 << kmax.bit_length()
    total, live = 0.0, idx._live
    for k, c in change.items():
        w = fw[k]
        if c and w > 0.0:
            live += c
            d = w * c
            total += d
            i = k + 1
            while i < join:
                tree[i] += d
                i += i & -i
    idx._live = live
    while join <= size:
        tree[join] += total
        join += join


@contextmanager
def checking_updates(every: int):
    """Within the block, follow every ``every``-th ``LayerIndex.update`` with check_index."""
    update = LayerIndex.update
    calls = 0

    def checked(idx, g, n, targets=(), ends=()):
        nonlocal calls
        update(idx, g, n, targets, ends)
        calls += 1
        if calls % every == 0:
            check_index(idx, g.degrees)

    LayerIndex.update = checked
    try:
        yield
    finally:
        LayerIndex.update = update
