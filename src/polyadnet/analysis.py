"""Comparing distributions and probing graph structure.

Kept deliberately small: distance measures for validating predicted
against observed degree distributions, exact triangle and clustering
counts for clique-dominated graphs, and a log-log slope fit for eyeballing
power-law tails.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import DegreeDistribution, write_table
from .graph import MultiGraph

__all__ = [
    "ComparisonReport",
    "compare",
    "global_clustering",
    "loglog_slope",
    "triangle_count",
    "write_report",
]


@dataclass(frozen=True)
class ComparisonReport:
    tv_distance: float
    ks_statistic: float
    common_support: tuple[int, int] | None
    per_k_abs_error: dict[int, float]


def compare(d1: DegreeDistribution, d2: DegreeDistribution) -> ComparisonReport:
    """Total variation and KS distance over the union of supports.

    TV is half the L1 difference; KS is the largest gap between the two
    cumulative distributions evaluated at every supported degree.
    """
    ks = sorted(set(d1.probs) | set(d2.probs))
    p = np.array([d1.prob(k) for k in ks])
    q = np.array([d2.prob(k) for k in ks])
    diff = p - q
    tv = 0.5 * float(np.abs(diff).sum())
    ks_stat = float(np.abs(np.cumsum(diff)).max()) if ks else 0.0
    lo = max(d1.support_min, d2.support_min)
    hi = min(d1.support_max, d2.support_max)
    common = (lo, hi) if lo <= hi else None
    errs = {k: abs(float(d)) for k, d in zip(ks, diff)}
    return ComparisonReport(
        tv_distance=tv,
        ks_statistic=ks_stat,
        common_support=common,
        per_k_abs_error=errs,
    )


def _simple_edges(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Distinct edges of ``g`` as id arrays (u, v), u < v, sorted by (u, v)."""
    n = max(g.n, 1)
    keys = np.frombuffer(g.lo, dtype=np.int32).astype(np.int64)
    keys *= n
    keys += np.frombuffer(g.hi, dtype=np.int32)
    keys.sort()
    # np.unique would do, but it hashes integer keys: 100x slower than a sort
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return np.divmod(keys[distinct], n)


def _simple_degrees(g: MultiGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.bincount(u, minlength=g.n) + np.bincount(v, minlength=g.n)


def triangle_count(g: MultiGraph) -> int:
    """Number of triangles after collapsing parallel edges.

    Forward-neighbour intersection in degree order, O(m^{3/2}) on the
    simple projection, exact. Each edge points from the lower to the
    higher (simple degree, id) rank; the forward lists sit in one flat
    ``array('i')``, and only the current vertex's list becomes a set.
    """
    u, v = _simple_edges(g)
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(_simple_degrees(g, u, v), kind="stable")] = np.arange(g.n)
    flip = rank[u] > rank[v]
    src = np.where(flip, v, u)
    dst = np.where(flip, u, v)
    del u, v, flip, rank  # the int64 temporaries go before the flat lists are built
    fwd = array("i", dst[np.argsort(src)].astype(np.int32).tobytes())
    out_deg = np.bincount(src, minlength=g.n)
    del src, dst
    start = np.concatenate(([0], np.cumsum(out_deg))).tolist()
    total = 0
    for w in np.flatnonzero(out_deg > 1).tolist():
        nbrs = fwd[start[w] : start[w + 1]]
        later = set(nbrs)
        for x in nbrs:
            total += len(later.intersection(fwd[start[x] : start[x + 1]]))
    return total


def global_clustering(g: MultiGraph, triangles: int | None = None) -> float:
    """Transitivity 3T / (number of wedges) on the simple projection.

    Pass ``triangles`` when ``triangle_count(g)`` is already known, so the
    triangles are not counted a second time.
    """
    deg = _simple_degrees(g, *_simple_edges(g))
    wedges = int((deg * (deg - 1) // 2).sum())
    if wedges == 0:
        raise ValueError("graph has no wedges; clustering undefined")
    if triangles is None:
        triangles = triangle_count(g)
    return 3.0 * triangles / wedges


def loglog_slope(
    d: DegreeDistribution,
    k_lo: int | None = None,
    k_hi: int | None = None,
) -> float:
    """Least-squares slope of log Q against log k on [k_lo, k_hi].

    Only strictly positive degrees and probabilities enter the fit; at
    least three such points are required.
    """
    lo = d.support_min if k_lo is None else k_lo
    hi = d.support_max if k_hi is None else k_hi
    xs = []
    ys = []
    for k, pr in d.items():
        if lo <= k <= hi and k > 0 and pr > 0.0:
            xs.append(np.log(float(k)))
            ys.append(np.log(pr))
    if len(xs) < 3:
        raise ValueError(
            f"need at least 3 positive points in [{lo}, {hi}], found {len(xs)}"
        )
    return float(np.polyfit(xs, ys, 1)[0])


def write_report(
    path,
    empirical: DegreeDistribution,
    theoretical: DegreeDistribution,
    report: ComparisonReport,
    summary: Mapping | None = None,
) -> None:
    """CSV of per-degree values plus summary lines as leading comments."""
    header = {
        "tv_distance": repr(report.tv_distance),
        "ks_statistic": repr(report.ks_statistic),
    }
    if report.common_support is not None:
        lo, hi = report.common_support
        header["common_support"] = f"{lo}..{hi}"
    header.update(summary or {})
    rows = (
        f"{k},{empirical.prob(k)!r},{theoretical.prob(k)!r},{err!r}"
        for k, err in sorted(report.per_k_abs_error.items())
    )
    write_table(path, header, rows, title="k,empirical,theoretical,abs_error")
