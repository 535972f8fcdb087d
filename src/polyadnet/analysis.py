"""Comparing distributions and probing graph structure.

Kept deliberately small: distance measures for validating predicted
against observed degree distributions, and exact triangle and clustering
counts for clique-dominated graphs.
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
    cumulative distributions evaluated at every supported degree. The sums
    run in degree order over the degrees where either carries mass.
    """
    lo, hi = min(d1.support_min, d2.support_min), max(d1.support_max, d2.support_max) + 1
    p, q = d1.array(lo, hi), d2.array(lo, hi)
    ks = np.flatnonzero((p > 0.0) | (q > 0.0))
    diff = p[ks] - q[ks]
    first, last = max(d1.support_min, d2.support_min), min(d1.support_max, d2.support_max)
    return ComparisonReport(
        tv_distance=0.5 * float(np.abs(diff).sum()),
        ks_statistic=float(np.abs(np.cumsum(diff)).max()),
        common_support=(first, last) if first <= last else None,
        per_k_abs_error=dict(zip((ks + lo).tolist(), np.abs(diff).tolist())),
    )


def _simple_edges(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Distinct edges of ``g`` as int32 id arrays (u, v), u < v, sorted by (u, v)."""
    n = max(g.n, 1)
    keys = np.frombuffer(g.lo, dtype=np.int32).astype(np.int64)
    keys *= n
    keys += np.frombuffer(g.hi, dtype=np.int32)
    keys.sort()
    # np.unique would do, but it hashes integer keys: 100x slower than a sort
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    return (keys // n).astype(np.int32), (keys % n).astype(np.int32)


def _simple_degrees(g: MultiGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.bincount(u, minlength=g.n) + np.bincount(v, minlength=g.n)


def triangle_count(g: MultiGraph) -> int:
    """Number of triangles after collapsing parallel edges.

    Forward-neighbour intersection in degree order, O(m^{3/2}) on the
    simple projection, exact. Each edge points from the lower to the
    higher (simple degree, id) rank; the forward lists and their offsets
    sit in flat ``array('i')``s, and only the current vertex's list becomes
    a set.
    """
    u, v = _simple_edges(g)
    rank = np.empty(g.n, dtype=np.int32)
    rank[np.argsort(_simple_degrees(g, u, v), kind="stable")] = np.arange(g.n, dtype=np.int32)
    flip = rank[u] > rank[v]
    src = np.where(flip, v, u)
    dst = np.where(flip, u, v)
    del u, v, flip, rank  # the temporaries go before the flat lists are built
    fwd = array("i", dst[np.argsort(src)].tobytes())
    out_deg = np.bincount(src, minlength=g.n)
    del src, dst
    start = array("i", np.concatenate(([0], np.cumsum(out_deg))).astype(np.int32).tobytes())
    busy = array("i", np.flatnonzero(out_deg > 1).astype(np.int32).tobytes())
    total = 0
    for w in busy:
        nbrs = fwd[start[w] : start[w + 1]]
        later = set(nbrs)
        for x in nbrs:
            total += len(later.intersection(fwd[start[x] : start[x + 1]]))
    return total


def global_clustering(g: MultiGraph, triangles: int) -> float:
    """Transitivity 3T / (number of wedges) on the simple projection, where
    ``triangles`` is ``triangle_count(g)``."""
    deg = _simple_degrees(g, *_simple_edges(g))
    wedges = int((deg * (deg - 1) // 2).sum())
    if wedges == 0:
        raise ValueError("graph has no wedges; clustering undefined")
    return 3.0 * triangles / wedges


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
