"""Growing multigraph with dense integer vertex ids."""

from __future__ import annotations

from array import array
from functools import cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .distributions import DegreeDistribution

__all__ = ["MultiGraph", "seed_complete", "empirical_vdd"]


@cache
def _clique_offsets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower and higher endpoint offsets of an n-clique's edges, pairs in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    return tuple(i for i, _ in pairs), tuple(j for _, j in pairs)


class MultiGraph:
    """Undirected multigraph: parallel edges allowed, no self-loops.

    Vertices are numbered in creation order. ``degrees[v]`` counts edge
    ends at ``v``. Edges are kept in insertion order as two ``array('i')``
    columns, 8 bytes per edge: ``lo[i] < hi[i]`` are the endpoints of edge
    ``i``. A graph is built either whole from its edge columns
    (``from_columns``, which checks every edge) or one increment at a
    time (``add_clique``, whose new vertices always carry the larger
    ids). ``iter_edges()`` walks the edges as (u, v) pairs.
    """

    __slots__ = ("degrees", "lo", "hi")

    def __init__(self):
        self.degrees: list[int] = []
        self.lo = array("i")
        self.hi = array("i")

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def edge_count(self) -> int:
        return len(self.lo)

    @classmethod
    def from_columns(cls, n: int, lo: Sequence[int], hi: Sequence[int]) -> "MultiGraph":
        """The graph on ``n`` vertices whose edge ``i`` joins ``lo[i]`` and ``hi[i]``.

        The two ends of an edge may come in either order; each pair is put
        in order in place. ``array('i')`` columns become the graph's own
        without a copy, other sequences are copied into one. The first
        edge in input order that is a self-loop or names an id outside
        ``range(n)`` raises ValueError, and the columns stay as they were.
        """
        if len(lo) != len(hi):
            raise ValueError(f"edge columns of unequal length {len(lo)} and {len(hi)}")
        lo, hi = (c if isinstance(c, array) and c.typecode == "i" else array("i", c) for c in (lo, hi))
        a, b = np.frombuffer(lo, dtype=np.int32), np.frombuffer(hi, dtype=np.int32)
        low, high = np.minimum(a, b), np.maximum(a, b)
        bad = np.flatnonzero((low == high) | (low < 0) | (high >= n))
        if bad.size:
            u, v = int(low[bad[0]]), int(high[bad[0]])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        a[:], b[:] = low, high
        g = cls()
        g.degrees = (np.bincount(low, minlength=n) + np.bincount(high, minlength=n)).tolist()
        g.lo, g.hi = lo, hi
        return g

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge as a (u, v) pair with u < v, in insertion order; an O(m) copy.

        Only the benchmark's spans (``perfbench/spans.py``) still read it,
        for an edge count; it goes once they read ``edge_count``.
        """
        return list(zip(self.lo, self.hi))

    def iter_edges(self):
        """Iterate the edges as (u, v) pairs with u < v, in insertion order."""
        return zip(self.lo, self.hi)

    def add_clique(self, n: int, targets: Sequence[int] = (), ends: Sequence[int] = ()) -> int:
        """Add ``n`` new vertices joined pairwise, then attach them; returns the first id.

        The clique's edges come first, in lexicographic order of their
        offset pairs (i, j), i < j. Then edge ``i`` of the attachment
        columns joins the existing vertex ``targets[i]`` to new vertex
        ``first + ends[i]``. A target that is not an existing vertex, or an
        end outside ``range(n)``, raises ValueError before the graph changes.
        """
        deg = self.degrees
        base = len(deg)
        if len(targets) != len(ends):
            raise ValueError(f"{len(targets)} attachment targets for {len(ends)} ends")
        for t in targets:
            if not 0 <= t < base:
                raise ValueError(f"attachment target {t} is not an existing vertex in range({base})")
        new = [n - 1] * n
        for e in ends:
            if not 0 <= e < n:
                raise ValueError(f"attachment end {e} is not a new vertex offset in range({n})")
            new[e] += 1
        lo, hi = _clique_offsets(n)
        self.lo.fromlist([base + i for i in lo])
        self.lo.extend(targets)
        self.hi.fromlist([base + j for j in (*hi, *ends)])
        for t in targets:
            deg[t] += 1
        deg.extend(new)
        return base

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={self.edge_count})"


def seed_complete(s: int) -> MultiGraph:
    """Complete simple graph on ``s`` vertices (``s >= 2``)."""
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"seed size {s!r} must be an integer >= 2")
    g = MultiGraph()
    g.add_clique(s)
    return g


def empirical_vdd(g: MultiGraph) -> DegreeDistribution:
    """Observed degree distribution: share of vertices at each degree."""
    if g.n == 0:
        raise ValueError("empty graph has no degree distribution")
    return DegreeDistribution.from_array(np.bincount(g.degrees) / g.n)
