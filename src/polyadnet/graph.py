"""Growing multigraph with dense integer vertex ids."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .distributions import DegreeDistribution

__all__ = ["MultiGraph", "seed_complete", "empirical_vdd"]


class MultiGraph:
    """Undirected multigraph: parallel edges allowed, no self-loops.

    Vertices are numbered in creation order. ``degrees[v]`` counts edge
    ends at ``v``; ``edges`` keeps (u, v) pairs in insertion order with
    u < v (new vertices always carry the larger id).
    """

    __slots__ = ("degrees", "edges")

    def __init__(self):
        self.degrees: list[int] = []
        self.edges: list[tuple[int, int]] = []

    @property
    def n(self) -> int:
        return len(self.degrees)

    def add_vertex(self) -> int:
        self.degrees.append(0)
        return len(self.degrees) - 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if u < 0 or v >= len(self.degrees):
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        self.edges.append((u, v))
        self.degrees[u] += 1
        self.degrees[v] += 1

    def add_clique(self, n: int) -> int:
        """Add ``n`` new vertices joined pairwise; returns the first id.

        Edges are appended in lexicographic order, as ``add_edge`` calls
        in a double loop over i < j would append them.
        """
        base = len(self.degrees)
        self.degrees.extend([n - 1] * n)
        self.edges.extend(combinations(range(base, base + n), 2))
        return base

    def check_handshake(self) -> None:
        """Assert sum of degrees equals twice the edge count."""
        total = sum(self.degrees)
        if total != 2 * len(self.edges):
            raise AssertionError(
                f"handshake violated: degree sum {total} != 2*{len(self.edges)} edges"
            )

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={len(self.edges)})"


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
    return DegreeDistribution.from_counts(Counter(g.degrees))
