"""Growth by monad and polyad increments.

Each step appends either one vertex (monad) or an n-clique of new vertices
(polyad). Free edge ends attach to existing vertices drawn by preference
weight; within one increment every draw is taken against the pre-increment
weights, then the graph and layer index are updated together.

Randomness comes from one numpy PCG64 generator per run, seeded
explicitly, with a fixed draw order per increment (increment type, then
free-edge counts, then layer picks, then within-layer picks), so runs with
equal seeds produce identical graphs byte for byte. ``grow`` draws the
uniforms in blocks and hands them out in the same order as one call per
draw would; a block of doubles from PCG64 is the same sequence as that
many single draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .distributions import read_table, write_table
from .graph import MultiGraph
from .layers import LayerIndex, SaturationError
from .params import ModelParams, validate_params
from .preference import PreferenceFunction

__all__ = [
    "GrowthStats",
    "apply_monad",
    "apply_nad",
    "grow",
    "read_edge_list",
    "read_stats",
    "write_edge_list",
    "write_stats",
]


_BLOCK = 4096


class _Uniforms:
    """Uniforms on [0, 1) from ``rng``, drawn ``_BLOCK`` at a time.

    ``random()`` and ``random(n)`` hand out the generator's doubles in
    order, as a float and as a list, exactly as the same calls on ``rng``
    would have returned them.
    """

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf: list[float] = []
        self._pos = 0

    def random(self, size: int | None = None):
        pos = self._pos
        if size is None:
            if pos == len(self._buf):
                self._buf = self._rng.random(_BLOCK).tolist()
                pos = 0
            self._pos = pos + 1
            return self._buf[pos]
        end = pos + size
        if end > len(self._buf):
            fresh = self._rng.random(max(_BLOCK, size)).tolist()
            self._buf = self._buf[pos:] + fresh
            pos, end = 0, size
        self._pos = end
        return self._buf[pos:end]


@dataclass(frozen=True)
class GrowthStats:
    steps: int
    monad_steps: int
    nad_steps: int
    realized_vertices: int
    realized_edges: int
    rng_seed: int


def _bump_targets(g: MultiGraph, idx: LayerIndex, gains: dict[int, int]) -> None:
    """Move sampled targets to their new layers (after edges were added)."""
    deg = g.degrees
    for t, h in gains.items():
        idx.bump(t, deg[t] - h, deg[t])


def apply_monad(g: MultiGraph, idx: LayerIndex, p: ModelParams, rng) -> None:
    """Add one vertex with a free-edge count drawn from r1.

    All targets are drawn against the pre-increment weights; duplicate
    targets produce parallel edges. On saturation the graph is untouched.
    """
    j = p.r1.sample(rng)
    targets = idx.sample_many(rng, j) if j else []
    v = g.add_vertex()
    gains: dict[int, int] = {}
    for t in targets:
        g.add_edge(t, v)
        gains[t] = gains.get(t, 0) + 1
    if gains:
        _bump_targets(g, idx, gains)
    idx.insert(v, j)


def apply_nad(g: MultiGraph, idx: LayerIndex, p: ModelParams, rng) -> None:
    """Add an n-clique of new vertices plus its free edges.

    Each new vertex draws its own free-edge count from rn. The first mu
    free ends of every vertex form conjugate bundles: bundle b has one
    sampled target that receives an edge from each of the n vertices (its
    degree jumps by n). Remaining ends attach independently. Every target
    draw happens against the pre-increment weights, so the graph stays
    untouched if sampling saturates.
    """
    n, mu = p.n, p.mu
    js = [p.rn.sample(rng) for _ in range(n)]
    n_single = sum(js) - n * mu
    n_draws = mu + n_single
    targets = idx.sample_many(rng, n_draws) if n_draws else []
    bundle_targets = targets[:mu]
    single_targets = targets[mu:]

    base = g.add_clique(n)
    gains: dict[int, int] = {}
    for t in bundle_targets:
        for i in range(n):
            g.add_edge(t, base + i)
        gains[t] = gains.get(t, 0) + n
    pos = 0
    for i in range(n):
        for _ in range(js[i] - mu):
            t = single_targets[pos]
            g.add_edge(t, base + i)
            gains[t] = gains.get(t, 0) + 1
            pos += 1

    if gains:
        _bump_targets(g, idx, gains)
    for i in range(n):
        idx.insert(base + i, js[i] + n - 1)


def grow(
    g: MultiGraph,
    p: ModelParams,
    f: PreferenceFunction,
    steps: int,
    rng_seed: int,
    check_every: int | None = None,
) -> GrowthStats:
    """Run ``steps`` increments on ``g`` in place.

    Each step is a polyad with probability gamma, otherwise a monad (the
    type uniform is skipped when gamma is exactly 0 or 1). With
    ``check_every`` set, the layer index is rebuilt from scratch every that
    many increments and compared against the incrementally maintained one;
    1024 is a reasonable debug cadence.

    Returns realized step and edge counts. If sampling saturates mid-run
    the error carries partial stats in ``.stats`` and the graph keeps all
    fully applied increments.

    Args:
        g: seed graph, mutated in place.
        p: validated model parameters.
        f: preference function driving target choice.
        steps: number of increments, >= 0.
        rng_seed: seed for the run's PCG64 stream.
        check_every: optional self-check cadence in increments.
    """
    validate_params(p)
    if steps < 0:
        raise ValueError(f"steps={steps} must be >= 0")
    idx = LayerIndex.build(g, f)
    rng = _Uniforms(np.random.default_rng(rng_seed))
    gamma = p.gamma
    n0, e0 = g.n, len(g.edges)
    monads = nads = 0
    for step in range(steps):
        if gamma == 0.0:
            nad = False
        elif gamma == 1.0:
            nad = True
        else:
            nad = rng.random() < gamma
        try:
            if nad:
                apply_nad(g, idx, p, rng)
                nads += 1
            else:
                apply_monad(g, idx, p, rng)
                monads += 1
        except SaturationError as exc:
            exc.stats = GrowthStats(
                steps=monads + nads,
                monad_steps=monads,
                nad_steps=nads,
                realized_vertices=g.n - n0,
                realized_edges=len(g.edges) - e0,
                rng_seed=rng_seed,
            )
            raise
        if check_every and (step + 1) % check_every == 0:
            idx.verify(g)
    return GrowthStats(
        steps=steps,
        monad_steps=monads,
        nad_steps=nads,
        realized_vertices=g.n - n0,
        realized_edges=len(g.edges) - e0,
        rng_seed=rng_seed,
    )


def write_edge_list(g: MultiGraph, path, header: Mapping | None = None) -> None:
    """Write one ``u<TAB>v`` line per edge in creation order.

    The header records at least the vertex count, without which isolated
    vertices could not be reconstructed.
    """
    rows = (f"{u}\t{v}" for u, v in g.edges)
    write_table(path, {"vertices": g.n, **(header or {})}, rows)


def read_edge_list(path) -> tuple[MultiGraph, dict[str, str]]:
    """Load a graph written by :func:`write_edge_list`.

    Returns the graph and the parsed header key=value entries. The file
    is read in one pass and the graph filled in bulk rather than through
    ``add_vertex`` / ``add_edge``, with the same checks and messages. A
    malformed row or a short header vertex count is reported before a
    self-loop or a negative id.
    """
    edges: list[tuple[int, int]] = []
    add = edges.append

    def row(line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u<TAB>v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        add((u, v) if u <= v else (v, u))

    header = read_table(path, row)
    max_id = max((v for _, v in edges), default=-1)
    n = int(header.get("vertices", max_id + 1))
    if n < max_id + 1:
        raise ValueError(f"{path}: header vertex count {n} below max id {max_id}")
    g = MultiGraph()
    deg = g.degrees = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u < 0:
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        deg[u] += 1
        deg[v] += 1
    g.edges = edges
    return g, header


def write_stats(entries: Mapping, path) -> None:
    """Flat ``key=value`` text, one entry per line."""
    lines = [f"{k}={v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_stats(path) -> dict[str, str]:
    """Read a file written by :func:`write_stats`; the last of a repeated key wins."""
    out: dict[str, str] = {}

    def row(line: str) -> None:
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()

    read_table(path, row)
    return out
