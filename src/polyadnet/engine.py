"""Growth by monad and polyad increments.

Each step appends an n-clique of new vertices (polyad), or one vertex
(monad): the one-vertex n-ad without bundles, grown by the same code.
Free edge ends attach to existing vertices drawn by preference weight;
within one increment every draw is taken against the pre-increment
weights, then the increment's edges enter the graph in one ``add_clique``
call and the layer index follows.

Randomness comes from one numpy PCG64 generator per run, seeded
explicitly, with a fixed draw order per increment (increment type, then
free-edge counts, then layer picks, then within-layer picks), so runs with
equal seeds produce identical graphs byte for byte. ``grow`` draws the
uniforms in blocks and hands them out in the same order as one call per
draw would; a block of doubles from PCG64 is the same sequence as that
many single draws.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
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


def _increment(g: MultiGraph, idx: LayerIndex, rng, n: int, singles: list[int], mu: int) -> None:
    """Add ``n`` new vertices as a clique, then ``mu`` bundles and the single ends.

    A bundle's one target takes an edge from each new vertex; ``singles``
    holds the new-vertex offset of every other free end, vertex by vertex.
    All targets are drawn against the pre-increment weights, so the graph
    stays untouched if sampling saturates; a target drawn twice gets
    parallel edges. Edges go in as the clique, the bundles, the singles.
    """
    n_draws = mu + len(singles)
    targets = idx.sample_many(rng, n_draws) if n_draws else []
    ends = singles
    if mu:
        targets[:mu] = [t for t in targets[:mu] for _ in range(n)]
        ends = [*range(n)] * mu + singles
    base = g.add_clique(n, targets, ends)
    gains: dict[int, int] = {}
    for t in targets:
        gains[t] = gains.get(t, 0) + 1
    deg = g.degrees
    for t, h in gains.items():
        idx.bump(t, deg[t] - h, deg[t])
    for v in range(base, base + n):
        idx.insert(v, deg[v])


def apply_monad(g: MultiGraph, idx: LayerIndex, p: ModelParams, rng) -> None:
    """Add one vertex with a free-edge count drawn from r1: the one-vertex n-ad without bundles."""
    _increment(g, idx, rng, 1, [0] * p.r1.sample(rng), 0)


def apply_nad(g: MultiGraph, idx: LayerIndex, p: ModelParams, rng) -> None:
    """Add an n-clique of new vertices with free-edge counts drawn from rn, mu of each in bundles."""
    _increment(g, idx, rng, p.n, [i for i in range(p.n) for _ in range(p.rn.sample(rng) - p.mu)], p.mu)


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
    ``check_every`` set, the layer index is rebuilt every that many
    increments and compared with the maintained one (1024 suits debugging).

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
    n0, e0 = g.n, g.edge_count
    monads = nads = 0
    saturated = None
    try:
        for step in range(1, steps + 1):
            nad = gamma == 1.0 if gamma in (0.0, 1.0) else rng.random() < gamma
            if nad:
                apply_nad(g, idx, p, rng)
                nads += 1
            else:
                apply_monad(g, idx, p, rng)
                monads += 1
            if check_every and step % check_every == 0:
                idx.verify(g)
    except SaturationError as exc:
        saturated = exc
    stats = GrowthStats(
        steps=monads + nads,
        monad_steps=monads,
        nad_steps=nads,
        realized_vertices=g.n - n0,
        realized_edges=g.edge_count - e0,
        rng_seed=rng_seed,
    )
    if saturated is not None:
        saturated.stats = stats
        raise saturated
    return stats


def write_edge_list(g: MultiGraph, path, header: Mapping | None = None) -> None:
    """Write one ``u<TAB>v`` line per edge in creation order.

    The header records at least the vertex count, without which isolated
    vertices could not be reconstructed. Rows go to the file a block at a
    time, so the text of the whole list is never held at once.
    """
    rows = (f"{u}\t{v}" for u, v in g.iter_edges())
    write_table(path, {"vertices": g.n, **(header or {})}, rows)


def read_edge_list(path) -> tuple[MultiGraph, dict[str, str]]:
    """Load a graph written by :func:`write_edge_list`.

    Returns the graph and the parsed header key=value entries. The rows
    are read in one pass into two ``array('i')`` columns, which
    ``MultiGraph.from_columns`` checks and takes over. A malformed row, an
    id beyond the int32 columns, a ``# vertices=`` header that is not a
    non-negative integer or one below the largest id is reported before a
    self-loop or a negative id.
    """
    lo, hi = array("i"), array("i")

    def row(line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u<TAB>v', got {line!r}")
        try:
            lo.append(int(parts[0]))
            hi.append(int(parts[1]))
        except OverflowError:
            raise ValueError(f"vertex id out of range in {line!r}") from None

    header = read_table(path, row)
    max_id = int(max(np.frombuffer(c, dtype=np.int32).max(initial=-1) for c in (lo, hi)))
    n = max_id + 1
    if "vertices" in header:
        raw = header["vertices"]
        if not raw.isdecimal():
            raise ValueError(f"{path}: header vertices={raw!r} is not a non-negative integer")
        n = int(raw)
        if n <= max_id:
            raise ValueError(f"{path}: header vertex count {n} below max id {max_id}")
    return MultiGraph.from_columns(n, lo, hi), header


def write_stats(entries: Mapping, path) -> None:
    """Flat ``key=value`` text, one entry per line, without a header."""
    write_table(path, {}, (f"{k}={v}" for k, v in entries.items()))


def read_stats(path) -> dict[str, str]:
    """Read a file written by :func:`write_stats`; the last of a repeated key wins."""
    out: dict[str, str] = {}

    def row(line: str) -> None:
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()

    read_table(path, row)
    return out
