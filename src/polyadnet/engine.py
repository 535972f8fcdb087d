"""Growth by monad and polyad increments.

Each step appends an n-clique of new vertices (polyad), or one vertex
(monad): the one-vertex n-ad without bundles, grown by the same code.
Free edge ends attach to existing vertices drawn by preference weight;
within one increment every draw is taken against the pre-increment
weights, then one ``LayerIndex.update`` call appends the increment's
edges to the graph and moves the layer index with it, in one pass over
the targets.

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
from itertools import chain, islice
from typing import Mapping

import numpy as np

from .distributions import ROWS_PER_WRITE, header_int, read_table, write_blocks, write_table
from .graph import MultiGraph
from .layers import LayerIndex, SaturationError
from .params import ModelParams
from .preference import PreferenceFunction

__all__ = [
    "GrowthStats",
    "apply_monad",
    "apply_nad",
    "grow",
    "read_edge_list",
    "write_edge_list",
    "write_stats",
]


_BLOCK = 4096


class _Uniforms:
    """Uniforms on [0, 1) from ``rng``, drawn ``_BLOCK`` at a time.

    One iterator runs through the generator's blocks, chained end to end:
    ``random()`` takes its next double, ``random(n)`` the next ``n`` as a
    list, exactly as the same calls on ``rng`` would have returned them.
    """

    __slots__ = ("_it",)

    def __init__(self, rng: np.random.Generator):
        self._it = chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None))

    def random(self, size: int | None = None):
        if size is None:
            return next(self._it)
        return list(islice(self._it, size))


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
    parallel edges. Edges go in as the clique, the bundles, the singles,
    unchecked: the index draws only existing ids.
    """
    n_draws = mu + len(singles)
    targets = idx.sample_many(rng, n_draws) if n_draws else []
    ends = singles
    if mu:
        targets[:mu] = [t for t in targets[:mu] for _ in range(n)]
        ends = [*range(n)] * mu + singles
    idx.update(g, n, targets, ends)


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
) -> GrowthStats:
    """Run ``steps`` increments on ``g`` in place.

    Each step is a polyad with probability gamma, otherwise a monad (the
    type uniform is skipped when gamma is exactly 0 or 1).

    Returns realized step and edge counts. If sampling saturates mid-run
    the error carries partial stats in ``.stats`` and the graph keeps all
    fully applied increments.

    Args:
        g: seed graph, mutated in place.
        p: model parameters.
        f: preference function driving target choice.
        steps: number of increments, >= 0.
        rng_seed: seed for the run's PCG64 stream.
    """
    if steps < 0:
        raise ValueError(f"steps={steps} must be >= 0")
    idx = LayerIndex.build(g, f)
    rng = _Uniforms(np.random.default_rng(rng_seed))
    gamma = p.gamma
    n0, e0 = g.n, g.edge_count
    monads = nads = 0
    saturated = None
    try:
        for _ in range(steps):
            nad = gamma == 1.0 if gamma in (0.0, 1.0) else rng.random() < gamma
            if nad:
                apply_nad(g, idx, p, rng)
                nads += 1
            else:
                apply_monad(g, idx, p, rng)
                monads += 1
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
    lo, hi = (np.frombuffer(c, dtype=np.int32) for c in (g.lo, g.hi))
    blocks = (
        _row_text(lo[i : i + ROWS_PER_WRITE], hi[i : i + ROWS_PER_WRITE])
        for i in range(0, len(lo), ROWS_PER_WRITE)
    )
    write_blocks(path, {"vertices": g.n, **(header or {})}, blocks)


def _row_text(u: np.ndarray, v: np.ndarray) -> str:
    """The lines ``u[i]<TAB>v[i]`` of two equal-length non-negative int32 arrays.

    Each line is first laid out at a fixed width, every id right-aligned
    in as many digits as the largest id needs, its digits taken by
    ``% 10`` and ``// 10`` on the whole column; the zeros in front of
    each id's leading digit are then dropped.
    """
    width = len(str(int(max(u.max(), v.max()))))
    rows = np.empty((len(u), 2 * width + 2), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    for col, ids in ((0, u), (width + 1, v)):
        for j in range(col + width - 1, col - 1, -1):  # units first
            rows[:, j] = ids % 10 + 48
            if j < col + width - 1:
                keep[:, j] = ids > 0
            ids = ids // 10
    rows[:, width] = 9  # tab
    rows[:, -1] = 10  # newline
    return rows[keep].tobytes().decode("ascii")


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
    n = header_int(header, "vertices", max_id + 1)
    if n <= max_id:
        raise ValueError(f"header vertex count {n} below max id {max_id}")
    return MultiGraph.from_columns(n, lo, hi), header


def write_stats(entries: Mapping, path) -> None:
    """Flat ``key=value`` text, one entry per line, without a header."""
    write_table(path, {}, (f"{k}={v}" for k, v in entries.items()))
