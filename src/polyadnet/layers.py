"""Degree-layer index for weighted target sampling.

Attachment weight depends on a vertex only through its degree, so vertices
are grouped into layers (one per degree). Sampling a target is two-stage:
pick a layer with probability proportional to f(k) * |layer k|, then a
member uniformly inside it. Layer weights live in a Fenwick tree (Fenwick
1994) on plain lists: an increment updates O(log K) nodes per layer whose
member count it changes, and a top-down descent finds the first layer
whose cumulative weight exceeds ``u * total`` in O(log K) steps, K being
the number of degrees covered.
With integer weights (f(k) = k, constants) every sum is exact, so a pick
is the same as a linear search of the cumulative sums would give.
"""

from __future__ import annotations

from .graph import MultiGraph
from .preference import PreferenceFunction

__all__ = ["LayerIndex", "SaturationError"]

# verify(): allowed drift of a tree node for non-integer weights, relative
# to the total weight (see verify); incremental float updates round
# differently from a fresh build
TREE_RTOL = 1e-9


class SaturationError(RuntimeError):
    """No vertex carries positive attachment weight.

    Raised when every current degree falls outside the preference window.
    ``stats`` is attached by ``grow`` when saturation interrupts a run.
    """

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


def _fenwick(values: list[float], size: int) -> list[float]:
    """Fenwick tree (1-based, ``size`` a power of two) over ``values``."""
    tree = [0.0] * (size + 1)
    tree[1 : len(values) + 1] = values
    for i in range(1, size):
        j = i + (i & -i)
        if j <= size:
            tree[j] += tree[i]
    return tree


class LayerIndex:
    """Per-degree vertex sets with incrementally maintained weights.

    The index follows its graph through one ``update`` call per
    increment, which ``apply_monad`` and ``apply_nad`` make after adding
    the increment's edges. ``verify`` rebuilds the index from the graph
    and checks both agree, for use as a debug invariant.

    ``_tree[i]`` holds the weight of layers ``i - lowbit(i) .. i - 1``; its
    size is a power of two, so every update path ends at ``_tree[_size]``,
    the total. ``_live`` counts vertices of positive weight; saturation is
    decided from it, never from the float total.
    """

    def __init__(self, f: PreferenceFunction, capacity: int = 256):
        self.f = f
        self._cap = capacity
        self._fw: list[float] = f.weight_array(capacity - 1).tolist()
        self._members: list[list[int]] = [[] for _ in range(capacity)]
        self._pos: list[int] = []
        self._hi = 1  # one past the highest degree ever seen
        self._top = 1  # smallest power of two >= _hi: descent range
        self._size = 1
        while self._size < capacity:
            self._size *= 2
        self._tree = [0.0] * (self._size + 1)
        self._live = 0

    @classmethod
    def build(cls, g: MultiGraph, f: PreferenceFunction) -> "LayerIndex":
        idx = cls(f, capacity=max(256, (max(g.degrees, default=0) + 1) * 2))
        idx.update(g.degrees)
        return idx

    def _ensure(self, k: int) -> None:
        """Grow every per-degree list to cover degree ``k >= _cap``."""
        new_cap = max(self._cap * 2, k + 1)
        extra = new_cap - self._cap
        self._fw = self.f.weight_array(new_cap - 1).tolist()
        self._members.extend([] for _ in range(extra))
        self._cap = new_cap
        # nodes up to the old size keep their ranges; of the new ones only
        # the powers of two cover populated layers, and those hold the total
        size, tree = self._size, self._tree
        total = tree[size]
        while size < new_cap:
            tree.extend([0.0] * size)
            size *= 2
            tree[size] = total
        self._size = size

    def update(self, degrees: list[int], targets=(), first: int = 0) -> None:
        """Follow one increment of the graph: move its targets, add its new vertices.

        ``degrees`` are the graph's degrees after the increment and the
        vertices from ``first`` on are new. ``targets`` name an existing
        vertex once for each edge end it gained, so a bundle target or a
        repeat draw appears more than once. Each target leaves its old
        layer and joins its new one in the order first drawn, then the
        new vertices join theirs in id order. Each layer whose size
        changed adds that change times its weight to the tree, walking up
        to ``join``: the smallest power of two at or above every touched
        layer's node, which lies on all their paths. The nodes from
        ``join`` up to the root take the sum of the changes in one more
        walk. ``build`` is ``update(g.degrees)``: every vertex is new.
        """
        gains: dict[int, int] = {}
        for t in targets:
            gains[t] = gains.get(t, 0) + 1
        n = len(degrees)
        for v in range(first, n):
            gains[v] = 0  # a new vertex: in no layer yet
        members, pos = self._members, self._pos
        if n > len(pos):
            pos.extend([-1] * (n - len(pos)))
        change: dict[int, int] = {}  # touched layer -> net change of its size
        hi = self._hi
        kmax = 0  # the highest layer touched
        for v, h in gains.items():
            k = degrees[v]
            if k > kmax:
                kmax = k
            if h:  # a target leaves layer k - h: the last member takes its slot
                lst = members[k - h]
                i = pos[v]
                last = lst[-1]
                lst[i] = last
                pos[last] = i
                lst.pop()
                change[k - h] = change.get(k - h, 0) - 1
            if k >= hi:
                hi = k + 1
                if k >= self._cap:
                    self._ensure(k)
            lst = members[k]
            pos[v] = len(lst)
            lst.append(v)
            change[k] = change.get(k, 0) + 1
        self._hi = hi
        while self._top < hi:
            self._top *= 2
        fw, tree, size = self._fw, self._tree, self._size
        join = 1 << kmax.bit_length()
        total, live = 0.0, self._live
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
        self._live = live
        while join <= size:
            tree[join] += total
            join += join

    def sample_many(self, rng, count: int) -> list[int]:
        """Draw ``count`` targets against the current (frozen) weights.

        All draws see the same weight snapshot, so callers can implement
        increments whose attachments are simultaneous rather than
        sequential. ``rng`` is anything whose ``random(n)`` returns n
        uniforms on [0, 1) that index as floats: the engine's block buffer
        hands out a list; a numpy Generator's array gives the same picks,
        only slower. Draw order is fixed: ``count`` uniforms select layers,
        the next ``count`` select members within layers.

        Raises SaturationError when no vertex has positive weight.
        """
        if not self._live:
            raise SaturationError(
                "no attachable vertex: every degree is outside the preference window"
            )
        u = rng.random(2 * count)
        tree, fw, members = self._tree, self._fw, self._members
        top = self._top
        half = top >> 1
        total = tree[top]
        out = []
        for i in range(count):
            x = u[i] * total
            if x < total:
                k = 0
                step = half
                while step:
                    t = tree[k + step]
                    if t <= x:
                        k += step
                        x -= t
                    step >>= 1
            else:  # u * total rounded up to the total
                k = self._hi - 1
            if not members[k] or fw[k] <= 0.0:  # float rounding put x on an empty layer
                k = self._nearest_live(k)
            lst = members[k]
            out.append(lst[int(u[count + i] * len(lst))])
        return out

    def _nearest_live(self, k: int) -> int:
        """The closest layer of positive weight below ``k``, else above it."""
        fw, members = self._fw, self._members
        j = min(k, self._hi - 1)
        while j >= 0 and (not members[j] or fw[j] <= 0.0):
            j -= 1
        if j < 0:
            j = k + 1
            while not members[j] or fw[j] <= 0.0:
                j += 1
        return j

    def verify(self, g: MultiGraph) -> None:
        """Rebuild from the graph and compare; raises on any drift.

        Membership and the live count must match exactly, and so must
        every Fenwick node when all weights are integers. With
        non-integer weights a node may differ from a fresh build by
        ``TREE_RTOL`` times the total weight, or times the largest f(k) seen
        when that is larger (a tree emptied of its weight keeps a residue).
        """
        fresh = LayerIndex.build(g, self.f)

        def layers(idx):
            return {k: sorted(lst) for k, lst in enumerate(idx._members) if lst}

        if layers(self) != layers(fresh):
            raise AssertionError("layer membership drifted from the graph")
        if self._live != fresh._live:
            raise AssertionError("live vertex count drifted from the graph")
        ref = _fenwick(
            [w * len(lst) if lst and w > 0.0 else 0.0 for w, lst in zip(self._fw, self._members)],
            self._size,
        )
        # weights that were ever added, not only the current ones: an
        # emptied layer of weight 0.3 can leave rounding residue behind
        if all(x.is_integer() for x in self._fw[: self._hi]):
            if self._tree != ref:
                raise AssertionError("Fenwick tree differs from a rebuilt one")
        else:
            tol = TREE_RTOL * max(ref[self._size], max(self._fw[: self._hi]))
            worst = max(abs(x - y) for x, y in zip(self._tree, ref))
            if worst > tol:
                raise AssertionError(
                    f"Fenwick tree drifted by {worst!r}, above {TREE_RTOL} of the total"
                )

