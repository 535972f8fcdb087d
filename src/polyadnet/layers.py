"""Degree-layer index for weighted target sampling.

Attachment weight depends on a vertex only through its degree, so vertices
are grouped into layers (one per degree). Sampling a target is two-stage:
pick a layer with probability proportional to f(k) * |layer k|, then a
member uniformly inside it. Layer weights live in a Fenwick tree (Fenwick
1994) on plain lists: an increment updates O(log K) nodes per layer whose
member count it changes, and a top-down descent finds the first layer
whose cumulative weight exceeds ``u * total`` in O(log K) steps, K being
the number of degrees covered. Layer members and each vertex's slot in
its layer are int32 arrays (``array('i')``), the id range of the graph's
edge columns: 4 B per stored id instead of a pointer to a boxed int.
With integer weights (f(k) = k, constants) every sum is exact, so a pick
is the same as a linear search of the cumulative sums would give.
"""

from __future__ import annotations

from array import array

from .graph import MultiGraph
from .preference import PreferenceFunction

__all__ = ["LayerIndex", "SaturationError"]

_START = 16  # degrees a new index covers; _ensure doubles it as needed


class SaturationError(RuntimeError):
    """No vertex carries positive attachment weight.

    Raised when every current degree falls outside the preference window.
    ``stats`` is attached by ``grow`` when saturation interrupts a run.
    """

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class LayerIndex:
    """Per-degree vertex sets with incrementally maintained weights.

    The index follows its graph through one ``update`` call per
    increment, which ``apply_monad`` and ``apply_nad`` make after adding
    the increment's edges.

    ``_fw`` and ``_members`` cover degrees ``0 .. size - 1`` and ``_tree``
    has ``size + 1`` entries, ``size`` a power of two above every degree
    seen. ``_tree[i]`` holds the weight of layers ``i - lowbit(i) .. i - 1``,
    so every update path ends at ``_tree[size]``, the total. ``_live``
    counts vertices of positive weight; saturation is decided from it,
    never from the float total.

    ``_members[k]`` is an ``array('i')`` of the vertices of degree ``k``
    and ``_pos`` one ``array('i')`` that gives each vertex's slot in its
    layer, so ``_members[degrees[v]][_pos[v]] == v``.
    """

    __slots__ = ("f", "_fw", "_members", "_pos", "_tree", "_live")

    def __init__(self, f: PreferenceFunction):
        self.f = f
        self._fw: list[float] = f.weight_array(_START - 1).tolist()
        self._members: list[array] = [array("i") for _ in range(_START)]
        self._pos = array("i")
        self._tree = [0.0] * (_START + 1)
        self._live = 0

    @classmethod
    def build(cls, g: MultiGraph, f: PreferenceFunction) -> "LayerIndex":
        idx = cls(f)
        idx.update(g.degrees)
        return idx

    def _ensure(self, k: int) -> None:
        """Double the tree, weights and layers until they cover degree ``k``.

        Nodes up to the old size keep their ranges; of the new ones only
        the powers of two cover populated layers, and those hold the total.
        """
        tree = self._tree
        size = len(tree) - 1
        total = tree[size]
        while size <= k:
            tree.extend([0.0] * size)
            size *= 2
            tree[size] = total
        self._fw = self.f.weight_array(size - 1).tolist()
        self._members.extend(array("i") for _ in range(size - len(self._members)))

    def update(self, degrees: list[int], targets=(), first: int = 0) -> None:
        """Follow one increment of the graph: move its targets, add its new vertices.

        ``degrees`` are the graph's degrees after the increment and the
        vertices from ``first`` on are new. ``targets`` name an existing
        vertex once for each edge end it gained, so a bundle target or a
        repeat draw appears more than once. Each target leaves its old
        layer and joins its new one in the order first drawn, then the
        new vertices join theirs in id order. Each layer whose size
        changed adds that change times its weight to the tree, walking up
        to ``join``: the smallest power of two above every touched layer,
        which lies on all their paths. The nodes from ``join`` up to the
        root take the sum of the changes in one more walk, so every power
        of two above the highest degree seen holds the same total.
        ``build`` is ``update(g.degrees)``: every vertex is new.
        """
        gains: dict[int, int] = {}
        for t in targets:
            gains[t] = gains.get(t, 0) + 1
        n = len(degrees)
        for v in range(first, n):
            gains[v] = 0  # a new vertex: in no layer yet
        members, pos = self._members, self._pos
        if n > len(pos):  # zeroed slots, each set below before it is read
            pos.frombytes(bytes(pos.itemsize * (n - len(pos))))
        change: dict[int, int] = {}  # touched layer -> net change of its size
        size = len(self._tree) - 1  # the layers covered
        kmax = 0  # the highest layer touched
        for v, h in gains.items():
            k = degrees[v]
            if k > kmax:
                kmax = k
                if k >= size:
                    self._ensure(k)
                    size = len(self._tree) - 1
            if h:  # a target leaves layer k - h: the last member takes its slot
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
        fw, tree = self._fw, self._tree
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

        A uniform is at most 1 - 2**-53, so ``u * total`` rounds below a
        positive total and the descent never steps onto a node that holds
        the total, the powers of two above the highest degree seen.

        Raises SaturationError when no vertex has positive weight.
        """
        if not self._live:
            raise SaturationError(
                "no attachable vertex: every degree is outside the preference window"
            )
        u = rng.random(2 * count)
        tree, fw, members = self._tree, self._fw, self._members
        total = tree[-1]
        half = (len(tree) - 1) >> 1
        out = []
        for i in range(count):
            x = u[i] * total
            k = 0
            step = half
            while step:
                t = tree[k + step]
                if t <= x:
                    k += step
                    x -= t
                step >>= 1
            if not members[k] or fw[k] <= 0.0:  # float rounding put x on an empty layer
                k = self._nearest_live(k)
            lst = members[k]
            out.append(lst[int(u[count + i] * len(lst))])
        return out

    def _nearest_live(self, k: int) -> int:
        """The closest layer of positive weight below ``k``, else above it."""
        fw, members = self._fw, self._members
        j = k
        while j >= 0 and (not members[j] or fw[j] <= 0.0):
            j -= 1
        if j < 0:
            j = k + 1
            while not members[j] or fw[j] <= 0.0:
                j += 1
        return j
