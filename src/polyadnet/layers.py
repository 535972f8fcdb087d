"""Degree-layer index for weighted target sampling.

Attachment weight depends on a vertex only through its degree, so vertices
are grouped into layers (one per degree). Sampling a target is two-stage:
pick a layer with probability proportional to f(k) * |layer k|, then a
member uniformly inside it. Layer weights live in a Fenwick tree (Fenwick
1994) on plain lists: an increment, which the index adds to the graph in
the same pass that moves its vertices, updates O(log K) nodes per layer
whose member count it changes, and a top-down descent finds the first layer
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

    The index and its graph take each increment together, in one
    ``update`` call that ``apply_monad`` and ``apply_nad`` make after
    drawing the targets: it appends the edges, raises each target's
    degree once and moves it between layers, then adds the new vertices.

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
        """The index of ``g``'s vertices under ``f``, each joining its layer in id order."""
        idx = cls(f)
        idx._settle(g.degrees)
        return idx

    def _ensure(self, k: int) -> int:
        """Double the tree, weights and layers until they cover degree ``k``; return the size.

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
        return size

    def update(self, g: MultiGraph, n: int, targets=(), ends=()) -> None:
        """Add one increment to the graph ``g`` and follow it, in one pass.

        The increment is ``n`` new vertices joined pairwise, then edge
        ``i`` of the attachment columns joins the existing vertex
        ``targets[i]`` to new vertex ``ends[i]`` (an offset from the
        first new id), as ``MultiGraph.add_clique`` lays them out. The
        ids are not checked: ``sample_many`` returns only existing ones.
        A bundle target or a repeat draw appears in ``targets`` more than
        once and still moves once, by its summed gain (see ``_settle``).
        """
        g._append(n, targets, ends)
        self._settle(g.degrees, targets)

    def _settle(self, degrees: list[int], targets=()) -> None:
        """Raise each target's degree by its count in ``targets``, then join the new vertices.

        Each vertex of ``targets`` leaves its old layer and joins its new
        one in the order first drawn; then every vertex the index does
        not hold yet (``len(_pos)`` on) joins its layer in id order. Each
        layer whose size changed adds that change times its weight to the
        tree, walking up to ``join``: the smallest power of two above
        every touched layer, which lies on all their paths. The nodes
        from ``join`` up to the root take the sum of the changes in one
        more walk, so every power of two above the highest degree seen
        holds the same total.
        """
        gains: dict[int, int] = {}
        for t in targets:
            gains[t] = gains.get(t, 0) + 1
        members, pos = self._members, self._pos
        change: dict[int, int] = {}  # touched layer -> net change of its size
        size = len(self._tree) - 1  # the layers covered
        kmax = 0  # the highest layer touched
        for v, h in gains.items():
            j = degrees[v]
            k = j + h
            degrees[v] = k
            if k > kmax:
                kmax = k
                if k >= size:
                    size = self._ensure(k)
            lst = members[j]  # v leaves layer j: the last member takes its slot
            i = pos[v]
            last = lst[-1]
            lst[i] = last
            pos[last] = i
            del lst[-1]
            change[j] = change.get(j, 0) - 1
            lst = members[k]
            pos[v] = len(lst)
            lst.append(v)
            change[k] = change.get(k, 0) + 1
        for v in range(len(pos), len(degrees)):
            k = degrees[v]
            if k > kmax:
                kmax = k
                if k >= size:
                    size = self._ensure(k)
            lst = members[k]
            pos.append(len(lst))
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
