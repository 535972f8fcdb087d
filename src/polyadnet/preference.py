"""Preference functions: positive attachment weights on a degree window.

A preference function assigns weight ``f(k) > 0`` to every degree in a
window ``[g, M]`` and exactly zero outside it. Attachment probabilities are
proportional to these weights, so any positive rescaling describes the same
model. ``M`` may be ``math.inf`` for rule-backed functions such as
``f(k) = k``, which have no natural cutoff.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .distributions import read_degree_table, write_table

__all__ = ["PreferenceFunction", "read_preference", "write_preference"]


class PreferenceFunction:
    """Weights ``f(k)`` on a degree window, zero elsewhere.

    Backed either by an explicit table (finite window) or by a rule applied
    lazily (window may be unbounded above). Instances are immutable.
    """

    __slots__ = ("g", "M", "_table", "_rule", "_label")

    def __init__(self, g: int, M, table=None, rule=None, label: str = "table"):
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"window start {g!r} must be a non-negative integer")
        if M != math.inf and (not isinstance(M, int) or M < g):
            raise ValueError(f"window end {M!r} must be an integer >= {g} or inf")
        if (table is None) == (rule is None):
            raise ValueError("exactly one of table and rule must be given")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "_label", label)

    def __setattr__(self, name, value):
        raise AttributeError("PreferenceFunction is immutable")

    @classmethod
    def from_table(cls, weights: Mapping[int, float]) -> "PreferenceFunction":
        """Build from an explicit degree -> weight table.

        The table must cover every integer degree between its smallest and
        largest key with a strictly positive weight; a zero or missing
        interior entry would make vertices of that degree silently
        unattachable, which is a different model.
        """
        if not weights:
            raise ValueError("empty preference table")
        clean = {}
        for k, w in weights.items():
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(f"degree {k!r} is not an integer")
            clean[k] = float(w)
        g, M = min(clean), max(clean)
        for k in range(g, M + 1):
            w = clean.get(k)
            if w is None:
                raise ValueError(f"preference table has a gap at degree {k}")
            if not w > 0.0 or math.isinf(w) or math.isnan(w):
                raise ValueError(f"preference weight at degree {k} is {w}, must be finite and > 0")
        return cls(g, M, table=clean)

    @classmethod
    def from_rule(cls, rule: Callable, g: int, M=math.inf, label: str = "rule") -> "PreferenceFunction":
        """Build from a callable ``rule(k) -> weight``.

        The rule is trusted to be positive on ``[g, M]``; positivity is
        checked lazily whenever weights are materialized. ``rule`` may
        accept a numpy integer array for vectorized evaluation.
        """
        pf = cls(g, M, rule=rule, label=label)
        probe = pf(g)
        if not probe > 0.0:
            raise ValueError(f"rule gives non-positive weight {probe} at window start {g}")
        return pf

    @classmethod
    def linear(cls, g: int = 1, M=math.inf) -> "PreferenceFunction":
        """The classic proportional rule ``f(k) = k`` (needs g >= 1)."""
        return cls.from_rule(lambda k: np.asarray(k, dtype=float), g, M, label="linear")

    @classmethod
    def constant(cls, value: float = 1.0, g: int = 0, M=math.inf) -> "PreferenceFunction":
        """Degree-blind attachment, ``f(k) = value`` on the window."""
        v = float(value)
        if not v > 0.0:
            raise ValueError("constant preference must be positive")
        return cls.from_rule(lambda k: np.full_like(np.asarray(k, dtype=float), v), g, M, label=f"constant({v})")

    def __call__(self, k: int) -> float:
        if k < self.g or k > self.M:
            return 0.0
        if self._table is not None:
            return self._table[k]
        val = float(np.asarray(self._rule(int(k))).reshape(-1)[0])
        if not val > 0.0 or math.isnan(val):
            raise ValueError(f"preference rule gives {val} at degree {k} inside the window")
        return val

    def weight_array(self, upto: int) -> np.ndarray:
        """Dense weights for degrees ``0..upto`` (zeros outside the window).

        Raises ValueError if the backing rule produces a non-positive value
        anywhere inside the covered part of the window.
        """
        out = np.zeros(upto + 1)
        lo = self.g
        hi = min(self.M, upto)
        if hi < lo:
            return out
        hi = int(hi)
        ks = np.arange(lo, hi + 1)
        if self._table is not None:
            out[lo : hi + 1] = [self._table[int(k)] for k in ks]
        else:
            try:
                vals = np.asarray(self._rule(ks), dtype=float)
                if vals.shape != ks.shape:
                    raise TypeError("shape mismatch")
            except Exception:
                vals = np.array([float(self._rule(int(k))) for k in ks])
            if not np.all(vals > 0.0) or not np.all(np.isfinite(vals)):
                bad = int(ks[np.argmin(vals > 0.0)])
                raise ValueError(f"preference rule is not positive at degree {bad}")
            out[lo : hi + 1] = vals
        return out

    @property
    def weights(self) -> dict[int, float]:
        """Explicit table; only available for finite windows."""
        if self.M == math.inf:
            raise ValueError("preference window is unbounded; no finite table")
        if self._table is not None:
            return dict(sorted(self._table.items()))
        arr = self.weight_array(int(self.M))
        return {k: float(arr[k]) for k in range(self.g, int(self.M) + 1)}

    def scaled(self, c: float) -> "PreferenceFunction":
        """Positive rescaling; describes the same attachment model."""
        c = float(c)
        if not c > 0.0:
            raise ValueError("scale factor must be positive")
        if self._table is not None:
            return PreferenceFunction.from_table({k: c * w for k, w in self._table.items()})
        rule = self._rule
        return PreferenceFunction(
            self.g, self.M, rule=lambda k: c * np.asarray(rule(k), dtype=float),
            label=f"{c}*{self._label}",
        )

    def __eq__(self, other):
        if not isinstance(other, PreferenceFunction):
            return NotImplemented
        if (self.g, self.M) != (other.g, other.M):
            return False
        if self._table is not None and other._table is not None:
            return self._table == other._table
        return self._rule is other._rule

    def __repr__(self):
        return f"PreferenceFunction(g={self.g}, M={self.M}, {self._label})"


def write_preference(f: PreferenceFunction, path, header: Mapping | None = None) -> None:
    """Write ``k<TAB>weight`` lines with the window recorded in the header."""
    if f.M == math.inf:
        raise ValueError("cannot export an unbounded preference window to a table")
    rows = (f"{k}\t{w!r}" for k, w in sorted(f.weights.items()))
    write_table(path, {"g": f.g, "M": int(f.M), **(header or {})}, rows)


def read_preference(path) -> PreferenceFunction:
    """Load a preference table written by :func:`write_preference`.

    The window is taken from ``# g=``/``# M=`` header comments when present,
    otherwise inferred from the table keys; either way the table must cover
    the window completely.
    """
    table, header = read_degree_table(path)
    pf = PreferenceFunction.from_table(table)
    g = int(header["g"]) if "g" in header else pf.g
    M = int(header["M"]) if "M" in header else pf.M
    if (g, M) != (pf.g, pf.M):
        raise ValueError(
            f"{path}: declared window [{g}, {M}] does not match table keys "
            f"[{pf.g}, {pf.M}]"
        )
    return pf
