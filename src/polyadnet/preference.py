"""Preference functions: positive attachment weights on a degree window.

A preference function assigns weight ``f(k) > 0`` to every degree in a
window ``[g, M]`` and exactly zero outside it. Attachment probabilities are
proportional to these weights, so any positive rescaling describes the same
model. A function is its window plus one vectorized rule, which maps a numpy
integer array of degrees to one weight per degree; an explicit table is the
rule that indexes a dense weight array by ``k - g``. ``M`` may be
``math.inf`` for a rule such as ``f(k) = k``, which has no natural cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .distributions import degree_key, header_int, read_degree_table, write_table
from .params import InputError

__all__ = ["PreferenceError", "PreferenceFunction", "read_preference", "write_preference"]

_CONTRACT = "a preference rule maps a numpy integer array of degrees to one weight per degree"


class PreferenceError(InputError):
    """A rule gives a weight that is not finite and > 0 inside its window."""


@dataclass(frozen=True, eq=False)
class PreferenceFunction:
    """Weights ``f(k)`` on a degree window, zero elsewhere.

    A window ``[g, M]`` (``M`` may be inf) plus a vectorized rule that is
    evaluated lazily. Instances are immutable.
    """

    g: int
    M: int | float
    _rule: Callable

    def __post_init__(self):
        g, M = self.g, self.M
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"window start {g!r} must be a non-negative integer")
        if M != math.inf and (not isinstance(M, int) or M < g):
            raise ValueError(f"window end {M!r} must be an integer >= {g} or inf")

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
        clean = {degree_key(k): float(w) for k, w in weights.items()}
        g, M = min(clean), max(clean)
        for k in range(g, M + 1):
            if k not in clean:
                raise ValueError(f"preference table has a gap at degree {k}")
        dense = np.array([clean[k] for k in range(g, M + 1)])
        pf = cls(g, M, lambda ks: dense[ks - g])
        pf.weight_array(M, g)
        return pf

    @classmethod
    def from_rule(cls, rule: Callable, g: int, M=math.inf) -> "PreferenceFunction":
        """Build from a vectorized ``rule``.

        Given a numpy integer array of degrees, ``rule`` returns one weight
        per degree, as an array of the same shape; wrap a scalar function
        in ``np.vectorize``. The weight at the window start must be finite
        and > 0; elsewhere on ``[g, M]`` the rule is checked lazily
        whenever weights are materialized.
        """
        pf = cls(g, M, rule)
        pf.weight_array(g, g)
        return pf

    @classmethod
    def linear(cls, g: int = 1, M=math.inf) -> "PreferenceFunction":
        """The classic proportional rule ``f(k) = k`` (needs g >= 1)."""
        return cls.from_rule(lambda ks: ks, g, M)

    @classmethod
    def constant(cls, value: float = 1.0, g: int = 0, M=math.inf) -> "PreferenceFunction":
        """Degree-blind attachment, ``f(k) = value`` on the window."""
        v = float(value)
        return cls.from_rule(lambda ks: np.full(ks.shape, v), g, M)

    def _at(self, ks: np.ndarray) -> np.ndarray:
        """The rule's weights at the degrees ``ks``, as floats.

        An overflow or nan is returned for the caller to report, not warned
        about. A rule that cannot take the array, or that does not give one
        weight per degree, raises TypeError.
        """
        try:
            with np.errstate(all="ignore"):
                vals = np.asarray(self._rule(ks), dtype=float)
        except TypeError as exc:
            raise TypeError(f"{_CONTRACT}: {exc}") from exc
        if vals.shape != ks.shape:
            raise TypeError(f"{_CONTRACT}, got shape {vals.shape} for {ks.size} degrees")
        return vals

    def __call__(self, k: int) -> float:
        if k < self.g or k > self.M:
            return 0.0
        val = float(self._at(np.array([k]))[0])
        if not val > 0.0:
            raise PreferenceError(f"preference rule gives {val} at degree {k} inside the window")
        return val

    def weight_array(self, upto: int, start: int = 0) -> np.ndarray:
        """Dense weights for degrees ``start..upto`` (zeros outside the window).

        Raises PreferenceError naming the first degree in the covered part of
        the window where the rule is not finite and > 0.
        """
        out = np.zeros(upto - start + 1)
        lo, hi = max(self.g, start), min(self.M, upto)
        if hi < lo:
            return out
        ks = np.arange(lo, hi + 1)
        vals = self._at(ks)
        ok = (vals > 0.0) & np.isfinite(vals)
        if not ok.all():
            i = int(np.argmin(ok))
            raise PreferenceError(f"preference rule gives {vals[i]} at degree {ks[i]}, not a finite weight > 0")
        out[lo - start : hi - start + 1] = vals
        return out

    @property
    def weights(self) -> dict[int, float]:
        """Explicit table; only available for finite windows."""
        if self.M == math.inf:
            raise ValueError("preference window is unbounded; no finite table")
        return dict(zip(range(self.g, self.M + 1), self.weight_array(self.M)[self.g :].tolist()))


def write_preference(f: PreferenceFunction, path, header: Mapping | None = None) -> None:
    """Write ``k<TAB>weight`` lines with the window recorded in the header.

    An unbounded window has no table: ``f.weights`` raises ValueError.
    """
    rows = (f"{k}\t{w!r}" for k, w in f.weights.items())
    write_table(path, {"g": f.g, "M": int(f.M), **(header or {})}, rows)


def read_preference(path) -> PreferenceFunction:
    """Load a preference table written by :func:`write_preference`.

    The window is taken from ``# g=``/``# M=`` header comments when present,
    otherwise inferred from the table keys; either way the table must cover
    the window completely.
    """
    table, header = read_degree_table(path)
    pf = PreferenceFunction.from_table(table)
    g = header_int(header, "g", pf.g)
    M = header_int(header, "M", pf.M)
    if (g, M) != (pf.g, pf.M):
        raise ValueError(f"declared window [{g}, {M}] does not match table keys [{pf.g}, {pf.M}]")
    return pf
