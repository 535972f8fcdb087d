"""Probability distributions over integer degrees.

Increment-size tables and vertex degree distributions (VDDs) share one
representation: the smallest degree that carries mass and one read-only
float64 array of probabilities over every degree from there to the
largest. Gaps inside the support are stored as zero.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "DegreeDistribution",
    "degree_key",
    "header_int",
    "read_degree_table",
    "read_distribution",
    "read_table",
    "write_blocks",
    "write_distribution",
    "write_table",
]

#: Tolerance on |sum(probs) - 1| at construction time.
NORMALIZATION_TOL = 1e-9

#: Text tables off by more than this are rejected; smaller deviations are
#: renormalized on load.
TEXT_RENORM_TOL = 1e-6

#: Rows that ``write_table`` and ``write_edge_list`` put in one write.
ROWS_PER_WRITE = 8192

#: Most entries (largest degree - smallest + 1) of a dense table built by
#: ``from_probs``: 128 MB of float64. It is checked before the table is
#: allocated, so a stray row at degree 10^9 is named rather than asking for
#: 8 GB. The solver's default tables end at K_CAP = 10^6, and the widest
#: table the tests build (an r1 with rows at 1 and 2 * 10^6) is well below.
MAX_SPAN = 2**24


def degree_key(k) -> int:
    """``k`` as a Python int: any integer but a bool, numpy integers included."""
    if isinstance(k, bool) or not hasattr(k, "__index__"):
        raise ValueError(f"degree {k!r} is not an integer")
    return operator.index(k)


def _probability(k: int, p) -> float:
    """``p`` as the float probability at degree ``k``: not negative, not NaN."""
    p = float(p)
    if p < 0.0:
        raise ValueError(f"probability {p} at degree {k} is negative")
    if math.isnan(p):
        raise ValueError(f"probability at degree {k} is NaN")
    return p


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Probability table over integer degrees.

    ``table[i]`` is the probability of degree ``support_min + i``: a
    read-only float64 array whose first and last entries are positive, so
    ``support_min`` and ``support_max`` are the smallest and largest
    degree that carry mass. Instances are immutable; build them through
    :meth:`from_probs` or :meth:`from_array`.
    """

    support_min: int
    table: np.ndarray

    @classmethod
    def from_probs(cls, probs: Mapping[int, float]) -> "DegreeDistribution":
        """Validate a degree -> probability mapping and build a distribution.

        Degrees are non-negative integers, numpy integers included. Other
        degrees, negative or NaN probabilities, an empty table, a total
        mass off by more than ``NORMALIZATION_TOL`` and a span of more than
        ``MAX_SPAN`` degrees raise ValueError.
        """
        clean: dict[int, float] = {}
        for k, p in probs.items():
            k = degree_key(k)
            if k < 0:
                raise ValueError(f"degree {k} is negative")
            p = _probability(k, p)
            if p > 0.0:
                clean[k] = p
        if not clean:
            raise ValueError("distribution has no positive-probability entries")
        total = math.fsum(clean.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}, off by more than {NORMALIZATION_TOL}"
            )
        lo, hi = min(clean), max(clean)
        if hi - lo + 1 > MAX_SPAN:
            raise ValueError(
                f"degrees {lo}..{hi} span {hi - lo + 1} entries, above MAX_SPAN={MAX_SPAN}"
            )
        table = np.zeros(hi - lo + 1)
        table[[k - lo for k in clean]] = list(clean.values())
        return cls.from_array(table, lo)

    @classmethod
    def from_array(cls, table: np.ndarray, start: int = 0) -> "DegreeDistribution":
        """The distribution with probability ``table[i]`` at degree ``start + i``:
        a read-only view of ``table`` trimmed to its positive range. ``table``
        is trusted to be float64, non-negative and normalized."""
        pos = table > 0.0
        lo, hi = int(pos.argmax()), pos.shape[0] - int(pos[::-1].argmax())
        view = table[lo:hi]
        view.flags.writeable = False
        return cls(start + lo, view)

    @property
    def support_max(self) -> int:
        return self.support_min + self.table.shape[0] - 1

    def __eq__(self, other):
        if not isinstance(other, DegreeDistribution):
            return NotImplemented
        return self.support_min == other.support_min and np.array_equal(self.table, other.table)

    def prob(self, k: int) -> float:
        """Probability at degree ``k`` (zero off the table)."""
        i = k - self.support_min
        return float(self.table[i]) if 0 <= i < self.table.shape[0] else 0.0

    def array(self, lo: int, hi: int) -> np.ndarray:
        """Probabilities at degrees ``lo..hi-1`` as a new array, zero off the table."""
        out = np.zeros(hi - lo)
        a, b = max(lo, self.support_min), min(hi, self.support_max + 1)
        if a < b:
            out[a - lo : b - lo] = self.table[a - self.support_min : b - self.support_min]
        return out

    def items(self) -> list[tuple[int, float]]:
        """(degree, probability) pairs of the positive entries, in degree order."""
        return [(k, p) for k, p in enumerate(self.table.tolist(), self.support_min) if p > 0.0]

    @cached_property
    def mean_degree(self) -> float:
        # only the positive entries: a wide table (r1 = {1: .5, 10**7: .5}) has few
        pos = np.flatnonzero(self.table)
        return math.fsum(((pos + self.support_min) * self.table[pos]).tolist())

    @cached_property
    def _cumulative(self) -> list[float]:
        """Running sums of the table; a gap repeats the sum before it, so no pick lands on it."""
        return list(accumulate(self.table.tolist()))

    def sample(self, rng) -> int:
        """Draw one value; ``rng`` is a numpy Generator or anything with ``random()``."""
        cum = self._cumulative
        if len(cum) == 1:
            return self.support_min
        i = bisect_right(cum, rng.random() * cum[-1])
        return self.support_min + min(i, len(cum) - 1)


def write_distribution(d: DegreeDistribution, path, header: Mapping | None = None) -> None:
    """Write ``k<TAB>probability`` lines, one per supported degree.

    Header entries become leading ``# key=value`` comment lines.
    """
    write_table(path, header or {}, (f"{k}\t{p!r}" for k, p in d.items()))


def write_table(path, header: Mapping, rows: Iterable[str], title: str | None = None) -> None:
    """Write ``# key=value`` header lines, an optional column title, then rows.

    Rows are joined and written ``ROWS_PER_WRITE`` at a time, so a long
    table is streamed to the file rather than held as one string.
    """
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, ROWS_PER_WRITE)), [])
    write_blocks(path, header, ("\n".join(block) + "\n" for block in blocks), title)


def write_blocks(path, header: Mapping, blocks: Iterable[str], title: str | None = None) -> None:
    """Write ``# key=value`` header lines, an optional column title, then
    each block of newline-terminated rows as it comes."""
    with open(path, "w") as fh:
        fh.write("".join(f"# {key}={val}\n" for key, val in header.items()))
        if title is not None:
            fh.write(title + "\n")
        for block in blocks:
            fh.write(block)


def read_table(path, row: Callable[[str], None]) -> dict[str, str]:
    """Read a text table line by line; return its ``# key=value`` header.

    Lines starting with ``#`` are comments, and those of the form
    ``# key=value`` are header entries (the first of a repeated key wins).
    Every other non-blank line goes to ``row`` stripped; a ValueError
    raised there is reported as ``line N: message``; the caller names the file.
    """
    header: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                key, eq, val = line[1:].partition("=")
                if eq:
                    header.setdefault(key.strip(), val.strip())
                continue
            try:
                row(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return header


def header_int(header: Mapping[str, str], key: str, default: int) -> int:
    """Header entry ``key`` as a non-negative integer; ``default`` when absent."""
    raw = header.get(key, str(default))
    if not raw.isdecimal():
        raise ValueError(f"header {key}={raw!r} is not a non-negative integer")
    return int(raw)


def read_degree_table(path) -> tuple[dict[int, float], dict[str, str]]:
    """Read a degree/value table and its header entries.

    Rows are ``k<TAB>value`` (any whitespace, trailing ``#`` comments
    allowed) or ``k,value`` as the solver writes them, whose ``k,...``
    column title is skipped.
    """
    table: dict[int, float] = {}

    def row(line: str) -> None:
        if "," in line:
            parts = line.split(",")
            if parts[0].strip().lower() == "k":
                return
            want = "'k,Q'"
        else:
            parts = line.partition("#")[0].split()
            want = "'k<TAB>value'"
        if len(parts) != 2:
            raise ValueError(f"expected {want}, got {line!r}")
        k = int(parts[0])
        if k in table:
            raise ValueError(f"duplicate degree {k}")
        table[k] = float(parts[1])

    header = read_table(path, row)
    if not table:
        raise ValueError("no data lines")
    return table, header


def read_distribution(path) -> DegreeDistribution:
    """Load a distribution from ``k<TAB>value`` or ``k,value`` text.

    Tables whose mass is within ``TEXT_RENORM_TOL`` of 1 are renormalized;
    anything further off is rejected. Exactly normalized tables are stored
    as written.
    """
    table, _ = read_degree_table(path)
    # rows are checked before the sum, which an inf and a -inf row would break
    total = math.fsum(_probability(k, v) for k, v in table.items())
    if abs(total - 1.0) > TEXT_RENORM_TOL:
        raise ValueError(
            f"probabilities sum to {total!r}, beyond the "
            f"{TEXT_RENORM_TOL} renormalization limit"
        )
    if total != 1.0:
        table = {k: v / total for k, v in table.items()}
    return DegreeDistribution.from_probs(table)
