"""Sparse probability distributions over integer degrees.

Increment-size tables and vertex degree distributions (VDDs) share one
representation: a map from a non-negative integer degree to a probability.
Gaps inside the support are allowed and read as zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Mapping

__all__ = [
    "DegreeDistribution",
    "read_degree_table",
    "read_distribution",
    "read_table",
    "write_distribution",
    "write_table",
]

#: Tolerance on |sum(probs) - 1| at construction time.
NORMALIZATION_TOL = 1e-9

#: Text tables off by more than this are rejected; smaller deviations are
#: renormalized on load.
TEXT_RENORM_TOL = 1e-6

#: Rows that ``write_table`` joins into one write.
ROWS_PER_WRITE = 8192


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability table over integer degrees.

    ``probs`` maps degree to probability. Entries that are exactly zero are
    dropped at construction, so ``support_min`` and ``support_max`` are the
    smallest and largest degree that carry mass. Instances are immutable;
    build them through :meth:`from_probs` or :meth:`from_counts`.
    """

    probs: dict[int, float]
    support_min: int
    support_max: int

    @classmethod
    def from_probs(cls, probs: Mapping[int, float]) -> "DegreeDistribution":
        """Validate a degree -> probability mapping and build a distribution.

        Args:
            probs: mapping from non-negative integer degree to probability.

        Raises:
            ValueError: on negative degrees, negative probabilities, an empty
                table, or total mass off by more than ``NORMALIZATION_TOL``.
        """
        clean: dict[int, float] = {}
        for k, p in probs.items():
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(f"degree {k!r} is not an integer")
            if k < 0:
                raise ValueError(f"degree {k} is negative")
            p = float(p)
            if p < 0.0:
                raise ValueError(f"probability {p} at degree {k} is negative")
            if math.isnan(p):
                raise ValueError(f"probability at degree {k} is NaN")
            if p > 0.0:
                clean[k] = p
        if not clean:
            raise ValueError("distribution has no positive-probability entries")
        total = math.fsum(clean.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}, off by more than {NORMALIZATION_TOL}"
            )
        return cls(
            probs=dict(sorted(clean.items())),
            support_min=min(clean),
            support_max=max(clean),
        )

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "DegreeDistribution":
        """Build the empirical distribution of integer counts.

        Args:
            counts: mapping from degree to a non-negative occurrence count.
        """
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("counts are empty")
        return cls.from_probs({k: c / total for k, c in counts.items() if c})

    def prob(self, k: int) -> float:
        """Probability at degree ``k`` (zero off the table)."""
        return self.probs.get(k, 0.0)

    @cached_property
    def mean_degree(self) -> float:
        return math.fsum(k * p for k, p in self.probs.items())

    @cached_property
    def _sampling_table(self) -> tuple[list[int], list[float]]:
        """Sorted support values and their cumulative probabilities."""
        vals = sorted(self.probs)
        cum: list[float] = []
        acc = 0.0
        for k in vals:
            acc += self.probs[k]
            cum.append(acc)
        return vals, cum

    def sample(self, rng) -> int:
        """Draw one value; ``rng`` is a numpy Generator (or anything with
        ``random()``)."""
        vals, cum = self._sampling_table
        if len(vals) == 1:
            return vals[0]
        i = bisect_right(cum, rng.random() * cum[-1])
        return vals[min(i, len(vals) - 1)]

    def items(self):
        return self.probs.items()


def write_distribution(d: DegreeDistribution, path, header: Mapping | None = None) -> None:
    """Write ``k<TAB>probability`` lines, one per supported degree.

    Header entries become leading ``# key=value`` comment lines.
    """
    write_table(path, header or {}, (f"{k}\t{d.probs[k]!r}" for k in sorted(d.probs)))


def write_table(path, header: Mapping, rows: Iterable[str], title: str | None = None) -> None:
    """Write ``# key=value`` header lines, an optional column title, then rows.

    Rows are joined and written ``ROWS_PER_WRITE`` at a time, so a long
    table is streamed to the file rather than held as one string.
    """
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write("".join(f"# {key}={val}\n" for key, val in header.items()))
        if title is not None:
            fh.write(title + "\n")
        while block := list(islice(rows, ROWS_PER_WRITE)):
            fh.write("\n".join(block) + "\n")


def read_table(path, row: Callable[[str], None]) -> dict[str, str]:
    """Read a text table line by line; return its ``# key=value`` header.

    Lines starting with ``#`` are comments, and those of the form
    ``# key=value`` are header entries (the first of a repeated key wins).
    Every other non-blank line goes to ``row`` stripped; a ValueError
    raised there is reported as ``path:lineno: message``.
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
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return header


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
        raise ValueError(f"{path}: no data lines")
    return table, header


def read_distribution(path) -> DegreeDistribution:
    """Load a distribution from ``k<TAB>value`` or ``k,value`` text.

    Tables whose mass is within ``TEXT_RENORM_TOL`` of 1 are renormalized;
    anything further off is rejected. Exactly normalized tables are stored
    as written.
    """
    table, _ = read_degree_table(path)
    total = math.fsum(table.values())
    if abs(total - 1.0) > TEXT_RENORM_TOL:
        raise ValueError(
            f"{path}: probabilities sum to {total!r}, beyond the "
            f"{TEXT_RENORM_TOL} renormalization limit"
        )
    if total != 1.0:
        table = {k: v / total for k, v in table.items()}
    return DegreeDistribution.from_probs(table)
