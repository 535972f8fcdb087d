"""Model parameters and per-step rate formulas.

One growth step adds, with probability ``gamma``, a polyad (a clique of
``n`` new vertices whose per-vertex free-edge counts follow ``rn``), and
otherwise a monad (one new vertex with a free-edge count from ``r1``).
``mu`` of each polyad vertex's free ends are grouped into conjugate
bundles, one bundle per index, all ends of a bundle landing on a single
sampled target.

The rates of the stationary recurrence are properties of the parameters,
written here once for the solver, the calibrator and the CLI:

    b           = (1-gamma) m1 + gamma n (mn - mu)  single ends per step
    bundle_rate = gamma mu                          bundles per step
    a           = b + gamma mu                      attachments per step
    drift       = b + n gamma mu                    ends on old vertices per step
    c           = 1 + gamma (n-1)                   vertices per step (dilution)
    arr_k       = (1-gamma) r1_k + gamma n rn_{k-n+1}  arrival mass at degree k

with m1 and mn the means of r1 and rn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .distributions import DegreeDistribution

__all__ = ["ModelParams"]


@dataclass(frozen=True)
class ModelParams:
    """Increment parameters, checked when built; a ValueError names the first bad one."""

    gamma: float
    n: int
    mu: int
    r1: DegreeDistribution
    rn: DegreeDistribution

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [0, 1]")
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"polyad size n={self.n!r} must be an integer >= 2")
        if not isinstance(self.mu, int) or self.mu < 0:
            raise ValueError(f"bundle count mu={self.mu!r} must be an integer >= 0")
        if not isinstance(self.r1, DegreeDistribution) or not isinstance(self.rn, DegreeDistribution):
            raise ValueError("r1 and rn must be DegreeDistribution instances")
        if self.rn.support_min < self.mu:
            raise ValueError(
                f"rn support starts at {self.rn.support_min}, below mu={self.mu}; every "
                "polyad vertex must own at least mu free ends"
            )

    @cached_property
    def b(self) -> float:
        """Single-end rate: free ends per step attaching one by one."""
        return (1.0 - self.gamma) * self.r1.mean_degree + self.gamma * self.n * (
            self.rn.mean_degree - self.mu
        )

    @cached_property
    def bundle_rate(self) -> float:
        """Bundle rate: conjugate bundles per step, gamma mu."""
        return self.gamma * self.mu

    @cached_property
    def a(self) -> float:
        """Total end rate: attachments per step, a bundle counting once."""
        return self.b + self.bundle_rate

    @cached_property
    def drift(self) -> float:
        """Degree drift: edge ends landing on old vertices per step, b + n gamma mu.

        A bundle counts n times, once per edge it brings.
        """
        return self.b + self.n * self.gamma * self.mu

    @cached_property
    def c(self) -> float:
        """Dilution: mean vertices added per step, 1 + (n-1) gamma."""
        return 1.0 + self.gamma * (self.n - 1.0)

    @cached_property
    def edges_per_step(self) -> float:
        """Mean edges added per step.

        A polyad contributes its n(n-1)/2 clique edges plus n * mean(rn)
        free edges; a monad contributes mean(r1) free edges.
        """
        n = self.n
        nad_edges = n * self.rn.mean_degree + n * (n - 1) / 2.0
        return self.gamma * nad_edges + (1.0 - self.gamma) * self.r1.mean_degree

    @cached_property
    def arrival_max(self) -> int:
        """Largest degree at which a new vertex can enter."""
        lo = self.r1.support_max if self.gamma < 1.0 else 0
        hi = self.rn.support_max + self.n - 1 if self.gamma > 0.0 else 0
        return max(lo, hi)

    def arrival(self, k_max: int) -> list[float]:
        """Arrival mass arr_k over degrees 0..max(k_max, arrival_max)."""
        return self.arrival_array(0, max(k_max, self.arrival_max) + 1).tolist()

    def arrival_array(self, lo: int, hi: int):
        """Arrival mass arr_k at degrees lo..hi-1 as a new numpy array."""
        r1, rn = self.r1.array(lo, hi), self.rn.array(lo + 1 - self.n, hi + 1 - self.n)
        return (1.0 - self.gamma) * r1 + self.gamma * self.n * rn
