"""Growing multigraphs by preferential attachment with clique increments.

The model grows a graph one increment at a time. An increment is either a
monad (one vertex with a random number of free edges) or an n-ad (an
n-vertex clique whose members each bring free edges, some grouped into
conjugate bundles that all land on one target). Free edge ends choose
existing vertices with probability proportional to a preference function
of their degree.

Besides the generator the package ships the stationary degree
distribution solver, a calibrator that inverts it (find the preference
function realizing a target distribution), comparison and structure
metrics, and a CLI wiring them together.
"""

from .analysis import (
    ComparisonReport,
    compare,
    global_clustering,
    triangle_count,
)
from .calibrate import CalibrationResult, calibrate
from .distributions import DegreeDistribution, read_distribution, write_distribution
from .engine import (
    GrowthStats,
    grow,
    read_edge_list,
    write_edge_list,
    write_stats,
)
from .graph import MultiGraph, empirical_vdd, seed_complete
from .layers import LayerIndex, SaturationError
from .params import ModelParams
from .preference import PreferenceFunction, read_preference, write_preference
from .solver import (
    NonConvergenceError,
    StationarySolution,
    solve_stationary,
    write_q_table,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "ComparisonReport",
    "DegreeDistribution",
    "GrowthStats",
    "LayerIndex",
    "ModelParams",
    "MultiGraph",
    "NonConvergenceError",
    "PreferenceFunction",
    "SaturationError",
    "StationarySolution",
    "__version__",
    "calibrate",
    "compare",
    "empirical_vdd",
    "global_clustering",
    "grow",
    "read_distribution",
    "read_edge_list",
    "read_preference",
    "seed_complete",
    "solve_stationary",
    "triangle_count",
    "write_distribution",
    "write_edge_list",
    "write_preference",
    "write_q_table",
    "write_stats",
]
