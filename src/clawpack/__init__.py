"""Solvers, certificates, and generators for weighted k-set packing and the
maximum weight independent set problem in d-claw free graphs."""

from .certify import AnalysisParams, CertReport, certify_local_optimum
from .circular import (
    AuxGraph,
    ColorCodingParams,
    build_anchor_maps,
    find_circular_improvement,
)
from .constants import check_constants
from .instances import (
    ConflictGraph,
    Improvement,
    PackingInstance,
    Solution,
    build_conflict_graph,
    neighborhood,
    verify_solution,
)
from .oracle import OracleResult, exact_mwis, exhaustive_improvement_search
from .solvers import RunTrace, SolverConfig, greedy, logimp, solve, squareimp

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams",
    "AuxGraph",
    "CertReport",
    "ColorCodingParams",
    "ConflictGraph",
    "Improvement",
    "OracleResult",
    "PackingInstance",
    "RunTrace",
    "Solution",
    "SolverConfig",
    "build_anchor_maps",
    "build_conflict_graph",
    "certify_local_optimum",
    "check_constants",
    "exact_mwis",
    "exhaustive_improvement_search",
    "find_circular_improvement",
    "greedy",
    "logimp",
    "neighborhood",
    "solve",
    "squareimp",
    "verify_solution",
]
