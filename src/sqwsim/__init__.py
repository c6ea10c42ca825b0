"""Staggered quantum walks on tessellated graphs.

Simulation of walks driven by products of polygon reflections, with two
unitary percolation-style noise models (breaking polygons, breaking
vertices), search by leaving the marked cell's polygon out of the cover,
and a reproducible experiment pipeline around them.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    AggregateSeries,
    DisplacementResult,
    PositionDistribution,
    aggregate,
    check_dihedral_symmetry,
    classical_sigma_series,
    displacement_experiment,
    position_distribution,
    torus_displacement_stats,
)
from .evolve import (
    InvariantError,
    WalkState,
    localized_clique_state,
    step,
    uniform_state,
)
from .graph import (
    CoverReport,
    GridSpec,
    ParseError,
    Polygon,
    SimpleGraph,
    TessellatedGraph,
    Tessellation,
    coined_to_staggered,
    make_grid_of_cliques,
    read_cover,
    read_graph,
    validate_cover,
    write_cover,
    write_graph,
)
from .noise import BreakPlan, NoiseSpec, sample_plan
from .oracle import (
    CoinedBasisMap,
    DenseUnitary,
    apply_plan,
    break_polygon,
    coined_basis_map,
    dense_step_matrix,
    fcqw_grid_step,
    remove_vertices,
    verify_equivalence,
)
from .rng import child_seed
from .search import (
    RunSummary,
    SearchConfig,
    SuccessSeries,
    default_step_budget,
    partial_cover,
    peak_metrics,
    run_search,
    success_probability,
)

__all__ = [
    "AggregateSeries",
    "BreakPlan",
    "CoinedBasisMap",
    "CoverReport",
    "DenseUnitary",
    "DisplacementResult",
    "GridSpec",
    "InvariantError",
    "NoiseSpec",
    "ParseError",
    "Polygon",
    "PositionDistribution",
    "RunSummary",
    "SearchConfig",
    "SimpleGraph",
    "SuccessSeries",
    "TessellatedGraph",
    "Tessellation",
    "WalkState",
    "__version__",
    "aggregate",
    "apply_plan",
    "break_polygon",
    "check_dihedral_symmetry",
    "child_seed",
    "classical_sigma_series",
    "coined_basis_map",
    "coined_to_staggered",
    "default_step_budget",
    "dense_step_matrix",
    "displacement_experiment",
    "fcqw_grid_step",
    "localized_clique_state",
    "make_grid_of_cliques",
    "partial_cover",
    "peak_metrics",
    "position_distribution",
    "read_cover",
    "read_graph",
    "remove_vertices",
    "run_search",
    "sample_plan",
    "step",
    "success_probability",
    "torus_displacement_stats",
    "uniform_state",
    "validate_cover",
    "verify_equivalence",
    "write_cover",
    "write_graph",
]
