"""Routing of labeled unit discs through a triangular-grid discretization.

Pipeline: embed a triangular grid in the workspace, snap continuous
start/goal configurations to grid vertices, route on the grid (either a
time-expanded ILP solved to optimality, or a combinatorial hexagon-swap
planner), then synthesize and validate continuous trajectories.
"""

from .discretize import (ContinuousInstance, DiscreteInstance, SnapResult,
                         discretize, snap, validate_separation)
from .geometry import (EDGE_LEN, TriGrid, Vec2, Workspace, build_grid,
                       build_hex_covers, build_workspace, density_limit,
                       enumerate_sharp_angles, nearest_vertex,
                       triangle_circumradius)
from .ilp import build_model, export_lp, extract_plan, solve
from .paft import isag, paft
from .plan import DiscretePlan, check_plan
from .prover import (Certificate, MovingDisc, enumerate_annulus_cells,
                     enumerate_region_boxes, min_pair_distance, verify)
from .triilp import (SolveReport, solve_split, solve_triilp, split_k_way,
                     underestimated_makespan)
from .validate import (ContinuousPlan, ValidationReport, optimality_metrics,
                       synthesize, synthesize_discrete, validate)

__all__ = [
    "Certificate", "ContinuousInstance", "ContinuousPlan", "DiscreteInstance",
    "DiscretePlan", "EDGE_LEN", "MovingDisc", "SnapResult", "SolveReport",
    "TriGrid", "ValidationReport", "Vec2", "Workspace", "build_grid",
    "build_hex_covers", "build_model", "build_workspace", "check_plan",
    "density_limit", "discretize", "enumerate_annulus_cells",
    "enumerate_region_boxes", "enumerate_sharp_angles", "export_lp",
    "extract_plan", "isag", "min_pair_distance",
    "nearest_vertex", "optimality_metrics", "paft", "snap", "solve",
    "solve_split", "solve_triilp", "split_k_way", "synthesize",
    "synthesize_discrete", "triangle_circumradius", "underestimated_makespan",
    "validate", "validate_separation", "verify",
]

__version__ = "0.1.0"
