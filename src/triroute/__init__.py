"""Routing of labeled unit discs through a triangular-grid discretization.

Pipeline: embed a triangular grid in the workspace, snap continuous
start/goal configurations to grid vertices, route on the grid (either a
time-expanded ILP solved to optimality, or a combinatorial hexagon-swap
planner), then synthesize and validate continuous trajectories.
"""

__version__ = "0.1.0"
