"""Routing of labeled unit discs through a triangular-grid discretization.

Pipeline: embed a triangular grid in the workspace, snap continuous
start/goal configurations to grid vertices, route on the grid (either a
time-expanded ILP solved to optimality, or a combinatorial hexagon-swap
planner), then synthesize and validate continuous trajectories.
"""

__version__ = "0.1.0"

# Row senses of the LP dialect that ilp.export_lp writes and lpsolve
# reads, indices into SENSES.  They live here so that the solver child,
# ``python -m triroute.lpsolve``, loads no other triroute module.
EQ, LE = 0, 1
SENSES = ("=", "<=")
