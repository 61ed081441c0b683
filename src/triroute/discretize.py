"""Snapping continuous disc configurations onto the triangular grid.

Each disc center moves in a straight line to its nearest grid vertex;
all discs depart together and arrive together after max_snap_distance
time units (per-disc speed = length / max_snap_distance <= 1).  With
pairwise separation above 8/3 the assignment is injective and the snap
phase is collision-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import TriGrid, Vec2, Workspace, nearest_vertex_dist

SEPARATION = 8.0 / 3.0


class SnapConsistencyError(RuntimeError):
    """Snapping produced a non-injective assignment (inadmissible input)."""


class InadmissibleInstanceError(ValueError):
    """Instance violates the separation or clearance preconditions."""


@dataclass(frozen=True)
class ContinuousInstance:
    workspace: Workspace
    starts: tuple[Vec2, ...]
    goals: tuple[Vec2, ...]

    def __post_init__(self):
        if len(self.starts) != len(self.goals):
            raise ValueError("starts and goals must have equal length")

    @property
    def n(self) -> int:
        return len(self.starts)


@dataclass
class SeparationReport:
    """Pairs closer than the required separation, per configuration."""

    start_violations: list[tuple[int, int, float]] = field(default_factory=list)
    goal_violations: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.start_violations and not self.goal_violations


@dataclass
class SnapResult:
    assignment: list[int]                      # vertex id per disc
    d_max: float                               # max snap distance (<= 4/3),
                                               # the snap phase's duration


@dataclass(frozen=True)
class DiscreteInstance:
    grid: TriGrid
    v_starts: tuple[int, ...]
    v_goals: tuple[int, ...]

    def __post_init__(self):
        if len(self.v_starts) != len(self.v_goals):
            raise ValueError("start/goal vertex lists must have equal length")
        if len(set(self.v_starts)) != len(self.v_starts):
            raise ValueError("duplicate start vertices")
        if len(set(self.v_goals)) != len(self.v_goals):
            raise ValueError("duplicate goal vertices")

    @property
    def n(self) -> int:
        return len(self.v_starts)


def validate_separation(inst: ContinuousInstance) -> SeparationReport:
    """List every pair at distance <= 8/3 (the requirement is strict),
    in (i, j) order.  A sweep over the points sorted by x ends a row
    once the x gap alone exceeds 8/3, and skips a pair whose y gap alone
    does (the distance is at least either gap).

    Never raises; an empty report means the instance is admissible.
    """
    report = SeparationReport()
    for points, out in ((inst.starts, report.start_violations),
                        (inst.goals, report.goal_violations)):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        order = sorted(range(len(xs)), key=xs.__getitem__)
        for s, i in enumerate(order):
            x, y = xs[i], ys[i]
            for j in order[s + 1:]:
                if xs[j] - x > SEPARATION:
                    break
                if not -SEPARATION <= ys[j] - y <= SEPARATION:
                    continue
                a, b = (i, j) if i < j else (j, i)
                d = points[a].dist(points[b])
                if d <= SEPARATION:
                    out.append((a, b, d))
        out.sort()
    return report


def check_clearance(inst: ContinuousInstance) -> list[tuple[str, int, float]]:
    """Discs whose centers sit closer than 1 to the workspace boundary."""
    ws = inst.workspace
    bad = []
    for name, points in (("start", inst.starts), ("goal", inst.goals)):
        for i, p in enumerate(points):
            margin = min(p.x, p.y, ws.w - p.x, ws.h - p.y)
            if margin < 1.0 - 1e-9:
                bad.append((name, i, margin))
    return bad


def snap(inst: ContinuousInstance, grid: TriGrid, which: str) -> SnapResult:
    """Map one configuration ("starts" or "goals") to nearest vertices.

    Ties break to the lowest vertex id, so repeated runs are identical.
    Injectivity is guaranteed for admissible inputs but re-checked.
    """
    if which not in ("starts", "goals"):
        raise ValueError("which must be 'starts' or 'goals'")
    points = inst.starts if which == "starts" else inst.goals

    found = [nearest_vertex_dist(grid, p) for p in points]
    assignment = [v for v, _ in found]
    if len(set(assignment)) != len(assignment):
        seen: dict[int, int] = {}
        for i, v in enumerate(assignment):
            if v in seen:
                raise SnapConsistencyError(
                    f"discs {seen[v]} and {i} both snap to vertex {v}; "
                    f"separation precondition violated")
            seen[v] = i

    # the distances found are p.dist(vertex): hypot ignores signs
    d_max = max((d for _, d in found), default=0.0)
    return SnapResult(assignment=assignment, d_max=d_max)


def discretize(inst: ContinuousInstance, grid: TriGrid
               ) -> tuple[DiscreteInstance, SnapResult, SnapResult]:
    """Snap both configurations; O(n) given the constant-time vertex lookup."""
    snap_s = snap(inst, grid, "starts")
    snap_g = snap(inst, grid, "goals")
    dinst = DiscreteInstance(grid=grid,
                             v_starts=tuple(snap_s.assignment),
                             v_goals=tuple(snap_g.assignment))
    return dinst, snap_s, snap_g
