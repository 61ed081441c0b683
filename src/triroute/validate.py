"""Continuous trajectories from discrete plans, and their validation.

Synthesis glues three phases: snap-in (straight lines to the assigned
vertices over the max snap distance), the grid phase (each discrete step
executed synchronously over one edge length of time, so speeds never
exceed 1), and snap-out (the goal snap reversed).

A continuous plan holds one float64 array per disc whose rows are the
breakpoints ``(t, x, y)`` in time order; the disc moves linearly from one
row to the next.  In the grid phase a disc gets a breakpoint only at the
first and last step and where it starts or stops moving: in dense plans
most discs wait most of the time, and a wait is one row.  The positions
at every time are those of one breakpoint per step.  So are validation's
windows whenever every step moves some disc, as in PAFT, ISAG and
optimal ILP plans.  ``ContinuousPlan.trajectories`` rebuilds the
``(time, Vec2)`` lists from those arrays for readers that want points.

Validation computes the exact minimum center distance for every disc pair
over every common linear window; discs are open, so the plan is
collision-free when that minimum stays at or above 2 (within 1e-9).  The
breakpoint times of all discs, merged within 1e-12, cut the timeline into
windows, and every disc is sampled at the window ends.  The windows are
walked in chunks of ``CHUNK_WINDOWS``; the first window is a chunk of its
own, checked over all pairs, so a finite minimum is known before the
first wide chunk.  The threshold of a chunk is max(2 + 1e-6, smallest
distance found so far).

* Broad phase: a disc moves linearly between its samples, so over a chunk
  it stays inside the bounding box of its samples there, and the distance
  between two discs' boxes is a lower bound on their distance over the
  whole chunk.  Pairs whose boxes lie farther apart than the threshold
  can be neither a violation nor the minimum, and are dropped.  The
  surviving pairs are found by sorting the boxes along x and sweeping.
* Per window, the box of a surviving pair's offset at the window's two
  ends bounds its distance in that window from below in the same way.
* Narrow phase: ``closest_approach`` of each remaining pair and window
  (the snap-phase prover runs on the same kernel), in array expressions
  whose float operations are those of a per-window loop over pairs, so
  the minimum, the violations (in window, then pair order) and their
  times and distances do not depend on the chunking.
  Both lower bounds carry a slack of ``BROAD_SLACK`` against rounding.

Memory: the samples take 16 bytes per disc and window, less than the
plan's own arrays.  A chunk holds its boxes (O(n) words), the sweep's
candidate pairs, and a few float arrays of surviving pairs x
``CHUNK_WINDOWS``.  Discs at least 2 apart only let nearby pairs survive,
a few per disc, so a chunk's arrays stay O(n * CHUNK_WINDOWS) on a valid
plan; a plan that piles many discs into one spot can keep up to all n^2/2
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import ContinuousInstance, SnapResult
from .geometry import EDGE_LEN, TriGrid, Vec2, Workspace
from .plan import DiscretePlan

CONTACT = 2.0
TOL = 1e-9
CHUNK_WINDOWS = 32     # windows per broad-phase chunk
BROAD_SLACK = 1e-9     # added to the threshold of the box tests


class SynthesisError(ValueError):
    """Plan endpoints disagree with the snap assignments."""


def _rows(pts: list[tuple[float, Vec2]]) -> np.ndarray:
    return np.array([(t, p.x, p.y) for t, p in pts],
                    dtype=np.float64).reshape(-1, 3)


@dataclass(eq=False)
class ContinuousPlan:
    paths: list[np.ndarray]   # per disc: (K, 3) float64 rows (t, x, y)
    makespan: float

    @classmethod
    def from_points(cls, trajectories: list[list[tuple[float, Vec2]]],
                    makespan: float) -> ContinuousPlan:
        """A plan from per-disc ``(time, point)`` lists."""
        return cls([_rows(pts) for pts in trajectories], makespan)

    @property
    def trajectories(self) -> list[list[tuple[float, Vec2]]]:
        """Per disc the ``(time, point)`` breakpoints, built from the
        arrays on every access; assigning point lists replaces the
        arrays.  Breakpoints at one position share one ``Vec2``."""
        if not self.paths:
            return []
        rows = np.concatenate(self.paths)
        # one Vec2 per position, keyed by its bits so 0.0 and -0.0 differ
        keys = rows[:, 1:].copy().view(np.dtype((np.void, 16)))
        xy, which = np.unique(keys, return_inverse=True)
        points = [Vec2(x, y) for x, y in
                  xy.view(np.float64).reshape(-1, 2).tolist()]
        times, which = rows[:, 0].tolist(), which.ravel().tolist()
        out, end = [], 0
        for p in self.paths:
            out.append([(t, points[k]) for t, k in
                        zip(times[end:end + len(p)], which[end:end + len(p)])])
            end += len(p)
        return out

    @trajectories.setter
    def trajectories(self, trajectories: list[list[tuple[float, Vec2]]]
                     ) -> None:
        self.paths = [_rows(pts) for pts in trajectories]


@dataclass
class ValidationReport:
    min_pair_clearance: float
    violations: list[tuple[tuple[int, int], float, float]]  # (pair, time, dist)
    boundary_ok: bool

    @property
    def valid(self) -> bool:
        return self.boundary_ok and self.min_pair_clearance >= CONTACT - TOL


def _grid_rows(grid: TriGrid, dplan: DiscretePlan, t0: float
               ) -> list[np.ndarray]:
    """Per disc the grid-phase breakpoints ``(t0 + k * EDGE_LEN, vertex)``
    at the first and last step and at every step where the disc arrives
    or leaves.  A step inside a stationary run is dropped: the disc
    stands at that vertex anyway."""
    pos = dplan.positions
    T, n = dplan.T, dplan.n
    if not n:
        return []
    moved = pos[1:] != pos[:-1]                 # (T, n): step k -> k + 1
    keep = np.ones((T + 1, n), dtype=bool)
    np.logical_or(moved[:-1], moved[1:], out=keep[1:-1])
    r, k = np.nonzero(keep.T)                   # disc-major, steps in order
    rows = np.empty((len(r), 3))
    rows[:, 0] = t0 + k * EDGE_LEN
    rows[:, 1:] = grid.coords[pos[k, r]]
    ends = np.searchsorted(r, np.arange(1, n + 1)).tolist()
    return [rows[a:b] for a, b in zip([0, *ends], ends)]


def synthesize(inst: ContinuousInstance, grid: TriGrid, dplan: DiscretePlan,
               snap_s: SnapResult, snap_g: SnapResult) -> ContinuousPlan:
    """Timed piecewise-linear trajectories for the full three-phase plan.

    The grid phase keeps a breakpoint only where a disc starts or stops
    moving, and at its end.  A snap-in or snap-out point is kept when its
    time exceeds the disc's previous one by more than 1e-15 or its
    position differs."""
    n = inst.n
    if dplan.n != n:
        raise SynthesisError("plan robot count differs from instance")
    if dplan.positions[0].tolist() != list(snap_s.assignment):
        raise SynthesisError("plan does not start at the snapped start vertices")
    if dplan.positions[-1].tolist() != list(snap_g.assignment):
        raise SynthesisError("plan does not end at the snapped goal vertices")

    t_in = snap_s.d_max
    makespan = t_in + dplan.T * EDGE_LEN + snap_g.d_max

    # step 0 is the snap-in point
    body = [p[1:] for p in _grid_rows(grid, dplan, t_in)]
    paths = []
    for r in range(n):
        s, g = inst.starts[r], inst.goals[r]
        e = grid.vertices[snap_s.assignment[r]]
        head = [(0.0, s.x, s.y)]
        if t_in > 1e-15 or (s.x, s.y) != (e.x, e.y):
            head.append((t_in, e.x, e.y))
        lt, lx, ly = body[r][-1].tolist() if dplan.T else head[-1]
        tail = []
        if makespan > lt + 1e-15 or (lx, ly) != (g.x, g.y):
            tail.append((makespan, g.x, g.y))
        paths.append(np.concatenate(
            (np.array(head), body[r], np.array(tail).reshape(-1, 3))))
    return ContinuousPlan(paths, makespan)


def synthesize_discrete(grid: TriGrid, dplan: DiscretePlan) -> ContinuousPlan:
    """Trajectories for a purely discrete instance (endpoints on vertices),
    with breakpoints at the first and last step and where a disc starts
    or stops moving."""
    return ContinuousPlan(_grid_rows(grid, dplan, 0.0), dplan.T * EDGE_LEN)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of (2, ...) coordinate planes, x term first."""
    return a[0] * b[0] + a[1] * b[1]


def closest_approach(dp: np.ndarray, dv: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closest approach of two linearly moving discs whose offset goes
    from ``dp`` to ``dp + dv`` over t in [0, 1], on (2, ...) coordinate
    planes.  The squared distance is quadratic in t, so its minimum is
    the least of ``d0`` (t = 0), ``dm`` (the clamped minimizer ``tt``)
    and ``d1`` (t = 1); returns those three squared distances and ``tt``."""
    vv = _dot(dv, dv)
    d0 = _dot(dp, dp)
    pe = dp + dv
    d1 = _dot(pe, pe)
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = np.clip(np.where(vv > 0, -_dot(dp, dv) / vv, 0.0), 0.0, 1.0)
    pm = dp + tt * dv
    dm = _dot(pm, pm)
    return d0, dm, d1, tt


def _near_pairs(lo: np.ndarray, hi: np.ndarray, bound: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Disc pairs ``i < j``, in lexicographic order, whose boxes
    ``lo[:, r]``..``hi[:, r]`` lie at most ``bound`` apart.  Sort and
    sweep along x: in ``lo[0]`` order, the boxes that start within
    ``bound`` of a box's end follow it in one run."""
    n = lo.shape[1]
    order = np.argsort(lo[0])
    lo, hi = lo[:, order], hi[:, order]
    end = np.searchsorted(lo[0], hi[0] + bound, side="right")
    count = np.maximum(end - np.arange(1, n + 1), 0)
    a = np.repeat(np.arange(n), count)
    b = np.arange(len(a)) + np.repeat(np.arange(1, n + 1) - np.cumsum(count)
                                      + count, count)
    lo_a, hi_a = lo.take(a, axis=1), hi.take(a, axis=1)
    lo_b, hi_b = lo.take(b, axis=1), hi.take(b, axis=1)
    gap = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
    near = _dot(gap, gap) <= bound * bound
    i, j = order[a[near]], order[b[near]]
    key = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return key // n, key % n


def validate(plan: ContinuousPlan, ws: Workspace) -> ValidationReport:
    """Exact pairwise minimum distances over all common linear windows,
    plus boundary clearance of 1 for every breakpoint (segments stay
    inside by convexity)."""
    n = len(plan.paths)
    rows = np.concatenate(plan.paths) if n else np.empty((0, 3))
    x, y = rows[:, 1], rows[:, 2]
    boundary_ok = not (rows.size and np.min((x, y, ws.w - x, ws.h - y))
                       < 1.0 - TOL)

    if n < 2:
        return ValidationReport(min_pair_clearance=math.inf, violations=[],
                                boundary_ok=boundary_ok)

    times = np.unique(rows[:, 0]).tolist()
    merged = [times[0]]
    for t in times[1:]:
        if t - merged[-1] > 1e-12:
            merged.append(t)
    times_arr = np.array(merged)
    pos = np.empty((2, n, len(merged)))     # x and y planes
    for r, p in enumerate(plan.paths):
        pos[0, r] = np.interp(times_arr, p[:, 0], p[:, 1])
        pos[1, r] = np.interp(times_arr, p[:, 0], p[:, 2])

    min_clear = math.inf
    violations: list[tuple[tuple[int, int], float, float]] = []
    w = len(merged) - 1
    for k0 in ([0, *range(1, w, CHUNK_WINDOWS)] if w else []):
        k1 = 1 if k0 == 0 else min(k0 + CHUNK_WINDOWS, w)
        chunk = pos[:, :, k0:k1 + 1]
        bound = max(CONTACT + 1e-6, min_clear) + BROAD_SLACK
        pi, pj = _near_pairs(chunk.min(axis=2), chunk.max(axis=2), bound)
        # offsets, shape (2, pairs, windows + 1)
        d = chunk.take(pj, axis=1) - chunk.take(pi, axis=1)
        a, b = d[:, :, :-1], d[:, :, 1:]
        gap = np.maximum(np.maximum(np.minimum(a, b), -np.maximum(a, b)), 0.0)
        # window-major, then pair order, as a per-window loop finds them
        kk, ss = np.nonzero((_dot(gap, gap) <= bound * bound).T)
        if not len(kk):
            continue
        first = ss * (k1 - k0 + 1) + kk     # flat index of the window start
        dp = d.reshape(2, -1).take(first, axis=1)
        dv = d.reshape(2, -1).take(first + 1, axis=1) - dp
        d0, dm, d1, tt = closest_approach(dp, dv)
        dmin = np.sqrt(np.minimum(np.minimum(d0, dm), d1))
        min_clear = min(min_clear, float(dmin.min()))
        bad = np.nonzero(dmin < CONTACT - TOL)[0]
        if not len(bad):
            continue
        which = np.argmin(np.stack([d0[bad], dm[bad], d1[bad]]), axis=0)
        tbest = np.choose(which, [0.0, tt[bad], 1.0])
        k = k0 + kk[bad]
        when = times_arr[k] + tbest * (times_arr[k + 1] - times_arr[k])
        for i, j, t, dist in zip(pi[ss[bad]].tolist(), pj[ss[bad]].tolist(),
                                 when.tolist(), dmin[bad].tolist()):
            violations.append(((i, j), t, dist))

    return ValidationReport(min_pair_clearance=min_clear,
                            violations=violations, boundary_ok=boundary_ok)


@dataclass
class MetricsAggregate:
    per_instance: list[float]
    aggregate: float


def optimality_metrics(step_counts: list[tuple[int, int]]) -> MetricsAggregate:
    """Ratios from (achieved, lower bound) discrete step counts.

    Aggregate = sum of achieved / sum of lower bounds; all-identity
    suites (zero denominators) report 1.0 by convention, and an empty
    suite (every instance failed) reports nan: it has no ratio.
    """
    per = []
    for t, t_hat in step_counts:
        per.append(1.0 if t_hat == 0 else t / t_hat)
    total_hat = sum(t_hat for _, t_hat in step_counts)
    total = sum(t for t, _ in step_counts)
    if not step_counts:
        agg = math.nan
    elif total_hat == 0:
        agg = 1.0
    else:
        agg = total / total_hat
    return MetricsAggregate(per_instance=per, aggregate=agg)
