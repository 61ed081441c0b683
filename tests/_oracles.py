"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: joint-state BFS
for optimal makespans, brute-force nearest vertices, dense time sampling
and a one-pair-at-a-time formula for minimum distances, an all-pairs
separation check, a from-scratch lattice enumeration, the per-corner
sharp-angle rows, a direct search for the snap-phase clearance infimum,
the ILP's original goal-subset walk search, the permutation search
that regenerates the planner's table of swap rotation words, a
one-step-per-move replay of the planner's logical moves, the
planner's greedy circulations as a loop over every ring turn, and an
integer program that decides whether the planner's first phase has an
exact row assignment.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

EDGE = 4.0 / math.sqrt(3.0)
SNAP_SEPARATION = 8.0 / 3.0


def brute_nearest(grid, p) -> int:
    """Scan every vertex; ties broken by lowest id."""
    best = None
    for vid, q in enumerate(grid.vertices):
        d = math.hypot(q.x - p.x, q.y - p.y)
        if best is None or d < best[0] - 1e-9:
            best = (d, vid)
    return best[1]


def reference_separation(inst) -> tuple[list, list]:
    """(start, goal) pairs (i, j, distance) at distance <= 8/3, every pair
    compared."""
    out = ([], [])
    for points, found in zip((inst.starts, inst.goals), out):
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                d = points[i].dist(points[j])
                if d <= SNAP_SEPARATION:
                    found.append((i, j, d))
    return out


def sampled_min_distance(a0, a1, b0, b1, samples: int = 10_000) -> float:
    """Dense time sampling of the pair distance for linear motions."""
    t = np.linspace(0.0, 1.0, samples)
    ax = a0[0] + t * (a1[0] - a0[0])
    ay = a0[1] + t * (a1[1] - a0[1])
    bx = b0[0] + t * (b1[0] - b0[0])
    by = b0[1] + t * (b1[1] - b0[1])
    return float(np.min(np.hypot(bx - ax, by - ay)))


class MovingDisc(NamedTuple):
    """Unit disc translating from start to end over common t in [0, 1];
    the points are anything with ``x`` and ``y``."""

    start: object
    end: object


def min_pair_distance(a: MovingDisc, b: MovingDisc) -> float:
    """Exact minimum center distance over the shared parameter interval,
    one pair at a time: the squared distance is quadratic in t, so
    evaluate it at both ends and at the unconstrained minimizer when
    that lies inside."""
    dpx = b.start.x - a.start.x
    dpy = b.start.y - a.start.y
    dvx = (b.end.x - b.start.x) - (a.end.x - a.start.x)
    dvy = (b.end.y - b.start.y) - (a.end.y - a.start.y)
    vv = dvx * dvx + dvy * dvy
    best = min(math.hypot(dpx, dpy), math.hypot(dpx + dvx, dpy + dvy))
    if vv > 0.0:
        t = -(dpx * dvx + dpy * dvy) / vv
        if 0.0 < t < 1.0:
            best = min(best, math.hypot(dpx + t * dvx, dpy + t * dvy))
    return best


def lattice_count(n1: int, n2: int) -> int:
    """Count triangular-lattice points in [1, w-1] x [1, h-1] directly
    (vertical columns two apart, odd columns offset by half an edge)."""
    w = 4 * n1 + 2
    h = EDGE * n2 + 2
    count = 0
    m = 0
    while True:
        x = 1 + 2 * m
        if x > w - 1 + 1e-9:
            break
        off = EDGE / 2 if m % 2 else 0.0
        k = 0
        while 1 + off + k * EDGE <= h - 1 + 1e-9:
            count += 1
            k += 1
        m += 1
    return count


def _edge_tri_map(grid):
    m = {}
    for tid, (a, b, c) in enumerate(grid.triangles):
        for e in ((a, b), (a, c), (b, c)):
            m.setdefault(e, []).append(tid)
    return m


def _legal_transition(grid, cur, nxt, etri) -> bool:
    if len(set(nxt)) != len(nxt):
        return False
    moves = []
    for u, v in zip(cur, nxt):
        if u == v:
            continue
        moves.append((u, v))
    directed = set(moves)
    for u, v in moves:
        if (v, u) in directed:
            return False
    seen_tris = set()
    for u, v in moves:
        for tid in etri.get((min(u, v), max(u, v)), ()):
            if tid in seen_tris:
                return False
            seen_tris.add(tid)
    return True


def joint_bfs_makespan(grid, starts, goals, cap: int = 40) -> int | None:
    """Optimal synchronous makespan by BFS over joint robot states."""
    start, goal = tuple(starts), tuple(goals)
    if start == goal:
        return 0
    etri = _edge_tri_map(grid)
    options = [[v] + grid.adjacency[v] for v in range(grid.n_vertices)]
    seen = {start}
    frontier = [start]
    for depth in range(1, cap + 1):
        nxt_frontier = []
        for cur in frontier:
            for nxt in itertools.product(*(options[u] for u in cur)):
                if nxt in seen:
                    continue
                if not _legal_transition(grid, cur, nxt, etri):
                    continue
                if nxt == goal:
                    return depth
                seen.add(nxt)
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
        if not frontier:
            return None
    return None


def column_of(model) -> dict[tuple[int, int, int, int], int]:
    """(robot, i, j, t) -> column, read from the model's column array."""
    return {tuple(v): c for c, v in enumerate(model.variables.tolist())}


def model_rows(model) -> list[tuple[list[tuple[int, int]], str, int]]:
    """The model's constraint rows as (terms, sense, rhs), each term a
    (coefficient, column) pair, read term by term from the COO arrays."""
    from triroute.ilp import SENSES

    rows = model.constraints
    out = [([], SENSES[s], rhs)
           for s, rhs in zip(rows.sense.tolist(), rows.rhs.tolist())]
    for k, c, coef in zip(rows.row.tolist(), rows.col.tolist(),
                          rows.coef.tolist()):
        out[k][0].append((coef, c))
    return out


class SharpAngle(NamedTuple):
    """A 60-degree corner: edges (apex, arm1) and (apex, arm2)."""

    apex: int
    arm1: int
    arm2: int


def enumerate_sharp_angles(grid) -> list[SharpAngle]:
    """All 60-degree corners: three per triangle, one at each vertex."""
    out = []
    for i, j, k in grid.triangles:
        out += [SharpAngle(i, j, k), SharpAngle(j, i, k), SharpAngle(k, i, j)]
    return out


def sharp_angle_rows(model) -> list[tuple[list[tuple[int, int]], str, int]]:
    """The per-angle exclusion family (one row per 60-degree corner).

    Any assignment satisfying the ILP's per-triangle rows satisfies
    these, since an angle's two edges lie in its triangle.
    """
    index = column_of(model)
    rows = []
    n = model.n
    for t in range(model.T):
        for ang in enumerate_sharp_angles(model.inst.grid):
            terms = []
            for r in range(n):
                for (u, v) in ((ang.apex, ang.arm1), (ang.arm1, ang.apex),
                               (ang.apex, ang.arm2), (ang.arm2, ang.apex)):
                    col = index.get((r, u, v, t))
                    if col is not None:
                        terms.append((1, col))
            if len(terms) > 1:
                rows.append((terms, "<=", 1))
    return rows


def _reference_walks(model, index, r) -> list[tuple[int, ...]]:
    """All vertex sequences robot r can follow through existing columns."""
    grid = model.inst.grid
    out: list[tuple[int, ...]] = []
    closed = [sorted([v] + grid.adjacency[v]) for v in range(grid.n_vertices)]

    def extend(prefix: list[int]) -> None:
        t = len(prefix) - 1
        if t == model.T:
            out.append(tuple(prefix))
            return
        u = prefix[-1]
        for v in closed[u]:
            if (r, u, v, t) in index:
                prefix.append(v)
                extend(prefix)
                prefix.pop()

    extend([model.inst.v_starts[r]])
    return out


def _compatible(w1, w2, etri) -> bool:
    for t in range(len(w1)):
        if w1[t] == w2[t]:
            return False
    for t in range(len(w1) - 1):
        a0, a1 = w1[t], w1[t + 1]
        b0, b1 = w2[t], w2[t + 1]
        if a0 == b1 and a1 == b0:
            return False
        if a0 != a1 and b0 != b1:
            t1 = etri.get((min(a0, a1), max(a0, a1)))
            t2 = etri.get((min(b0, b1), max(b0, b1)))
            if t1 and t2 and set(t1) & set(t2):
                return False
    return True


def reference_exhaustive(model) -> tuple[dict[int, int], int]:
    """The exhaustive backend as first written: walks sorted by (moves,
    sequence), robots ordered by walk count, and goal subsets tried from
    largest to smallest with a pairwise compatibility test per candidate.
    Returns (column -> 0/1, the number of robots whose walk ends at the
    goal), or ({}, -1) when even the empty subset fails."""
    index = column_of(model)
    etri = _edge_tri_map(model.inst.grid)
    n, goals = model.n, model.inst.v_goals

    def walk_key(w):
        return (sum(1 for a, b in zip(w, w[1:]) if a != b), w)

    all_walks = [sorted(_reference_walks(model, index, r), key=walk_key)
                 for r in range(n)]
    if any(not w for w in all_walks):
        return {}, -1
    order = sorted(range(n), key=lambda r: len(all_walks[r]))

    def search(require_goal):
        chosen = {}

        def rec(k):
            if k == len(order):
                return True
            r = order[k]
            for w in all_walks[r]:
                if require_goal[r] and w[-1] != goals[r]:
                    continue
                if all(_compatible(w, cw, etri) for cw in chosen.values()):
                    chosen[r] = w
                    if rec(k + 1):
                        return True
                    del chosen[r]
            return False

        return chosen if rec(0) else None

    for k in range(n, -1, -1):
        for subset in itertools.combinations(range(n), k):
            found = search({r: (r in subset) for r in range(n)})
            if found is None:
                continue
            assignment = {c: 0 for c in range(len(model.variables))}
            for r, w in found.items():
                for t in range(model.T):
                    assignment[index[(r, w[t], w[t + 1], t)]] = 1
            return assignment, sum(1 for r, w in found.items()
                                   if w[-1] == goals[r])
    return {}, -1


class SnapInfimum(NamedTuple):
    """Infimum of the snap-phase clearance and a configuration attaining
    it: s_i moves to the origin, s_j moves to v_j."""

    infimum: float
    s_i: np.ndarray
    s_j: np.ndarray
    v_j: np.ndarray


def _lattice_near_origin(radius: float) -> np.ndarray:
    """Every lattice vertex a*(EDGE, 0) + b*(EDGE/2, 2) within radius."""
    k = int(math.ceil(radius / 2.0)) + 1
    pts = [(a * EDGE + b * EDGE / 2.0, 2.0 * b)
           for b in range(-k, k + 1) for a in range(-2 * k, 2 * k + 1)]
    pts = np.array(pts)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius]


def _snap_clearance(s_i, s_j, v_j) -> np.ndarray:
    """Center distance minus 2 for s_i -> origin and s_j -> v_j over a
    common t in [0, 1], from the clamped minimizer of the quadratic."""
    dp = s_j - s_i
    dv = (v_j - s_j) + s_i
    vv = np.einsum("...i,...i->...", dv, dv)
    t = -np.einsum("...i,...i->...", dp, dv) / np.where(vv > 0.0, vv, 1.0)
    m = dp + np.clip(t, 0.0, 1.0)[..., None] * dv
    return np.sqrt(np.einsum("...i,...i->...", m, m)) - 2.0


def snap_clearance_infimum() -> SnapInfimum:
    """Infimum of the snap-phase clearance at separation exactly 8/3.

    s_i ranges over the closed fundamental wedge (lattice vertex at the
    origin, edge midpoint (EDGE/2, 0), centroid (EDGE/2, 2/3)) and snaps
    to the origin; s_j sits at distance 8/3 from s_i and snaps to any
    nearest lattice vertex but the origin.  Parametrize s_i = p*(EDGE/2,
    q*2/3) with (p, q) in [0, 1]^2 and s_j by its angle around s_i; run a
    16 x 16 x 720 grid search keeping the best point per target vertex,
    then around each zoom a 9^3 grid that shrinks by 0.6 per step.  The
    target stays fixed while zooming and points where it is no longer
    nearest are dropped, so limits on Voronoi edges (ties) are reached
    from the admissible side.
    """
    # |s_i| <= 4/3 and a nearest vertex is within 4/3 of s_j
    verts = _lattice_near_origin(4.0 / 3.0 + SNAP_SEPARATION + 4.0 / 3.0
                                 + 0.1)
    n_wedge, n_angle = 16, 720

    def place(p, q, theta):
        """Positions of both discs and the mask of nearest targets."""
        s_i = np.stack([p * EDGE / 2.0, p * q * 2.0 / 3.0], axis=-1)
        s_j = s_i + SNAP_SEPARATION * np.stack([np.cos(theta),
                                                np.sin(theta)], axis=-1)
        d = np.linalg.norm(s_j[:, None, :] - verts[None, :, :], axis=-1)
        return s_i, s_j, d <= d.min(axis=1, keepdims=True) + 1e-12

    p, q, theta = (g.ravel() for g in np.meshgrid(
        np.linspace(0.0, 1.0, n_wedge), np.linspace(0.0, 1.0, n_wedge),
        np.arange(n_angle) * (2.0 * math.pi / n_angle), indexing="ij"))
    s_i, s_j, nearest = place(p, q, theta)
    starts = []
    for k in np.nonzero(nearest.any(axis=0) & verts.any(axis=1))[0]:
        idx = np.nonzero(nearest[:, k])[0]
        c = _snap_clearance(s_i[idx], s_j[idx], verts[k])
        best = idx[int(np.argmin(c))]
        starts.append((k, np.array([p[best], q[best], theta[best]])))

    offsets = np.linspace(-1.0, 1.0, 9)
    result = None
    for k, x in starts:
        h = 2.0 * np.array([1.0 / (n_wedge - 1), 1.0 / (n_wedge - 1),
                            2.0 * math.pi / n_angle])
        value = math.inf
        for _ in range(40):
            axes = [np.clip(x[0] + h[0] * offsets, 0.0, 1.0),
                    np.clip(x[1] + h[1] * offsets, 0.0, 1.0),
                    x[2] + h[2] * offsets]
            zoom = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
            z_i, z_j, z_nearest = place(*zoom)
            c = np.where(z_nearest[:, k],
                         _snap_clearance(z_i, z_j, verts[k]), np.inf)
            i = int(np.argmin(c))
            if c[i] <= value:
                value = float(c[i])
                x = np.array([z[i] for z in zoom])
                witness = (z_i[i], z_j[i])
            h *= 0.6
        if result is None or value < result.infimum:
            result = SnapInfimum(value, witness[0], witness[1],
                                 verts[k].copy())
    return result


class ReferenceValidation(NamedTuple):
    min_pair_clearance: float
    violations: list      # ((i, j), time, distance) in (window, pair) order
    boundary_ok: bool


def _reference_positions(trajectories, times: np.ndarray) -> np.ndarray:
    """(n, len(times), 2) positions by linear interpolation."""
    out = np.empty((len(trajectories), len(times), 2))
    for r, pts in enumerate(trajectories):
        ts = np.array([t for t, _ in pts])
        out[r, :, 0] = np.interp(times, ts, np.array([p.x for _, p in pts]))
        out[r, :, 1] = np.interp(times, ts, np.array([p.y for _, p in pts]))
    return out


def reference_validate(plan, ws) -> ReferenceValidation:
    """Plan validation by a per-window loop over all disc pairs, on the
    (time, point) lists: merged breakpoint times, the closest approach of
    every pair in every window, and a boundary check per breakpoint.  A
    pair is skipped in a window only when its start distance minus its
    relative motion exceeds max(2 + 1e-6, minimum so far)."""
    trajectories = plan.trajectories
    n = len(trajectories)
    boundary_ok = not any(min(p.x, p.y, ws.w - p.x, ws.h - p.y) < 1.0 - 1e-9
                          for pts in trajectories for _, p in pts)
    if n < 2:
        return ReferenceValidation(math.inf, [], boundary_ok)

    times = sorted({t for pts in trajectories for t, _ in pts})
    merged = [times[0]]
    for t in times[1:]:
        if t - merged[-1] > 1e-12:
            merged.append(t)
    pos = _reference_positions(trajectories, np.array(merged))

    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    pi, pj = pairs[:, 0], pairs[:, 1]
    min_clear = math.inf
    violations = []
    for k in range(len(merged) - 1):
        a0, a1 = pos[:, k, :], pos[:, k + 1, :]
        dp = a0[pj] - a0[pi]
        dv = (a1[pj] - a1[pi]) - dp
        cand = (np.linalg.norm(dp, axis=1) - np.linalg.norm(dv, axis=1)
                <= max(2.0 + 1e-6, min_clear))
        if not np.any(cand):
            continue
        dpc, dvc = dp[cand], dv[cand]
        vv = np.einsum("ij,ij->i", dvc, dvc)
        d0 = np.einsum("ij,ij->i", dpc, dpc)
        pe = dpc + dvc
        d1 = np.einsum("ij,ij->i", pe, pe)
        tt = np.where(vv > 0, -np.einsum("ij,ij->i", dpc, dvc)
                      / np.where(vv > 0, vv, 1.0), 0.0)
        tt = np.clip(tt, 0.0, 1.0)
        pm = dpc + tt[:, None] * dvc
        dm = np.einsum("ij,ij->i", pm, pm)
        all3 = np.stack([d0, dm, d1])
        which = np.argmin(all3, axis=0)
        dmin = np.sqrt(all3[which, np.arange(all3.shape[1])])
        tbest = np.choose(which, [np.zeros_like(tt), tt, np.ones_like(tt)])
        idxs = np.nonzero(cand)[0]
        min_clear = min(min_clear, float(dmin.min()))
        for bk in np.nonzero(dmin < 2.0 - 1e-9)[0]:
            g = idxs[bk]
            violations.append(((int(pi[g]), int(pj[g])),
                               merged[k] + float(tbest[bk])
                               * (merged[k + 1] - merged[k]),
                               float(dmin[bk])))
    return ReferenceValidation(min_clear, violations, boundary_ok)


def reference_format_continuous_plan(plan) -> str:
    """The continuous plan text, one ``repr`` per float, from the
    (time, point) lists."""
    lines = ["plan 1 continuous", f"robots {len(plan.trajectories)}"]
    for r, pts in enumerate(plan.trajectories):
        lines.append(f"disc {r + 1} {len(pts)}")
        for t, p in pts:
            lines.append(f"pt {t!r} {p.x!r} {p.y!r}")
    return "\n".join(lines) + "\n"


def reference_synthesize(inst, grid, dplan, snap_s, snap_g, dense=False):
    """Per disc the (time, point) breakpoints of the three-phase plan, one
    point at a time.  A grid step's point is kept at the last step and
    where the disc arrives at or leaves its vertex, or at every step when
    ``dense``; that and the snap-in and snap-out points are then kept
    when their time exceeds the previous one's by more than 1e-15 or
    their position differs."""
    steps = dplan.steps
    T = len(steps) - 1
    t_in = snap_s.d_max
    makespan = t_in + T * EDGE + snap_g.d_max
    out = []
    for r in range(len(steps[0])):
        pts = [(0.0, inst.starts[r])]

        def append(t, p):
            lt, lp = pts[-1]
            if t > lt + 1e-15 or (lp.x, lp.y) != (p.x, p.y):
                pts.append((t, p))

        append(t_in, grid.vertices[snap_s.assignment[r]])
        for k in range(1, T + 1):
            v = steps[k][r]
            if (dense or k == T or v != steps[k - 1][r]
                    or v != steps[k + 1][r]):
                append(t_in + k * EDGE, grid.vertices[v])
        append(makespan, inst.goals[r])
        if pts[-1][0] < makespan - 1e-15:
            pts.append((makespan, inst.goals[r]))
        out.append(pts)
    return out


def dense_discrete_paths(grid, steps) -> list[np.ndarray]:
    """Per disc a ``(T + 1, 3)`` array ``(k * EDGE, vertex)`` with a
    breakpoint at every step k of a discrete plan: a valid input for
    ``validate`` with as many windows per disc as the plan has steps."""
    pos = np.asarray(steps, dtype=int).reshape(len(steps), -1)
    xy = np.array([(p.x, p.y) for p in grid.vertices])
    block = np.empty((pos.shape[1], len(pos), 3))
    block[:, :, 0] = np.arange(len(pos)) * EDGE
    block[:, :, 1:] = xy[pos.T]
    return list(block)


def replay_logical_steps(starts, steps, n_vertices: int) -> np.ndarray:
    """Rows of real disc vertices, one per logical step: each step is a
    list of simultaneous (from, to) vertex moves, of which only those
    leaving a vertex held by a real disc move anything."""
    occ = [-1] * n_vertices
    for d, v in enumerate(starts):
        occ[v] = d
    rows = [list(starts)]
    for moves in steps:
        real = [(occ[u], v) for u, v in moves if occ[u] != -1]
        for u, _ in moves:
            occ[u] = -1
        row = list(rows[-1])
        for d, v in real:
            if occ[v] != -1:
                raise ValueError(f"two discs enter vertex {v}")
            occ[v] = d
            row[d] = v
        rows.append(row)
    return np.array(rows, dtype=int).reshape(len(rows), len(starts))


def occupant_orders(positions, n_vertices: int) -> list[tuple[int, ...]]:
    """Per vertex, its successive occupants over the plan rows (-1 while
    empty), each run of equal entries written once."""
    pos = np.asarray(positions)
    occ = np.full((len(pos), n_vertices), -1)
    occ[np.arange(len(pos))[:, None], pos] = np.arange(pos.shape[1])
    return [tuple(col[np.r_[True, col[1:] != col[:-1]]].tolist())
            for col in occ.T]


def reference_format_discrete_plan(steps) -> str:
    """The discrete plan text from per-step rows of vertex ids."""
    lines = ["plan 1 discrete", f"robots {len(steps[0]) if steps else 0}",
             f"steps {len(steps)}"]
    for t, row in enumerate(steps):
        lines.append("step " + str(t) + " " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def max_segment_speed(plan) -> float:
    """Fastest segment speed over all discs, 0 for a plan without motion."""
    if not plan.paths:
        return 0.0
    d = np.diff(np.concatenate(plan.paths), axis=0)
    # differences across the boundary between two discs are no segments
    inside = np.ones(len(d), dtype=bool)
    inside[np.cumsum([len(p) for p in plan.paths])[:-1] - 1] = False
    d = d[inside & (d[:, 0] > 0)]
    return float(np.max(np.hypot(d[:, 1], d[:, 2]) / d[:, 0], initial=0.0))


_SEARCH_CAP = 400_000


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def bidirectional_search(gens: list[tuple[object, tuple[int, ...]]],
                         start: tuple[int, ...], target: tuple[int, ...]
                         ) -> list[object] | None:
    """Shortest generator word mapping start to target (None if absent)."""
    if start == target:
        return []
    # a generator sends the disc on slot s to slot perm[s], so the next
    # state reads slot j from the inverse image of j
    fw_moves = [(tag, itemgetter(*_invert(p))) for tag, p in gens]
    bw_moves = [(tag, itemgetter(*p)) for tag, p in gens]
    fw: dict[tuple[int, ...], tuple] = {start: None}
    bw: dict[tuple[int, ...], tuple] = {target: None}
    fq, bq = deque([start]), deque([target])

    def path_fw(state) -> list[object]:
        out = []
        while fw[state] is not None:
            state, tag = fw[state]
            out.append(tag)
        return list(reversed(out))

    def path_bw(state) -> list[object]:
        out = []
        while bw[state] is not None:
            state, tag = bw[state]
            out.append(tag)
        return out

    while fq and bq:
        if len(fw) + len(bw) > _SEARCH_CAP:
            return None
        if len(fq) <= len(bq):
            for _ in range(len(fq)):
                st = fq.popleft()
                for tag, move in fw_moves:
                    ns = move(st)
                    if ns in fw:
                        continue
                    fw[ns] = (st, tag)
                    if ns in bw:
                        return path_fw(ns) + path_bw(ns)
                    fq.append(ns)
        else:
            for _ in range(len(bq)):
                st = bq.popleft()
                for tag, move in bw_moves:
                    ns = move(st)
                    if ns in bw:
                        continue
                    bw[ns] = (st, tag)
                    if ns in fw:
                        return path_fw(ns) + path_bw(ns)
                    bq.append(ns)
    return None


def ring_generators(rings, slots) -> list[tuple[tuple[int, int],
                                                tuple[int, ...]]]:
    """The four turns ((ring index, +1 or -1), slot permutation) of two
    counterclockwise rings over the sorted slot list."""
    idx = {v: i for i, v in enumerate(slots)}
    gens = []
    for which in (0, 1):
        for d in (1, -1):
            ring = rings[which]
            perm = list(range(len(slots)))
            for i, v in enumerate(ring):
                perm[idx[v]] = idx[ring[(i + d) % len(ring)]]
            gens.append(((which, d), tuple(perm)))
    return gens


# neighbours of an axial lattice point, counterclockwise like the rings
# of geometry.build_grid (from +30 degrees, half a turn after its first)
_HEX_RING = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))


def canonical_word(key: tuple) -> str | None:
    """Shortest word that swaps a and b and returns every other slot home,
    for a canonical shape key (c2, a, b): abstract axial rings around the
    origin ("A") and the partner center ("B"), written as the planner's
    table writes it ("A+" turns ring A one position counterclockwise)."""
    c2, a, b = key
    rings = [[(cq + dq, cr + dr) for dq, dr in _HEX_RING]
             for cq, cr in ((0, 0), c2)]
    slots = sorted(set(rings[0]) | set(rings[1]))
    idx = {v: i for i, v in enumerate(slots)}
    ident = tuple(range(len(slots)))
    tgt = list(ident)
    tgt[idx[a]], tgt[idx[b]] = tgt[idx[b]], tgt[idx[a]]
    word = bidirectional_search(ring_generators(rings, slots), ident,
                                tuple(tgt))
    if word is None:
        return None
    return "".join("AB"[which] + ("+" if d > 0 else "-") for which, d in word)


def _hops(adjacency, source: int) -> list[int]:
    """Breadth-first hop distances from source, -1 where unreachable."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_circulations(router, target_of: dict[int, int], cap: int
                           ) -> int:
    """The router's greedy circulations, one ring turn at a time: a
    turn's gain is summed disc by disc from each real disc's hop
    distances to its target, turns are ranked by (-gain, center, turn),
    and the best ones on disjoint rings (plus centers) run as one step
    through router.apply_step.  Returns the rounds run."""
    grid = router.grid
    dist = {d: _hops(grid.adjacency, tv) for d, tv in target_of.items()
            if d < router.n_real}
    steps = {}
    for c in sorted(grid.ring_of):
        ring = grid.ring_of[c]
        for dr in (1, -1):
            steps[c, dr] = [(v, ring[(i + dr) % len(ring)])
                            for i, v in enumerate(ring)]
    done = 0
    for _ in range(cap):
        options = []
        for (c, dr), step in steps.items():
            gain = 0
            for u, v in step:
                dt = dist.get(router.occ[u])
                if dt is not None:
                    gain += dt[u] - dt[v]
            if gain > 0:
                options.append((-gain, c, dr))
        if not options:
            break
        options.sort()
        used: set[int] = set()
        moves = []
        for _, c, dr in options:
            footprint = set(grid.ring_of[c]) | {c}
            if footprint & used:
                continue
            used |= footprint
            moves.extend(steps[c, dr])
        router.apply_step(moves)
        done += 1
    return done


def exact_row_assignment_exists(rows, column, ends) -> bool:
    """Whether the discs can be given rows so that every row receives,
    from each column and for each goal column, as many discs as it has
    vertices there: a feasibility MILP over one binary per (disc, row),
    ends mapping each disc to its (vertex, target)."""
    discs, n_rows = sorted(ends), len(rows)
    a, rhs = [], []
    for k, d in enumerate(discs):              # one row per disc
        row = np.zeros(len(discs) * n_rows)
        row[k * n_rows:(k + 1) * n_rows] = 1
        a.append(row)
        rhs.append(1)
    for r, path in enumerate(rows):
        for end in (0, 1):                     # by column, by goal column
            for m in sorted({column[v] for v in path}
                            | {column[e[end]] for e in ends.values()}):
                row = np.zeros(len(discs) * n_rows)
                for k, d in enumerate(discs):
                    if column[ends[d][end]] == m:
                        row[k * n_rows + r] = 1
                a.append(row)
                rhs.append(sum(column[v] == m for v in path))
    res = milp(np.zeros(len(discs) * n_rows),
               constraints=LinearConstraint(np.array(a), rhs, rhs),
               integrality=np.ones(len(discs) * n_rows), bounds=Bounds(0, 1))
    return res.status == 0
