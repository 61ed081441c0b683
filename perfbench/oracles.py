"""Checks of the pipeline's outputs that share no code with triroute.

Everything is recomputed from first principles: lattice coordinates by
direct enumeration, the neighbour relation from vertex distances, hop
distances by a local BFS, nearest vertices by a full scan, transition
legality from the plan rules, and pair clearance by dense time sampling
of piecewise-linear trajectories.  Optimality of ILP makespans is shown
by ``optimality.py`` with a time-expanded model of its own.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import math
import random

import numpy as np

EDGE = 4.0 / math.sqrt(3.0)
TOL = 1e-9
CONTACT = 2.0


def lattice_points(n1: int, n2: int) -> list[tuple[float, float]]:
    """Triangular-lattice points in [1, w-1] x [1, h-1], column-major:
    vertical columns two apart, odd columns offset by half an edge."""
    w, h = 4.0 * n1 + 2.0, EDGE * n2 + 2.0
    pts = []
    m = 0
    while 1.0 + 2.0 * m <= w - 1.0 + TOL:
        off = EDGE / 2.0 if m % 2 else 0.0
        k = 0
        while 1.0 + off + k * EDGE <= h - 1.0 + TOL:
            pts.append((1.0 + 2.0 * m, 1.0 + off + k * EDGE))
            k += 1
        m += 1
    return pts


class Lattice:
    """Neighbours and triangles of a vertex set, found from distances."""

    def __init__(self, coords: list[tuple[float, float]]):
        self.coords = np.asarray(coords, dtype=float)
        d = np.hypot(*(self.coords[:, None, :] - self.coords[None, :, :]).T)
        near = np.abs(d - EDGE) < 1e-6
        self.adj = [set(np.nonzero(row)[0].tolist()) for row in near]
        # triangles on each undirected edge, as sorted vertex triples
        self.edge_tris: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    self.edge_tris[(u, v)] = [
                        tuple(sorted((u, v, w))) for w in nbrs & self.adj[v]]

    @property
    def n(self) -> int:
        return len(self.adj)

    def hops(self, source: int) -> list[int]:
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def nearest(self, x: float, y: float) -> int:
        """Full scan; ties go to the lowest id."""
        d = np.hypot(self.coords[:, 0] - x, self.coords[:, 1] - y)
        return int(np.nonzero(d <= d.min() + TOL)[0][0])

    def lower_bound(self, starts, goals) -> int:
        """Largest single-robot hop distance, ignoring the others."""
        return max((self.hops(s)[g] for s, g in zip(starts, goals)),
                   default=0)


def transition_errors(lat: Lattice, t: int, cur, nxt) -> list[str]:
    """A synchronous step is legal when every robot stays or crosses one
    edge, positions stay distinct, no edge is crossed both ways, and no
    two moves lie on a common lattice triangle."""
    errors = []
    if len(set(nxt)) != len(nxt):
        errors.append(f"step {t}: two robots share a vertex")
    moves = [(u, v) for u, v in zip(cur, nxt) if u != v]
    for u, v in moves:
        if v not in lat.adj[u]:
            errors.append(f"step {t}: jump {u}->{v} is not an edge")
    directed = set(moves)
    if any((v, u) in directed for u, v in moves):
        errors.append(f"step {t}: head-on exchange")
    seen: set[tuple[int, int, int]] = set()
    for u, v in moves:
        tris = lat.edge_tris.get((min(u, v), max(u, v)), [])
        if seen & set(tris):
            errors.append(f"step {t}: two moves on one triangle")
        seen.update(tris)
    return errors


def check_discrete(lat: Lattice, starts, goals, steps, makespan: int,
                   lower_bound: int) -> list[str]:
    """Endpoints at the brute-force nearest vertices, every step legal,
    the reported makespan and lower bound match the plan and the hop
    distances, and the makespan is at least that lower bound."""
    errors = []
    v_starts = tuple(lat.nearest(p.x, p.y) for p in starts)
    v_goals = tuple(lat.nearest(p.x, p.y) for p in goals)
    if tuple(steps[0]) != v_starts:
        errors.append("discrete plan does not start at the nearest vertices")
    if tuple(steps[-1]) != v_goals:
        errors.append("discrete plan does not end at the nearest vertices")
    for t in range(len(steps) - 1):
        errors += transition_errors(lat, t, steps[t], steps[t + 1])
    if makespan != len(steps) - 1:
        errors.append(f"reported makespan {makespan} != plan length "
                      f"{len(steps) - 1}")
    lo = lat.lower_bound(v_starts, v_goals)
    if lower_bound != lo:
        errors.append(f"reported lower bound {lower_bound} != hop bound {lo}")
    if makespan < lo:
        errors.append(f"makespan {makespan} below the hop bound {lo}")
    return errors


def trajectory_arrays(trajectories) -> list[np.ndarray]:
    """Per disc a (K, 3) array of breakpoints (t, x, y)."""
    return [np.array([(t, p.x, p.y) for t, p in pts]) for pts in trajectories]


def check_continuous(lat: Lattice, arrays, starts, goals, steps,
                     w: float, h: float) -> list[str]:
    """Speed at most 1, endpoints on the instance, breakpoints at
    clearance 1 from the walls, and the grid phase passing through the
    discrete plan's vertices one edge length of time apart."""
    errors = []
    snap_in = max(math.dist((p.x, p.y), lat.coords[v])
                  for p, v in zip(starts, steps[0]))
    snap_out = max(math.dist((p.x, p.y), lat.coords[v])
                   for p, v in zip(goals, steps[-1]))
    makespan = snap_in + (len(steps) - 1) * EDGE + snap_out
    grid_times = snap_in + EDGE * np.arange(len(steps))
    visits = np.asarray(steps)
    for r, a in enumerate(arrays):
        t, xy = a[:, 0], a[:, 1:]
        if abs(t[0]) > TOL or np.hypot(*(xy[0] - (starts[r].x, starts[r].y))) > TOL:
            errors.append(f"disc {r}: does not start at its start at time 0")
        if (abs(t[-1] - makespan) > 1e-7
                or np.hypot(*(xy[-1] - (goals[r].x, goals[r].y))) > TOL):
            errors.append(f"disc {r}: does not end at its goal at {makespan}")
        dt = np.diff(t)
        step = np.hypot(*np.diff(xy, axis=0).T)
        if np.any(dt < 0) or np.any(step > dt + 1e-9):
            errors.append(f"disc {r}: speed above 1 or time running back")
        if (xy.min() < 1.0 - TOL or xy[:, 0].max() > w - 1.0 + TOL
                or xy[:, 1].max() > h - 1.0 + TOL):
            errors.append(f"disc {r}: closer than 1 to a wall")
        at = np.stack([np.interp(grid_times, t, xy[:, 0]),
                       np.interp(grid_times, t, xy[:, 1])], axis=1)
        if np.abs(at - lat.coords[visits[:, r]]).max() > 1e-7:
            errors.append(f"disc {r}: grid phase leaves the discrete plan")
    return errors


def _positions(arrays, times: np.ndarray) -> np.ndarray:
    """(n, len(times), 2) positions by linear interpolation."""
    out = np.empty((len(arrays), len(times), 2))
    for r, a in enumerate(arrays):
        out[r, :, 0] = np.interp(times, a[:, 0], a[:, 1])
        out[r, :, 1] = np.interp(times, a[:, 0], a[:, 2])
    return out


def sampled_clearance(arrays, samples: int, windows: int | None = None,
                      seed: int = 0, chunk: int = 200_000) -> float:
    """Smallest centre distance seen by dense time sampling.

    Windows run between consecutive breakpoint times of any disc.  With
    ``windows`` None every window and every pair is sampled; otherwise a
    seeded choice of that many windows, each over the pairs that could
    come within contact range in it.  ``chunk`` bounds the array sizes.
    """
    bounds = np.unique(np.concatenate([a[:, 0] for a in arrays]))
    ks = range(len(bounds) - 1)
    if windows is not None and windows < len(ks):
        ks = sorted(random.Random(seed).sample(ks, windows))
    n = len(arrays)
    iu, ju = np.triu_indices(n, 1)
    frac = np.linspace(0.0, 1.0, samples)
    best = math.inf
    per_window = max(1, chunk // (samples * (n if windows else len(iu))))
    ks = list(ks)
    for c in range(0, len(ks), per_window):
        sel = ks[c:c + per_window]
        lo, hi = bounds[sel], bounds[[k + 1 for k in sel]]
        times = (lo[:, None] + frac[None, :] * (hi - lo)[:, None]).ravel()
        pos = _positions(arrays, times).reshape(n, len(sel), samples, 2)
        for w in range(len(sel)):
            p = pos[:, w]
            pi, pj = iu, ju
            if windows is not None:
                reach = np.hypot(*(p[:, -1] - p[:, 0]).T)
                gap = np.hypot(*(p[pj, 0] - p[pi, 0]).T)
                near = gap - reach[pi] - reach[pj] < CONTACT + 0.5
                pi, pj = pi[near], pj[near]
            if len(pi):
                d = np.hypot(*(p[pj] - p[pi]).transpose(2, 0, 1))
                best = min(best, float(d.min()))
    return best


def check_clearance(arrays, reported: float, samples: int,
                    windows: int | None = None, seed: int = 0) -> list[str]:
    """Dense sampling finds no pair closer than the reported minimum
    clearance, and none in contact."""
    seen = sampled_clearance(arrays, samples, windows, seed)
    errors = []
    if seen < reported - 1e-9:
        errors.append(f"sampling found distance {seen:.9f} below the "
                      f"reported minimum {reported:.9f}")
    if seen < CONTACT - 1e-9:
        errors.append(f"sampling found discs in contact ({seen:.9f} < 2)")
    return errors
