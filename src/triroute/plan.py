"""Synchronous discrete plans on the triangular grid and their legality rules.

A plan is one ``(T + 1, n)`` integer array: row t holds every robot's
vertex at step t.  ``DiscretePlan.steps`` rebuilds the rows as tuples
for readers that want them.  A step is legal when per-robot motion is
along an edge or a stay, positions stay injective, no edge is crossed
in both directions at once, and no two robots move within the same
lattice triangle (the sharp-angle exclusion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TriGrid


def _positions(steps) -> np.ndarray:
    """Rows of vertex ids as a ``(len(steps), n)`` intp array."""
    a = np.array(steps, dtype=np.intp)
    return a.reshape(len(a), -1) if len(a) else a.reshape(0, 0)


@dataclass(eq=False)
class DiscretePlan:
    positions: np.ndarray   # (T + 1, n) intp: positions[t, r] = vertex of
                            # robot r at step t

    @classmethod
    def from_steps(cls, steps) -> DiscretePlan:
        """A plan from per-step rows of vertex ids."""
        return cls(_positions(steps))

    @property
    def steps(self) -> list[tuple[int, ...]]:
        """Per step the tuple of robot vertices, built from the array on
        every access; assigning rows replaces the array."""
        return [tuple(row) for row in self.positions.tolist()]

    @steps.setter
    def steps(self, steps) -> None:
        self.positions = _positions(steps)

    @property
    def T(self) -> int:
        return len(self.positions) - 1

    @property
    def n(self) -> int:
        return self.positions.shape[1]


def _edge_triangle_map(grid: TriGrid) -> dict[tuple[int, int], list[int]]:
    m: dict[tuple[int, int], list[int]] = {}
    for tid, (a, b, c) in enumerate(grid.triangles):
        for e in ((a, b), (a, c), (b, c)):
            m.setdefault(e, []).append(tid)
    return m


def check_plan(grid: TriGrid, plan: DiscretePlan,
               v_starts: tuple[int, ...] | None = None,
               v_goals: tuple[int, ...] | None = None) -> list[str]:
    """All violations of the plan rules (empty list = valid plan)."""
    pos = plan.positions
    if not len(pos):
        return ["plan has no steps"]
    ordered = np.sort(pos, axis=1)
    errors = [f"step {t}: positions not injective" for t in
              np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(1)).tolist()]

    if v_starts is not None and pos[0].tolist() != list(v_starts):
        errors.append("step 0 does not match start configuration")
    if v_goals is not None and pos[-1].tolist() != list(v_goals):
        errors.append(f"step {plan.T} does not match goal configuration")

    etri = _edge_triangle_map(grid)
    adj = [set(a) for a in grid.adjacency]
    moved = pos[1:] != pos[:-1]
    for t in np.flatnonzero(moved.any(1)).tolist():
        moves = []
        for r in np.flatnonzero(moved[t]).tolist():
            u, v = int(pos[t, r]), int(pos[t + 1, r])
            if v not in adj[u]:
                errors.append(f"step {t}: robot {r} jumps {u}->{v}")
                continue
            moves.append((r, u, v))
        directed = {(u, v) for _, u, v in moves}
        for r, u, v in moves:
            if (v, u) in directed:
                errors.append(f"step {t}: head-on exchange on edge ({u},{v})")
        tri_count: dict[int, int] = {}
        for _, u, v in moves:
            for tid in etri.get((min(u, v), max(u, v)), ()):
                tri_count[tid] = tri_count.get(tid, 0) + 1
        for tid, cnt in tri_count.items():
            if cnt > 1:
                errors.append(
                    f"step {t}: {cnt} concurrent moves on triangle {grid.triangles[tid]}")
    return errors
