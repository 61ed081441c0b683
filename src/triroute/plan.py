"""Synchronous discrete plans on the triangular grid and their legality rules.

A plan is one ``(T + 1, n)`` integer array: row t holds every robot's
vertex at step t.  ``DiscretePlan.steps`` rebuilds the rows as tuples
for readers that want them.  A step is legal when per-robot motion is
along an edge or a stay, positions stay injective, no edge is crossed
in both directions at once, and no two robots move within the same
lattice triangle (the sharp-angle exclusion).  ``check_plan`` counts
the moves of every step in the edge and triangle rows of the grid's
rule table ``Arcs.at_most_one``, the table the ILP's rows come from.
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

    arcs = grid.arcs
    A, V, E = len(arcs.tail), len(arcs.out), len(grid.edges)
    t, r = np.nonzero(pos[1:] != pos[:-1])
    u, v = pos[t, r], pos[t + 1, r]
    arc = arcs.arc_of[u, v]
    jump = arc == A
    errors += [f"step {s}: robot {d} jumps {a}->{b}" for s, d, a, b in
               zip(*(x[jump].tolist() for x in (t, r, u, v)))]
    # every legal move counts once in each edge and triangle row holding
    # its arc: one edge row and one or two triangle rows
    rules = arcs.at_most_one[V:]
    R = len(rules)
    p, k = np.nonzero(rules < A)
    by_arc = np.argsort(rules[p, k], kind="stable")
    rule_arc, rule = rules[p, k][by_arc], p[by_arc]
    t, arc = t[~jump], arc[~jump]
    lo = np.searchsorted(rule_arc, arc)
    count = np.searchsorted(rule_arc, arc, "right") - lo
    # entries lo .. lo + count - 1 of the rule list, move after move
    held = rule[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo,
                                                   count)]
    key, moves = np.unique(np.repeat(t, count) * R + held, return_counts=True)
    over = moves > 1
    for s, q, m in zip((key[over] // R).tolist(), (key[over] % R).tolist(),
                       moves[over].tolist()):
        if q < E:
            i, j = grid.edges[q]
            errors.append(f"step {s}: head-on exchange on edge ({i},{j})")
        else:
            errors.append(f"step {s}: {m} concurrent moves on triangle "
                          f"{grid.triangles[q - E]}")
    return errors
