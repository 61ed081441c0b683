"""Horizon-search router: grow T from a collision-free lower bound until
the time-expanded model routes every robot, plus the k-way split
heuristic that chains intermediate configurations to keep models small.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteInstance
from .geometry import bfs_path
from .ilp import build_model, extract_plan, solve
from .plan import DiscretePlan


class HorizonExceededError(RuntimeError):
    """The horizon search passed its ceiling without routing all robots."""


@dataclass
class SolveReport:
    makespan: int
    underestimate: int
    optimality_ratio: float
    wall_time: float
    iterations: int
    split_k: int = 1


def underestimated_makespan(inst: DiscreteInstance) -> int:
    """Max over robots of the hop distance start -> goal, ignoring others."""
    d = 0
    for s, g in zip(inst.v_starts, inst.v_goals):
        if (dist := int(inst.grid.hops_from(s)[g])) < 0:
            raise ValueError(f"goal {g} unreachable from start {s}")
        d = max(d, dist)
    return d


def _ratio(makespan: int, underestimate: int) -> float:
    return 1.0 if underestimate == 0 else makespan / underestimate


def solve_triilp(inst: DiscreteInstance, backend: str = "exhaustive",
                 solver_cmd: str | None = None,
                 horizon_margin: int | None = None
                 ) -> tuple[DiscretePlan, SolveReport]:
    """Smallest-horizon routing: try T = lower bound, lower bound + 1, ...

    Each T builds and solves the pruned model; the first feasible horizon
    is the optimal discrete makespan.  A ceiling (lower bound + |V| by
    default) turns pathological loops into HorizonExceededError.
    """
    t0 = time.perf_counter()
    lo = underestimated_makespan(inst)
    if lo == 0:
        plan = DiscretePlan.from_steps([inst.v_starts])
        return plan, SolveReport(makespan=0, underestimate=0,
                                 optimality_ratio=1.0,
                                 wall_time=time.perf_counter() - t0,
                                 iterations=0)
    margin = inst.grid.n_vertices if horizon_margin is None else horizon_margin
    ceiling = lo + margin
    iterations = 0
    T = lo
    while T <= ceiling:
        iterations += 1
        model = build_model(inst, T)
        sol = solve(model, backend=backend, solver_cmd=solver_cmd)
        if sol.objective_value == inst.n:
            plan = extract_plan(model, sol)
            return plan, SolveReport(makespan=T, underestimate=lo,
                                     optimality_ratio=_ratio(T, lo),
                                     wall_time=time.perf_counter() - t0,
                                     iterations=iterations)
        T += 1
    raise HorizonExceededError(
        f"no full routing found up to T={ceiling} (lower bound {lo})")


def split_k_way(inst: DiscreteInstance, k: int) -> list[DiscreteInstance]:
    """Chain k sub-instances through k-1 intermediate configurations.

    Robot r's m-th waypoint is the vertex floor(m*d/k) steps along its
    own shortest path; vertex conflicts are resolved by relocating the
    later-indexed robot to the nearest unoccupied vertex (hop order,
    lowest id wins).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    grid = inst.grid
    paths = [bfs_path(grid, s, g) for s, g in zip(inst.v_starts, inst.v_goals)]
    configs = [tuple(inst.v_starts)]
    for m in range(1, k):
        taken: set[int] = set()
        config = []
        for r, path in enumerate(paths):
            d = len(path) - 1
            want = path[(m * d) // k]
            if want in taken:
                dist = grid.hops_from(want).tolist()
                free = [v for v in range(grid.n_vertices)
                        if v not in taken and dist[v] >= 0]
                want = min(free, key=lambda v: (dist[v], v))
            taken.add(want)
            config.append(want)
        configs.append(tuple(config))
    configs.append(tuple(inst.v_goals))
    return [DiscreteInstance(grid=grid, v_starts=configs[m], v_goals=configs[m + 1])
            for m in range(k)]


def solve_split(inst: DiscreteInstance, k: int, backend: str = "exhaustive",
                solver_cmd: str | None = None
                ) -> tuple[DiscretePlan, SolveReport]:
    """Solve the k sub-instances in sequence and concatenate the plans."""
    t0 = time.perf_counter()
    if k == 1:
        return solve_triilp(inst, backend=backend, solver_cmd=solver_cmd)
    subs = split_k_way(inst, k)
    parts = []
    total = 0
    iterations = 0
    for sub in subs:
        plan, rep = solve_triilp(sub, backend=backend, solver_cmd=solver_cmd)
        total += rep.makespan
        iterations += rep.iterations
        # drop the junction row the previous sub-plan ended on
        parts.append(plan.positions[1:] if parts else plan.positions)
    lo = underestimated_makespan(inst)
    return (DiscretePlan(np.concatenate(parts)),
            SolveReport(makespan=total, underestimate=lo,
                        optimality_ratio=_ratio(total, lo),
                        wall_time=time.perf_counter() - t0,
                        iterations=iterations, split_k=k))
