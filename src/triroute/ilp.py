"""Time-expanded network ILP for multi-robot routing on the triangular grid.

Binary variables x_{r,i,j,t} say robot r moves from vertex i to j (j in
N(i), which includes i itself for stays) between steps t and t+1, plus
one virtual goal-to-start variable per robot at the horizon T.  The
objective maximizes the number of robots that reach their goals at T.

Constraint families:
  flow       per robot/vertex/step: arrivals at t equal departures at t+1
  boundary   start departures = goal arrivals at T-1 = virtual variable,
             with the start departure sum additionally forced to 1
  vertex     at most one robot occupies (departs) a vertex per step
  edge       an edge cannot be crossed in both directions at one step
  triangle   at most one move within any lattice triangle per step

Reachability pruning drops x_{r,i,j,t} when i is not reachable from the
start in t steps or the goal is not reachable from j in the remaining
steps.  A pruned model therefore admits only all-robots-succeed
assignments: it is either feasible with objective n or infeasible
(reported as objective -1).
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

from .discretize import DiscreteInstance
from .geometry import bfs_distances
from .plan import DiscretePlan


class SolverError(RuntimeError):
    """External solver invocation or output parsing failed."""


class ExhaustiveGuardError(RuntimeError):
    """Instance exceeds the exhaustive backend's size guard."""


EXHAUSTIVE_GUARD = (6, 8)  # largest (robots, horizon) the exhaustive backend takes
DEFAULT_SOLVER_CMD = "{python} -m triroute.lpsolve {model} {solution}"
SOLVER_CMD_ENV = "TRIROUTE_SOLVER_CMD"
SOLVER_TIMEOUT_S = 600.0  # wall-clock limit on one external solver call


@dataclass(frozen=True)
class IlpVariable:
    robot: int
    i: int
    j: int
    t: int
    kind: str  # "move" | "stay" | "virtual"

    @property
    def name(self) -> str:
        return f"x_{self.robot}_{self.i}_{self.j}_{self.t}"


@dataclass
class IlpModel:
    inst: DiscreteInstance
    T: int
    variables: list[IlpVariable]
    index: dict[tuple[int, int, int, int], int]       # (r,i,j,t) -> column
    constraints: list[tuple[list[tuple[int, int]], str, int]]  # (terms, sense, rhs)
    objective: list[int]                              # virtual columns
    pruned_count: int

    @property
    def n(self) -> int:
        return self.inst.n


@dataclass
class Solution:
    assignment: dict[int, int]   # column -> 0/1
    objective_value: int         # -1 when the model is infeasible
    feasible: bool = True


def build_model(inst: DiscreteInstance, T: int, prune: bool = True) -> IlpModel:
    if T < 1:
        raise ValueError("horizon T must be at least 1")
    grid = inst.grid
    n = inst.n
    closed = [sorted([v] + grid.adjacency[v]) for v in range(grid.n_vertices)]

    if prune:
        fwd = [bfs_distances(grid, s) for s in inst.v_starts]
        bwd = [bfs_distances(grid, g) for g in inst.v_goals]

    variables: list[IlpVariable] = []
    index: dict[tuple[int, int, int, int], int] = {}
    pruned = 0

    def add_var(r: int, i: int, j: int, t: int, kind: str) -> None:
        index[(r, i, j, t)] = len(variables)
        variables.append(IlpVariable(r, i, j, t, kind))

    for r in range(n):
        for t in range(T):
            for i in range(grid.n_vertices):
                for j in closed[i]:
                    if prune and (fwd[r][i] > t or bwd[r][j] > T - t - 1):
                        pruned += 1
                        continue
                    add_var(r, i, j, t, "stay" if i == j else "move")
        add_var(r, inst.v_goals[r], inst.v_starts[r], T, "virtual")

    constraints: list[tuple[list[tuple[int, int]], str, int]] = []

    def arrivals(r: int, j: int, t: int) -> list[int]:
        return [index[(r, i, j, t)] for i in closed[j] if (r, i, j, t) in index]

    def departures(r: int, j: int, t: int) -> list[int]:
        return [index[(r, j, k, t)] for k in closed[j] if (r, j, k, t) in index]

    for r in range(n):
        # flow conservation between consecutive steps
        for t in range(T - 1):
            for j in range(grid.n_vertices):
                arr = arrivals(r, j, t)
                dep = departures(r, j, t + 1)
                if not arr and not dep:
                    continue
                terms = [(1, c) for c in arr] + [(-1, c) for c in dep]
                constraints.append((terms, "=", 0))
        virt = index[(r, inst.v_goals[r], inst.v_starts[r], T)]
        start_dep = departures(r, inst.v_starts[r], 0)
        goal_arr = arrivals(r, inst.v_goals[r], T - 1)
        constraints.append(([(1, c) for c in start_dep] + [(-1, virt)], "=", 0))
        constraints.append(([(1, c) for c in goal_arr] + [(-1, virt)], "=", 0))
        # the robot must exist in the network
        constraints.append(([(1, c) for c in start_dep], "=", 1))

    for t in range(T):
        for i in range(grid.n_vertices):
            terms = [(1, c) for r in range(n) for c in departures(r, i, t)]
            if terms:
                constraints.append((terms, "<=", 1))
        for (i, j) in grid.edges:
            terms = []
            for r in range(n):
                for (a, b) in ((i, j), (j, i)):
                    c = index.get((r, a, b, t))
                    if c is not None:
                        terms.append((1, c))
            if len(terms) > 1:
                constraints.append((terms, "<=", 1))
        for (a, b, c3) in grid.triangles:
            terms = []
            for r in range(n):
                for (u, v) in ((a, b), (b, a), (a, c3), (c3, a), (b, c3), (c3, b)):
                    col = index.get((r, u, v, t))
                    if col is not None:
                        terms.append((1, col))
            if len(terms) > 1:
                constraints.append((terms, "<=", 1))

    objective = [index[(r, inst.v_goals[r], inst.v_starts[r], T)] for r in range(n)]
    return IlpModel(inst=inst, T=T, variables=variables, index=index,
                    constraints=constraints, objective=objective,
                    pruned_count=pruned)


def export_lp(model: IlpModel) -> str:
    """LP-format text with deterministic ordering and x_r_i_j_t names."""
    lines = ["Maximize"]
    if model.objective:
        obj = " + ".join(model.variables[c].name for c in model.objective)
        lines.append(f" obj: {obj}")
    else:
        lines.append(" obj: 0")
    lines.append("Subject To")
    for k, (terms, sense, rhs) in enumerate(model.constraints):
        parts = []
        for coef, col in terms:
            name = model.variables[col].name
            if coef == 1:
                parts.append(f"+ {name}")
            elif coef == -1:
                parts.append(f"- {name}")
            else:
                sign = "+" if coef >= 0 else "-"
                parts.append(f"{sign} {abs(coef)} {name}")
        op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
        lines.append(f" c{k}: {' '.join(parts)} {op} {rhs}")
    lines.append("Binary")
    for v in model.variables:
        lines.append(f" {v.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _objective_value(model: IlpModel, assignment: dict[int, int]) -> int:
    return sum(assignment.get(c, 0) for c in model.objective)


def solve(model: IlpModel, backend: str = "exhaustive",
          solver_cmd: str | None = None) -> Solution:
    """Optimize the model.

    exhaustive: deterministic search over per-robot time-expanded walks
    with constraint propagation; provably maximal objective.  Guarded to
    small instances (robots, horizon) <= EXHAUSTIVE_GUARD.

    external: writes LP text, runs the configured solver command (one
    subprocess, file in / file out), parses the "name value" solution.
    """
    if backend == "exhaustive":
        if model.n > EXHAUSTIVE_GUARD[0] or model.T > EXHAUSTIVE_GUARD[1]:
            raise ExhaustiveGuardError(
                f"exhaustive backend guard exceeded: n={model.n}, T={model.T}, "
                f"guard={EXHAUSTIVE_GUARD}")
        return _solve_exhaustive(model)
    if backend == "external":
        return _solve_external(model, solver_cmd)
    raise ValueError(f"unknown backend {backend!r}")


def _robot_walks(model: IlpModel, r: int) -> list[tuple[int, ...]]:
    """All vertex sequences robot r can follow through existing variables."""
    inst = model.inst
    out: list[tuple[int, ...]] = []
    closed = [sorted([v] + inst.grid.adjacency[v])
              for v in range(inst.grid.n_vertices)]

    def extend(prefix: list[int]) -> None:
        t = len(prefix) - 1
        if t == model.T:
            out.append(tuple(prefix))
            return
        u = prefix[-1]
        for v in closed[u]:
            if (r, u, v, t) in model.index:
                prefix.append(v)
                extend(prefix)
                prefix.pop()

    extend([inst.v_starts[r]])
    return out


def _compatible(grid, w1: tuple[int, ...], w2: tuple[int, ...],
                etri: dict[tuple[int, int], list[int]]) -> bool:
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


def _assignment_from_walks(model: IlpModel, walks: dict[int, tuple[int, ...]]
                           ) -> dict[int, int]:
    assignment = {c: 0 for c in range(len(model.variables))}
    for r, w in walks.items():
        for t in range(model.T):
            assignment[model.index[(r, w[t], w[t + 1], t)]] = 1
        if w[-1] == model.inst.v_goals[r]:
            assignment[model.index[(r, model.inst.v_goals[r],
                                    model.inst.v_starts[r], model.T)]] = 1
    return assignment


def _solve_exhaustive(model: IlpModel) -> Solution:
    from .plan import _edge_triangle_map

    inst = model.inst
    etri = _edge_triangle_map(inst.grid)

    def walk_key(w: tuple[int, ...]) -> tuple:
        moves = sum(1 for a, b in zip(w, w[1:]) if a != b)
        return (moves, w)

    all_walks = [sorted(_robot_walks(model, r), key=walk_key)
                 for r in range(model.n)]
    if any(not w for w in all_walks):
        return Solution(assignment={}, objective_value=-1, feasible=False)

    goals = inst.v_goals
    order = sorted(range(model.n), key=lambda r: len(all_walks[r]))

    def search(require_goal: dict[int, bool]) -> dict[int, tuple[int, ...]] | None:
        chosen: dict[int, tuple[int, ...]] = {}

        def rec(k: int) -> bool:
            if k == len(order):
                return True
            r = order[k]
            for w in all_walks[r]:
                if require_goal[r] and w[-1] != goals[r]:
                    continue
                if all(_compatible(inst.grid, w, cw, etri)
                       for cw in chosen.values()):
                    chosen[r] = w
                    if rec(k + 1):
                        return True
                    del chosen[r]
            return False

        return chosen if rec(0) else None

    # try decreasing success counts; subsets enumerated deterministically
    import itertools

    for k in range(model.n, -1, -1):
        for subset in itertools.combinations(range(model.n), k):
            req = {r: (r in subset) for r in range(model.n)}
            found = search(req)
            if found is not None:
                assignment = _assignment_from_walks(model, found)
                return Solution(assignment=assignment,
                                objective_value=_objective_value(model, assignment))
    return Solution(assignment={}, objective_value=-1, feasible=False)


def resolve_solver_cmd(solver_cmd: str | None) -> str:
    if solver_cmd:
        return solver_cmd
    env = os.environ.get(SOLVER_CMD_ENV)
    return env if env else DEFAULT_SOLVER_CMD


def _solve_external(model: IlpModel, solver_cmd: str | None) -> Solution:
    import sys

    template = resolve_solver_cmd(solver_cmd)
    with tempfile.TemporaryDirectory(prefix="triroute-ilp-") as tmp:
        model_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "model.sol")
        with open(model_path, "w") as f:
            f.write(export_lp(model))
        cmd = template.format(model=model_path, solution=sol_path,
                              python=sys.executable)
        # the child imports triroute from wherever this process did
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (root, os.environ.get("PYTHONPATH")) if p))
        try:
            proc = subprocess.run(shlex.split(cmd), capture_output=True,
                                  text=True, env=env, timeout=SOLVER_TIMEOUT_S)
        except OSError as exc:
            raise SolverError(f"cannot run solver command {cmd!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverError(
                f"solver command {cmd!r} timed out after {exc.timeout:g} s"
            ) from exc
        if proc.returncode != 0:
            raise SolverError(
                f"solver exited with {proc.returncode}: {proc.stderr.strip()}")
        if not os.path.exists(sol_path):
            raise SolverError("solver produced no solution file")
        with open(sol_path) as f:
            text = f.read()
    return parse_solution(model, text)


def parse_solution(model: IlpModel, text: str) -> Solution:
    """Parse "name value" lines; an empty file signals infeasibility."""
    names = {v.name: c for c, v in enumerate(model.variables)}
    assignment = {c: 0 for c in range(len(model.variables))}
    seen_any = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolverError(f"malformed solution line: {raw!r}")
        name, value = parts
        if name not in names:
            raise SolverError(f"unknown variable in solution: {name!r}")
        try:
            x = float(value)
        except ValueError:
            raise SolverError(f"non-numeric value in solution: {raw!r}") from None
        seen_any = True
        assignment[names[name]] = 1 if x >= 0.5 else 0
    if not seen_any:
        return Solution(assignment={}, objective_value=-1, feasible=False)
    return Solution(assignment=assignment,
                    objective_value=_objective_value(model, assignment))


def extract_plan(model: IlpModel, sol: Solution) -> DiscretePlan:
    """Decode an all-robots-succeed solution into per-step positions."""
    if sol.objective_value != model.n:
        raise ValueError("can only extract a plan when every robot succeeds")
    inst = model.inst
    closed = [sorted([v] + inst.grid.adjacency[v])
              for v in range(inst.grid.n_vertices)]
    rows = []
    positions = list(inst.v_starts)
    rows.append(tuple(positions))
    for t in range(model.T):
        nxt = []
        for r in range(model.n):
            u = positions[r]
            succ = [v for v in closed[u]
                    if sol.assignment.get(model.index.get((r, u, v, t), -1), 0) == 1]
            if len(succ) != 1:
                raise SolverError(
                    f"robot {r} has {len(succ)} active moves at step {t}")
            nxt.append(succ[0])
        positions = nxt
        rows.append(tuple(positions))
    return DiscretePlan(steps=rows)
