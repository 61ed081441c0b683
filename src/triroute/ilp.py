"""Time-expanded network ILP for multi-robot routing on the triangular grid.

Binary variables x_{r,i,j,t} say robot r moves from vertex i to j (j in
N(i), which includes i itself for stays) between steps t and t+1.  The
model is a pure feasibility model with a zero objective: its feasible
points are exactly the routings that bring every robot to its goal at T.

Constraint families:
  flow       per robot/vertex/step: arrivals at t equal departures at t+1
  boundary   per robot: start departures = 1, goal arrivals at T-1 = 1
  vertex     at most one robot occupies (departs) a vertex per step
  edge       an edge cannot be crossed in both directions at one step
  triangle   at most one move within any lattice triangle per step
  origin     no step-0 departure from a vertex other than the start
             (emitted only where such columns exist, i.e. unpruned)

The vertex, edge and triangle rows of step t are the rows of the grid's
rule table ``Arcs.at_most_one`` over every robot's step-t columns; a
vertex row is written when it has a term, an edge or triangle row when
it has two.

The model is held as arrays: one (robot, i, j, t) row per column and a
column lookup per (robot, step, arc).  The constraint rows, in COO form,
are built on the first read of ``IlpModel.constraints`` and kept; only
``export_lp`` builds and reads them on the solve path.  The exhaustive
search reads the columns and the grid's conflict bits
(``Arcs.successors``), whose bit p at step t is row (t, p) of that
table; ``parse_solution`` reads the column names and
``extract_plan`` the columns.  Reachability pruning drops x_{r,i,j,t}
when i is not reachable from the start in t steps or the goal is not
reachable from j in the remaining steps.  ``extract_plan`` checks a
solution's walks before it turns them into a plan.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import EQ, LE, SENSES
from .discretize import DiscreteInstance
from .geometry import Arcs
from .io import real
from .plan import DiscretePlan


class SolverError(RuntimeError):
    """External solver invocation, output parsing or solution check failed."""


class ExhaustiveGuardError(RuntimeError):
    """Instance exceeds the exhaustive backend's size guard."""


EXHAUSTIVE_GUARD = (6, 8)  # largest (robots, horizon) the exhaustive backend takes
DEFAULT_SOLVER_CMD = "{python} -m triroute.lpsolve {model} {solution}"
SOLVER_CMD_ENV = "TRIROUTE_SOLVER_CMD"
SOLVER_TIMEOUT_S = 600.0  # wall-clock limit on one external solver call


@dataclass(frozen=True)
class Rows:
    """Constraint rows in COO form: term k puts coef[k] on column col[k]
    in row row[k].  Terms are grouped by row, in LP order."""

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray      # +1 or -1
    sense: np.ndarray     # per row: EQ or LE
    rhs: np.ndarray       # per row

    def __len__(self) -> int:
        return len(self.rhs)

    @property
    def indptr(self) -> np.ndarray:
        """Row k's terms are [indptr[k], indptr[k + 1])."""
        return np.searchsorted(self.row, np.arange(len(self) + 1))


@dataclass
class IlpModel:
    inst: DiscreteInstance
    T: int
    arcs: Arcs
    index: np.ndarray        # (n, T, A + 1): column of robot r on arc a at
                             # step t, -1 when pruned (slot A is padding)
    variables: np.ndarray    # (m, 4): robot, i, j, t of each column
    pruned_count: int

    @property
    def n(self) -> int:
        return self.inst.n

    @cached_property
    def constraints(self) -> Rows:
        """The constraint rows, built on first read and kept."""
        return _constraint_rows(self)


@dataclass
class Solution:
    assignment: np.ndarray       # 0/1 per column; empty when infeasible
    objective_value: int         # n robots routed, or -1 when infeasible

    @property
    def feasible(self) -> bool:
        return self.objective_value >= 0


def _infeasible() -> Solution:
    return Solution(assignment=np.zeros(0, dtype=np.int8), objective_value=-1)


def build_model(inst: DiscreteInstance, T: int, prune: bool = True) -> IlpModel:
    """The model at horizon T; pruning reads the grid's hop rows."""
    if T < 1:
        raise ValueError("horizon T must be at least 1")
    grid = inst.grid
    n, V = inst.n, grid.n_vertices
    arcs = grid.arcs
    A = len(arcs.tail)
    if prune:
        ends = (*inst.v_starts, *inst.v_goals)
        fwd, bwd = np.array([grid.hops_from(v) for v in ends]).reshape(2, n, V)
        t = np.arange(T)[:, None]
        keep = ((fwd[:, None, arcs.tail] <= t)
                & (bwd[:, None, arcs.head] <= T - 1 - t))
    else:
        keep = np.ones((n, T, A), dtype=bool)

    # columns robot by robot in (t, arc) order
    index = np.full((n, T, A + 1), -1)
    index[:, :, :A] = np.where(keep, np.cumsum(keep).reshape(keep.shape) - 1, -1)
    r, t, a = np.nonzero(keep)
    variables = np.stack([r, arcs.tail[a], arcs.head[a], t], 1)
    return IlpModel(inst=inst, T=T, arcs=arcs, index=index, variables=variables,
                    pruned_count=int(keep.size - keep.sum()))


def _constraint_rows(model: IlpModel) -> Rows:
    """Builds ``IlpModel.constraints``."""
    n, T, arcs, index = model.n, model.T, model.arcs, model.index
    V, A = len(arcs.out), len(arcs.tail)
    starts = np.array(model.inst.v_starts, dtype=int)
    goals = np.array(model.inst.v_goals, dtype=int)
    # Candidate rows hold +-(column + 1) per term, 0 where pruned.  Rows
    # and terms come in the order export_lp writes them, which the
    # external solver's run time depends on.
    s = index + 1
    out, into = arcs.out, arcs.into
    W = out.shape[1]
    robots = np.arange(n)[:, None]
    # per robot: the flow rows by (t, vertex), then the two boundary rows
    flow = np.concatenate([s[:, :-1][:, :, into], -s[:, 1:][:, :, out]], axis=3)
    boundary = np.zeros((n, 2, 2 * W), dtype=int)
    boundary[:, 0, :W] = s[robots, 0, out[starts]]
    boundary[:, 1, :W] = s[robots, T - 1, into[goals]]
    n_flow = (T - 1) * V
    per_robot = np.concatenate([flow.reshape(n, n_flow, 2 * W), boundary], 1)
    # per step: the grid's vertex, edge and triangle rows over all robots
    table = arcs.at_most_one
    R, K = table.shape
    per_step = s[:, :, table].transpose(1, 2, 0, 3).reshape(T * R, n * K)
    # only unpruned models have step-0 columns away from the start
    origin = np.where(arcs.tail != starts[:, None], s[:, 0, :A], 0)

    # flow rows (= 0) are kept when they have a term, boundary rows (= 1)
    # always: an empty one makes the model infeasible
    is_boundary = np.tile(np.r_[np.zeros(n_flow, dtype=int), 1, 1], n)
    return _rows([
        (per_robot.reshape(n * (n_flow + 2), 2 * W), 1 - is_boundary, EQ,
         is_boundary),
        (per_step, np.tile(np.r_[np.ones(V, dtype=int), np.full(R - V, 2)], T),
         LE, 1),
        (origin, 1, EQ, 0),
    ])


def _rows(blocks) -> Rows:
    """Rows from blocks of candidates, in order.  A block is (terms, need,
    sense, rhs): terms is an (R, K) array of +-(column + 1), 0 for no term,
    and a row is kept when it has at least ``need`` terms."""
    terms, counts, senses, rhss = [], [], [], []
    for cand, need, sense, rhs in blocks:
        present = cand != 0
        count = present.sum(1)
        keep = count >= need
        terms.append(cand[keep][present[keep]])
        counts.append(count[keep])
        senses.append(np.full(int(keep.sum()), sense))
        rhss.append(np.broadcast_to(rhs, keep.shape)[keep])
    terms = np.concatenate(terms)
    count = np.concatenate(counts)
    return Rows(row=np.repeat(np.arange(len(count)), count),
                col=np.abs(terms) - 1, coef=np.sign(terms),
                sense=np.concatenate(senses), rhs=np.concatenate(rhss))


def column_names(model: IlpModel) -> list[str]:
    return [f"x_{r}_{i}_{j}_{t}" for r, i, j, t in model.variables.tolist()]


def export_lp(model: IlpModel) -> str:
    """LP-format text with deterministic ordering and x_r_i_j_t names."""
    names = column_names(model)
    lines = ["Maximize", " obj: 0", "Subject To"]
    rows = model.constraints
    terms = [("+ " if k > 0 else "- ") + names[c]
             for c, k in zip(rows.col.tolist(), rows.coef.tolist())]
    bounds = rows.indptr.tolist()
    for k, (sense, rhs) in enumerate(zip(rows.sense.tolist(), rows.rhs.tolist())):
        lines.append(f" c{k}: {' '.join(terms[bounds[k]:bounds[k + 1]])} "
                     f"{SENSES[sense]} {rhs}")
    lines.append("Binary")
    lines.extend(" " + name for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def solve(model: IlpModel, backend: str = "exhaustive",
          solver_cmd: str | None = None) -> Solution:
    """Find a feasible point of the model, or report it infeasible.

    exhaustive: deterministic depth-first search for one goal-reaching
    time-expanded walk per robot, pairwise conflict-free; a full routing
    when one exists, else infeasible.  Guarded to small instances
    (robots, horizon) <= EXHAUSTIVE_GUARD.

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


def _robot_walks(model: IlpModel, r: int, succ, S: int
                 ) -> list[tuple[int, tuple[int, ...], int]]:
    """(moves, vertex sequence, conflict mask) of every walk robot r can
    follow through the model's columns, fewest moves first, then
    lexicographic."""
    walks = [(0, (model.inst.v_starts[r],), 0)]
    for t, cols in enumerate(model.index[r].tolist()):
        shift = t * S
        walks = [(moves + (v != w[-1]), w + (v,), mask | bits << shift)
                 for moves, w, mask in walks
                 for a, v, bits in succ[w[-1]] if cols[a] >= 0]
    walks.sort()
    return walks


def _search(choices: list[list[int]]) -> list[int] | None:
    """Depth-first choice of one mask from each list, pairwise disjoint;
    earlier entries are tried first.  Returns the chosen positions."""
    picks: list[int] = []

    def extend(k: int, used: int) -> bool:
        if k == len(choices):
            return True
        for p, mask in enumerate(choices[k]):
            if not mask & used:
                picks.append(p)
                if extend(k + 1, used | mask):
                    return True
                picks.pop()
        return False

    return picks if extend(0, 0) else None


def _solve_exhaustive(model: IlpModel) -> Solution:
    succ, S = model.arcs.successors
    walks = [_robot_walks(model, r, succ, S) for r in range(model.n)]
    goals = model.inst.v_goals
    order = sorted(range(model.n), key=lambda r: len(walks[r]))
    cands = [[(w, mask) for _, w, mask in walks[r] if w[-1] == goals[r]]
             for r in order]
    if any(not c for c in cands):
        return _infeasible()
    picks = _search([[mask for _, mask in c] for c in cands])
    if picks is None:
        return _infeasible()
    chosen = np.empty((model.n, model.T + 1), dtype=int)
    for r, c, p in zip(order, cands, picks):
        chosen[r] = c[p][0]
    arc = model.arcs.arc_of[chosen[:, :-1], chosen[:, 1:]]
    assignment = np.zeros(len(model.variables), dtype=np.int8)
    assignment[model.index[np.arange(model.n)[:, None], np.arange(model.T), arc]] = 1
    return Solution(assignment=assignment, objective_value=model.n)


def resolve_solver_cmd(solver_cmd: str | None) -> str:
    if solver_cmd:
        return solver_cmd
    env = os.environ.get(SOLVER_CMD_ENV)
    return env if env else DEFAULT_SOLVER_CMD


def _solve_external(model: IlpModel, solver_cmd: str | None) -> Solution:
    template = resolve_solver_cmd(solver_cmd)
    with tempfile.TemporaryDirectory(prefix="triroute-ilp-") as tmp:
        model_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "model.sol")
        # an unknown or positional placeholder, a lone brace or quote, or
        # nothing to run is a fault of the template, not of the model
        try:
            cmd = template.format(model=model_path, solution=sol_path,
                                  python=sys.executable)
            argv = shlex.split(cmd)
        except (LookupError, AttributeError, TypeError, ValueError) as exc:
            why = (f"unknown placeholder {exc}" if isinstance(exc, KeyError)
                   else str(exc))
            raise SolverError(
                f"bad solver command template {template!r}: {why}") from None
        if not argv:
            raise SolverError(
                f"solver command template {template!r} names no command")
        with open(model_path, "w") as f:
            f.write(export_lp(model))
        # the child imports triroute from wherever this process did; it
        # does no dense linear algebra, so one OpenBLAS thread spares it
        # the idle pools that numpy and scipy start (a set value wins)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {"OPENBLAS_NUM_THREADS": "1", **os.environ,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (root, os.environ.get("PYTHONPATH")) if p)}
        try:
            proc = subprocess.run(argv, capture_output=True,
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
    """Parse "name value" lines; an empty file signals infeasibility.  A
    non-empty one claims to route every robot, which extract_plan checks.
    Values must be finite numbers and no variable may appear twice; an
    error names the offending line."""
    names = {name: c for c, name in enumerate(column_names(model))}
    assignment = np.zeros(len(model.variables), dtype=np.int8)
    seen: set[int] = set()
    for k, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"(line {k}: {raw!r})"
        parts = line.split()
        if len(parts) != 2:
            raise SolverError(f"malformed solution line {where}")
        name, value = parts
        if name not in names:
            raise SolverError(f"unknown variable in solution: {name!r} {where}")
        try:
            x = real(value)
        except ValueError:
            raise SolverError(f"non-numeric value in solution {where}") from None
        c = names[name]
        if c in seen:
            raise SolverError(f"duplicate variable in solution: {name!r} {where}")
        seen.add(c)
        assignment[c] = 1 if x >= 0.5 else 0
    if not seen:
        return _infeasible()
    return Solution(assignment=assignment, objective_value=model.n)


def extract_plan(model: IlpModel, sol: Solution) -> DiscretePlan:
    """Check a feasible solution's walks and decode them into per-step
    positions.  Raises SolverError unless every robot has exactly one
    active column per step, each leaving the vertex the previous one
    reached (the start at step 0), and the last one reaches the goal."""
    if not sol.feasible:
        raise ValueError("can only extract a plan from a feasible solution")
    n, T = model.n, model.T
    r, i, j, t = model.variables[np.flatnonzero(sol.assignment)].T
    count = np.bincount(r * T + t, minlength=n * T)
    if (bad := np.flatnonzero(count != 1)).size:
        rb, tb = divmod(int(bad[0]), T)
        raise SolverError(f"robot {rb} has {count[bad[0]]} active moves "
                          f"at step {tb}")
    tail = np.empty((n, T), dtype=np.intp)
    head = np.empty((n, T), dtype=np.intp)
    tail[r, t], head[r, t] = i, j
    reached = np.column_stack([model.inst.v_starts, head]).astype(np.intp)
    if (bad := np.argwhere(tail != reached[:, :-1])).size:
        rb, tb = bad[0].tolist()
        raise SolverError(f"robot {rb} leaves vertex {tail[rb, tb]} at step "
                          f"{tb} but stands on vertex {reached[rb, tb]}")
    if (bad := np.flatnonzero(head[:, -1] != model.inst.v_goals)).size:
        rb = int(bad[0])
        raise SolverError(f"robot {rb} ends on vertex {head[rb, -1]}, not on "
                          f"its goal {model.inst.v_goals[rb]}")
    return DiscretePlan(reached.T.copy())
