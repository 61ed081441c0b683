import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import sharp_angle_rows
from conftest import random_discrete_instance
from triroute.discretize import DiscreteInstance
from triroute.geometry import build_grid, build_workspace
from triroute.ilp import (ExhaustiveGuardError, SolverError,
                          build_model, export_lp, extract_plan, parse_solution,
                          solve)
from triroute.lpsolve import parse_lp, solve_lp_text


def _grid23():
    return build_grid(build_workspace(2, 3))


def test_variable_naming():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(5,), v_goals=(7,))
    model = build_model(inst, 2)
    names = {v.name for v in model.variables}
    assert any(n.startswith("x_0_5_") for n in names)
    from triroute.ilp import IlpVariable
    assert IlpVariable(3, 5, 7, 2, "move").name == "x_3_5_7_2"


def test_constraint_families_present():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 5), v_goals=(5, 1))
    model = build_model(inst, 3)
    senses = {s for _, s, _ in model.constraints}
    assert senses == {"=", "<="}
    eq = [c for c in model.constraints if c[1] == "="]
    le = [c for c in model.constraints if c[1] == "<="]
    # per robot: flow rows, two boundary couplings, one start forcing
    assert sum(1 for (_, _, rhs) in eq if rhs == 1) == inst.n
    assert le, "capacity families missing"
    for terms, _, rhs in model.constraints:
        for _, col in terms:
            assert 0 <= col < len(model.variables)


def test_pruning_reduces_variables():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(0, 9), v_goals=(9, 0))
    full = build_model(inst, 4, prune=False)
    pruned = build_model(inst, 4, prune=True)
    assert pruned.pruned_count > 0
    assert len(pruned.variables) + pruned.pruned_count == len(full.variables)


def test_build_model_rejects_bad_inputs():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(2,))
    with pytest.raises(ValueError):
        build_model(inst, 0)
    with pytest.raises(ValueError):
        DiscreteInstance(grid=g, v_starts=(1, 1), v_goals=(2, 3))


def test_head_on_exchange_infeasible_at_t1():
    g = _grid23()
    a, b = g.edges[0]
    inst = DiscreteInstance(grid=g, v_starts=(a, b), v_goals=(b, a))
    sol = solve(build_model(inst, 1))
    assert sol.objective_value < 2


def test_triangle_rotation_infeasible_at_t1():
    g = _grid23()
    a, b, c = g.triangles[0]
    inst = DiscreteInstance(grid=g, v_starts=(a, b), v_goals=(b, c))
    sol = solve(build_model(inst, 1))
    assert sol.objective_value < 2


def test_vertex_conflict_infeasible():
    # a parked robot blocks a straight two-edge corridor whose midpoint is
    # the only length-2 route
    g = _grid23()
    m = next(m for m in range(g.n_rows) if g.row_len[m] >= 3)
    u, mid, w = (g.vertex_id(k, m) for k in (0, 1, 2))
    inst = DiscreteInstance(grid=g, v_starts=(u, mid), v_goals=(w, mid))
    sol = solve(build_model(inst, 2))
    assert sol.objective_value < 2


def test_all_robots_at_goals_all_stay():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(4, 8, 2), v_goals=(4, 8, 2))
    model = build_model(inst, 2)
    sol = solve(model)
    assert sol.objective_value == 3
    plan = extract_plan(model, sol)
    assert all(row == (4, 8, 2) for row in plan.steps)


def test_infeasible_horizon_not_an_error():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(0,), v_goals=(13,))
    from triroute.geometry import bfs_distances
    d = bfs_distances(g, 0)[13]
    assert d > 1
    sol = solve(build_model(inst, 1))
    assert sol.objective_value < 1  # reported, not raised


def test_monotone_objective_in_horizon():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 2), v_goals=(2, 1))
    prev = -2
    for T in range(1, 5):
        sol = solve(build_model(inst, T, prune=False))
        assert sol.objective_value >= prev
        prev = sol.objective_value


def test_pruning_soundness_at_optimum():
    # where the cooperative optimum routes everyone, pruning preserves it
    g = _grid23()
    rng = random.Random(4)
    from _oracles import joint_bfs_makespan
    checked = 0
    for seed in range(30):
        inst = random_discrete_instance(g, 2, seed)
        opt = joint_bfs_makespan(g, inst.v_starts, inst.v_goals, cap=12)
        if opt is None or opt == 0 or opt > 6:
            continue
        full = solve(build_model(inst, opt, prune=False))
        pruned = solve(build_model(inst, opt, prune=True))
        assert full.objective_value == pruned.objective_value == 2
        checked += 1
    assert checked >= 10


def test_exhaustive_guard():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(0, 1, 2, 4, 5, 6, 7),
                            v_goals=(1, 2, 4, 5, 6, 7, 0))
    with pytest.raises(ExhaustiveGuardError):
        solve(build_model(inst, 2))


def test_export_lp_empty_model():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(), v_goals=())
    text = export_lp(build_model(inst, 1))
    assert "obj: 0" in text
    assert "Subject To" in text and "Binary" in text and text.strip().endswith("End")


def test_export_lp_round_trip_through_parser():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 9), v_goals=(9, 1))
    model = build_model(inst, 3)
    text = export_lp(model)
    names, objective, rows = parse_lp(text)
    assert set(names) == {v.name for v in model.variables}
    assert len(rows) == len(model.constraints)
    assert sum(1 for c in objective if c) == len(model.objective)


def test_backends_agree():
    g = _grid23()
    agreements = 0
    for seed in range(12):
        inst = random_discrete_instance(g, 2, seed + 100)
        from triroute.triilp import underestimated_makespan
        T = max(1, underestimated_makespan(inst))
        model = build_model(inst, T)
        a = solve(model, backend="exhaustive")
        b = solve(model, backend="external")
        assert a.objective_value == b.objective_value, (seed, T)
        agreements += 1
    assert agreements >= 10


def test_solution_parser_rejects_unknown_names():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(2,))
    model = build_model(inst, 1)
    with pytest.raises(SolverError):
        parse_solution(model, "x_9_9_9_9 1\n")


def test_solution_parser_rejects_non_numeric_values():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(2,))
    model = build_model(inst, 1)
    name = model.variables[0].name
    with pytest.raises(SolverError, match="non-numeric"):
        parse_solution(model, f"{name} abc\n")


def test_solution_parser_threshold_and_infeasible():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(2,))
    model = build_model(inst, 1)
    name = model.variables[model.objective[0]].name
    sol = parse_solution(model, f"{name} 0.73\n")
    assert sol.assignment[model.objective[0]] == 1
    empty = parse_solution(model, "")
    assert not empty.feasible and empty.objective_value == -1


def test_triangle_rows_imply_sharp_angle_rows():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 5), v_goals=(5, 1))
    model = build_model(inst, 2, prune=False)
    angle_rows = sharp_angle_rows(model)
    tri_rows = [(terms, rhs) for terms, s, rhs in model.constraints
                if s == "<=" and len(terms) > 2]
    col_tris = {}
    for k, (terms, rhs) in enumerate(tri_rows):
        for _, c in terms:
            col_tris.setdefault(c, []).append(k)
    rng = random.Random(0)
    cols = list(range(len(model.variables)))
    for _ in range(500):
        rng.shuffle(cols)
        used = set()
        assign = [False] * len(model.variables)
        for c in cols[:120]:
            tris = col_tris.get(c, ())
            if any(t in used for t in tris):
                continue
            assign[c] = True
            used.update(tris)
        assert all(sum(assign[c] for _, c in terms) <= rhs
                   for terms, rhs in tri_rows)
        for terms, _, rhs in angle_rows:
            assert sum(assign[c] for _, c in terms) <= rhs


def test_extract_plan_requires_full_objective():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(13,))
    model = build_model(inst, 1)
    sol = solve(model)
    with pytest.raises(ValueError):
        extract_plan(model, sol)


def test_lpsolve_module_solves_small_lp(tmp_path):
    text = ("Maximize\n obj: + a + b\nSubject To\n c0: + a + b <= 1\n"
            "Binary\n a\n b\nEnd\n")
    names, values = solve_lp_text(text)
    assert sorted(names) == ["a", "b"]
    assert sum(values) == 1
    model = tmp_path / "m.lp"
    out = tmp_path / "m.sol"
    model.write_text(text)
    from triroute.lpsolve import main
    assert main([str(model), str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_solver_cmd_resolution(monkeypatch):
    from triroute.ilp import DEFAULT_SOLVER_CMD, SOLVER_CMD_ENV, resolve_solver_cmd

    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    assert resolve_solver_cmd(None) == DEFAULT_SOLVER_CMD
    monkeypatch.setenv(SOLVER_CMD_ENV, "envsolver {model} {solution}")
    assert resolve_solver_cmd(None) == "envsolver {model} {solution}"
    # an explicit command wins over the environment
    assert resolve_solver_cmd("flag {model} {solution}") == "flag {model} {solution}"


def test_external_solver_child_finds_the_package_without_pythonpath():
    # the parent imports triroute only through sys.path; the solver child
    # must still find it
    src = str(Path(__import__("triroute").__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from triroute.discretize import discretize\n"
        "from triroute.geometry import build_grid, build_workspace\n"
        "from triroute.instances import dense_instance\n"
        "from triroute.triilp import solve_triilp\n"
        "ws = build_workspace(2, 3)\n"
        "dinst, _, _ = discretize(dense_instance(ws, 3, 0), build_grid(ws))\n"
        "plan, rep = solve_triilp(dinst, backend='external')\n"
        "print(rep.makespan)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TRIROUTE_SOLVER_CMD")}
    proc = subprocess.run([sys.executable, "-c", code, src], env=env,
                          cwd=os.path.dirname(src), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) >= 0
