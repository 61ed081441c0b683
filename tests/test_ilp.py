import hashlib
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (joint_bfs_makespan, model_rows, reference_exhaustive,
                      sharp_angle_rows)
from conftest import random_discrete_instance
from triroute import ilp, lpsolve, triilp
from triroute.discretize import DiscreteInstance, discretize
from triroute.geometry import build_grid, build_workspace
from triroute.ilp import (ExhaustiveGuardError, SolverError,
                          build_model, column_names, export_lp, extract_plan,
                          parse_solution, solve)
from triroute.instances import dense_instance
from triroute.lpsolve import parse_lp, solve_lp_text
from triroute.plan import check_plan
from triroute.triilp import solve_triilp, underestimated_makespan


def _grid23():
    return build_grid(build_workspace(2, 3))


def test_variable_naming():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(5,), v_goals=(7,))
    model = build_model(inst, 2)
    names = column_names(model)
    assert any(n.startswith("x_0_5_") for n in names)
    assert names == ["x_%d_%d_%d_%d" % tuple(v) for v in model.variables.tolist()]


def test_constraint_families_present():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 5), v_goals=(5, 1))
    model = build_model(inst, 3)
    rows = model_rows(model)
    senses = {s for _, s, _ in rows}
    assert senses == {"=", "<="}
    eq = [c for c in rows if c[1] == "="]
    le = [c for c in rows if c[1] == "<="]
    # per robot: flow rows, then start departures = 1, goal arrivals = 1
    assert sum(1 for (_, _, rhs) in eq if rhs == 1) == 2 * inst.n
    assert le, "capacity families missing"
    for terms, _, rhs in rows:
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
    u, mid, w = (g.row_start[m] + k for k in (0, 1, 2))
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
    for prune in (True, False):
        model = build_model(inst, 3, prune=prune)
        names, matrix, lower, upper = parse_lp(export_lp(model))
        rows, cols = model.constraints, column_names(model)
        # columns are numbered in order of first use
        assert names == list(dict.fromkeys(cols[c] for c in rows.col))
        assert sorted(names) == sorted(cols)
        parsed = [sorted(zip([names[c] for c in matrix.indices[a:b]],
                             matrix.data[a:b].tolist()))
                  for a, b in zip(matrix.indptr, matrix.indptr[1:])]
        built = [sorted(zip([cols[c] for c in rows.col[a:b]],
                            rows.coef[a:b].astype(float).tolist()))
                 for a, b in zip(rows.indptr, rows.indptr[1:])]
        assert parsed == built
        assert upper.tolist() == rows.rhs.astype(float).tolist()
        assert lower.tolist() == [float(r) if s == ilp.EQ else -np.inf
                                  for s, r in zip(rows.sense, rows.rhs)]
        assert len(rows) > 0 and (rows.sense == ilp.LE).any()


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
    name = column_names(model)[0]
    for value in ("abc", "nan", "NaN", "inf", "-inf", "1e999"):
        with pytest.raises(SolverError, match="non-numeric"):
            parse_solution(model, f"{name} {value}\n")


@pytest.mark.parametrize("line, message", [
    ("{name} 1 2", "malformed solution line"),
    ("x_9_9_9_9 1", "unknown variable in solution: 'x_9_9_9_9'"),
    ("{name} 1e999", "non-numeric value in solution"),
    ("{name} 0", "duplicate variable in solution: '{name}'"),
])
def test_solution_parser_errors_name_the_line(line, message):
    g = _grid23()
    model = build_model(DiscreteInstance(grid=g, v_starts=(1,), v_goals=(2,)), 1)
    name = column_names(model)[0]
    bad = line.format(name=name)
    text = f"# comment\n{name} 1\n\n  {bad}\n"
    with pytest.raises(SolverError) as err:
        parse_solution(model, text)
    assert str(err.value) == (f"{message.format(name=name)} "
                              f"(line 4: {'  ' + bad!r})")


def test_solution_parser_threshold_and_infeasible():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(2,))
    model = build_model(inst, 1)
    name = column_names(model)[0]
    sol = parse_solution(model, f"{name} 0.73\n")
    assert sol.assignment[0] == 1
    empty = parse_solution(model, "")
    assert not empty.feasible and empty.objective_value == -1


def test_triangle_rows_imply_sharp_angle_rows():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 5), v_goals=(5, 1))
    model = build_model(inst, 2, prune=False)
    angle_rows = sharp_angle_rows(model)
    tri_rows = [(terms, rhs) for terms, s, rhs in model_rows(model)
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


def _solution_text(model, moves):
    """Solution text setting the columns of the (robot, i, j, t) moves to 1
    and every other column to 0."""
    on = {int(model.index[r, t, model.arcs.arc_of[i, j]]) for r, i, j, t in moves}
    return "".join(f"{name} {int(c in on)}\n"
                   for c, name in enumerate(column_names(model)))


def _stay_moves(inst, T):
    return [(r, s, s, t) for r, s in enumerate(inst.v_starts) for t in range(T)]


def _two_moves(inst, T):
    s = inst.v_starts[0]
    return _stay_moves(inst, T) + [(0, s, min(inst.grid.adjacency[s]), 0)]


def _broken_chain(inst, T):
    s = inst.v_starts[0]
    v = min(inst.grid.adjacency[s])
    moves = [m for m in _stay_moves(inst, T) if m[0] != 0 or m[3] != 1]
    return moves + [(0, v, v, 1)]


@pytest.mark.parametrize("moves, message", [
    (_two_moves, "robot 0 has 2 active moves at step 0"),
    (_broken_chain, "robot 0 leaves vertex {v} at step 1 but stands on vertex {s}"),
    (_stay_moves, "robot 0 ends on vertex {s}, not on its goal {g}"),
    (lambda inst, T: [], "robot 0 has 0 active moves at step 0"),
], ids=["two-moves", "broken-chain", "off-goal", "all-zero"])
def test_extract_plan_rejects_bad_solutions(moves, message):
    # an unpruned model has a column for every arc at every step, so each
    # fault is a point the solution file can name
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 5), v_goals=(5, 1))
    model = build_model(inst, 3, prune=False)
    sol = parse_solution(model, _solution_text(model, moves(inst, 3)))
    assert sol.feasible and sol.objective_value == inst.n
    s, g0 = inst.v_starts[0], inst.v_goals[0]
    expected = message.format(s=s, g=g0, v=min(g.adjacency[s]))
    with pytest.raises(SolverError, match=f"^{expected}$"):
        extract_plan(model, sol)


def test_lpsolve_reports_bad_input_in_one_line(tmp_path, capsys):
    from triroute.lpsolve import main
    no_relation, no_rhs = tmp_path / "a.lp", tmp_path / "b.lp"
    no_relation.write_text("Maximize\n obj: 0\nSubject To\n c0: + a + b\nEnd\n")
    no_rhs.write_text("Maximize\n obj: 0\nSubject To\n c0: + a + b <=\nEnd\n")
    missing = tmp_path / "missing.lp"
    for model in (no_relation, no_rhs, missing):
        assert main([str(model), str(tmp_path / "out.sol")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lpsolve: ") and err.count("\n") == 1
        assert "Traceback" not in err
    # through the external backend the one line becomes the solver failure
    inst_path = tmp_path / "i.oldr"
    from triroute.cli import main as cli
    assert cli(["gen", "--n1", "2", "--n2", "3", "--count", "2", "--seed", "2",
                "--out", str(inst_path)]) == 0
    cmd = "{python} -m triroute.lpsolve " + str(missing) + " {solution}"
    assert cli(["solve", str(inst_path), "--backend", "external",
                "--solver-cmd", cmd]) == 4
    err = capsys.readouterr().err
    assert "solver exited with 2: lpsolve: " in err and "Traceback" not in err


SMALL_LP = ("Maximize\n obj: 0\nSubject To\n c0: + b + a = 1\n"
            " c1: + b - a <= 0\nBinary\n a\n b\nEnd\n")


def test_lpsolve_module_solves_small_lp(tmp_path, milp_calls):
    names, values = solve_lp_text(SMALL_LP)
    # the root-only call settles it; columns in order of first use
    assert milp_calls == [(ROOT_ONLY, 0)]
    assert names == ["b", "a"] and values == [0, 1]
    model = tmp_path / "m.lp"
    out = tmp_path / "m.sol"
    model.write_text(SMALL_LP)
    assert lpsolve.main([str(model), str(out)]) == 0
    assert out.read_text() == "b 0\na 1\n"


@pytest.mark.parametrize("old, new, line", [
    (" obj: 0", " obj: + a", 2),
    (" c1: + b - a <= 0", " c1: + b - a >= 0", 5),
    (" c0: + b + a = 1", " c0: + 2 b + a = 1", 4),
    (" c0: + b + a = 1", " c0: - 1 - 1 = 1", 4),
    (" c1: + b - a <= 0", " c1: + b - a <= nan", 5),
    (" c1: + b - a <= 0", " c1: + b - a <= 0.5", 5),
    (" c1: + b - a <= 0", " c2: + b - a <= 0", 5),
    (" c1: + b - a <= 0", " c1: + b a <= 0", 5),
    (" b\nEnd", " c\nEnd", 6),
    ("End\n", "End\nc2: + a = 1\n", 6),
], ids=["objective", ">= row", "coefficient", "number for a name", "nan rhs",
        "fractional rhs", "row label", "missing sign", "binary name",
        "after End"])
def test_lpsolve_reads_only_the_export_lp_dialect(tmp_path, capsys, old, new,
                                                  line):
    model, out = tmp_path / "m.lp", tmp_path / "m.sol"
    assert old in SMALL_LP
    model.write_text(SMALL_LP.replace(old, new))
    assert lpsolve.main([str(model), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lpsolve: line {line}: ") and err.count("\n") == 1
    assert not out.exists()


def test_solver_child_loads_no_other_triroute_module(tmp_path):
    # the external solver child, started as the default command starts
    # it, reads the row senses from the package and imports nothing else
    # of triroute: -X importtime names every module it imports
    model, out = tmp_path / "m.lp", tmp_path / "m.sol"
    model.write_text(SMALL_LP)
    env = {**os.environ,
           "PYTHONPATH": str(Path(lpsolve.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "triroute.lpsolve",
         str(model), str(out)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "b 0\na 1\n"
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "scipy" in imported
    assert {m for m in imported if m.split(".")[0] == "triroute"} == {
        "triroute"}


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


@pytest.mark.parametrize("caller, child", [(None, "1"), ("3", "3")],
                         ids=["default", "caller-set"])
def test_external_solver_child_runs_one_blas_thread(tmp_path, monkeypatch,
                                                    caller, child):
    # the child sees OPENBLAS_NUM_THREADS=1 unless the caller set it
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    side = tmp_path / "blas.txt"
    code = ("import os, sys; blas = os.environ.get('OPENBLAS_NUM_THREADS'); "
            "open(sys.argv[1], 'w').write(str(blas)); "
            "open(sys.argv[2], 'w').close()")
    cmd = f"{{python}} -c {shlex.quote(code)} {shlex.quote(str(side))} {{solution}}"
    model = build_model(DiscreteInstance(grid=_grid23(), v_starts=(1,),
                                         v_goals=(2,)), 1)
    assert not solve(model, backend="external", solver_cmd=cmd).feasible
    assert side.read_text() == child


def _dense(ws, n, seed):
    w = build_workspace(*ws)
    inst, _, _ = discretize(dense_instance(w, n, seed), build_grid(w))
    return inst


# sha256 of export_lp at the first horizon of the three external-solver
# benchmark instances and of one small model: the solver's run time
# depends on the row and term order.  Recorded when the virtual
# goal-to-start columns and the objective were dropped; the text is the
# earlier one without those terms and rows.  In-process HiGHS CPU on the
# three benchmark horizons (2-core VM, Python 3.11, scipy 1.17.1), three
# rounds, with / without them: 0.73/1.22/2.87 s against 0.74/1.12/2.85 s,
# 0.78/1.17/2.91 s against 0.69/1.11/2.73 s, 0.75/1.13/2.55 s against
# 0.62/1.09/2.69 s, within noise.
LP_SHA256 = {
    ((3, 5), 16, 0):
        "f09d434e6be403350affd7393593ad8dfcbaafa22d51eff8ff7b138efe154d15",
    ((4, 4), 18, 0):
        "ec47dea2e835f376c27cdb311223513caf03c12aae4d80e71c7bb8bcb99aa99d",
    ((3, 5), 20, 0):
        "f8d3cbc9b28866aa8109f32456221afde720bc24c29580e72d4f28b00fda7171",
    ((2, 3), 4, 0):
        "a431a14fd56b592fe812a95e17e2a7b428535c22f854b725ccb6acc62c0e5033",
}


@pytest.mark.parametrize("case", sorted(LP_SHA256))
def test_export_lp_text_is_pinned(case):
    inst = _dense(*case)
    text = export_lp(build_model(inst, underestimated_makespan(inst)))
    assert hashlib.sha256(text.encode()).hexdigest() == LP_SHA256[case]


ROOT_ONLY = {"presolve": False, "node_limit": 1,
             "time_limit": lpsolve.ROOT_TIME_LIMIT_S}


@pytest.fixture
def milp_calls(monkeypatch):
    """(options, status) of each ``milp`` call lpsolve makes."""
    calls = []
    real = lpsolve.milp

    def spy(**kwargs):
        options = dict(kwargs["options"]) if "options" in kwargs else None
        res = real(**kwargs)       # milp pops entries from the options
        calls.append((options, res.status))
        return res

    monkeypatch.setattr(lpsolve, "milp", spy)
    return calls


def _unsettled_root(monkeypatch):
    """Make every root-only call end at its node limit, unsettled; return
    the results of the calls that run in full."""
    full = []
    real = lpsolve.milp

    def milp(**kwargs):
        if kwargs.get("options") == ROOT_ONLY:
            return SimpleNamespace(status=1, success=False, x=None,
                                   message="Node limit reached.")
        full.append(real(**kwargs))
        return full[-1]

    monkeypatch.setattr(lpsolve, "milp", milp)
    return full


def _routes(model, result):
    text = "".join(f"{name} {value}\n" for name, value in zip(*result))
    plan = extract_plan(model, parse_solution(model, text))
    inst = model.inst
    return check_plan(inst.grid, plan, inst.v_starts, inst.v_goals) == []


def test_zero_objective_settled_by_one_root_call(milp_calls):
    model = build_model(_dense((2, 3), 6, 2), 5)
    result = solve_lp_text(export_lp(model))
    assert milp_calls == [(ROOT_ONLY, 0)]
    assert _routes(model, result)


def test_unsettled_root_reruns_the_default_call(monkeypatch):
    model = build_model(_dense((2, 3), 6, 2), 5)
    full = _unsettled_root(monkeypatch)
    names, values = solve_lp_text(export_lp(model))
    assert len(full) == 1 and full[0].status == 0
    assert values == [int(round(x)) for x in full[0].x]
    assert _routes(model, (names, values))


def test_root_out_of_time_reruns_the_default_call(monkeypatch, milp_calls):
    # HiGHS ends a root-only call at once, with status 1, when its time
    # limit is zero; the default call then runs without options
    monkeypatch.setattr(lpsolve, "ROOT_TIME_LIMIT_S", 0.0)
    model = build_model(_dense((2, 3), 6, 2), 5)
    result = solve_lp_text(export_lp(model))
    assert milp_calls == [({**ROOT_ONLY, "time_limit": 0.0}, 1), (None, 0)]
    assert _routes(model, result)


@pytest.mark.parametrize("case", [((3, 5), 16, 0), ((4, 4), 18, 0),
                                  ((3, 5), 20, 0)])
def test_benchmark_horizons_settled_at_the_root(milp_calls, case):
    # the external-solver benchmark instances, each feasible at its lower
    # bound: the root without presolve finds a routing there
    inst = _dense(*case)
    model = build_model(inst, underestimated_makespan(inst))
    result = solve_lp_text(export_lp(model))
    assert milp_calls == [(ROOT_ONLY, 0)]
    assert _routes(model, result)


# (workspace, discs, seed) -> infeasible horizons before the optimum
INFEASIBLE_FIRST = {((2, 3), 6, 2): 1, ((2, 3), 6, 4): 2, ((2, 3), 5, 7): 2,
                    ((3, 3), 5, 5): 2, ((3, 3), 6, 4): 1}


@pytest.mark.parametrize("root", ["settles", "unsettled"])
def test_lpsolve_agrees_with_exhaustive_at_every_horizon(monkeypatch, root):
    # every horizon the search tries goes through the bundled solver in
    # process too, on either side of the root-only rule
    if root == "unsettled":
        _unsettled_root(monkeypatch)
    horizons = []

    def both(model, **kwargs):
        sol = solve(model, **kwargs)
        result = solve_lp_text(export_lp(model))
        assert (result is not None) == sol.feasible, (model.inst, model.T)
        assert result is None or _routes(model, result)
        horizons.append(sol.feasible)
        return sol

    monkeypatch.setattr(triilp, "solve", both)
    for (ws, n, seed), infeasible in INFEASIBLE_FIRST.items():
        horizons.clear()
        triilp.solve_triilp(_dense(ws, n, seed))
        assert horizons == [False] * infeasible + [True], (ws, n, seed)


def test_lpsolve_reports_milp_failure_in_one_line(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(lpsolve, "milp", lambda **kwargs: SimpleNamespace(
        status=4, success=False, x=None, message="HiGHS gave up."))
    model, out = tmp_path / "m.lp", tmp_path / "m.sol"
    model.write_text(export_lp(build_model(_dense((2, 3), 4, 0), 3)))
    assert lpsolve.main([str(model), str(out)]) == 2
    assert capsys.readouterr().err == (
        "lpsolve: milp failed: status=4 HiGHS gave up.\n")


def test_unpruned_models_route_no_faster_than_the_optimum():
    # an unpruned model has step-0 columns leaving every vertex; without
    # the origin rows a robot could set off from anywhere
    g = _grid23()
    checked = 0
    for seed in range(40):
        inst = random_discrete_instance(g, 2, seed)
        opt = joint_bfs_makespan(g, inst.v_starts, inst.v_goals, cap=12)
        for T in range(1, opt + 2):
            model = build_model(inst, T, prune=False)
            lp = solve_lp_text(export_lp(model))
            assert (lp is not None) == (T >= opt), (seed, T)
            if lp is not None:
                text = "".join(f"{k} {x}\n" for k, x in zip(*lp))
                plan = extract_plan(model, parse_solution(model, text))
                assert check_plan(g, plan, inst.v_starts, inst.v_goals) == []
            assert (solve(model).objective_value == 2) == (T >= opt), (seed, T)
            checked += 1
    assert checked == 154


def test_exhaustive_matches_reference_search():
    # the reference tries every goal subset with pairwise walk tests; its
    # partial routings are not feasible points of the model, so there the
    # single full-subset search reports the horizon infeasible
    cases = []
    for ws in ((2, 3), (3, 3)):
        g = build_grid(build_workspace(*ws))
        for n in range(2, 6):
            for seed in range(3):
                cases += [random_discrete_instance(g, n, 100 * n + seed),
                          _dense(ws, n, seed)]
    full = infeasible = 0
    for inst in cases:
        lo = max(1, underestimated_makespan(inst))
        models = [build_model(inst, T) for T in (lo, lo + 1)]
        models.append(build_model(inst, min(lo, 3 if inst.n <= 3 else 2),
                                  prune=False))
        for model in models:
            ref, objective = reference_exhaustive(model)
            sol = solve(model)
            if objective == inst.n:
                assert sol.objective_value == inst.n
                assert sol.assignment.tolist() == [
                    ref[c] for c in range(len(model.variables))]
                full += 1
            else:
                assert not sol.feasible and sol.objective_value == -1
                infeasible += 1
    assert (full, infeasible) == (84, 60)


def test_one_walk_search_per_horizon(monkeypatch):
    # 6 discs whose first horizon is infeasible: the goal-subset loop ran
    # 64 failing searches there
    calls = []
    search = ilp._search
    monkeypatch.setattr(ilp, "_search",
                        lambda choices: calls.append(1) or search(choices))
    plan, rep = solve_triilp(_dense((2, 3), 6, 2))
    assert (rep.makespan, rep.iterations) == (5, 2)
    assert len(calls) == 2


def test_grid_tables_built_once_per_search(monkeypatch):
    # two horizons: one arc table and one BFS per distinct start or goal,
    # all on the first search of a fresh grid; later searches and PAFT on
    # the same grid read the kept rows (PAFT's corner staging also runs
    # BFS around blocked vertices, which are not kept and not counted)
    from triroute import geometry
    from triroute.paft import paft
    arc_tables, bfs = [], []
    of, distances = geometry.Arcs.of.__func__, geometry.bfs_distances
    monkeypatch.setattr(geometry.Arcs, "of", classmethod(
        lambda cls, grid: arc_tables.append(1) or of(cls, grid)))

    def counted(grid, v, blocked=()):
        if not blocked:
            bfs.append(v)
        return distances(grid, v, blocked)

    monkeypatch.setattr(geometry, "bfs_distances", counted)
    inst = _dense((2, 3), 6, 2)
    plan, rep = solve_triilp(inst)
    assert rep.iterations == 2
    assert len(arc_tables) == 1
    assert sorted(bfs) == sorted(set(inst.v_starts) | set(inst.v_goals))
    assert inst.grid.arcs is inst.grid.arcs
    searched = len(bfs)
    solve_triilp(inst)
    paft(inst)
    assert len(arc_tables) == 1 and len(bfs) == searched


def test_conflict_table_built_once_per_grid(monkeypatch):
    # two horizons and a second instance on the same grid read one kept
    # conflict-bit table, equal to the table of a fresh grid
    from triroute import geometry
    built = []
    bits = geometry._successor_bits
    monkeypatch.setattr(geometry, "_successor_bits",
                        lambda arcs: built.append(arcs) or bits(arcs))
    inst = _dense((2, 3), 6, 2)
    plan, rep = solve_triilp(inst)
    assert rep.iterations == 2
    back = DiscreteInstance(grid=inst.grid, v_starts=inst.v_goals,
                            v_goals=inst.v_starts)
    solve_triilp(back)
    assert len(built) == 1 and built[0] is inst.grid.arcs
    table = inst.grid.arcs.successors
    assert table is inst.grid.arcs.successors
    assert table == build_grid(build_workspace(2, 3)).arcs.successors


def test_default_solve_builds_no_lp_rows(monkeypatch):
    # the exhaustive search reads no row; export builds them once per model
    built = []
    rows = ilp._constraint_rows
    monkeypatch.setattr(ilp, "_constraint_rows",
                        lambda model: built.append(model) or rows(model))
    inst = _dense((2, 3), 6, 2)
    plan, rep = solve_triilp(inst)
    assert (rep.makespan, rep.iterations) == (5, 2)
    assert built == []
    model = build_model(inst, rep.makespan)
    text = export_lp(model)
    assert len(built) == 1 and built[0] is model
    assert export_lp(model) == text
    assert len(built) == 1


def test_few_discs_search_only_their_own_ends(monkeypatch):
    # a sparse model on a 200-vertex grid runs one BFS per start and goal,
    # not one per vertex
    from triroute import geometry
    bfs = []
    distances = geometry.bfs_distances
    monkeypatch.setattr(geometry, "bfs_distances",
                        lambda grid, v: bfs.append(v) or distances(grid, v))
    grid = build_grid(build_workspace(9, 10))
    inst = DiscreteInstance(grid=grid, v_starts=(0, 57, 120),
                            v_goals=(199, 3, 88))
    T = underestimated_makespan(inst)
    for horizon in (T, T + 1):
        build_model(inst, horizon)
    assert sorted(bfs) == sorted(inst.v_starts + inst.v_goals)
