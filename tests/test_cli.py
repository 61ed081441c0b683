import contextlib
import hashlib
import io
import math
import os
import random
import types

import pytest
from hypothesis import given, strategies as st

from triroute import io as tio
from triroute.cli import EXIT_PROOF_FAILED, main
from triroute.discretize import discretize, validate_separation
from triroute.geometry import EDGE_LEN, Vec2, build_grid, build_workspace
from triroute.instances import (GenerationError, dense_instance, dense_points,
                                packing_bound, random_instance)
from triroute.paft import SwapEngine, _Router
from triroute.plan import DiscretePlan, check_plan
from triroute.render import render
from triroute.triilp import solve_triilp
from triroute.validate import ContinuousPlan, synthesize, synthesize_discrete


def run(*args):
    return main(list(args))


def test_gen_dense_places_twenty_on_fig10_scale_workspace(tmp_path):
    out = tmp_path / "dense.oldr"
    assert run("gen", "--n1", "3", "--n2", "5", "--count", "20",
               "--pattern", "dense", "--seed", "1", "--out", str(out)) == 0
    inst = tio.read_instance(str(out))
    assert inst.n == 20
    assert validate_separation(inst).ok


def test_gen_single_disc_tiny_workspace(tmp_path):
    out = tmp_path / "one.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "1",
               "--out", str(out)) == 0
    assert tio.read_instance(str(out)).n == 1


def test_gen_random_instances_always_admissible():
    for seed in range(25):
        ws = build_workspace(3, 4)
        inst = random_instance(ws, 6, seed)
        assert validate_separation(inst).ok


def test_gen_dense_capacity_error(tmp_path):
    out = tmp_path / "over.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "500",
               "--pattern", "dense", "--out", str(out)) == 4


def test_random_instance_rejects_counts_above_the_packing_bound(
        tmp_path, monkeypatch):
    # a count the inset box cannot hold fails before any draw, in the
    # library and through gen; every count a dense packing reaches, at
    # the strict pitch or the exact one, stays admissible
    ws = build_workspace(3, 3)
    assert packing_bound(ws) == 21

    def no_draw(*_):
        raise AssertionError("drew a point for a count that cannot fit")

    with monkeypatch.context() as mp:
        mp.setattr(random.Random, "uniform", no_draw)
        for count in (22, 100):
            with pytest.raises(GenerationError, match="at most 21 discs"):
                random_instance(ws, count, seed=0)
        assert run("gen", "--n1", "3", "--n2", "3", "--count", "100",
                   "--out", str(tmp_path / "over.oldr")) == 4
    for n1 in range(2, 13):
        for n2 in range(3, 13):
            ws = build_workspace(n1, n2)
            assert len(dense_points(ws)) <= packing_bound(ws)
            assert len(dense_points(ws, strict=False)) <= packing_bound(ws)


def test_gen_non_strict_reproduces_exact_pitch():
    ws = build_workspace(3, 3)
    pts = dense_points(ws, strict=False)
    dmin = min(pts[i].dist(pts[j]) for i in range(len(pts))
               for j in range(i + 1, len(pts)))
    assert abs(dmin - 8 / 3) < 1e-9
    inst = dense_instance(ws, 6, seed=0, strict=False)
    assert not validate_separation(inst).ok  # violates the strict rule


def test_instance_round_trip(tmp_path):
    ws = build_workspace(2, 3)
    inst = random_instance(ws, 4, seed=9)
    path = tmp_path / "rt.oldr"
    tio.write_instance(str(path), inst)
    back = tio.read_instance(str(path))
    assert back.workspace == inst.workspace
    assert back.starts == inst.starts
    assert back.goals == inst.goals


def test_plan_round_trips(tmp_path):
    plan = DiscretePlan.from_steps([(1, 2), (2, 3), (3, 4)])
    text = tio.format_discrete_plan(plan)
    back = tio.parse_plan(text)
    assert back.steps == plan.steps

    traj = [[(0.0, Vec2(1.25, 2.5)), (1.5, Vec2(3.0, 2.5))],
            [(0.0, Vec2(5.0, 5.0)), (1.5, Vec2(5.0, 5.0))]]
    cplan = ContinuousPlan.from_points(traj, makespan=1.5)
    back2 = tio.parse_plan(tio.format_continuous_plan(cplan))
    assert back2.trajectories == traj


def test_solve_identity_instance(tmp_path, capsys):
    g = build_grid(build_workspace(2, 3))
    inst_path = tmp_path / "id.oldr"
    far = max(range(g.n_vertices),
              key=lambda v: g.vertices[0].dist(g.vertices[v]))
    pts = [g.vertices[0], g.vertices[far]]
    lines = ["oldr 1", "workspace 2 3"]
    for i, p in enumerate(pts):
        lines.append(f"disc {i + 1} {p.x!r} {p.y!r} {p.x!r} {p.y!r}")
    inst_path.write_text("\n".join(lines) + "\n")
    assert run("solve", str(inst_path)) == 0
    out = capsys.readouterr().out
    assert "discrete_makespan=0" in out
    assert "ratio=1.000000" in out


def test_solve_writes_validated_plan(tmp_path):
    inst_path = tmp_path / "a.oldr"
    plan_path = tmp_path / "a.plan"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "4",
               "--pattern", "dense", "--seed", "3", "--out", str(inst_path)) == 0
    assert run("solve", str(inst_path), "--out", str(plan_path)) == 0
    loaded = tio.read_plan(str(plan_path))
    assert isinstance(loaded, ContinuousPlan)


def test_solve_report_prints_each_field_once(tmp_path, capsys):
    inst_path = tmp_path / "r.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "3",
               "--seed", "5", "--out", str(inst_path)) == 0
    capsys.readouterr()
    assert run("solve", str(inst_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [ln.split("=", 1)[0] for ln in lines]
    assert all("=" in ln and " " not in k for ln, k in zip(lines, keys))
    assert keys == ["method", "robots", "discrete_makespan", "underestimate",
                    "ratio", "continuous_makespan", "min_pair_clearance",
                    "wall_time", "plan_file"]


def test_solve_methods_cross_comparison(tmp_path, capsys):
    inst_path = tmp_path / "x.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "3",
               "--pattern", "random", "--seed", "5", "--out", str(inst_path)) == 0

    def makespan_of(method):
        assert run("solve", str(inst_path), "--method", method) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("discrete_makespan="))
        return int(line.split("=")[1])

    t = makespan_of("triilp")
    p = makespan_of("paft")
    i = makespan_of("isag")
    assert p >= t and i >= t  # the ILP horizon search is optimal


def test_exit_codes(tmp_path):
    missing = tmp_path / "missing.oldr"
    bad = tmp_path / "bad.oldr"
    bad.write_text("not a header\n")
    assert run("solve", str(bad)) == 2

    sep = tmp_path / "sep.oldr"
    sep.write_text("oldr 1\nworkspace 2 3\n"
                   "disc 1 3.0 3.0 3.0 3.0\n"
                   "disc 2 3.5 3.0 3.5 3.0\n")
    assert run("solve", str(sep)) == 3

    clear = tmp_path / "clear.oldr"
    clear.write_text("oldr 1\nworkspace 2 3\ndisc 1 0.5 3.0 3.0 3.0\n")
    assert run("solve", str(clear)) == 3

    ok = tmp_path / "ok.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "2",
               "--seed", "2", "--out", str(ok)) == 0
    assert run("solve", str(ok), "--method", "nosuch") == 2
    assert run("solve", str(ok), "--backend", "external",
               "--solver-cmd", "/does/not/exist {model} {solution}") == 4
    # unknown verbs and bad flags are argparse (parse) errors
    assert run("frobnicate") == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [2, 5], ids=["start", "goal"])
def test_non_finite_coordinate_exits_2(tmp_path, capsys, field, value):
    # every separation and clearance comparison is false for NaN, so the
    # parser itself must reject it, naming the line
    disc = "disc 2 7.0 3.0 7.0 3.0".split()
    disc[field] = value
    path = tmp_path / "nf.oldr"
    path.write_text("oldr 1\nworkspace 2 3\ndisc 1 3.0 3.0 3.0 3.0\n"
                    + " ".join(disc) + "\n")
    assert run("solve", str(path)) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and " ".join(disc) in err
    with pytest.raises(tio.ParseError, match="non-finite"):
        tio.read_instance(str(path))


def _truncate_rotation_words(monkeypatch):
    rotation_word = SwapEngine._rotation_word

    def truncated(self, *args):
        word = rotation_word(self, *args)
        return word[:-1] if word else word

    monkeypatch.setattr(SwapEngine, "_rotation_word", truncated)
    # a packing always has a hole in reach of a pair of real discs whose
    # batch leaves it free, so a word is built only when no hole is in
    # reach; corner staging, which has no hop bound, still finds its holes
    monkeypatch.setattr("triroute.paft._HOLE_REACH", -1)


def _skip_sort(monkeypatch):
    monkeypatch.setattr(_Router, "sort_covered",
                        lambda self, paths, target_of: None)


@pytest.mark.parametrize("fault", [_truncate_rotation_words, _skip_sort])
def test_planner_faults_exit_4(tmp_path, monkeypatch, capsys, fault):
    # the full 9-disc packing (seed 18): the sort transposes pairs of
    # real discs, which take their rotation words once the hole path is
    # gone
    inst_path = tmp_path / "f.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "9",
               "--pattern", "dense", "--seed", "18", "--out", str(inst_path)) == 0
    fault(monkeypatch)
    assert run("solve", str(inst_path), "--method", "paft") == 4
    assert "solver failure" in capsys.readouterr().err


def _solver_script(tmp_path, body):
    """Solver command running body with the model and solution paths."""
    script = tmp_path / "solver.py"
    script.write_text("import sys\nmodel, solution = sys.argv[1:3]\n" + body)
    return "{python} " + str(script) + " {model} {solution}"


_GARBAGE_VALUE = """\
names = open(model).read().split("Binary")[1].split()
with open(solution, "w") as f:
    f.write(names[0] + " abc\\n")
"""


_ALL_ZERO = """\
names = open(model).read().split("Binary")[1].split()[:-1]
with open(solution, "w") as f:
    f.writelines(name + " 0\\n" for name in names)
"""


_DUPLICATE = """\
name = open(model).read().split("Binary")[1].split()[0]
with open(solution, "w") as f:
    f.write(name + " 1\\n" + name + " 0\\n")
"""


@pytest.mark.parametrize("body, message", [
    (_GARBAGE_VALUE, "non-numeric value"),
    ("pass\n", "no solution file"),
    ("import time\ntime.sleep(60)\n", "timed out"),
    (_ALL_ZERO, "robot 0 has 0 active moves at step 0"),
    (_DUPLICATE, "duplicate variable in solution"),
], ids=["garbage-value", "no-output-file", "hang", "all-zero", "duplicate"])
def test_external_solver_faults_exit_4(tmp_path, monkeypatch, capsys, body,
                                       message):
    monkeypatch.setattr("triroute.ilp.SOLVER_TIMEOUT_S", 2.0)
    inst_path = tmp_path / "s.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "2",
               "--seed", "2", "--out", str(inst_path)) == 0
    assert run("solve", str(inst_path), "--backend", "external",
               "--solver-cmd", _solver_script(tmp_path, body)) == 4
    err = capsys.readouterr().err
    assert "solver failure" in err and message in err


@pytest.mark.parametrize("template, via", [
    ("foo {bar} {model} {solution}", "flag"),
    ("{0} {model} {solution}", "flag"),
    ("foo {model {solution}", "flag"),
    ("foo 'bar {model} {solution}", "flag"),
    (" ", "flag"),
    ("foo {bar} {model} {solution}", "env"),
], ids=["unknown-placeholder", "positional-placeholder", "unbalanced-brace",
        "unbalanced-quote", "no-command", "env-unknown-placeholder"])
def test_bad_solver_command_template_exits_4(tmp_path, monkeypatch, capsys,
                                             template, via):
    # a template that cannot be expanded or split into a command is a
    # solver failure naming the template, not a traceback or a parse error
    inst_path = tmp_path / "t.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "2",
               "--seed", "2", "--out", str(inst_path)) == 0
    capsys.readouterr()
    flag = ["--solver-cmd", template] if via == "flag" else []
    if via == "env":
        monkeypatch.setenv("TRIROUTE_SOLVER_CMD", template)
    assert run("solve", str(inst_path), "--backend", "external", *flag) == 4
    err = capsys.readouterr().err
    assert err.count("solver failure:") == 1 and repr(template) in err
    assert "Traceback" not in err


def test_prove_failed_sweep_exits_1(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    assert run("prove", "--epsilons", "0.5", "--out", str(cert)) == 1
    assert EXIT_PROOF_FAILED == 1
    assert "verdict=fail" in capsys.readouterr().out
    assert "verdict fail" in cert.read_text()


def test_prove_cli(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    assert run("prove", "--epsilons", "10", "--out", str(cert)) == 1
    text = cert.read_text()
    assert "verdict fail" in text and "min_delta" in text

    assert run("prove", "--epsilons", "0.05", "--out", str(cert)) == 0
    text = cert.read_text()
    assert "verdict pass" in text
    assert "case_count" in text and "worst_si" in text


def test_bench_identity_suite(tmp_path, capsys):
    # dense pattern with seed-stable relabeling; identity suite via count=1
    inst = tmp_path / "results.tsv"
    plot = tmp_path / "results.svg"
    code = run("bench", "--sizes", "2x3", "--robots", "2,3",
               "--methods", "triilp", "--pattern", "random", "--count", "2",
               "--seed", "4", "--out", str(inst), "--plot", str(plot))
    assert code == 0
    lines = inst.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["method", "n", "mean_time", "ratio",
                                    "failures"]
    assert len(lines) == 3
    for ln in lines[1:]:
        cells = ln.split("\t")
        assert cells[0] == "triilp"
        assert float(cells[3]) >= 1.0
        assert cells[4] == "0"
    svg = plot.read_text()
    assert svg.startswith("<svg") and "robots" in svg


# each case names the path that cannot be read or written
IO_FAULTS = {
    "solve input": ("{missing}", ["solve", "{missing}"]),
    "solve --out": ("{nodir}", ["solve", "{ok}", "--out", "{nodir}"]),
    "render --instance": ("{missing}", ["render", "--instance", "{missing}",
                                        "--out", "{svg}"]),
    "render --plan": ("{missing}", ["render", "--instance", "{ok}",
                                    "--plan", "{missing}", "--out", "{svg}"]),
    "render --out": ("{nodir}", ["render", "--instance", "{ok}",
                                 "--out", "{nodir}"]),
    "gen --out": ("{nodir}", ["gen", "--n1", "2", "--n2", "3", "--count", "2",
                              "--out", "{nodir}"]),
    "prove --out": ("{nodir}", ["prove", "--epsilons", "0.5",
                                "--out", "{nodir}"]),
    "bench --out": ("{nodir}", ["bench", "--count", "1", "--out", "{nodir}"]),
    "bench --plot": ("{nodir}", ["bench", "--count", "1",
                                 "--plot", "{nodir}"]),
}


@pytest.mark.parametrize("case", list(IO_FAULTS))
def test_io_errors_exit_2_naming_the_path(tmp_path, capsys, monkeypatch, case):
    paths = {"missing": tmp_path / "missing.oldr",
             "ok": tmp_path / "ok.oldr", "svg": tmp_path / "x.svg",
             "nodir": tmp_path / "no-such-dir" / "out"}
    paths["ok"].write_text("oldr 1\nworkspace 2 3\ndisc 1 3.0 3.0 7.0 3.0\n")
    # bench checks its outputs before it routes anything
    routed = []
    if case.startswith("bench"):
        monkeypatch.setattr("triroute.cli._run_method",
                            lambda *args: routed.append(args))
    named, argv = IO_FAULTS[case]
    capsys.readouterr()
    assert run(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1, err
    assert named.format(**paths) in err
    assert routed == []


TWO_DISCS = ("oldr 1\nworkspace 2 3\n"
             "disc 1 3.0 3.0 7.0 3.0\ndisc 2 7.0 6.0 3.0 6.0\n")


def test_plan_missing_the_snapped_ends_is_a_solver_failure(
        tmp_path, capsys, monkeypatch):
    # a planner that never leaves the start vertices
    monkeypatch.setattr("triroute.cli.isag", lambda dinst, engine=None:
                        DiscretePlan.from_steps([dinst.v_starts]))
    path = tmp_path / "two.oldr"
    path.write_text(TWO_DISCS)
    assert run("solve", str(path), "--method", "isag") == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "snapped goal" in err


def test_non_injective_snap_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("triroute.discretize.nearest_vertex", lambda g, p: 0)
    path = tmp_path / "two.oldr"
    path.write_text(TWO_DISCS)
    assert run("solve", str(path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ")
    assert "both snap to vertex 0" in err


def test_submodule_imports_bind_modules():
    # the package namespace must not shadow a submodule with a function
    import triroute.discretize as discretize_module
    import triroute.paft as paft_module
    import triroute.validate as validate_module

    for m in (discretize_module, paft_module, validate_module):
        assert isinstance(m, types.ModuleType), m


def test_bench_continues_after_failures(tmp_path):
    out = tmp_path / "r.tsv"
    # 300 robots cannot be generated on the minimal workspace
    code = run("bench", "--sizes", "2x3", "--robots", "300",
               "--methods", "triilp", "--count", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split("\t")[4] == "1"  # failures recorded


def test_bench_cell_where_every_instance_failed_has_no_ratio(tmp_path):
    # 100 discs cannot be generated on 3x3: that cell has no time and no
    # ratio (nan, not a perfect 1.0), and the plot leaves it out
    out, plot = tmp_path / "r.tsv", tmp_path / "r.svg"
    code = run("bench", "--sizes", "3x3", "--robots", "2,100",
               "--methods", "paft", "--count", "1", "--out", str(out),
               "--plot", str(plot))
    assert code == 0
    rows = [ln.split("\t") for ln in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["2", "100"]
    assert math.isfinite(float(rows[0][3])) and rows[0][4] == "0"
    assert rows[1][2:] == ["nan", "nan", "1"]
    svg = plot.read_text()
    assert "nan" not in svg
    assert svg.count("<polyline ") == 2     # one line per metric panel


def test_render_deterministic_bytes(tmp_path):
    inst_path = tmp_path / "r.oldr"
    plan_path = tmp_path / "r.plan"
    svg1 = tmp_path / "r1.svg"
    svg2 = tmp_path / "r2.svg"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "3",
               "--pattern", "dense", "--seed", "8", "--out", str(inst_path)) == 0
    assert run("solve", str(inst_path), "--out", str(plan_path)) == 0
    for out in (svg1, svg2):
        assert run("render", "--instance", str(inst_path),
                   "--plan", str(plan_path), "--mode", "trace",
                   "--out", str(out)) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_render_static_and_snapshot(tmp_path):
    inst_path = tmp_path / "s.oldr"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "2",
               "--seed", "6", "--out", str(inst_path)) == 0
    out = tmp_path / "s.svg"
    assert run("render", "--instance", str(inst_path), "--out", str(out)) == 0
    text = out.read_text()
    assert "<circle" in text and "<line" in text


# sha256 of SVG renders of a 2x3 ILP plan (dense_instance, 5 discs,
# seed 3) and the 4x5 full-occupancy PAFT plan; the ILP entries were
# recorded when render still drew from the (time, Vec2) point lists, the
# PAFT start and end snapshots when swaps first took the shortest
# rotation word, and the other PAFT entries when routing became three
# phases of parallel sorts along the columns, rows and columns
RENDER_SHA256 = {
    "ilp trace": "066e646c686652123524f75b80ac708dc020a77e1a0308085229a11472a39983",
    "paft trace": "cff6543eee8eb696da8654e2eac994310ebab87421b0a27bcff4fa292e684b63",
    "ilp 0": "5b3acb62f391985caa121924daa95dbfaec81ace90a05dab85f62612846acc58",
    "paft 0": "126c227552b130b65f666b5a08fbcc2be77440f0e2cd8dc8437e570291cd9161",
    "ilp 0.3": "8fbcec0111e46b8b91f16365a1a30f0fc597497847af510405066a7230d5c2ea",
    "paft 0.3": "2847cf734bd3e387243464a045d4c97ef629790db09fc61031c87cc2882dabe7",
    "ilp 3": "9598b2296f7376b8b35f91d4cfe2d4240f58713440db340ff9a656df219b94aa",
    "paft 3": "949fce37e3e4e1696ea720307edaea3e7c101a29cde97c3c3f83d539e75d8e27",
    "ilp 4.6188": "0b70a19fa5c9e83b8c0faad7375f3826f000ec7469965b0833e9affcc877a7b3",
    "paft 4.6188": "2c7270fd45a53d0ad0c626c23e22f6e9edbe2005d257e3af6fa9d3cc11d976ef",
    "ilp 1e+09": "f72dccc67f37ea577c12d350386e677b34390cc82baa5922f7918bb09a287630",
    "paft 1e+09": "9b7fa853f35b5b059797d013d9ae3733617bec39c047464262c8ae29920f5d9a",
}


def test_render_bytes_are_pinned(paft_full, medium_grid):
    ws = build_workspace(2, 3)
    g = build_grid(ws)
    inst = dense_instance(ws, 5, 3)
    dinst, ss, sg = discretize(inst, g)
    ilp = synthesize(inst, g, solve_triilp(dinst)[0], ss, sg)
    full = synthesize_discrete(medium_grid, paft_full)
    svgs = {"ilp trace": render(ws, grid=g, inst=inst, cplan=ilp, mode="trace"),
            "paft trace": render(medium_grid.workspace, grid=medium_grid,
                                 cplan=full, mode="trace")}
    # before the plan, inside a segment, on a breakpoint, after the end
    for t in (0.0, 0.3, 3.0, 2 * EDGE_LEN, 1e9):
        svgs[f"ilp {t:g}"] = render(ws, grid=g, inst=inst, cplan=ilp, at=t)
        svgs[f"paft {t:g}"] = render(medium_grid.workspace, grid=medium_grid,
                                   cplan=full, at=t)
    got = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in svgs.items()}
    assert got == RENDER_SHA256


MALFORMED_PLANS = {
    "truncated": "plan 1 continuous\nrobots 1\ndisc 1 3\npt 0 1 1\n",
    "count": "plan 1 continuous\nrobots 1\ndisc 1 two\npt 0 1 1\n",
    "negative count": "plan 1 continuous\nrobots 1\ndisc 1 -1\npt 0 1 1\n",
    "no points": "plan 1 continuous\nrobots 1\ndisc 1 0\n",
    "coordinate": "plan 1 continuous\nrobots 1\ndisc 1 1\npt 0 x 1\n",
    "nan point": "plan 1 continuous\nrobots 1\ndisc 1 1\npt 0 nan 1\n",
}


@pytest.mark.parametrize("text", MALFORMED_PLANS.values(),
                         ids=MALFORMED_PLANS.keys())
def test_malformed_continuous_plan_raises_parse_error(text):
    with pytest.raises(tio.ParseError):
        tio.parse_plan(text)


def test_render_malformed_plan_exits_2(tmp_path, capsys):
    inst_path = tmp_path / "m.oldr"
    plan_path = tmp_path / "m.plan"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "1",
               "--seed", "6", "--out", str(inst_path)) == 0
    plan_path.write_text(MALFORMED_PLANS["truncated"])
    assert run("render", "--instance", str(inst_path), "--plan",
               str(plan_path), "--out", str(tmp_path / "m.svg")) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["trace", "snapshot"])
@pytest.mark.parametrize("text, message", [
    ("plan 1 discrete\nrobots 1\nsteps 0\n",
     "'0' is not a positive count (line 3: 'steps 0')"),
    ("plan 1 continuous\nrobots 1\ndisc 1 2\npt 0 3 3\npt 1 nan 3\n",
     "non-finite value 'nan' (line 5: 'pt 1 nan 3')"),
], ids=["no steps", "nan point"])
def test_render_rejects_empty_or_non_finite_plan(tmp_path, capsys, mode,
                                                 text, message):
    # the reader rejects both plans: an empty discrete plan has no
    # snapshot to draw, and a NaN point has no place in the SVG
    inst_path = tmp_path / "e.oldr"
    plan_path = tmp_path / "e.plan"
    out = tmp_path / "e.svg"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "1",
               "--seed", "6", "--out", str(inst_path)) == 0
    plan_path.write_text(text)
    assert run("render", "--instance", str(inst_path), "--plan",
               str(plan_path), "--mode", mode, "--out", str(out)) == 2
    assert f"parse error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, vertex", [("trace", 999), ("snapshot", 999),
                                          ("trace", -5), ("snapshot", -5)])
def test_render_off_grid_plan_vertex_exits_2(tmp_path, capsys, mode, vertex):
    # a discrete plan file carries no grid, so render checks its vertices
    # against the instance's 2x3 grid (16 vertices)
    inst_path = tmp_path / "o.oldr"
    plan_path = tmp_path / "o.plan"
    out = tmp_path / "o.svg"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "1",
               "--seed", "6", "--out", str(inst_path)) == 0
    plan_path.write_text("plan 1 discrete\nrobots 1\nsteps 2\n"
                         f"step 0 {vertex}\nstep 1 {vertex}\n")
    assert run("render", "--instance", str(inst_path), "--plan",
               str(plan_path), "--mode", mode, "--out", str(out)) == 2
    assert f"parse error: plan names vertex {vertex}," in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilons", ["", ","])
def test_prove_without_epsilons_exits_2(tmp_path, capsys, epsilons):
    cert = tmp_path / "c.cert"
    assert run("prove", "--epsilons", epsilons, "--out", str(cert)) == 2
    assert "names no epsilon" in capsys.readouterr().err
    assert not cert.exists()


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.oldr", tmp_path / "b.oldr"
    for out in (a, b):
        assert run("gen", "--n1", "3", "--n2", "3", "--count", "5",
                   "--seed", "42", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


# Plans the reader rejects, each with the line its error names; every one
# but the last three was accepted with exit 0 before the record reader.
BROKEN_PLANS = {
    "step index": ("plan 1 discrete\nrobots 1\nsteps 2\nstep 0 5\nstep 7 5\n",
                   5),
    "robots keyword, discrete": (
        "plan 1 discrete\nfoo 1\nsteps 1\nstep 0 5\n", 2),
    "robots keyword, continuous": (
        "plan 1 continuous\nfoo 1\ndisc 1 1\npt 0 3 3\n", 2),
    "steps keyword": ("plan 1 discrete\nrobots 1\nfoo 1\nstep 0 5\n", 3),
    "disc id": ("plan 1 continuous\nrobots 1\ndisc 7 1\npt 0 3 3\n", 3),
    "time goes backwards": (
        "plan 1 continuous\nrobots 1\ndisc 1 2\npt 0 3 3\npt -5 3 3\n", 5),
    "line after the last step": (
        "plan 1 discrete\nrobots 1\nsteps 1\nstep 0 5\nstep 1 5\n", 5),
    "line after the last point": (
        "plan 1 continuous\nrobots 1\ndisc 1 1\npt 0 3 3\npt 1 3 3\n", 5),
    "huge robots, discrete": (
        "plan 1 discrete\nrobots 1000000000000\nsteps 1\nstep 0 5\n", 4),
    "huge robots, continuous": (
        "plan 1 continuous\nrobots 1000000000000\ndisc 1 1\npt 0 3 3\n", 5),
    "huge steps": ("plan 1 discrete\nrobots 1\nsteps 1000000000000\n"
                   "step 0 5\n", 5),
}


@pytest.mark.parametrize("text, line", BROKEN_PLANS.values(),
                         ids=BROKEN_PLANS.keys())
def test_broken_plan_fails_naming_its_line(tmp_path, capsys, text, line):
    # a header count is never allocated before its lines exist
    with pytest.raises(tio.ParseError, match=rf"\(line {line}: "):
        tio.parse_plan(text)
    inst_path, plan_path = tmp_path / "b.oldr", tmp_path / "b.plan"
    out = tmp_path / "b.svg"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "1",
               "--seed", "6", "--out", str(inst_path)) == 0
    plan_path.write_text(text)
    assert run("render", "--instance", str(inst_path), "--plan",
               str(plan_path), "--out", str(out)) == 2
    assert "parse error: " in capsys.readouterr().err
    assert not out.exists()


def test_plan_times_may_repeat():
    # synthesize writes two rows at t = 0 when a disc snaps in zero time
    plan = tio.parse_plan("plan 1 continuous\nrobots 1\ndisc 1 3\n"
                          "pt 0.0 3 3\npt 0.0 3 3\npt 1.5 4 3\n")
    assert plan.paths[0][:, 0].tolist() == [0.0, 0.0, 1.5]


def test_render_rejects_plan_robot_count_mismatch(tmp_path, capsys):
    inst_path, plan_path = tmp_path / "c.oldr", tmp_path / "c.plan"
    out = tmp_path / "c.svg"
    assert run("gen", "--n1", "2", "--n2", "3", "--count", "1",
               "--seed", "6", "--out", str(inst_path)) == 0
    for text in ["plan 1 discrete\nrobots 2\nsteps 1\nstep 0 1 2\n",
                 "plan 1 continuous\nrobots 2\ndisc 1 1\npt 0 3 3\n"
                 "disc 2 1\npt 0 6 3\n"]:
        plan_path.write_text(text)
        assert run("render", "--instance", str(inst_path), "--plan",
                   str(plan_path), "--out", str(out)) == 2
        assert ("parse error: plan robot count differs from instance"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("args, flag, token", [
    (["render", "--instance", "i.oldr", "--time", "nan"], "--time", "nan"),
    (["prove", "--epsilons", "nan"], "--epsilons", "nan"),
    (["prove", "--epsilons", "0.05,inf"], "--epsilons", "inf"),
    (["prove", "--epsilons", "0.05,0"], "--epsilons", "0.0"),
    (["gen", "--n1", "2", "--n2", "3", "--count", "-1"], "--count", "-1"),
    (["bench", "--count", "0"], "--count", "0"),
    (["bench", "--sizes", "2x3,2x"], "--sizes", "2x"),
    (["bench", "--sizes", "1x3"], "--sizes", "n1=1"),
    (["bench", "--robots", "2,x"], "--robots", "x"),
    (["bench", "--robots", "-2"], "--robots", "-2"),
    (["bench", "--methods", "triilp,nope"], "--methods", "nope"),
], ids=["time", "epsilon nan", "epsilon inf", "epsilon 0", "gen count",
        "bench count", "size", "small size", "robots", "negative robots",
        "method"])
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, args, flag,
                                                token):
    out = tmp_path / "out"
    assert run(*args, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: " in captured.err
    assert token in captured.err.split(f"argument {flag}: ")[1]
    assert captured.out == "" and not out.exists()


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@given(n1=st.integers(2, 4), n2=st.integers(3, 5), count=st.integers(0, 12),
       pattern=st.sampled_from(["dense", "random"]),
       seed=st.integers(0, 2 ** 32),
       method=st.sampled_from(["paft", "isag", "triilp"]))
def test_generated_instances_solve_to_a_checked_plan_or_a_documented_exit(
        cli_dir, n1, n2, count, pattern, seed, method):
    # gen then solve exit with a documented code and no traceback, and a
    # plan written on exit 0 obeys the discrete rules from start to goal
    inst_path, plan_path = cli_dir / "drawn.oldr", cli_dir / "drawn.plan"
    plan_path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run("gen", "--n1", str(n1), "--n2", str(n2), "--count",
                   str(count), "--pattern", pattern, "--seed", str(seed),
                   "--out", str(inst_path))
        if code == 0:
            code = run("solve", str(inst_path), "--method", method,
                       "--plan-mode", "discrete", "--out", str(plan_path))
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert plan_path.exists() == (code == 0)
    if code == 0:
        inst = tio.read_instance(str(inst_path))
        grid = build_grid(inst.workspace)
        dinst = discretize(inst, grid)[0]
        plan = tio.read_plan(str(plan_path))
        assert check_plan(grid, plan, dinst.v_starts, dinst.v_goals) == []
