import math
import random

import numpy as np
import pytest

from _oracles import (dense_discrete_paths, max_segment_speed,
                      reference_format_continuous_plan, reference_synthesize,
                      reference_validate)
from triroute import io as tio
from triroute.discretize import ContinuousInstance, discretize
from triroute.geometry import EDGE_LEN, Vec2, build_grid, build_workspace
from triroute.instances import dense_instance, random_instance
from triroute.paft import SwapEngine, isag, paft
from triroute.plan import DiscretePlan
from triroute.triilp import solve_triilp
from triroute.validate import (CHUNK_WINDOWS, ContinuousPlan, SynthesisError,
                               optimality_metrics, synthesize,
                               synthesize_discrete, validate)


def _pipeline(ws, n, seed):
    g = build_grid(ws)
    inst = random_instance(ws, n, seed)
    dinst, ss, sg = discretize(inst, g)
    plan, rep = solve_triilp(dinst)
    return inst, g, plan, ss, sg, rep


def test_synthesize_zero_makespan_when_identity(minimal_grid):
    g = minimal_grid
    ws = g.workspace
    pts = (g.vertices[5], g.vertices[9])
    inst = ContinuousInstance(workspace=ws, starts=pts, goals=pts)
    dinst, ss, sg = discretize(inst, g)
    plan = DiscretePlan.from_steps([tuple(ss.assignment)])
    cp = synthesize(inst, g, plan, ss, sg)
    assert cp.makespan == 0.0


def test_zero_disc_plan_through_every_layer(minimal_grid):
    g = minimal_grid
    inst = ContinuousInstance(workspace=g.workspace, starts=(), goals=())
    dinst, ss, sg = discretize(inst, g)
    for cp in (synthesize(inst, g, DiscretePlan.from_steps([()]), ss, sg),
               synthesize_discrete(g, DiscretePlan.from_steps([(), ()]))):
        rep = validate(cp, g.workspace)
        assert rep.valid and rep.min_pair_clearance == math.inf
        assert max_segment_speed(cp) == 0.0 and cp.trajectories == []
        text = tio.format_continuous_plan(cp)
        assert text == "plan 1 continuous\nrobots 0\n"
        assert tio.parse_plan(text).paths == []


def test_synthesize_single_edge_step(minimal_grid):
    g = minimal_grid
    ws = g.workspace
    a = 5
    b = g.adjacency[a][0]
    inst = ContinuousInstance(workspace=ws, starts=(g.vertices[a],),
                              goals=(g.vertices[b],))
    dinst, ss, sg = discretize(inst, g)
    plan = DiscretePlan.from_steps([(a,), (b,)])
    cp = synthesize(inst, g, plan, ss, sg)
    assert abs(cp.makespan - EDGE_LEN) < 1e-12
    assert abs(cp.makespan - 2.3094) < 1e-4


def test_synthesize_makespan_arithmetic():
    ws = build_workspace(3, 4)
    inst, g, plan, ss, sg, rep = _pipeline(ws, 6, seed=2)
    cp = synthesize(inst, g, plan, ss, sg)
    expected = ss.d_max + plan.T * EDGE_LEN + sg.d_max
    assert abs(cp.makespan - expected) < 1e-12
    # snap-in ends at d_max of the starts; the grid phase then runs T edges
    assert {p[1, 0] for p in cp.paths} == {ss.d_max}
    assert {p[-2, 0] for p in cp.paths} == {ss.d_max + plan.T * EDGE_LEN}


def test_synthesize_rejects_mismatched_endpoints(minimal_grid):
    g = minimal_grid
    ws = g.workspace
    inst = random_instance(ws, 2, seed=1)
    dinst, ss, sg = discretize(inst, g)
    bad = DiscretePlan.from_steps([tuple(reversed(ss.assignment)),
                                   tuple(sg.assignment)])
    with pytest.raises(SynthesisError):
        synthesize(inst, g, bad, ss, sg)


def test_validate_shared_edge_swap_collides(minimal_grid):
    g = minimal_grid
    a = 5
    b = g.adjacency[a][0]
    plan = DiscretePlan.from_steps([(a, b), (b, a)])
    rep = validate(synthesize_discrete(g, plan), g.workspace)
    assert not rep.valid
    assert rep.violations
    assert rep.min_pair_clearance < 1e-9  # midpoint coincidence


def test_validate_wide_angle_concurrent_moves_ok(minimal_grid):
    # adjacent discs moving on parallel edges keep their spacing
    g = minimal_grid
    for a in range(g.n_vertices):
        for b in g.adjacency[a]:
            da = g.vertices[b] - g.vertices[a]
            for c in g.adjacency[a]:
                if c in (a, b):
                    continue
                for d in g.adjacency[c]:
                    dc = g.vertices[d] - g.vertices[c]
                    if abs(da.x - dc.x) < 1e-9 and abs(da.y - dc.y) < 1e-9 \
                            and d != b:
                        plan = DiscretePlan.from_steps([(a, c), (b, d)])
                        rep = validate(synthesize_discrete(g, plan),
                                       g.workspace)
                        assert rep.valid
                        return
    pytest.skip("no parallel pair found")


def test_validate_sharp_angle_concurrent_moves_collide(minimal_grid):
    g = minimal_grid
    a, b, c = g.triangles[0]
    plan = DiscretePlan.from_steps([(a, b), (b, c)])
    rep = validate(synthesize_discrete(g, plan), g.workspace)
    assert not rep.valid
    # following at 60 degrees pinches to half an edge length
    assert abs(rep.min_pair_clearance - EDGE_LEN / 2) < 1e-9


def test_validate_boundary_clearance():
    ws = build_workspace(2, 3)
    traj = [[(0.0, Vec2(0.5, 3.0)), (1.0, Vec2(1.5, 3.0))]]
    plan = ContinuousPlan.from_points(traj, makespan=1.0)
    rep = validate(plan, ws)
    assert not rep.boundary_ok
    assert not rep.valid


def test_validated_pipeline_is_exactly_at_contact():
    ws = build_workspace(2, 3)
    inst, g, plan, ss, sg, rep = _pipeline(ws, 3, seed=5)
    cp = synthesize(inst, g, plan, ss, sg)
    vr = validate(cp, ws)
    assert vr.valid
    assert vr.min_pair_clearance >= 2.0 - 1e-9


def test_speed_cap():
    ws = build_workspace(3, 3)
    inst, g, plan, ss, sg, rep = _pipeline(ws, 4, seed=7)
    cp = synthesize(inst, g, plan, ss, sg)
    assert max_segment_speed(cp) <= 1.0 + 1e-9


def test_validate_matches_dense_sampling():
    ws = build_workspace(2, 3)
    inst, g, plan, ss, sg, rep = _pipeline(ws, 3, seed=11)
    cp = synthesize(inst, g, plan, ss, sg)
    vr = validate(cp, ws)
    # dense sampling over the whole timeline for every pair
    times = np.linspace(0.0, cp.makespan, 20001)
    n = len(cp.trajectories)
    pos = np.empty((n, len(times), 2))
    for r, pts in enumerate(cp.trajectories):
        ts = np.array([t for t, _ in pts])
        xs = np.array([p.x for _, p in pts])
        ys = np.array([p.y for _, p in pts])
        pos[r, :, 0] = np.interp(times, ts, xs)
        pos[r, :, 1] = np.interp(times, ts, ys)
    sampled = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = np.hypot(*(pos[i] - pos[j]).T)
            sampled = min(sampled, float(d.min()))
    assert vr.min_pair_clearance <= sampled + 1e-12
    assert abs(vr.min_pair_clearance - sampled) < 1e-6


def test_optimality_metrics():
    m = optimality_metrics([(3, 3), (4, 4)])
    assert m.aggregate == 1.0
    m2 = optimality_metrics([(3, 2), (5, 4)])
    assert abs(m2.aggregate - 8 / 6) < 1e-12
    assert m2.per_instance == [1.5, 1.25]
    m3 = optimality_metrics([(0, 0), (0, 0)])
    assert m3.aggregate == 1.0
    assert m3.per_instance == [1.0, 1.0]
    # no instance, no ratio (a bench cell where every instance failed)
    m4 = optimality_metrics([])
    assert math.isnan(m4.aggregate) and m4.per_instance == []


# ------------------------------------------------- array layers vs oracles

def _shifted(cp, r, dx):
    """A copy of the plan with disc r's interior breakpoints moved by dx."""
    paths = [p.copy() for p in cp.paths]
    paths[r][1:-1, 1] += dx
    return ContinuousPlan(paths, cp.makespan)


def _same_report(plan, ws):
    rep, ref = validate(plan, ws), reference_validate(plan, ws)
    assert rep.min_pair_clearance.hex() == ref.min_pair_clearance.hex()
    assert rep.boundary_ok == ref.boundary_ok
    assert rep.violations == ref.violations
    return rep


def test_validate_matches_reference_on_colliding_plans(minimal_grid):
    g = minimal_grid
    a, b, c = g.triangles[0]
    for steps in ([(a, b), (b, a)], [(a, b), (b, c)]):   # midpoint, sharp
        cp = synthesize_discrete(g, DiscretePlan.from_steps(steps))
        rep = _same_report(cp, g.workspace)
        assert rep.violations


def test_validate_keeps_pairs_just_inside_the_threshold():
    # disc 1 creeps towards disc 0, a new minimum in every window, closing
    # less per chunk than any margin a too-eager broad phase could drop
    ws = build_workspace(6, 7)
    traj = [[(0.5 * i, Vec2(10.0, 10.0)) for i in range(201)],
            [(0.5 * i, Vec2(13.0 - 0.0045 * i, 10.0)) for i in range(201)],
            [(0.0, Vec2(20.0, 3.0)), (100.0, Vec2(20.0, 14.0))]]
    cp = ContinuousPlan.from_points(traj, 100.0)
    rep = _same_report(cp, ws)
    assert abs(rep.min_pair_clearance - 2.1) < 1e-9 and rep.valid


def test_validate_matches_reference_on_ilp_suite(ilp_suite):
    for inst, g, plan, ss, sg in ilp_suite:
        _same_report(synthesize(inst, g, plan, ss, sg), inst.workspace)


def _dense(grid, steps):
    """The plan's trajectories with a breakpoint at every step."""
    return ContinuousPlan(dense_discrete_paths(grid, steps),
                          (len(steps) - 1) * EDGE_LEN)


def test_validate_matches_reference_on_full_occupancy_paft(medium_grid,
                                                          paft_full):
    ws = medium_grid.workspace
    cp = _dense(medium_grid, paft_full.steps)
    assert len(cp.paths[0]) - 1 > 10 * CHUNK_WINDOWS
    assert _same_report(cp, ws).valid
    # a disc pushed into its neighbours over some 200 windows: violations
    # across chunks, in window order
    head = _dense(medium_grid, paft_full.steps[:200])
    rep = _same_report(_shifted(head, 7, 1.0), ws)
    windows = {round(t / EDGE_LEN) for _, t, _ in rep.violations}
    assert len(rep.violations) > 50 and len(windows) > 2 * CHUNK_WINDOWS


def test_synthesize_matches_reference(ilp_suite, minimal_grid):
    g = minimal_grid
    pts = (g.vertices[5], g.vertices[9])
    inst = ContinuousInstance(workspace=g.workspace, starts=pts, goals=pts)
    dinst, ss, sg = discretize(inst, g)
    identity = (inst, g, DiscretePlan.from_steps([ss.assignment]), ss, sg)
    for case in [identity, *ilp_suite]:
        cp = synthesize(*case)
        assert cp.trajectories == reference_synthesize(*case)
        assert all(p.dtype == np.float64 and p.shape[1] == 3
                   for p in cp.paths)


def _check_sparse_against_dense(sparse, dense, ws):
    """Sparse breakpoints are a subsequence of the dense ones, each
    dropped row lies inside a stationary run, the sparse plan passes
    through the dense positions at every dense time, bit for bit, and
    validate reports the same on both."""
    for sp, dp in zip(sparse.paths, dense.paths, strict=True):
        at = np.searchsorted(dp[:, 0], sp[:, 0])
        assert np.all(np.diff(at) > 0)
        assert dp[at].tobytes() == sp.tobytes()
        dropped = np.setdiff1d(np.arange(len(dp)), at)
        assert np.all((dropped > 0) & (dropped < len(dp) - 1))
        for nb in (dropped - 1, dropped + 1):
            assert dp[nb, 1:].tobytes() == dp[dropped, 1:].tobytes()
        for c in (1, 2):
            assert (np.interp(dp[:, 0], sp[:, 0], sp[:, c]).tobytes()
                    == dp[:, c].tobytes())
    rep, ref = validate(sparse, ws), validate(dense, ws)
    assert rep.min_pair_clearance.hex() == ref.min_pair_clearance.hex()
    assert rep.violations == ref.violations
    assert rep.boundary_ok == ref.boundary_ok


def test_sparse_synthesis_matches_dense_plan(ilp_suite, medium_grid,
                                             paft_full):
    for case in ilp_suite:
        inst = case[0]
        sparse = synthesize(*case)
        dense = ContinuousPlan.from_points(
            reference_synthesize(*case, dense=True), sparse.makespan)
        _check_sparse_against_dense(sparse, dense, inst.workspace)
    sparse = synthesize_discrete(medium_grid, paft_full)
    dense = _dense(medium_grid, paft_full.steps)
    _check_sparse_against_dense(sparse, dense, medium_grid.workspace)
    # most discs wait most of the time on a full-occupancy plan
    rows = sum(len(p) for p in sparse.paths)
    assert 3 * rows < sum(len(p) for p in dense.paths)


def test_format_matches_reference_and_round_trips(ilp_suite, medium_grid,
                                                  paft_full):
    plans = [synthesize(*case) for case in ilp_suite[::4]]
    plans.append(synthesize_discrete(medium_grid, paft_full))
    for cp in plans:
        text = tio.format_continuous_plan(cp)
        assert text == reference_format_continuous_plan(cp)
        assert "np." not in text
        assert tio.format_continuous_plan(tio.parse_plan(text)) == text


def test_format_writes_python_float_reprs():
    traj = [[(np.float64(0.0), Vec2(np.float64(1.0), np.float32(2.5))),
             (1.5, Vec2(-0.0, 0.1 + 0.2))]]
    cp = ContinuousPlan.from_points(traj, makespan=1.5)
    assert tio.format_continuous_plan(cp) == (
        "plan 1 continuous\nrobots 1\ndisc 1 2\n"
        "pt 0.0 1.0 2.5\npt 1.5 -0.0 0.30000000000000004\n")
    assert all(type(v) is float for t, p in cp.trajectories[0]
               for v in (t, p.x, p.y))
    assert math.copysign(1.0, cp.trajectories[0][1][1].x) == -1.0


def test_trajectories_view_and_assignment():
    traj = [[(0.0, Vec2(1.25, 2.5)), (1.5, Vec2(3.0, 2.5))]]
    cp = ContinuousPlan.from_points(traj, makespan=1.5)
    assert cp.trajectories == traj
    cp.trajectories[0].append((2.0, Vec2(0.0, 0.0)))   # a copy, not the plan
    assert cp.trajectories == traj
    moved = [[(0.0, Vec2(1.25, 2.5)), (2.0, Vec2(5.0, 2.5))]]
    cp.trajectories = moved
    assert cp.trajectories == moved
    assert cp.paths[0].tolist() == [[0.0, 1.25, 2.5], [2.0, 5.0, 2.5]]


def test_max_segment_speed_matches_segment_loop(ilp_suite):
    def loop(cp):
        worst = 0.0
        for pts in cp.trajectories:
            for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
                if t1 > t0:
                    worst = max(worst, p0.dist(p1) / (t1 - t0))
        return worst

    for case in ilp_suite:
        cp = synthesize(*case)
        assert abs(max_segment_speed(cp) - loop(cp)) < 1e-12
    # a zero-length segment and a jump between two discs' rows are no motion
    traj = [[(0.0, Vec2(1.0, 1.0)), (0.0, Vec2(1.0, 1.0)),
             (2.0, Vec2(2.0, 1.0))],
            [(0.0, Vec2(9.0, 9.0)), (2.0, Vec2(9.0, 9.0))]]
    cp = ContinuousPlan.from_points(traj, 2.0)
    assert max_segment_speed(cp) == 0.5


def _jittered(cp, seed):
    """A copy of the plan with every breakpoint after the first moved by
    up to 0.6 in x and y: in dense plans, discs run into each other."""
    rng = np.random.default_rng(seed)
    paths = [p.copy() for p in cp.paths]
    for p in paths:
        p[1:, 1:] += rng.uniform(-0.6, 0.6, size=(len(p) - 1, 2))
    return ContinuousPlan(paths, cp.makespan)


def test_validate_report_does_not_depend_on_the_chunking(
        ilp_suite, medium_grid, paft_full, monkeypatch):
    # the minimum clearance, the violations with their times and
    # distances, and the boundary flag, for paft, isag and ILP plans and
    # for copies a perturbation made invalid, with 1, 2, 5, 24 (the
    # default) and 32 windows per broad-phase chunk
    ws = medium_grid.workspace
    inst = dense_instance(ws, 20, seed=3)
    dinst, ss, sg = discretize(inst, medium_grid)
    engine = SwapEngine(medium_grid)
    valid = [(synthesize(inst, medium_grid, route(dinst, engine), ss, sg), ws)
             for route in (lambda d, e: paft(d, e)[0], isag)]
    valid += [(synthesize(*case), case[0].workspace)
              for case in ilp_suite[::5]]
    head = _dense(medium_grid, paft_full.steps[:120])
    valid.append((head, ws))
    invalid = [(_jittered(cp, k), w) for k, (cp, w) in enumerate(valid)]
    invalid.append((_shifted(head, 7, 1.0), ws))
    reports = {}
    for chunk in (1, 2, 5, 24, 32):
        monkeypatch.setattr("triroute.validate.CHUNK_WINDOWS", chunk)
        reports[chunk] = [
            (rep.min_pair_clearance.hex(), rep.violations, rep.boundary_ok)
            for rep in (validate(cp, w) for cp, w in valid + invalid)]
    assert all(reports[chunk] == reports[32] for chunk in reports)
    found = [len(violations) for _, violations, _ in reports[32]]
    assert found[:len(valid)] == [0] * len(valid)
    assert sum(map(bool, found[len(valid):])) > len(invalid) // 2
    assert sum(found) > 100
