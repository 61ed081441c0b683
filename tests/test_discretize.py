import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from _oracles import brute_nearest, reference_separation
from triroute.discretize import (SEPARATION, ContinuousInstance,
                                 SnapConsistencyError, check_clearance,
                                 discretize, snap, validate_separation)
from triroute.geometry import Vec2, build_grid, build_workspace
from triroute.instances import dense_instance, random_instance


def _inst(ws, starts, goals):
    return ContinuousInstance(workspace=ws, starts=tuple(starts),
                              goals=tuple(goals))


def test_separation_exact_distance_is_violation():
    ws = build_workspace(3, 3)
    a = Vec2(2.0, 2.0)
    b = Vec2(2.0 + SEPARATION, 2.0)  # exactly 8/3: strict inequality fails
    rep = validate_separation(_inst(ws, [a, b], [a, b]))
    assert not rep.ok
    assert rep.start_violations[0][:2] == (0, 1)
    assert abs(rep.start_violations[0][2] - SEPARATION) < 1e-12


def test_separation_single_disc_empty_report():
    ws = build_workspace(2, 3)
    rep = validate_separation(_inst(ws, [Vec2(3, 3)], [Vec2(5, 5)]))
    assert rep.ok


def test_separation_dense_pitch_above_threshold():
    ws = build_workspace(4, 5)
    inst = dense_instance(ws, 12, seed=3)  # pitch 8/3 + 1e-6
    assert validate_separation(inst).ok


def test_separation_exact_pitch_fails_strictness():
    ws = build_workspace(4, 5)
    inst = dense_instance(ws, 12, seed=3, strict=False)
    assert not validate_separation(inst).ok


def test_separation_sweep_matches_all_pairs():
    # exact-pitch packings put many pairs at exactly 8/3 and whole columns
    # at one x; uniform points fall at every distance
    cases = [dense_instance(build_workspace(*ws), n, seed=s, strict=False)
             for ws, n, s in (((4, 5), 12, 3), ((6, 7), 63, 0), ((3, 5), 20, 4))]
    rng = random.Random(8)
    for _ in range(40):
        ws = build_workspace(rng.randint(2, 6), rng.randint(3, 7))
        n = rng.randint(0, 40)
        pts = [[Vec2(rng.uniform(0, ws.w), rng.uniform(0, ws.h))
                for _ in range(n)] for _ in range(2)]
        cases.append(_inst(ws, *pts))
    found = 0
    for inst in cases:
        rep = validate_separation(inst)
        starts, goals = reference_separation(inst)
        assert rep.start_violations == starts and rep.goal_violations == goals
        found += len(starts) + len(goals)
    assert found > 1000


_ABOVE = math.nextafter(SEPARATION, math.inf)
_BELOW = math.nextafter(SEPARATION, 0.0)
# a partner point's offset: 8/3 and one ulp either side of it along x,
# along y (where the y gap alone is at the threshold) and on diagonals
_PARTNERS = [(sx * dx, sy * dy) for dx, dy in (
    (SEPARATION, 0.0), (_ABOVE, 0.0), (_BELOW, 0.0), (0.0, SEPARATION),
    (0.0, _ABOVE), (0.0, _BELOW), (0.6 * SEPARATION, 0.8 * SEPARATION),
    (1e-9, SEPARATION), (SEPARATION, SEPARATION))
    for sx in (1, -1) for sy in (1, -1)]


@given(st.data())
def test_separation_sweep_matches_all_pairs_at_the_threshold(data):
    # points on a quarter-unit grid (so x + 8/3 is exact near the origin)
    # with partners at and one ulp around 8/3: the sweep's x break and y
    # skip keep exactly the pairs that comparing every pair finds
    quarter = st.integers(0, 48).map(lambda k: k / 4)
    pts = []
    for x, y in data.draw(st.lists(st.tuples(quarter, quarter), min_size=1,
                                   max_size=12), label="bases"):
        pts.append(Vec2(x, y))
        for dx, dy in data.draw(st.lists(st.sampled_from(_PARTNERS),
                                         max_size=3), label="partners"):
            pts.append(Vec2(x + dx, y + dy))
    inst = _inst(build_workspace(4, 5), pts, pts[::-1])
    rep = validate_separation(inst)
    starts, goals = reference_separation(inst)
    assert rep.start_violations == starts and rep.goal_violations == goals


def test_separation_counts_pairs_exactly_at_the_threshold():
    # 8/3 apart in x or in y alone is a violation; one ulp more is not
    o = Vec2(0.5, 0.5)
    at = [o, Vec2(0.5 + SEPARATION, 0.5), Vec2(0.5, 0.5 + SEPARATION)]
    off = [o, Vec2(0.5 + _ABOVE, 0.5), Vec2(0.5, 0.5 + _ABOVE)]
    assert [o.dist(p) for p in at[1:]] == [SEPARATION, SEPARATION]
    assert [o.dist(p) for p in off[1:]] == [_ABOVE, _ABOVE]
    rep = validate_separation(_inst(build_workspace(4, 5), at, off))
    assert rep.start_violations == [(0, 1, SEPARATION), (0, 2, SEPARATION)]
    assert rep.goal_violations == []


def test_clearance_check():
    ws = build_workspace(2, 3)
    bad = check_clearance(_inst(ws, [Vec2(0.5, 3.0)], [Vec2(3.0, 3.0)]))
    assert bad and bad[0][0] == "start"
    assert not check_clearance(_inst(ws, [Vec2(1.0, 1.0)], [Vec2(3.0, 3.0)]))


def test_snap_on_vertex_is_identity(minimal_grid):
    g = minimal_grid
    ws = g.workspace
    pts = [g.vertices[2], g.vertices[9]]
    inst = _inst(ws, pts, pts)
    res = snap(inst, g, "starts")
    assert res.assignment == [2, 9]
    assert res.d_max == 0.0
    assert all(g.vertices[v] == p for v, p in zip(res.assignment, pts))


def test_snap_centroid_distance_is_circumradius(minimal_grid):
    g = minimal_grid
    a, b, c = g.triangles[4]
    pa, pb, pc = (g.vertices[v] for v in (a, b, c))
    centroid = Vec2((pa.x + pb.x + pc.x) / 3, (pa.y + pb.y + pc.y) / 3)
    inst = _inst(g.workspace, [centroid], [centroid])
    res = snap(inst, g, "starts")
    assert abs(res.d_max - 4.0 / 3.0) < 1e-9


def test_snap_respects_dmax_bound_and_brute_nearest(medium_grid):
    g = medium_grid
    ws = g.workspace
    rng = random.Random(5)
    for trial in range(50):
        inst = random_instance(ws, 6, seed=trial)
        res = snap(inst, g, "starts")
        assert res.d_max <= 4.0 / 3.0 + 1e-9
        for i, p in enumerate(inst.starts):
            assert res.assignment[i] == brute_nearest(g, p)


def test_snap_injectivity_property():
    # randomized admissible instances across several sizes, always injective
    sizes = [(2, 3, 4), (3, 3, 6), (3, 4, 7), (4, 5, 10)]
    count = 0
    for k in range(200):
        n1, n2, cap = sizes[k % len(sizes)]
        ws = build_workspace(n1, n2)
        g = build_grid(ws)
        inst = random_instance(ws, 2 + (k % cap), seed=k)
        res = snap(inst, g, "starts")
        assert len(set(res.assignment)) == inst.n
        count += 1
    assert count == 200


def test_snap_tie_break_determinism(medium_grid):
    g = medium_grid
    inst = random_instance(g.workspace, 8, seed=9)
    a = snap(inst, g, "starts")
    b = snap(inst, g, "starts")
    assert a.assignment == b.assignment


def test_snap_rejects_unknown_which(minimal_grid):
    inst = random_instance(minimal_grid.workspace, 2, seed=0)
    with pytest.raises(ValueError):
        snap(inst, minimal_grid, "midpoints")


def test_snap_consistency_error_on_inadmissible(minimal_grid):
    g = minimal_grid
    p = g.vertices[5]
    q = Vec2(p.x + 0.1, p.y)  # same nearest vertex, separation violated
    inst = _inst(g.workspace, [p, q], [p, q])
    with pytest.raises(SnapConsistencyError):
        snap(inst, g, "starts")


def test_discretize_all_on_vertices(minimal_grid):
    g = minimal_grid
    starts = [g.vertices[1], g.vertices[9]]
    goals = [g.vertices[12], g.vertices[2]]
    dinst, ss, sg = discretize(_inst(g.workspace, starts, goals), g)
    assert dinst.v_starts == (1, 9)
    assert dinst.v_goals == (12, 2)
    assert ss.d_max == 0.0 and sg.d_max == 0.0


def test_discretize_scattered_matches_brute_nearest(medium_grid):
    g = medium_grid
    inst = random_instance(g.workspace, 7, seed=21)
    dinst, ss, sg = discretize(inst, g)
    assert dinst.v_starts == tuple(brute_nearest(g, p) for p in inst.starts)
    assert dinst.v_goals == tuple(brute_nearest(g, p) for p in inst.goals)


@pytest.mark.slow
def test_discretize_linear_runtime():
    # the nearest-vertex mapping does constant work per point, so the
    # discretization core scales linearly in n at fixed grid size; CPU
    # time of this process, so other load on the machine does not count
    from triroute.geometry import nearest_vertex

    g = build_grid(build_workspace(6, 7))
    ws = g.workspace
    rng = random.Random(1)
    sizes = [2000, 8000, 32000]
    times = []
    for n in sizes:
        pts = [Vec2(rng.uniform(1, ws.w - 1), rng.uniform(1, ws.h - 1))
               for _ in range(n)]
        best = math.inf
        for _ in range(7):
            t0 = time.process_time()
            for p in pts:
                nearest_vertex(g, p)
            best = min(best, time.process_time() - t0)
        times.append(best)
    slope = (math.log(times[-1] / times[0])
             / math.log(sizes[-1] / sizes[0]))
    assert 0.8 <= slope <= 1.2, (times, slope)
