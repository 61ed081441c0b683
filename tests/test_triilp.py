import random
import time
from types import SimpleNamespace

import pytest

from _oracles import joint_bfs_makespan
from conftest import random_discrete_instance
from triroute import triilp
from triroute.discretize import DiscreteInstance, discretize
from triroute.geometry import bfs_distances, bfs_path, build_grid, build_workspace
from triroute.instances import dense_instance
from triroute.plan import check_plan
from triroute.triilp import (HorizonExceededError, solve_split, solve_triilp,
                             split_k_way, underestimated_makespan)


def _grid23():
    return build_grid(build_workspace(2, 3))


def test_underestimate_zero_at_goals(minimal_grid):
    inst = DiscreteInstance(grid=minimal_grid, v_starts=(2, 7), v_goals=(2, 7))
    assert underestimated_makespan(inst) == 0


def test_underestimate_single_robot_is_bfs_distance(minimal_grid):
    g = minimal_grid
    d = bfs_distances(g, 0)
    far = max(range(g.n_vertices), key=lambda v: d[v])
    inst = DiscreteInstance(grid=g, v_starts=(0,), v_goals=(far,))
    assert underestimated_makespan(inst) == d[far]


def test_underestimate_lower_bounds_joint_optimum(minimal_grid):
    g = minimal_grid
    for seed in range(20):
        inst = random_discrete_instance(g, 2, seed + 30)
        opt = joint_bfs_makespan(g, inst.v_starts, inst.v_goals, cap=12)
        assert opt is not None
        assert underestimated_makespan(inst) <= opt


def test_single_robot_takes_shortest_path(minimal_grid):
    g = minimal_grid
    inst = DiscreteInstance(grid=g, v_starts=(1,), v_goals=(16,))
    plan, rep = solve_triilp(inst)
    assert rep.makespan == rep.underestimate == len(bfs_path(g, 1, 16)) - 1
    assert rep.optimality_ratio == 1.0
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)


def test_identity_instance_zero_makespan(minimal_grid):
    inst = DiscreteInstance(grid=minimal_grid, v_starts=(5, 6), v_goals=(5, 6))
    plan, rep = solve_triilp(inst)
    assert rep.makespan == 0
    assert rep.optimality_ratio == 1.0
    assert plan.steps == [(5, 6)]


def test_two_robot_sidestep_matches_oracle(minimal_grid):
    g = minimal_grid
    checked = 0
    for seed in range(25):
        inst = random_discrete_instance(g, 2, seed)
        opt = joint_bfs_makespan(g, inst.v_starts, inst.v_goals, cap=14)
        if opt is None:
            continue
        plan, rep = solve_triilp(inst)
        assert rep.makespan == opt, (seed, rep.makespan, opt)
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        checked += 1
    assert checked >= 20


def test_three_robot_matches_oracle(minimal_grid):
    g = minimal_grid
    for seed in (1, 5, 9):
        inst = random_discrete_instance(g, 3, seed)
        opt = joint_bfs_makespan(g, inst.v_starts, inst.v_goals, cap=12)
        assert opt is not None
        plan, rep = solve_triilp(inst)
        assert rep.makespan == opt
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)


def test_horizon_ceiling(monkeypatch):
    # a solver that routes no robot at any horizon: the search tries
    # T = lo, ..., lo + |V| and names the last
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(1, 2), v_goals=(2, 1))
    lo = underestimated_makespan(inst)
    horizons = []

    def infeasible(model, **kwargs):
        horizons.append(model.T)
        return SimpleNamespace(objective_value=0)

    monkeypatch.setattr(triilp, "solve", infeasible)
    with pytest.raises(HorizonExceededError,
                       match=rf"up to T={lo + g.n_vertices} \(lower bound {lo}\)"):
        solve_triilp(inst)
    assert horizons == list(range(lo, lo + g.n_vertices + 1))


def test_split_midpoints():
    g = _grid23()
    s, gl = 1, 16
    inst = DiscreteInstance(grid=g, v_starts=(s,), v_goals=(gl,))
    subs = split_k_way(inst, 2)
    assert len(subs) == 2
    path = bfs_path(g, s, gl)
    d = len(path) - 1
    assert subs[0].v_goals == (path[d // 2],)
    assert subs[0].v_goals == subs[1].v_starts  # chaining
    assert subs[1].v_goals == (gl,)


def test_split_conflict_relocation():
    g = _grid23()
    # two robots whose midpoints collide get distinct waypoints
    d = bfs_distances(g, 0)
    far = max(range(g.n_vertices), key=lambda v: d[v])
    inst = DiscreteInstance(grid=g, v_starts=(0, 1), v_goals=(far, far - 1))
    subs = split_k_way(inst, 2)
    mid = subs[0].v_goals
    assert len(set(mid)) == 2


def test_split_rejects_k_below_two():
    g = _grid23()
    inst = DiscreteInstance(grid=g, v_starts=(0,), v_goals=(5,))
    with pytest.raises(ValueError):
        split_k_way(inst, 1)


def test_solve_split_k1_delegates(minimal_grid):
    inst = random_discrete_instance(minimal_grid, 2, 77)
    p1, r1 = solve_triilp(inst)
    p2, r2 = solve_split(inst, 1)
    assert p1.steps == p2.steps
    assert r2.split_k == 1


def test_solve_split_feasible_and_no_better_than_optimal(minimal_grid):
    g = minimal_grid
    for seed in (3, 11, 19):
        inst = random_discrete_instance(g, 2, seed)
        plan, rep = solve_split(inst, 2)
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        assert rep.split_k == 2
        _, unsplit = solve_triilp(inst)
        assert rep.makespan >= unsplit.makespan
        assert rep.optimality_ratio >= unsplit.optimality_ratio


def test_split_k4_on_medium_instance():
    g = build_grid(build_workspace(3, 4))
    inst = random_discrete_instance(g, 3, 5)
    plan, rep = solve_split(inst, 4)
    assert rep.split_k == 4
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)


def test_suite_aggregate_ratio_formula(minimal_grid):
    g = minimal_grid
    reports = []
    for seed in (2, 4, 6, 8, 10, 12, 14, 16, 18, 20):
        inst = random_discrete_instance(g, 2, seed)
        _, rep = solve_triilp(inst)
        reports.append(rep)
    total = sum(r.makespan for r in reports)
    total_hat = sum(r.underestimate for r in reports)
    agg = total / total_hat
    from triroute.validate import optimality_metrics
    m = optimality_metrics([(r.makespan, r.underestimate) for r in reports])
    assert abs(m.aggregate - agg) < 1e-12


# 6-disc dense_instance draws that took 14 s and 39 s with a search per
# goal subset and pairwise walk tests, with the optimal plans found then
HEAVY_TAIL_PLANS = {
    ((2, 3), 6, 105): [(0, 7, 11, 5, 8, 15), (4, 7, 8, 1, 5, 12),
                       (8, 7, 9, 0, 5, 12), (11, 7, 6, 0, 8, 9),
                       (15, 7, 5, 0, 11, 8)],
    ((3, 3), 6, 131): [(0, 7, 11, 14, 21, 5), (0, 7, 8, 11, 18, 9),
                       (0, 11, 5, 12, 14, 13), (4, 12, 5, 9, 11, 13),
                       (7, 15, 4, 5, 8, 12), (11, 18, 4, 1, 5, 12),
                       (14, 21, 7, 0, 5, 11)],
}


@pytest.mark.parametrize("case", sorted(HEAVY_TAIL_PLANS))
def test_heavy_tail_instances_keep_their_plans(case):
    ws, n, seed = case
    w = build_workspace(*ws)
    inst, _, _ = discretize(dense_instance(w, n, seed), build_grid(w))
    c0 = time.process_time()
    plan, rep = solve_triilp(inst)
    assert time.process_time() - c0 < 5.0
    assert rep.makespan == len(HEAVY_TAIL_PLANS[case]) - 1
    assert plan.steps == HEAVY_TAIL_PLANS[case]
