import ast
import functools
import hashlib
import importlib
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import (bidirectional_search, canonical_word,
                      exact_row_assignment_exists, occupant_orders,
                      reference_circulations, reference_validate,
                      replay_logical_steps, ring_generators)
from conftest import full_occupancy_instance, random_discrete_instance
from test_acceptance import PAFT_PARTIAL_MAKESPANS
from triroute.cli import main as cli_main
from triroute.discretize import (ContinuousInstance, DiscreteInstance,
                                 SEPARATION, discretize)
from triroute.geometry import build_grid, build_workspace
from triroute.instances import dense_instance, dense_points
from triroute.paft import (InfeasibleInstanceError, PlannerInvariantError,
                           SwapEngine, SwapSchedule, SwapSearchError, _Router,
                           _completion_targets, build_cell_partition, isag,
                           paft)
from triroute.plan import DiscretePlan, check_plan
from triroute.triilp import underestimated_makespan
from triroute.validate import synthesize_discrete, validate

PAFT = importlib.import_module("triroute.paft")  # the package re-exports paft()


def _adjacent_same_cover_hexagons(grid):
    """Two complete rings from one cover sharing an edge, if any."""
    for cover in grid.hex_covers:
        for i in range(len(cover)):
            for j in range(i + 1, len(cover)):
                if len(set(cover[i]) & set(cover[j])) == 2:
                    return cover[i], cover[j]
    return None


def _net(g, steps):
    """The vertex where the disc starting on each vertex ends after the
    steps."""
    pos = list(range(g.n_vertices))
    for moves in steps:
        mv = dict(moves)
        pos = [mv.get(v, v) for v in pos]
    return pos


def _transposed(g, a, b):
    """_net of the exact transposition of a and b."""
    net = list(range(g.n_vertices))
    net[a], net[b] = b, a
    return net


def test_single_hexagon_rotate_and_back(minimal_grid):
    g = minimal_grid
    center = sorted(g.ring_of)[0]
    ring = g.ring_of[center]
    # +1 then -1 restores every disc
    pos = {v: v for v in ring}
    for d in (1, -1):
        moves = {ring[i]: ring[(i + d) % 6] for i in range(6)}
        pos = {disc: moves.get(v, v) for disc, v in pos.items()}
    assert all(v == k for k, v in pos.items())


def test_engine_swaps_shared_edge_of_same_cover_hexagons():
    g = build_grid(build_workspace(4, 4))
    pair = _adjacent_same_cover_hexagons(g)
    assert pair is not None
    hex_a, hex_b = pair
    shared = sorted(set(hex_a) & set(hex_b))
    a, b = shared  # the shared edge endpoints are adjacent
    assert b in g.adjacency[a]
    eng = SwapEngine(g)
    sched = eng.schedule_for_pair(a, b)
    assert _net(g, sched.steps) == _transposed(g, a, b)
    # the shortest word swaps the edge on two rings whose centers lie two
    # edges apart in a straight line, not on the two rings that share it
    centers = eng._region(a, b)
    (q1, r1), (q2, r2) = map(g.axial, centers)
    assert (abs(q2 - q1), abs(r2 - r1), abs(q2 - q1 + r2 - r1)) in (
        (2, 0, 2), (0, 2, 2), (2, 2, 0))
    assert len(sched.footprint - set(centers)) == 11
    assert len(sched.steps) == 13


def test_engine_swap_any_adjacent_covered_pair():
    # every adjacent covered pair on several grids has a swap schedule
    for n1, n2 in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        g = build_grid(build_workspace(n1, n2))
        eng = SwapEngine(g)
        for a in sorted(g.covered):
            for b in g.adjacency[a]:
                if b > a and b in g.covered:
                    sched = eng.schedule_for_pair(a, b)
                    assert _net(g, sched.steps) == _transposed(g, a, b)
        assert eng.c_swap > 0


def _shape_class(g, centers, a, b):
    """Region shape up to translation, turns, reflections and ring roles,
    from the vertex coordinates (six turns of 60 degrees, with and
    without a mirror in the x axis)."""
    best = None
    for base, other in (centers, centers[::-1]):
        o = g.vertices[base]
        pts = [(g.vertices[v].x - o.x, g.vertices[v].y - o.y)
               for v in (other, a, b)]
        for mirror in (1, -1):
            for k in range(6):
                c, s = math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)
                img = [(round(c * x - s * mirror * y, 6) + 0.0,
                        round(s * x + c * mirror * y, 6) + 0.0)
                       for x, y in pts]
                key = (img[0], *sorted(img[1:]))
                best = key if best is None else min(best, key)
    return best


def test_engine_schedule_constant_across_translates():
    # pairs whose chosen region has the same shape up to translation,
    # rotation and reflection get schedules of identical length (one
    # table word per shape class)
    g = build_grid(build_workspace(5, 5))
    eng = SwapEngine(g)

    def axial(v):
        m, k = g.row_of[v], g.col_of[v]
        return (k - m // 2, m)

    lengths = {}
    translates = {}
    for a in sorted(g.covered):
        for b in g.adjacency[a]:
            if b > a and b in g.covered:
                sched = eng.schedule_for_pair(a, b)
                c1, c2 = eng._region(a, b)
                base = axial(c1)
                key = tuple((axial(v)[0] - base[0], axial(v)[1] - base[1])
                            for v in (c2, a, b))
                shape = _shape_class(g, (c1, c2), a, b)
                lengths.setdefault(shape, set()).add(len(sched.steps))
                translates.setdefault(shape, set()).add(key)
    assert len(translates) > 3
    # the classes join turned and mirrored images, not only translates
    assert sum(len(keys) for keys in translates.values()) > 3 * len(translates)
    for shape, ls in lengths.items():
        assert len(ls) == 1, (shape, ls)


def _direct_word_length(g, c1, c2, a, b, memo):
    """Length of a fresh bidirectional search on the pair's own rings."""
    rings = (g.ring_of[c1], g.ring_of[c2])
    slots = sorted(set(rings[0]) | set(rings[1]))
    idx = {v: i for i, v in enumerate(slots)}
    gens = ring_generators(rings, slots)
    target = list(range(len(slots)))
    target[idx[a]], target[idx[b]] = target[idx[b]], target[idx[a]]
    problem = (tuple(p for _, p in gens), tuple(target))
    if problem not in memo:
        word = bidirectional_search(gens, tuple(range(len(slots))),
                                    tuple(target))
        memo[problem] = None if word is None else len(word)
    return memo[problem]


def test_engine_words_match_direct_search(monkeypatch):
    # every covered adjacent pair: the schedule built from the table word
    # of its symmetry class is as short as a search on the pair's own
    # rings and nets exactly the transposition; no search runs in the
    # library, and each pair looks up exactly one word
    assert not [name for name in ("_bidirectional_search", "_canonical_word",
                                  "_invert", "_HEX_RING", "_SEARCH_CAP")
                if hasattr(PAFT, name)]
    assert not hasattr(SwapEngine(build_grid(build_workspace(2, 3))), "_cache")
    memo: dict = {}
    lookup = SwapEngine._rotation_word
    calls = []

    def counted(*args):
        calls.append(1)
        return lookup(*args)

    for n1, n2 in [(2, 3), (4, 5), (6, 7), (9, 10)]:
        g = build_grid(build_workspace(n1, n2))
        eng = SwapEngine(g)
        calls.clear()
        monkeypatch.setattr(SwapEngine, "_rotation_word", counted)
        scheds = {}
        for a in sorted(g.covered):
            for b in g.adjacency[a]:
                if b > a and b in g.covered:
                    scheds[a, b] = eng.schedule_for_pair(a, b)
        monkeypatch.setattr(SwapEngine, "_rotation_word", lookup)
        assert len(calls) == len(scheds), (n1, n2, len(calls))
        for (a, b), sched in scheds.items():
            c1, c2 = eng._region(a, b)
            assert len(sched.steps) == _direct_word_length(g, c1, c2, a, b,
                                                           memo), (a, b)
            for moves in sched.steps:
                assert len({v for _, v in moves}) == len(moves)
            assert _net(g, sched.steps) == _transposed(g, a, b), (n1, n2, a, b)


def test_engine_schedules_do_not_depend_on_request_order():
    # words belong to the canonical shape, not to whichever congruent
    # pair asked first, so warm-up order cannot change a plan
    g = build_grid(build_workspace(4, 5))
    pairs = [(a, b) for a in sorted(g.covered) for b in g.adjacency[a]
             if b > a and b in g.covered]
    forward, backward = SwapEngine(g), SwapEngine(g)
    for a, b in pairs:
        forward.schedule_for_pair(a, b)
    for a, b in reversed(pairs):
        backward.schedule_for_pair(b, a)
    for a, b in pairs:
        assert (forward.schedule_for_pair(a, b).steps
                == backward.schedule_for_pair(a, b).steps), (a, b)


def test_words_are_built_from_the_turn_table():
    # every covered adjacent pair of three engines: each step of the
    # pair's word is one of the engine's ring-turn tuples itself, not a
    # copy, and replaying the steps swaps a and b and returns every other
    # vertex home without leaving the footprint
    for n1, n2 in ((2, 3), (4, 5), (6, 7)):
        g = build_grid(build_workspace(n1, n2))
        eng = SwapEngine(g)
        turn = {id(t): t for t in eng.ring_turns}
        assert len(turn) == 2 * len(g.ring_of)
        for a, b in _covered_pairs(g):
            sched = eng.schedule_for_pair(a, b)
            assert all(turn.get(id(step)) is step for step in sched.steps)
            assert {v for step in sched.steps for m in step for v in m
                    } <= sched.footprint
            assert _net(g, sched.steps) == _transposed(g, a, b), (n1, n2, a, b)


def test_swap_word_table_matches_oracle_search():
    # the oracle's bidirectional search regenerates every table word exactly
    assert len(PAFT._SWAP_WORDS) == 9
    for key, word in PAFT._SWAP_WORDS.items():
        assert canonical_word(key) == word, key
    assert {len(w) // 2 for w in PAFT._SWAP_WORDS.values()} == {13, 15, 17}


def _covered_pairs(g):
    return [(a, b) for a in sorted(g.covered) for b in g.adjacency[a]
            if b > a and b in g.covered]


def _candidate_regions(g):
    """Every region a covered adjacent pair can swap on: the pairs of
    distinct ring centers (smaller id first) whose rings overlap and
    together hold both vertices."""
    centers = sorted(g.ring_of)
    cands = {pair: [] for pair in _covered_pairs(g)}
    for i, c1 in enumerate(centers):
        for c2 in centers[i + 1:]:
            ring1, ring2 = set(g.ring_of[c1]), set(g.ring_of[c2])
            if ring1 & ring2:
                union = ring1 | ring2
                for a in sorted(union):
                    for b in g.adjacency[a]:
                        if b > a and b in union:
                            cands[a, b].append((c1, c2))
    return cands


def test_first_ranked_regions_are_all_in_table():
    # every buildable grid up to 12x12 (n2 = 2 is too short to build):
    # the first-ranked region of every covered adjacent pair has a word
    seen = set()
    for n1 in range(2, 13):
        for n2 in range(3, 13):
            g = build_grid(build_workspace(n1, n2))
            eng = SwapEngine(g)
            for a, b in _covered_pairs(g):
                key = eng._canonical_shape(*eng._region(a, b), a, b)[0]
                assert key in PAFT._SWAP_WORDS, (n1, n2, a, b, key)
                seen.add(key)
    assert seen == set(PAFT._SWAP_WORDS)


def test_chosen_region_has_the_shortest_word_of_all_candidates():
    # every covered adjacent pair on every buildable grid up to 12x12:
    # the engine swaps on the region ranked first by the oracle's word
    # length over all candidate regions, ties broken by a tabled shape
    # first, then by the smallest center ids.  The table holds one of the
    # shortest shapes of every pair, not all of them
    length: dict = {}
    for n1 in range(2, 13):
        for n2 in range(3, 13):
            g = build_grid(build_workspace(n1, n2))
            eng = SwapEngine(g)
            for (a, b), cands in _candidate_regions(g).items():
                ranked = []
                for p in cands:
                    key = eng._canonical_shape(*p, a, b)[0]
                    if key not in length:
                        word = canonical_word(key)
                        length[key] = len(word) // 2 if word else math.inf
                    ranked.append((length[key],
                                   key not in PAFT._SWAP_WORDS, p))
                best = min(ranked)
                assert eng._region(a, b) == best[-1], (n1, n2, a, b)
                assert len(eng._rotation_word(*best[-1], a, b)) == best[0]
    assert min(length.values()) == 13


def test_missing_table_key_raises_swap_search_error(tmp_path, monkeypatch,
                                                    capsys):
    # deleting the first-ranked word falls back to the next tabled region;
    # with every tabled shape of the pair gone, the error names the shape
    # of the candidate pair of smallest center ids
    g = build_grid(build_workspace(2, 3))
    eng = SwapEngine(g)
    cands = _candidate_regions(g)

    def shape(p, a, b):
        return eng._canonical_shape(*p, a, b)[0]

    (a, b), tabled = next(
        (pair, keys) for pair, keys in (
            (pair, {shape(p, *pair) for p in ps} & set(PAFT._SWAP_WORDS))
            for pair, ps in cands.items()) if len(keys) > 1)
    first = shape(eng._region(a, b), a, b)
    monkeypatch.delitem(PAFT._SWAP_WORDS, first)
    assert shape(eng._region(a, b), a, b) in tabled - {first}
    for key in tabled - {first}:
        monkeypatch.delitem(PAFT._SWAP_WORDS, key)
    named = shape(min(cands[a, b]), a, b)
    with pytest.raises(SwapSearchError,
                       match=re.escape(f"region shape {named}")):
        eng.schedule_for_pair(a, b)
    monkeypatch.undo()

    # the CLI maps the missing word to exit 4: remove every tabled shape
    # that a paft solve of the instance looks up (the full 9-disc packing,
    # seed 14: some pairs of real discs find every hole in reach held by
    # their batch, so the sort looks up their words' footprints)
    inst_path = str(tmp_path / "m.oldr")
    assert cli_main(["gen", "--n1", "2", "--n2", "3", "--count", "9",
                     "--pattern", "dense", "--seed", "14",
                     "--out", inst_path]) == 0
    shape, keys = SwapEngine._canonical_shape, []

    def recorded(self, *args):
        found = shape(self, *args)
        keys.append(found[0])
        return found

    monkeypatch.setattr(SwapEngine, "_canonical_shape", recorded)
    assert cli_main(["solve", inst_path, "--method", "paft"]) == 0
    monkeypatch.undo()
    assert keys
    for key in set(keys) & set(PAFT._SWAP_WORDS):
        monkeypatch.delitem(PAFT._SWAP_WORDS, key)
    capsys.readouterr()
    assert cli_main(["solve", inst_path, "--method", "paft"]) == 4
    err = capsys.readouterr().err
    assert "solver failure" in err
    named = re.search(r"no rotation word for region shape (\(.*\))", err)
    assert named and ast.literal_eval(named[1]) in keys


def test_swap_execution_locality(minimal_grid):
    g = minimal_grid
    eng = SwapEngine(g)
    covered = sorted(g.covered)
    a = covered[0]
    b = next(v for v in g.adjacency[a] if v in g.covered)
    sched = eng.schedule_for_pair(a, b)
    assert _net(g, sched.steps) == _transposed(g, a, b)


def test_disjoint_swaps_compose_in_parallel():
    g = build_grid(build_workspace(6, 6))
    eng = SwapEngine(g)
    covered = sorted(g.covered)
    s1 = eng.schedule_for_pair(covered[0],
                               next(v for v in g.adjacency[covered[0]]
                                    if v in g.covered))
    far = max(covered,
              key=lambda v: g.vertices[v].dist(g.vertices[covered[0]]))
    s2 = eng.schedule_for_pair(far, next(v for v in g.adjacency[far]
                                         if v in g.covered))
    assert not (s1.footprint & s2.footprint)
    # merged execution is a legal plan fragment
    start = tuple(range(g.n_vertices))
    rows = [start]
    pos = list(start)
    occ = {v: d for d, v in enumerate(pos)}
    depth = max(len(s1.steps), len(s2.steps))
    for i in range(depth):
        moves = [m for s in (s1, s2) if i < len(s.steps) for m in s.steps[i]]
        newocc = dict(occ)
        for u, v in moves:
            del newocc[u]
        for u, v in moves:
            assert v not in newocc
            newocc[v] = occ[u]
        occ = newocc
        for v, d in occ.items():
            pos[d] = v
        rows.append(tuple(pos))
    plan = DiscretePlan.from_steps(rows)
    assert not check_plan(g, plan)


def test_isag_identity_is_zero_steps(minimal_grid):
    g = minimal_grid
    starts = tuple(range(g.n_vertices))
    inst = DiscreteInstance(grid=g, v_starts=starts, v_goals=starts)
    plan = isag(inst)
    assert plan.T == 0


def test_isag_full_occupancy_minimal_grid(minimal_grid, monkeypatch):
    # no vertex is empty, so no transposition searches for a hole
    def no_hole_search(*_):
        raise AssertionError("hole search at full occupancy")

    monkeypatch.setattr(_Router, "_hole_path", no_hole_search)
    g = minimal_grid
    for seed in (0, 1, 2):
        inst = full_occupancy_instance(g, seed)
        plan = isag(inst)
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)


def test_isag_partial_occupancy_with_corner_traffic(minimal_grid):
    g = minimal_grid
    locked = sorted(g.locked)
    c0, c1 = locked[0], locked[1]
    nb = g.adjacency[c0][0]
    # a disc must leave one corner and another must enter a different corner
    inst = DiscreteInstance(grid=g, v_starts=(c0, nb), v_goals=(nb, c1))
    plan = isag(inst)
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)


def test_isag_sort_carries_discs_across_the_snake():
    # discs whose goals lie far along the snake cross it; all end on target
    g = build_grid(build_workspace(3, 3))
    inst = full_occupancy_instance(g, seed=9)
    plan = isag(inst)
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
    assert plan.steps[-1] == inst.v_goals


def test_sort_that_moves_nothing_raises_planner_invariant_error(
        minimal_grid, monkeypatch):
    # transpositions that report landing but move no disc leave the snake
    # unsorted: the final check raises instead of returning a wrong plan
    monkeypatch.setattr(_Router, "_transposition", lambda self, a, b, mark: ())
    inst = full_occupancy_instance(minimal_grid, 0)
    with pytest.raises(PlannerInvariantError,
                       match="odd-even sort incomplete"):
        isag(inst)


def test_isag_full_occupancy_corner_move_is_infeasible(minimal_grid):
    g = minimal_grid
    corner = sorted(g.locked)[0]
    other = next(v for v in range(g.n_vertices) if v != corner)
    goals = list(range(g.n_vertices))
    goals[corner], goals[other] = goals[other], goals[corner]
    inst = DiscreteInstance(grid=g, v_starts=tuple(range(g.n_vertices)),
                            v_goals=tuple(goals))
    with pytest.raises(InfeasibleInstanceError):
        isag(inst)


def test_cell_partition_invariant():
    g = build_grid(build_workspace(4, 5))
    for seed in range(5):
        inst = random_discrete_instance(g, 8, seed)
        d_g = underestimated_makespan(inst)
        cell_of = build_cell_partition(g, d_g)
        for s, t in zip(inst.v_starts, inst.v_goals):
            cs, ct = cell_of[s], cell_of[t]
            assert abs(cs[0] - ct[0]) <= 1 and abs(cs[1] - ct[1]) <= 1


def test_paft_identity():
    g = build_grid(build_workspace(2, 3))
    starts = tuple(range(g.n_vertices))
    inst = DiscreteInstance(grid=g, v_starts=starts, v_goals=starts)
    plan, rep = paft(inst)
    assert rep.makespan == 0
    assert rep.max_goal_distance == 0
    assert rep.ratio == 1.0


def test_paft_single_cell_degenerates_to_isag(minimal_grid):
    g = minimal_grid
    inst = full_occupancy_instance(g, seed=4)
    plan, rep = paft(inst)
    assert rep.cell_count == 1
    assert rep.circulation_steps == 0
    assert plan.steps == isag(inst).steps
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)


def test_paft_multi_cell_runs_circulations():
    # local displacements on a large grid give several cells
    g = build_grid(build_workspace(6, 7))
    rng = random.Random(13)
    covered = sorted(g.covered)
    perm = {v: v for v in covered}
    pairs = [(a, b) for a in covered for b in g.adjacency[a]
             if b > a and b in g.covered]
    for _ in range(len(covered)):
        a, b = rng.choice(pairs)
        perm[a], perm[b] = perm[b], perm[a]
    goals = [perm.get(v, v) for v in range(g.n_vertices)]
    inst = DiscreteInstance(grid=g, v_starts=tuple(range(g.n_vertices)),
                            v_goals=tuple(goals))
    plan, rep = paft(inst)
    assert rep.cell_count > 1
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
    assert rep.ratio <= plan.T  # recorded, sane


def test_paft_reports_ratio_and_constant(minimal_grid):
    inst = full_occupancy_instance(minimal_grid, seed=6)
    plan, rep = paft(inst)
    assert rep.makespan == plan.T
    assert rep.ratio == plan.T / max(1, rep.max_goal_distance)
    assert rep.swap_constant >= 1


def test_boundary_settlement_stress(minimal_grid):
    # partial occupancies that force corner traffic: discs leaving corners,
    # goals at corners, and holes parked at corners
    g = minimal_grid
    locked = sorted(g.locked)
    covered = sorted(g.covered)
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randrange(2, g.n_vertices)  # at least one hole
        starts = rng.sample(range(g.n_vertices), n)
        goals = rng.sample(range(g.n_vertices), n)
        inst = DiscreteInstance(grid=g, v_starts=tuple(starts),
                                v_goals=tuple(goals))
        plan = isag(inst)
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals), trial


def test_boundary_settlement_tight_holes(minimal_grid):
    # every hole sits on a corner while other corners hold wrong discs
    g = minimal_grid
    locked = sorted(g.locked)
    assert len(locked) >= 2
    c0, c1 = locked[0], locked[1]
    rest = [v for v in range(g.n_vertices) if v not in (c0, c1)]
    starts = tuple(rest)  # holes exactly at the two corners
    rot = tuple(rest[1:] + rest[:1])  # cyclic shuffle of everyone else
    inst = DiscreteInstance(grid=g, v_starts=starts, v_goals=rot)
    plan = isag(inst)
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)

    # corner discs must move and the only holes start at other corners
    c2, c3 = locked[2], locked[3]
    occupied = [v for v in range(g.n_vertices) if v not in (c0, c1)]
    starts2 = tuple(occupied)
    goals2 = list(occupied)
    i2, inb = goals2.index(c2), goals2.index(g.adjacency[c2][0])
    goals2[i2], goals2[inb] = goals2[inb], goals2[i2]
    inst2 = DiscreteInstance(grid=g, v_starts=starts2, v_goals=tuple(goals2))
    plan2 = isag(inst2)
    assert not check_plan(g, plan2, inst2.v_starts, inst2.v_goals)


def _transpose(g, holes, a, b, used=()):
    """One _Router transposition of a and b in a batch that has marked
    the vertices in used, with a real disc on every vertex but the holes
    and a virtual disc on each hole.  The contents of a and b must trade
    places, the recorded plan must be legal and the transposition's
    footprint must be marked besides used, unless the pair waits for the
    next batch and nothing changes; returns what _transposition returned
    (() for a relabel, the tuple of exchanges of a one-move or hole-path
    transposition, the pair's word, or None when it waits) and the
    plan."""
    starts = tuple(v for v in range(g.n_vertices) if v not in holes)
    router = _Router(g, starts)
    for v in holes:
        router.add_virtual(v)
    expect = list(router.occ)
    mark = _mark(g, used)
    swap = router._transposition(a, b, mark)
    if swap is not None:
        expect[a], expect[b] = expect[b], expect[a]
    assert router.occ == expect
    assert all(router.pos[d] == v for v, d in enumerate(router.occ))
    footprint = (swap.footprint if isinstance(swap, SwapSchedule)
                 else {v for m in swap for v in m} if swap else set())
    assert {v for v in range(g.n_vertices) if mark[v]} == set(used) | footprint
    plan = router.finish()
    assert not check_plan(g, plan, starts, tuple(router.pos[:len(starts)]))
    return swap, plan


def _mark(g, used):
    """A batch's mark array with the vertices in used marked."""
    mark = bytearray(g.n_vertices)
    for v in used:
        mark[v] = 1
    return mark


def _exchanges(swap):
    """The endpoints of a transposition's exchanges (its footprint), or
    None when it is a rotation word."""
    if isinstance(swap, SwapSchedule):
        assert swap.steps
        return None
    assert isinstance(swap, tuple) and swap
    return {v for m in swap for v in m}


def _movers(plan):
    """Discs that move in each step of the plan."""
    return np.count_nonzero(np.diff(plan.positions, axis=0), axis=1).tolist()


# on 2x3, vertices 8 and 9 are adjacent with common neighbours 5 and 12


def test_hole_hole_transposition_relabels_without_a_step(minimal_grid):
    sched, plan = _transpose(minimal_grid, (8, 9), 8, 9)
    assert sched == () and plan.T == 0


def test_real_hole_transposition_is_one_move(minimal_grid):
    for hole, a, b in ((9, 8, 9), (8, 8, 9)):
        swap, plan = _transpose(minimal_grid, (hole,), a, b)
        assert _exchanges(swap) == {8, 9} and swap == ((a, b),)
        assert _movers(plan) == [1]


def test_real_real_transposition_moves_through_a_common_hole(minimal_grid):
    g = minimal_grid
    swap, plan = _transpose(g, (5, 12), 8, 9)
    assert _exchanges(swap) == {5, 8, 9}     # the lowest empty neighbour
    assert swap == ((8, 5), (9, 8), (5, 9))
    assert _movers(plan) == [1, 1, 1]
    disc = plan.positions[0].tolist().index(8)
    assert plan.positions[:, disc].tolist() == [8, 5, 5, 9]
    # a neighbour in the used set is passed over
    swap, plan = _transpose(g, (5, 12), 8, 9, used={5})
    assert _exchanges(swap) == {8, 9, 12} and _movers(plan) == [1, 1, 1]


def test_real_real_transposition_without_an_empty_neighbour_takes_its_word(
        minimal_grid):
    # full occupancy, and a lone hole held by the batch off the word's
    # footprint (7 is a neighbour of 8 outside both rings)
    g = minimal_grid
    word = SwapEngine(g).schedule_for_pair(8, 9).steps
    for holes, used in (((), ()), ((7,), {7})):
        sched, plan = _transpose(g, holes, 8, 9, used)
        assert isinstance(sched, SwapSchedule)
        assert sched.steps == word and len(word) >= 13
        assert 0 < plan.T <= len(word)


def test_a_pair_meeting_its_batch_waits(minimal_grid, monkeypatch):
    # a pair with a or b marked waits for the next batch (None) before any
    # hole search or word request; one whose hole search fails and whose
    # word's footprint meets the batch waits without a word request; two
    # virtual discs relabel whatever the batch holds.  Nothing that waits
    # moves a disc or marks a vertex.
    g = minimal_grid
    asked, searched = [], []
    monkeypatch.setattr(SwapEngine, "schedule_for_pair",
                        lambda eng, a, b: asked.append((a, b)))
    hole_path = _Router._hole_path
    monkeypatch.setattr(_Router, "_hole_path", lambda router, *args: (
        searched.append(tuple(args[1])) or hole_path(router, *args)))

    def waits(holes, used):
        router = _Router(g, tuple(v for v in range(g.n_vertices)
                                  if v not in holes))
        for v in holes:
            router.add_virtual(v)
        occ, mark = list(router.occ), _mark(g, used)
        assert router._transposition(8, 9, mark) is None
        assert router.occ == occ and not router.moved
        assert mark == _mark(g, used)

    for holes in ((), (9,), (5, 12)):
        for used in ({8}, {9}, {8, 9}):
            waits(holes, used)
    assert not searched and not asked
    # the only hole, 5, is the batch's and lies in the word's footprint
    waits((5,), {5})
    assert searched == [(8, 9)] and not asked
    router = _Router(g, tuple(v for v in range(g.n_vertices) if v > 9))
    d8, d9 = router.add_virtual(8), router.add_virtual(9)
    assert router._transposition(8, 9, _mark(g, {8, 9})) == ()
    assert (router.occ[8], router.occ[9]) == (d9, d8) and not router.moved


def test_the_engine_is_asked_only_for_words_that_land(monkeypatch):
    # a counting wrapper around schedule_for_pair sees exactly the words
    # the router lands: the requested words' steps are, in order, the
    # turn-table rows apply_step receives.  A word whose footprint meets
    # its batch waits after the footprint lookup, unasked.  On a
    # relabelling like paft-dense's (seed 4), a pair whose holes in reach
    # the batch holds looks its word's footprint up, but no word fits, so
    # none is asked for; on a near-full discrete occupancy (seed 0) and
    # at full occupancy some words land and others wait.
    cont = _local_relabelling(6, 7, 60, 4)
    g45 = build_grid(build_workspace(4, 5))
    cases = [(discretize(cont, build_grid(cont.workspace))[0], False),
             (random_discrete_instance(g45, 46, 0), True),
             (full_occupancy_instance(g45, 0), True)]
    asked, looked_up, landed = [], [], []
    schedule = SwapEngine.schedule_for_pair
    footprint = SwapEngine.pair_footprint
    apply_step = _Router.apply_step
    monkeypatch.setattr(SwapEngine, "schedule_for_pair", lambda eng, a, b: (
        asked.append(schedule(eng, a, b)) or asked[-1]))
    monkeypatch.setattr(SwapEngine, "pair_footprint", lambda eng, a, b: (
        looked_up.append((a, b)) or footprint(eng, a, b)))
    monkeypatch.setattr(_Router, "apply_step", lambda router, moves: (
        landed.append(moves) or apply_step(router, moves)))
    for inst, lands_words in cases:
        for log in (asked, looked_up, landed):
            log.clear()
        engine = SwapEngine(inst.grid)
        turns = {id(t) for t in engine.ring_turns}
        plan, _ = paft(inst, engine)
        assert not check_plan(inst.grid, plan, inst.v_starts, inst.v_goals)
        assert ([id(step) for sched in asked for step in sched.steps]
                == [id(moves) for moves in landed if id(moves) in turns])
        assert bool(asked) == lands_words and len(asked) < len(looked_up)


_PARTIAL_GRIDS = ((2, 3), (4, 5), (6, 7))


@functools.cache
def _grid_and_engine(ws):
    g = build_grid(build_workspace(*ws))
    return g, SwapEngine(g)


@given(ws=st.sampled_from(_PARTIAL_GRIDS), data=st.data())
def test_exchange_fast_path_matches_the_general_loop(ws, data):
    # random real, virtual and empty vertices and random clocks: each
    # exchange(u, v) leaves occ, pos, free and moved as apply_step's
    # general multi-move loop does on the step ((u, v), (v, u)), and one
    # from an empty vertex raises naming it
    g, engine = _grid_and_engine(ws)
    V = g.n_vertices
    kinds = data.draw(st.lists(st.sampled_from("rrrvve"), min_size=V,
                               max_size=V), label="kinds")
    order = data.draw(st.permutations(range(V)), label="order")
    clocks = data.draw(st.lists(st.integers(0, 20), min_size=V, max_size=V),
                       label="clocks")
    starts = tuple(v for v in order if kinds[v] == "r")
    fast, general = _Router(g, starts, engine), _Router(g, starts, engine)
    for router in (fast, general):
        for v in order:
            if kinds[v] == "v":
                router.add_virtual(v)
        router.free = list(clocks)
    edges = data.draw(st.lists(st.sampled_from(g.edges), min_size=1,
                               max_size=8), label="edges")
    for u, v in edges:
        if data.draw(st.booleans(), label="flip"):
            u, v = v, u
        empty = [w for w in (u, v) if fast.occ[w] == -1]
        if empty:
            named = f"move from empty vertex {empty[0]}$"
            with pytest.raises(PlannerInvariantError, match=named):
                fast.exchange(u, v)
            with pytest.raises(PlannerInvariantError, match=named):
                general.apply_step(((u, v), (v, u)))
            return
        fast.exchange(u, v)
        general.apply_step(((u, v), (v, u)))
        assert (fast.occ, fast.pos, fast.free, fast.moved) == (
            general.occ, general.pos, general.free, general.moved)


@given(ws=st.sampled_from(_PARTIAL_GRIDS), data=st.data())
def test_circulations_match_the_loop_reference(ws, data):
    # the engine's ring tables and the array gains pick the same turns,
    # in the same steps, as a loop over every ring turn
    g, engine = _grid_and_engine(ws)
    n = data.draw(st.integers(0, g.n_vertices - 1), label="n")
    inst = random_discrete_instance(g, n, data.draw(st.integers(0, 2 ** 32),
                                                    label="seed"))
    cap = data.draw(st.integers(1, 12), label="cap")
    got = []
    for run in (_Router.greedy_circulations, reference_circulations):
        router = _Router(g, inst.v_starts, engine)
        router.settle_boundary(inst.v_goals)
        done = run(router, _completion_targets(router, inst), cap)
        got.append((done, router.occ, router.pos, router.free, router.moved))
    assert got[0] == got[1]


def _nearest_holes(g, holes, ends, blocked):
    """networkx: the hops from the nearest ends to the nearest holes, over
    paths that enter no blocked vertex, and those holes in id order;
    (None, []) when no hole reaches an end."""
    free = nx.Graph(g.edges).subgraph(set(range(g.n_vertices)) - set(blocked))
    sources = [h for h in ends if h in free]
    if not sources:
        return None, []
    hops = nx.multi_source_dijkstra_path_length(free, sources)
    near = sorted((d, u) for u, d in hops.items() if u in holes)
    if not near:
        return None, []
    return near[0][0], [u for d, u in near if d == near[0][0]]


@given(ws=st.sampled_from(_PARTIAL_GRIDS), data=st.data())
def test_hole_path_transposition_matches_networkx(ws, data):
    # two real discs on an adjacent covered pair, holes and a used set
    # drawn at random: within 4 hops of the nearest hole the schedule is
    # 2k + 3 single moves off the used set, exchanging a and b and
    # returning every other vertex's content; farther, it is the word, or
    # nothing when the word's footprint meets the used set
    g, engine = _grid_and_engine(ws)
    a, b = data.draw(st.sampled_from(_covered_pairs(g)), label="pair")
    rest = [v for v in range(g.n_vertices) if v not in (a, b)]
    # few holes put the nearest one farther out
    n = data.draw(st.integers(0, 3) | st.integers(0, len(rest) // 2),
                  label="n")
    holes = set(data.draw(st.permutations(rest), label="order")[:n])
    used = data.draw(st.sets(st.sampled_from(rest), max_size=12), label="used")
    swap, plan = _transpose(g, tuple(sorted(holes)), a, b, used)
    k, _ = _nearest_holes(g, holes, set(g.adjacency[a]) & set(g.adjacency[b]),
                          used | {a, b})
    if k is None or 2 * k + 3 >= 13:
        if engine.pair_footprint(a, b) & used:
            assert swap is None     # the word waits for the next batch
            return
        assert _exchanges(swap) is None
        assert swap.steps == engine.schedule_for_pair(a, b).steps
        return
    footprint = _exchanges(swap)
    assert footprint is not None and not footprint & used
    assert len(swap) == 2 * k + 3 == plan.T
    assert len(footprint) == k + 3
    assert _movers(plan) == [1] * plan.T


@given(ws=st.sampled_from(_PARTIAL_GRIDS), data=st.data())
def test_corner_staging_walks_the_nearest_hole_like_networkx(ws, data):
    # real discs and empty vertices drawn at random, a vertex to empty and
    # a blocked set of sharp corners and neighbours of the vertex (the
    # settled corners and the staged disc): the empty vertex nearest to
    # it off the blocked set, lowest id among the nearest, walks to it
    # along a shortest path off the blocked set, one single move per hop,
    # and each disc on the path shifts one step back along it; with no
    # empty vertex in reach the staging raises and moves nothing
    g, engine = _grid_and_engine(ws)
    V = g.n_vertices
    order = data.draw(st.permutations(range(V)), label="order")
    # few empty vertices put the nearest one farther out
    n = data.draw(st.integers(V - 3, V) | st.integers(1, V), label="n")
    target = data.draw(st.sampled_from(range(V)), label="target")
    blocked = data.draw(st.sets(st.sampled_from(
        sorted((g.locked | set(g.adjacency[target])) - {target}))),
        label="blocked")
    starts = tuple(order[:n])
    router = _Router(g, starts, engine)
    occ = list(router.occ)
    k, nearest = _nearest_holes(g, set(order[n:]), (target,), blocked)
    if k is None:
        with pytest.raises(SwapSearchError,
                           match=f"no reachable hole near {target}$"):
            router._empty(target, blocked)
        assert router.occ == occ and not router.moved
        return
    router._empty(target, blocked)
    # the disc now on each vertex of the hole's walk came from the next one
    came_from = {d: v for v, d in enumerate(occ) if d != -1}
    path = [nearest[0]]
    while router.occ[path[-1]] != -1 and len(path) <= V:
        path.append(came_from[router.occ[path[-1]]])
    assert path[-1] == target and len(path) == k + 1
    assert all(w in g.adjacency[v] for v, w in zip(path, path[1:]))
    assert not set(path) & blocked
    assert all(router.occ[v] == occ[v] for v in range(V) if v not in path)
    plan = router.finish()
    assert plan.T == k and _movers(plan) == [1] * k
    assert not check_plan(g, plan, starts, tuple(router.pos))


def _hole_at(g, a, b, k):
    """The lowest vertex k hops from the nearest common neighbour of a and
    b, entering neither a nor b."""
    free = nx.Graph(g.edges).subgraph(set(range(g.n_vertices)) - {a, b})
    hops = nx.multi_source_dijkstra_path_length(
        free, set(g.adjacency[a]) & set(g.adjacency[b]))
    return min(v for v, d in hops.items() if d == k)


def test_hole_path_takes_2k_plus_3_moves_up_to_four_hops():
    g = build_grid(build_workspace(6, 7))
    a = 45
    b = next(v for v in g.adjacency[a] if v in g.covered)
    word = SwapEngine(g).schedule_for_pair(a, b).steps
    assert len(word) == 13
    for k in range(1, 5):
        hole = _hole_at(g, a, b, k)
        swap, plan = _transpose(g, (hole,), a, b)
        footprint = _exchanges(swap)
        assert footprint is not None and hole in footprint
        assert len(footprint) == k + 3
        assert plan.T == len(swap) == 2 * k + 3
        assert _movers(plan) == [1] * (2 * k + 3)
        # the hole's own disc is virtual: every real disc on the path
        # returns to its vertex, a and b trade theirs
        disc = plan.positions[0].tolist().index(a)
        assert plan.positions[-1, disc] == b
    # a lone hole five hops out would cost 13 moves: the word is shorter
    # or as short
    swap, plan = _transpose(g, (_hole_at(g, a, b, 5),), a, b)
    assert _exchanges(swap) is None and swap.steps == word


def test_disjoint_transpositions_of_successive_batches_share_steps():
    # two 13-turn words on disjoint regions, formed in two batches at full
    # occupancy: the second starts on the first plan step, not after the
    # first word's 13 steps
    g = build_grid(build_workspace(6, 7))
    eng = SwapEngine(g)
    pairs = [p for p in _covered_pairs(g)
             if len(eng.schedule_for_pair(*p).steps) == 13]
    first = eng.schedule_for_pair(*pairs[0])
    second = next(p for p in pairs
                  if not eng.schedule_for_pair(*p).footprint & first.footprint)
    router = _Router(g, tuple(range(g.n_vertices)), eng)
    scheds = [router._transposition(a, b, _mark(g, ()))
              for a, b in (pairs[0], second)]
    plan = router.finish()
    assert plan.T == 13
    start, row1 = plan.positions[:2]
    assert set(start[row1 != start].tolist()) == {
        u for s in scheds for u, _ in s.steps[0]}
    assert not check_plan(g, plan, tuple(range(g.n_vertices)),
                          tuple(router.pos))


def _local_relabelling(n1, n2, swaps, seed):
    """The full pitch-8/3 packing with goals made by random swaps of
    neighbouring packing points, as the paft-dense benchmark builds them."""
    ws = build_workspace(n1, n2)
    pts = dense_points(ws)
    nbrs = [[j for j, q in enumerate(pts)
             if j != i and abs(p.dist(q) - SEPARATION) < 1e-3]
            for i, p in enumerate(pts)]
    rng = random.Random(seed)
    label = list(range(len(pts)))
    for _ in range(swaps):
        i = rng.randrange(len(pts))
        j = rng.choice(nbrs[i])
        label[i], label[j] = label[j], label[i]
    goal_of = {d: k for k, d in enumerate(label)}
    return ContinuousInstance(workspace=ws, starts=tuple(pts),
                              goals=tuple(pts[goal_of[d]]
                                          for d in range(len(pts))))


def _clock_cases():
    for n1, n2, count, seed in PAFT_PARTIAL_MAKESPANS:
        yield dense_instance(build_workspace(n1, n2), count, seed)
    yield _local_relabelling(6, 7, 60, 2024)


@pytest.mark.parametrize("cont", list(_clock_cases()))
def test_timed_plan_keeps_every_vertex_order(cont, monkeypatch):
    # replaying the router's logical steps one per plan step gives every
    # vertex the same order of real occupants and the same end as the
    # timed plan, which is no longer and has no empty row
    g = build_grid(cont.workspace)
    inst, _, _ = discretize(cont, g)
    # exchange(u, v) is logged as the step it lands, ((u, v), (v, u))
    logged = []
    apply_step, exchange = _Router.apply_step, _Router.exchange

    def logged_step(self, moves):
        logged.append(list(moves))
        return apply_step(self, moves)

    def logged_exchange(self, u, v):
        logged.append([(u, v), (v, u)])
        return exchange(self, u, v)

    monkeypatch.setattr(_Router, "apply_step", logged_step)
    monkeypatch.setattr(_Router, "exchange", logged_exchange)
    plan = paft(inst)[0]
    monkeypatch.undo()
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
    assert validate(synthesize_discrete(g, plan), g.workspace).valid
    logical = replay_logical_steps(inst.v_starts, logged, g.n_vertices)
    assert logical[-1].tolist() == plan.positions[-1].tolist()
    assert (occupant_orders(logical, g.n_vertices)
            == occupant_orders(plan.positions, g.n_vertices))
    moved = (np.diff(logical, axis=0) != 0).any(axis=1)
    assert plan.T < moved.sum()
    assert (np.diff(plan.positions, axis=0) != 0).any(axis=1).all()


@given(ws=st.sampled_from(_PARTIAL_GRIDS), data=st.data())
def test_partial_occupancy_plans_are_legal_and_valid(ws, data):
    # any occupancy with at least one hole: both planners reach every
    # goal on a legal plan whose trajectories validate, and on 2x3 the
    # validation matches the per-window reference bit for bit
    g, engine = _grid_and_engine(ws)
    V = g.n_vertices
    n = data.draw(st.integers(0, V - 1), label="n")
    inst = random_discrete_instance(g, n, data.draw(st.integers(0, 2 ** 32),
                                                    label="seed"))
    for plan in (isag(inst, engine), paft(inst, engine)[0]):
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        # the clocks leave no plan row without a move
        assert (np.diff(plan.positions, axis=0) != 0).any(axis=1).all()
        cp = synthesize_discrete(g, plan)
        rep = validate(cp, g.workspace)
        assert rep.valid
        if ws == (2, 3):
            ref = reference_validate(cp, g.workspace)
            assert rep.min_pair_clearance.hex() == ref.min_pair_clearance.hex()
            assert (rep.violations, rep.boundary_ok) == (ref.violations,
                                                         ref.boundary_ok)


def _odd_even_comparators(vals):
    """The comparators p that an odd-even transposition sort of vals
    transposes, round by round from the even one; also sorts vals."""
    done, parity = [], 0
    while any(x > y for x, y in zip(vals, vals[1:])):
        for p in range(parity, len(vals) - 1, 2):
            if vals[p] > vals[p + 1]:
                vals[p], vals[p + 1] = vals[p + 1], vals[p]
                done.append(p)
        parity ^= 1
    return done


@given(ws=st.sampled_from(_PARTIAL_GRIDS), data=st.data())
def test_sort_transposes_each_inversion_once(ws, data):
    # any occupancy, full included: every sort runs over a family of
    # vertex-disjoint paths (the columns, the rows, the snake), and on
    # each path it lands exactly as many transpositions (relabels of two
    # virtual discs too) as the path's initial target slots have
    # inversions, and they are the comparators a plain odd-even
    # transposition sort of those slots transposes: no pair is transposed
    # twice or in order, and no comparator joins two paths
    g, engine = _grid_and_engine(ws)
    V = g.n_vertices
    n = data.draw(st.integers(0, V - 1) | st.just(V), label="n")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    inst = (full_occupancy_instance(g, seed) if n == V
            else random_discrete_instance(g, n, seed))
    planner = data.draw(st.sampled_from((isag, paft)), label="planner")
    sorts = []      # (slots of each path, (path, slot) of each landed pair)
    at = {}         # the (path, slot) of each vertex in the current sort
    sort_covered, transposition = _Router.sort_covered, _Router._transposition

    def counted_sort(self, paths, target_of):
        at.clear()
        at.update((v, (i, j)) for i, path in enumerate(paths)
                  for j, v in enumerate(path))
        ends = [[at[target_of[self.occ[v]]] for v in path] for path in paths]
        assert all(i == k for i, path in enumerate(ends) for k, _ in path)
        sorts.append(([[j for _, j in path] for path in ends], []))
        sort_covered(self, paths, target_of)

    def counted_transposition(self, a, b, mark):
        swap = transposition(self, a, b, mark)
        if swap is not None:
            i, j = at[a]
            assert at[b] == (i, j + 1)
            sorts[-1][1].append((i, j))
        return swap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Router, "sort_covered", counted_sort)
        mp.setattr(_Router, "_transposition", counted_transposition)
        plan = planner(inst, engine)
    if planner is paft:
        plan = plan[0]
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
    for slots, landed in sorts:
        for i, path in enumerate(slots):
            got = [j for k, j in landed if k == i]
            inversions = sum(x > y for j, x in enumerate(path)
                             for y in path[j + 1:])
            assert len(got) == inversions
            assert sorted(got) == sorted(_odd_even_comparators(path))


def _phase_log(planner, inst, engine=None):
    """Route inst; return the plan, the arguments and result of phase A's
    row assignment (None when nothing was routed) and the transpositions
    each sort landed, in the order the sorts ran."""
    calls, landed = [], []
    assign = PAFT._row_assignment
    sort_covered, transposition = _Router.sort_covered, _Router._transposition

    def logged_assignment(*args):
        calls.append((*args, assign(*args)))
        return calls[-1][-1]

    def logged_sort(self, paths, target_of):
        landed.append(0)
        sort_covered(self, paths, target_of)

    def logged_transposition(self, a, b, mark):
        swap = transposition(self, a, b, mark)
        landed[-1] += swap is not None
        return swap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PAFT, "_row_assignment", logged_assignment)
        mp.setattr(_Router, "sort_covered", logged_sort)
        mp.setattr(_Router, "_transposition", logged_transposition)
        plan = planner(inst, engine)
    if planner is paft:
        plan = plan[0]
    return plan, (calls[0] if calls else None), landed


def _assignment_is_exact(rows, _row_at, column, ends, row_of):
    """Whether every row received the goal columns of its own vertices
    (the arguments and result of one _row_assignment call)."""
    got = [Counter() for _ in rows]
    for d, r in row_of.items():
        got[r][column[ends[d][1]]] += 1
    return got == [Counter(column[v] for v in row) for row in rows]


@pytest.mark.parametrize("n1, n2, count, seed, exact",
                         [(3, 3, 10, 11, False), (2, 3, 6, 2, True)])
def test_row_assignment_edge_cases_route(n1, n2, count, seed, exact):
    # 3x3 with 10 discs (seed 11) has no exact row assignment at all, so
    # the completion pass routes what the three phases leave; 2x3 with 6
    # discs (seed 2) has one that greedy picks alone miss and the
    # augmenting paths complete, so the completion pass finds nothing
    # inverted.  Both planners' plans are legal and valid.
    ws = build_workspace(n1, n2)
    g = build_grid(ws)
    inst = discretize(dense_instance(ws, count, seed), g)[0]
    for planner in (isag, paft):
        plan, (rows, row_at, column, ends, row_of), landed = _phase_log(
            planner, inst)
        assert exact_row_assignment_exists(rows, column, ends) == exact
        assert _assignment_is_exact(rows, row_at, column, ends,
                                    row_of) == exact
        assert len(landed) == 4 and (landed[-1] == 0) == exact
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        assert validate(synthesize_discrete(g, plan), ws).valid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PAFT, "_augment", lambda *args: False)
        _, (rows, row_at, column, ends, row_of), _ = _phase_log(isag, inst)
        assert not _assignment_is_exact(rows, row_at, column, ends, row_of)


@given(ws=st.sampled_from(((2, 3), (3, 3), (3, 4), (4, 5))), data=st.data())
def test_exact_row_assignment_leaves_the_completion_pass_nothing(ws, data):
    # partial and full occupancies: every plan is legal and validates, and
    # whenever phase A's row assignment is exact the columns, rows and
    # columns put every disc on its target, so the snake pass lands no
    # transposition
    g, engine = _grid_and_engine(ws)
    V = g.n_vertices
    n = data.draw(st.integers(1, V - 1) | st.just(V), label="n")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    inst = (full_occupancy_instance(g, seed) if n == V
            else random_discrete_instance(g, n, seed))
    planner = data.draw(st.sampled_from((isag, paft)), label="planner")
    plan, call, landed = _phase_log(planner, inst, engine)
    assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
    assert validate(synthesize_discrete(g, plan), g.workspace).valid
    if call is not None and _assignment_is_exact(*call):
        assert len(landed) == 4 and landed[-1] == 0


def test_corrupted_rotation_word_raises_swap_search_error(minimal_grid,
                                                         monkeypatch):
    g = minimal_grid
    a = min(g.covered)
    b = next(v for v in g.adjacency[a] if v in g.covered)
    eng = SwapEngine(g)
    eng.schedule_for_pair(a, b)
    # drop the last turn of every table word
    monkeypatch.setattr(PAFT, "_SWAP_WORDS",
                        {k: w[:-2] for k, w in PAFT._SWAP_WORDS.items()})
    eng._pair_cache.clear()
    with pytest.raises(SwapSearchError, match="not the transposition"):
        eng.schedule_for_pair(a, b)


def test_planner_invariants_survive_python_O():
    # python -O strips asserts; the planner checks must still raise
    src = str(Path(__import__("triroute").__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "assert False, 'asserts are still on'\n"
        "import importlib\n"
        "from triroute.geometry import build_grid, build_workspace\n"
        "from triroute.paft import (PlannerInvariantError, SwapEngine,\n"
        "                           SwapSearchError, _Router)\n"
        "P = importlib.import_module('triroute.paft')\n"
        "g = build_grid(build_workspace(2, 3))\n"
        "a = min(g.covered)\n"
        "b = next(v for v in g.adjacency[a] if v in g.covered)\n"
        "eng = SwapEngine(g)\n"
        "eng.schedule_for_pair(a, b)\n"
        "P._SWAP_WORDS = {k: w[:-2] for k, w in P._SWAP_WORDS.items()}\n"
        "eng._pair_cache.clear()\n"
        "try:\n"
        "    eng.schedule_for_pair(a, b)\n"
        "except SwapSearchError as exc:\n"
        "    if 'not the transposition' in str(exc):\n"
        "        print('SwapSearchError')\n"
        "router = _Router(g, (0,))\n"
        "try:\n"
        "    router.apply_step([(1, 2)])\n"
        "except PlannerInvariantError:\n"
        "    print('PlannerInvariantError')\n"
        "from triroute.discretize import DiscreteInstance\n"
        "from triroute.ilp import (SolverError, build_model, column_names,\n"
        "                          extract_plan, parse_solution)\n"
        "model = build_model(DiscreteInstance(g, (a,), (b,)), 1)\n"
        "zeros = ''.join(name + ' 0\\n' for name in column_names(model))\n"
        "try:\n"
        "    extract_plan(model, parse_solution(model, zeros))\n"
        "except SolverError:\n"
        "    print('SolverError')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-O", "-c", code, src], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["SwapSearchError", "PlannerInvariantError",
                                   "SolverError"]


def test_planner_and_cli_import_neither_scipy_nor_networkx():
    # the row assignment is pure Python: importing the planner or the CLI
    # in a fresh interpreter loads neither scipy nor networkx
    src = str(Path(__import__("triroute").__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "import triroute.paft, triroute.cli\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}\n"
            "             & {'scipy', 'networkx'}))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code, src], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


# dense_instance seed 0: 40 and 63 (the full packing) discs on 6x7, 60
# and 80 of the 96 packing points on 8x8
_DENSE_SEED_0 = ((6, 7, 40, 0), (6, 7, 63, 0), (8, 8, 60, 0), (8, 8, 80, 0))


# dense_instance seed 2 with 7 discs on 2x3 rolls a goal disc into a sharp
# corner over four staged moves and empties a non-goal corner, which no
# other pin does
_STAGING = (2, 3, 7, 2)


def _digest_cases():
    """(name, discrete instance) of the plan-identity pins: local
    relabellings like paft-dense's, the partial-occupancy makespan
    instances, dense draws of seed 0 and full occupancies of 3x3, 4x5
    and 6x7.  Seed 0's relabelling has circulation turns of equal gain
    on one ring, so it pins the order of ring turns.  A round's
    transpositions land in order of p and a pair that meets its batch
    waits for the next one, so that order decides which of two
    overlapping pairs goes first; run in descending p, all 24 plans
    change, so these pin it too.  The staging pin (_STAGING) also pins
    which hole corner staging walks."""
    for seed in (0, 2024, 2025, 2026):
        cont = _local_relabelling(6, 7, 60, seed)
        yield (f"local-6x7-{seed}",
               discretize(cont, build_grid(cont.workspace))[0])
    for n1, n2, count, seed in (*PAFT_PARTIAL_MAKESPANS, *_DENSE_SEED_0,
                                _STAGING):
        ws = build_workspace(n1, n2)
        yield (f"dense-{n1}x{n2}-{count}-{seed}",
               discretize(dense_instance(ws, count, seed), build_grid(ws))[0])
    for n1, n2, seeds in ((3, 3, 2), (4, 5, 4), (6, 7, 4)):
        g = build_grid(build_workspace(n1, n2))
        for seed in range(seeds):
            yield f"full-{n1}x{n2}-{seed}", full_occupancy_instance(g, seed)


def _plan_digest(plan):
    pos = np.ascontiguousarray(plan.positions, dtype=np.int64)
    return hashlib.sha256(repr(pos.shape).encode() + pos.tobytes()
                          ).hexdigest()[:16]


# sha256 (first 16 hex digits) of each plan's position array, paft then
# isag; a router change that keeps the plans keeps these
PLAN_DIGESTS = {
    "local-6x7-0": ("b93df0b8e9d127d9", "4adb8a1caa6ead29"),
    "local-6x7-2024": ("a51eb071c593f697", "c0afa0f708bb6647"),
    "local-6x7-2025": ("6435dbdce160462b", "0da490127c77c476"),
    "local-6x7-2026": ("2f7a3c806ba4c0a2", "109882b64b084c0a"),
    "dense-2x3-6-4": ("7d125e41f4b5fb83", "7d125e41f4b5fb83"),
    "dense-4x5-20-3": ("2f34d916a9e4e7b5", "2f34d916a9e4e7b5"),
    "dense-4x5-30-1": ("38a1faec71fcb7bc", "38a1faec71fcb7bc"),
    "dense-6x7-40-2": ("c62c76d24887bb88", "c62c76d24887bb88"),
    "dense-6x7-63-5": ("a5c53dbfa45f41bb", "a5c53dbfa45f41bb"),
    "dense-6x7-40-0": ("e603d5dc517e96b6", "e603d5dc517e96b6"),
    "dense-6x7-63-0": ("97e10e12925798a8", "97e10e12925798a8"),
    "dense-8x8-60-0": ("197eb57d54ce65cf", "197eb57d54ce65cf"),
    "dense-8x8-80-0": ("56d66aefec44e267", "56d66aefec44e267"),
    "dense-2x3-7-2": ("dbdc416b94bc987a", "dbdc416b94bc987a"),
    "full-3x3-0": ("34a07f28446a7c98", "34a07f28446a7c98"),
    "full-3x3-1": ("dc7748dccdbaa40b", "dc7748dccdbaa40b"),
    "full-4x5-0": ("5f1673587b691e06", "5f1673587b691e06"),
    "full-4x5-1": ("0a8eee868363ab47", "0a8eee868363ab47"),
    "full-4x5-2": ("1572039dedabdb9f", "1572039dedabdb9f"),
    "full-4x5-3": ("0e5fa58c3ced00fd", "0e5fa58c3ced00fd"),
    "full-6x7-0": ("e3a384c2062e1713", "e3a384c2062e1713"),
    "full-6x7-1": ("877e6a92ffc44f1e", "877e6a92ffc44f1e"),
    "full-6x7-2": ("213220c1df7e5aef", "213220c1df7e5aef"),
    "full-6x7-3": ("e481b512e08baa25", "e481b512e08baa25"),
}


def test_router_plans_keep_their_digests():
    got = {name: (_plan_digest(paft(inst)[0]), _plan_digest(isag(inst)))
           for name, inst in _digest_cases()}
    assert got == PLAN_DIGESTS


def test_engine_for_another_workspace_is_refused():
    # the engine keeps its grid's routing tables, so one built for another
    # workspace raises a ValueError naming both workspaces; one built for
    # an equal workspace (grids are deterministic per workspace) routes as
    # the instance's own grid would
    ws45, ws33 = build_workspace(4, 5), build_workspace(3, 3)
    inst = random_discrete_instance(build_grid(ws45), 20, 1)
    other = SwapEngine(build_grid(ws33))
    for planner in (isag, paft):
        with pytest.raises(ValueError) as exc:
            planner(inst, other)
        assert str(ws33) in str(exc.value) and str(ws45) in str(exc.value)
    twin = SwapEngine(build_grid(build_workspace(4, 5)))
    assert twin.grid is not inst.grid
    assert _plan_digest(paft(inst, twin)[0]) == _plan_digest(paft(inst)[0])
    assert _plan_digest(isag(inst, twin)) == _plan_digest(isag(inst))


_ENGINE_GRIDS = {ws: build_grid(build_workspace(*ws))
                 for ws in ((2, 3), (3, 3), (3, 4), (4, 5))}


@given(draws=st.lists(st.tuples(
    st.sampled_from(sorted(_ENGINE_GRIDS)), st.floats(0.05, 1.0),
    st.booleans(), st.integers(0, 2 ** 32), st.sampled_from(("isag", "paft"))),
    min_size=2, max_size=5))
def test_a_reused_engine_routes_as_fresh_ones(draws):
    # a sequence of partial and full occupancies on grids from 2x3 to 4x5,
    # each routed by isag or paft: one engine per grid reused across the
    # sequence gives the plans and reports (but the swap constant, the
    # longest word the engine has built) that a fresh engine per instance
    # gives, so no instance leaves state in the engine's tables
    reused = {}
    for ws, share, full, seed, planner in draws:
        g = _ENGINE_GRIDS[ws]
        V = g.n_vertices
        n = min(V - 1, max(1, int(share * V)))
        inst = (full_occupancy_instance(g, seed) if full
                else random_discrete_instance(g, n, seed))
        engine = reused.setdefault(ws, SwapEngine(g))
        got, want = [], []
        for out, eng in ((got, engine), (want, SwapEngine(g))):
            if planner == "isag":
                out.append(_plan_digest(isag(inst, eng)))
            else:
                plan, rep = paft(inst, eng)
                out += [_plan_digest(plan), rep.makespan,
                        rep.max_goal_distance, rep.cell_count,
                        rep.circulation_steps]
        assert got == want


def test_grid_tables_built_once_per_engine(monkeypatch):
    # two solves of a paft-dense-like relabelling on one warmed engine: the
    # path families with their sort tables, the cell count of the d_g and
    # every hop row the circulations read are built on the first route and
    # only read by the second; warming the engine builds none of them
    built = Counter()
    families, partition = PAFT._path_families, PAFT.build_cell_partition
    of, hop_table = PAFT._Family.of.__func__, SwapEngine.hop_table
    monkeypatch.setattr(PAFT, "_path_families", lambda grid: (
        built.update(["path families"]) or families(grid)))
    monkeypatch.setattr(PAFT._Family, "of", classmethod(
        lambda cls, paths, V: built.update(["sort tables"]) or of(cls, paths, V)))
    monkeypatch.setattr(PAFT, "build_cell_partition", lambda grid, d_g: (
        built.update([f"cells of d_g {d_g}"]) or partition(grid, d_g)))

    def counted(engine, targets):
        table, known = engine._hops
        built.update(["hop row"] * len(set(targets[~known[targets]].tolist())))
        return hop_table(engine, targets)

    monkeypatch.setattr(SwapEngine, "hop_table", counted)
    cont = _local_relabelling(6, 7, 60, 0)
    g = build_grid(cont.workspace)
    inst = discretize(cont, g)[0]
    engine = SwapEngine(g)
    for a, b in _covered_pairs(g):
        engine.schedule_for_pair(a, b)
    assert not built
    first = paft(inst, engine)
    once = dict(built)
    assert once == {"path families": 1, "sort tables": 3,
                    f"cells of d_g {first[1].max_goal_distance}": 1,
                    "hop row": once["hop row"]}
    assert first[1].circulation_steps and once["hop row"] > 0
    second = paft(inst, engine)
    assert built == once
    assert _plan_digest(second[0]) == _plan_digest(first[0])
    assert second[1] == first[1]
    assert engine.families is engine.families
