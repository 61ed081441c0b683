import dataclasses
import functools
import hashlib
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import (brute_nearest, enumerate_sharp_angles,
                      joint_bfs_makespan, lattice_count, scored_nearest)
from conftest import hex_covers
from triroute.geometry import (EDGE_LEN, GEO_TOL, BoundsError, TriGrid, Vec2,
                               bfs_distances, bfs_path, build_grid,
                               build_workspace, density_limit, nearest_vertex,
                               nearest_vertex_dist, triangle_circumradius)

ALL_SIZES = [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (4, 5), (5, 6), (2, 8),
             (8, 3), (6, 7)]


def test_workspace_dimensions():
    ws = build_workspace(3, 3)
    assert ws.w == 14.0
    assert abs(ws.h - (3 * 4 / math.sqrt(3) + 2)) < 1e-9
    assert abs(ws.h - 8.9282) < 5e-4
    assert build_workspace(2, 3).w == 10.0  # minimum workspace


@pytest.mark.parametrize("n1,n2", [(1, 3), (2, 2), (0, 0), (-1, 5)])
def test_workspace_bounds_rejected(n1, n2):
    with pytest.raises(BoundsError):
        build_workspace(n1, n2)


def test_circumradius():
    assert abs(triangle_circumradius() - 4.0 / 3.0) < 1e-12
    # equilateral identity r = s / sqrt(3)
    assert abs(triangle_circumradius() - EDGE_LEN / math.sqrt(3)) < 1e-12


def test_circumradius_monte_carlo(minimal_grid):
    # max distance to the nearest corner over a lattice triangle stays <= 4/3
    g = minimal_grid
    a, b, c = g.triangles[0]
    pa, pb, pc = g.vertices[a], g.vertices[b], g.vertices[c]
    rng = random.Random(42)
    worst = 0.0
    for _ in range(20000):
        u, v = rng.random(), rng.random()
        if u + v > 1:
            u, v = 1 - u, 1 - v
        p = Vec2(pa.x + u * (pb.x - pa.x) + v * (pc.x - pa.x),
                 pa.y + u * (pb.y - pa.y) + v * (pc.y - pa.y))
        worst = max(worst, min(p.dist(pa), p.dist(pb), p.dist(pc)))
    assert worst <= 4.0 / 3.0 + 1e-9


def test_density_limit():
    assert abs(density_limit() - 0.5101) < 5e-4
    assert abs(math.pi / 2 - 1.5708) < 1e-4                 # numerator
    assert abs(0.5 * (8 / 3) * EDGE_LEN - 16 / (3 * math.sqrt(3))) < 1e-12
    assert abs(16 / (3 * math.sqrt(3)) - 3.0792) < 1e-4     # denominator


def test_grid_vertex_count_matches_independent_enumeration():
    for n1, n2 in ALL_SIZES:
        g = build_grid(build_workspace(n1, n2))
        assert g.n_vertices == lattice_count(n1, n2), (n1, n2)


def test_minimal_grid_count(minimal_grid):
    # derived from the embedding rule by direct enumeration
    assert minimal_grid.n_vertices == 18


def test_triangle_columns(small_grid):
    # the inset width splits into exactly 2*n1 triangle columns
    g = small_grid
    xs = sorted({round(p.x, 9) for p in g.vertices})
    assert len(xs) == 2 * g.workspace.n1 + 1
    assert xs[0] == 1.0
    assert abs(xs[-1] - (g.workspace.w - 1.0)) < 1e-9


def test_locked_corners_are_the_rectangle_corners(small_grid):
    g = small_grid
    ws = g.workspace
    corners = {(1.0, 1.0), (1.0, ws.h - 1.0), (ws.w - 1.0, 1.0),
               (ws.w - 1.0, ws.h - 1.0)}
    got = {(g.vertices[v].x, round(g.vertices[v].y, 9)) for v in g.locked}
    assert {(x, round(y, 9)) for x, y in corners} == got


def test_edge_lengths_and_clearance():
    for n1, n2 in ALL_SIZES[:6]:
        g = build_grid(build_workspace(n1, n2))
        ws = g.workspace
        for i, j in g.edges:
            assert abs(g.vertices[i].dist(g.vertices[j]) - EDGE_LEN) < 1e-9
        for p in g.vertices:
            assert min(p.x, p.y, ws.w - p.x, ws.h - p.y) >= 1.0 - 1e-9


def test_adjacency_symmetry_and_interior_degree(small_grid):
    g = small_grid
    for i in range(g.n_vertices):
        for j in g.adjacency[i]:
            assert i in g.adjacency[j]
    # interior vertices (full hexagon neighborhoods) have degree exactly 6
    assert any(len(g.adjacency[v]) == 6 for v in range(g.n_vertices))
    for v in range(g.n_vertices):
        assert len(g.adjacency[v]) <= 6


def test_triangle_closure(small_grid):
    g = small_grid
    tris = set(g.triangles)
    assert len(tris) == len(g.triangles)
    adj = [set(a) for a in g.adjacency]
    expected = set()
    for i in range(g.n_vertices):
        for j in adj[i]:
            if j <= i:
                continue
            for k in adj[i] & adj[j]:
                if k > j:
                    expected.add((i, j, k))
    assert tris == expected


def test_grid_determinism():
    a = build_grid(build_workspace(3, 4))
    b = build_grid(build_workspace(3, 4))
    assert [(p.x, p.y) for p in a.vertices] == [(p.x, p.y) for p in b.vertices]
    assert a.adjacency == b.adjacency
    assert a.edges == b.edges
    assert a.triangles == b.triangles
    assert a.ring_of == b.ring_of


# sha256 over every compared TriGrid field.  The grid was first pinned
# when it was still built from per-parity candidate lists, atan2-sorted
# rings and a cosine test for the locked corners; these digests were
# taken from that same grid without its since-deleted len_odd,
# vertical_paths, len_even, hex_covers and horizontal_paths fields (the
# sort paths PAFT builds are pinned in test_paft.py)
PINNED_GRID_DIGESTS = {
    (2, 3): "cca88028b1b47b45c64797a7e2586cd2e575d06f29c19a91bd094ebf7d96ef5c",
    (4, 5): "2d737303b1b6c89260989cb320d862827afedc373bbc1e0ba24ea11e9d82fcb7",
    (6, 7): "7f678b1d8915974d9f75c95df044521fe7d941d745cafd744e9d1302f6bbc953",
    (9, 10): "3de2dd825ea1e9363470c55f255cf2d4c4d77f844de69b1f003b8dcb3743b1b9",
    (11, 17): "9118d7f745240f711d92fe55b5fdfbb1839675234b5b70f924ab6e4efb0e6ab9",
    (12, 12): "2c4dbff1d4c51a3aae00d93f58fb45080bfea18cf06f90e924a43f9eb0ac66ea",
}


def _grid_digest(g) -> str:
    def canonical(value):
        if isinstance(value, dict):
            return sorted(value.items())
        if isinstance(value, frozenset):
            return sorted(value)
        return value

    h = hashlib.sha256()
    for name in sorted(f.name for f in dataclasses.fields(g) if f.compare):
        h.update(f"{name}={canonical(getattr(g, name))!r}\n".encode())
    return h.hexdigest()


def test_grid_structure_is_pinned():
    for size, digest in PINNED_GRID_DIGESTS.items():
        assert _grid_digest(build_grid(build_workspace(*size))) == digest, size


def test_sharp_angles_three_per_triangle(small_grid):
    g = small_grid
    angles = enumerate_sharp_angles(g)
    assert len(angles) == 3 * len(g.triangles)
    keys = {(a.apex, min(a.arm1, a.arm2), max(a.arm1, a.arm2)) for a in angles}
    assert len(keys) == len(angles)  # no duplicates up to arm ordering
    for a in angles:
        p, q, r = g.vertices[a.apex], g.vertices[a.arm1], g.vertices[a.arm2]
        u, w = q - p, r - p
        cosang = u.dot(w) / (u.norm() * w.norm())
        assert abs(cosang - 0.5) < 1e-9  # 60 degrees


def test_sharp_angles_single_triangle():
    g = build_grid(build_workspace(2, 3))
    stub = TriGrid(workspace=g.workspace,
                   vertices=[g.vertices[v] for v in g.triangles[0]],
                   adjacency=[[1, 2], [0, 2], [0, 1]],
                   edges=[(0, 1), (0, 2), (1, 2)],
                   triangles=[(0, 1, 2)])
    assert len(enumerate_sharp_angles(stub)) == 3


def test_hex_cover_geometry(small_grid):
    g = small_grid
    covers = hex_covers(g)
    assert 1 <= len(covers) <= 3
    for cover in covers:
        for ring in cover:
            assert len(ring) == 6
            for idx in range(6):
                a = g.vertices[ring[idx]]
                b = g.vertices[ring[(idx + 1) % 6]]
                c = g.vertices[ring[(idx + 2) % 6]]
                assert ring[(idx + 1) % 6] in g.adjacency[ring[idx]]
                u, w = a - b, c - b
                cosang = u.dot(w) / (u.norm() * w.norm())
                assert abs(cosang + 0.5) < 1e-9  # interior angle 120 degrees


def test_hex_cover_legality_no_shared_triangle(small_grid):
    g = small_grid
    tris = set(g.triangles)
    for cover in hex_covers(g):
        for ring in cover:
            for idx in range(6):
                trio = tuple(sorted((ring[idx], ring[(idx + 1) % 6],
                                     ring[(idx + 2) % 6])))
                assert trio not in tris


def test_hex_cover_union_is_all_but_locked_corners():
    for n1, n2 in ALL_SIZES:
        g = build_grid(build_workspace(n1, n2))
        union = set()
        for cover in hex_covers(g):
            for ring in cover:
                union.update(ring)
        assert union == set(range(g.n_vertices)) - set(g.locked), (n1, n2)
        # locked vertices are degree-2 boundary corners with a 60-degree wedge
        for v in g.locked:
            assert len(g.adjacency[v]) == 2
        assert 1 <= len(g.locked) <= 4


def test_two_covers_suffice():
    # at suitable grid scales two of the three covers already reach
    # every coverable vertex (the third is redundant)
    g = build_grid(build_workspace(5, 4))
    unions = []
    for cover in hex_covers(g):
        s = set()
        for ring in cover:
            s.update(ring)
        unions.append(s)
    total = set().union(*unions)
    pairs = [(i, j) for i in range(len(unions)) for j in range(i + 1, len(unions))]
    assert any(unions[i] | unions[j] == total for i, j in pairs)


def test_single_cover_fraction_on_large_grid():
    g = build_grid(build_workspace(8, 12))
    fractions = []
    for cover in hex_covers(g):
        s = set()
        for ring in cover:
            s.update(ring)
        fractions.append(len(s) / g.n_vertices)
    assert any(abs(f - 2 / 3) < 0.09 for f in fractions)


def test_nearest_vertex_beyond_every_column_raises_bounds_error(minimal_grid):
    g = minimal_grid
    for x in (-10.0, g.workspace.w + 10.0):
        with pytest.raises(BoundsError):
            nearest_vertex(g, Vec2(x, 3.0))
    # one column past the edge still snaps, to the nearest column
    edge = Vec2(g.workspace.w + 1.0, 3.0)
    assert nearest_vertex(g, edge) == brute_nearest(g, edge)


def test_nearest_vertex_matches_brute_force(medium_grid):
    g = medium_grid
    ws = g.workspace
    rng = random.Random(11)
    for _ in range(500):
        p = Vec2(rng.uniform(1, ws.w - 1), rng.uniform(1, ws.h - 1))
        assert nearest_vertex(g, p) == brute_nearest(g, p)


def test_nearest_vertex_tie_break_lowest_id(minimal_grid):
    g = minimal_grid
    a, b = 0, 1
    mid = Vec2((g.vertices[a].x + g.vertices[b].x) / 2, g.vertices[a].y)
    assert nearest_vertex(g, mid) == min(a, b)


@functools.cache
def _grid_and_tie_points(size):
    """The grid of a size, with every vertex, edge midpoint and triangle
    centroid: the points closest to one, two or three vertices at once."""
    g = build_grid(build_workspace(*size))
    v = g.vertices
    points = list(v)
    points += [Vec2((v[i].x + v[j].x) / 2, (v[i].y + v[j].y) / 2)
               for i, j in g.edges]
    points += [Vec2((v[i].x + v[j].x + v[k].x) / 3,
                    (v[i].y + v[j].y + v[k].y) / 3) for i, j, k in g.triangles]
    return g, points


@given(size=st.sampled_from(ALL_SIZES), data=st.data())
def test_nearest_vertex_matches_brute_force_on_every_grid(size, data):
    # random points of the workspace, and tie points, where the lowest of
    # the equally close vertex ids must win
    g, ties = _grid_and_tie_points(size)
    ws = g.workspace
    anywhere = st.builds(Vec2, st.floats(0.0, ws.w), st.floats(0.0, ws.h))
    points = data.draw(st.lists(anywhere, max_size=40), label="points")
    points += data.draw(st.lists(st.sampled_from(ties), max_size=40),
                        label="ties")
    for p in points:
        assert nearest_vertex(g, p) == brute_nearest(g, p), p


@pytest.mark.parametrize("size", ALL_SIZES)
def test_nearest_vertex_matches_brute_force_at_every_tie_point(size):
    g, ties = _grid_and_tie_points(size)
    for p in ties:
        assert nearest_vertex(g, p) == brute_nearest(g, p), p


NEAREST_SIZES = [(2, 3), (3, 4), (4, 5), (6, 7), (7, 9), (9, 10)]


@functools.cache
def _special_points(size):
    """The grid of a size, its tie points (see _grid_and_tie_points) and
    the corners of the workspace and of the box the grid spans."""
    g, ties = _grid_and_tie_points(size)
    ws = g.workspace
    corners = [Vec2(x, y) for x in (0.0, 1.0, ws.w - 1.0, ws.w)
               for y in (0.0, 1.0, ws.h - 1.0, ws.h)]
    return g, ties + corners


def _moved(p, dx, dy):
    return Vec2(p.x + dx, p.y + dy)


@given(size=st.sampled_from(NEAREST_SIZES), data=st.data())
def test_pruned_nearest_vertex_matches_brute_force(size, data):
    # special points, the same moved by 1e-12 either way, and points
    # around and outside the workspace; the distance is the one snap
    # reports as d_max, p.dist(vertex), bit for bit
    g, special = _special_points(size)
    ws = g.workspace
    shift = st.sampled_from((-1e-12, 0.0, 1e-12))
    moved = st.builds(_moved, st.sampled_from(special), shift, shift)
    outside = st.builds(Vec2, st.floats(-0.9, ws.w + 0.9),
                        st.floats(-3.0, ws.h + 3.0))
    points = data.draw(st.lists(st.one_of(moved, outside), min_size=1,
                                max_size=60), label="points")
    for p in points:
        v, d = nearest_vertex_dist(g, p)
        assert v == nearest_vertex(g, p) == brute_nearest(g, p), p
        assert d == p.dist(g.vertices[v]), p


@given(size=st.sampled_from(NEAREST_SIZES), data=st.data())
def test_pruned_nearest_vertex_matches_every_candidate_scored(size, data):
    # tie points moved by up to 60 half-GEO_TOL steps put candidates on
    # both sides of the pruning margin, 20 GEO_TOL past the nearest slot
    # of the nearest column; skipping candidates changes no pick and no
    # distance
    g, special = _special_points(size)
    step = st.integers(-60, 60).map(lambda k: k * GEO_TOL / 2)
    near = st.builds(_moved, st.sampled_from(special), step, step)
    for p in data.draw(st.lists(near, min_size=1, max_size=60),
                       label="points"):
        assert nearest_vertex_dist(g, p) == scored_nearest(g, p), p


def test_pruned_nearest_vertex_around_every_tie_point():
    # every edge midpoint and triangle centroid of 4x5 moved over a grid
    # of GEO_TOL / 3 steps: near-ties of two and three vertices whose
    # distances differ by less than the pruning margin
    g, ties = _grid_and_tie_points((4, 5))
    steps = [k * GEO_TOL / 3 for k in range(-12, 13)]
    for p in ties[g.n_vertices:]:
        for dx in steps:
            for dy in steps:
                q = _moved(p, dx, dy)
                assert nearest_vertex_dist(g, q) == scored_nearest(g, q), q


def test_bfs_helpers(minimal_grid):
    g = minimal_grid
    dist = bfs_distances(g, 0)
    assert dist[0] == 0
    assert all(d >= 0 for d in dist)
    path = bfs_path(g, 0, 13)
    assert path[0] == 0 and path[-1] == 13
    assert len(path) - 1 == dist[13]
    for a, b in zip(path, path[1:]):
        assert b in g.adjacency[a]


BFS_GRIDS = [build_grid(build_workspace(*ws)) for ws in ((2, 3), (4, 5), (6, 7))]


@given(st.data())
def test_bfs_matches_networkx_off_blocked_vertices(data):
    g = data.draw(st.sampled_from(BFS_GRIDS))
    V = g.n_vertices
    source, target = (data.draw(st.integers(0, V - 1)) for _ in range(2))
    blocked = data.draw(st.sets(st.integers(0, V - 1), max_size=9))
    lattice = nx.Graph(g.edges)

    # distances never enter a blocked vertex; the source is always 0
    hops = nx.single_source_shortest_path_length(
        lattice.subgraph(set(range(V)) - (blocked - {source})), source)
    assert bfs_distances(g, source, blocked) == [hops.get(v, -1)
                                                for v in range(V)]

    # a path's inner vertices avoid the blocked set, its ends need not
    free = lattice.subgraph(set(range(V)) - (blocked - {source, target}))
    to_target = nx.single_source_shortest_path_length(free, target)
    if source not in to_target:
        with pytest.raises(ValueError):
            bfs_path(g, source, target, blocked)
        return
    path = bfs_path(g, source, target, blocked)
    assert (path[0], path[-1]) == (source, target)
    assert len(path) - 1 == to_target[source]
    assert not blocked & set(path[1:-1])
    for a, b in zip(path, path[1:]):
        assert lattice.has_edge(a, b)
        # rooted at the target: the lowest-id neighbour one hop closer
        assert b == min(w for w in g.adjacency[a]
                        if to_target.get(w) == to_target[a] - 1)


def test_hop_rows_match_single_robot_search():
    # every pair on 2x3, a seeded sample of pairs on 4x5
    g = build_grid(build_workspace(2, 3))
    V = g.n_vertices
    pairs = [(u, v) for u in range(V) for v in range(V)]
    big = build_grid(build_workspace(4, 5))
    rng = random.Random(5)
    sampled = [(rng.randrange(big.n_vertices), rng.randrange(big.n_vertices))
               for _ in range(60)]
    for grid, cases in ((g, pairs), (big, sampled)):
        for u, v in cases:
            assert grid.hops_from(u)[v] == joint_bfs_makespan(grid, (u,), (v,))
        u = cases[0][0]
        row = grid.hops_from(u)
        assert row.shape == (grid.n_vertices,) and row.dtype == np.int64
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[1] = 7
        assert grid.hops_from(u) is row
