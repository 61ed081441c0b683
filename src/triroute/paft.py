"""Combinatorial grid planner built on hexagon rotations.

Rotating all discs around a hexagon of the grid by one position is
always a legal synchronous step (every turn is 120 degrees), and two
overlapping hexagons generate enough rotations to transpose any two
adjacent discs in the pair region while returning everyone else home.
The rotation word depends only on the region's shape up to the
lattice's rotations and reflections, so a fixed table holds one word per
shape class, and each pair swaps on the region whose word is shortest
(13 turns where two rings two edges apart in a straight line hold it).
Empty vertices hold virtual discs, and a transposition is one of four
kinds, by what its two vertices hold: two virtual discs trade ids (no
step), a real disc and a virtual one take one move, two real discs take
2k + 3 single moves through the virtual disc nearest to a common
neighbour, k hops away, when that beats the shortest tabled word, and
any other pair takes its rotation word.  At full occupancy every
transposition is a word.  Each ring turn is one tuple of moves, built
once per SwapEngine and shared by every word and circulation round; the
other three kinds land as exchanges of two vertices' contents.  Every
step is timed by per-vertex clocks: it runs at the first step at which
all the vertices its real discs move between are free.  These schedules
are the workhorse:

* ``isag``    routes a (virtually completed) full-occupancy instance in
  three phases, as on a Rubik table (Szegedy and Yu; Yu, RSS 2018):
  odd-even transposition sorts along every vertex column at once, so
  that each horizontal waving path ("row") holds the goal columns of
  its own vertices, then along every row into the goal columns, then
  along every column onto the goals.  A last sort over the snake (the
  rows end to end) completes what an inexact row assignment left.  Each
  round's transpositions are formed greedily into batches under
  footprint disjointness.
* ``paft``    wraps the same core with the cell pipeline: compute the
  max start-goal distance, partition the workspace into square cells,
  run greedy hexagon circulations that push discs toward their goal
  cells, then finish with the three phases.

Sharp boundary corners lie on no hexagon, so they are settled before
the parallel machinery runs: their goal discs are rolled in (or the
corner is emptied) one single-disc move at a time, which the clocks
overlap only where the moves share no vertex.  Each move takes its hole
from the transpositions' hole search, run from the vertex to empty.  At
full occupancy nothing can move a corner disc at all, so instances that
demand it are rejected as infeasible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .discretize import DiscreteInstance
from .geometry import EDGE_LEN, TriGrid, bfs_path
from .plan import DiscretePlan
from .triilp import _ratio, underestimated_makespan


class InfeasibleInstanceError(ValueError):
    """No legal plan exists (full occupancy forcing a locked corner move)."""


class SwapSearchError(RuntimeError):
    """No rotation word or staging path realizes a move, or a word is wrong."""


class PlannerInvariantError(RuntimeError):
    """A router invariant failed; the plan built so far is unusable."""


@dataclass
class SwapSchedule:
    """A pair's rotation word, turn by turn."""
    footprint: frozenset[int]                    # both rings and centers
    steps: list[tuple[tuple[int, int], ...]]     # SwapEngine.ring_turns rows


@dataclass
class PaftReport:
    makespan: int
    max_goal_distance: int
    ratio: float
    cell_count: int
    circulation_steps: int
    swap_constant: int


def build_cell_partition(grid: TriGrid, d_g: int) -> list[tuple[int, int]]:
    """The square cell of each vertex.  Cells have side about 5*d_g,
    clamped to one hexagon pitch below and the workspace extent above."""
    ws = grid.workspace
    side = min(max(5.0 * d_g, 2.0 * EDGE_LEN), max(ws.w, ws.h))
    return [(int(p.x // side), int(p.y // side)) for p in grid.vertices]


def _path_families(grid: TriGrid) -> tuple[list[list[int]], list[list[int]],
                                             list[int]]:
    """The covered vertices as three paths or families of vertex-disjoint
    paths, the sort paths of the Rubik-table scheme (Yu, RSS 2018): the
    columns, the rows and the snake.

    A column is a vertex column in slot order (``row_start``/``row_len``),
    so its vertices in id order run from the lowest row to the highest.
    Row k waves through slot k of every column.  Odd columns hold one
    slot fewer than even ones, so the last row is wide: it takes the odd
    columns' top slot and the even columns' top two, top slot first.
    The snake is the rows end to end, every other one reversed.  Sharp
    corners lie on no hexagon and are left out.  Raises
    PlannerInvariantError if two neighbours on a path are not adjacent.
    """
    covered, adjacency = grid.covered, grid.adjacency
    top = grid.row_len[0] - 1                # the even columns' top slot
    columns = [[v for v in range(s, s + n) if v in covered]
               for s, n in zip(grid.row_start, grid.row_len)]
    rows = [[s + k for s in grid.row_start] for k in range(top - 1)]
    rows.append([v for m, s in enumerate(grid.row_start)
                 for v in ((s + top - 1,) if m % 2 else (s + top, s + top - 1))])
    rows = [[v for v in row if v in covered] for row in rows]
    snake = [v for i, row in enumerate(rows)
             for v in (row if i % 2 == 0 else reversed(row))]
    for path in (*columns, *rows, snake):
        for a, b in zip(path, path[1:]):
            if b not in adjacency[a]:
                raise PlannerInvariantError(
                    f"sort path not a grid path: {a} and {b} are not adjacent")
    return columns, rows, snake


@dataclass(frozen=True, eq=False)
class _Family:
    """A family of vertex-disjoint paths with the tables its odd-even
    sort reads (see ``_Router.sort_covered``); it iterates as its paths.

    The paths lie end to end on one line.  Comparator p joins line[p]
    and line[p + 1] of one path, ``pairs[p]``, and its parity counts
    from the path's first slot: ``parity[p]`` is None where line[p] ends
    its path (the last slot's None also stands for p = -1), and
    ``comparators`` lists the comparators of each parity.  ``slot`` is
    each vertex's line slot (-1 off the line), ``by_id`` each path's
    vertices in id order, and ``rounds`` the longest path, the most
    rounds a sort takes."""
    paths: tuple[tuple[int, ...], ...]
    line: list[int]
    parity: list[int | None]
    comparators: tuple[list[int], list[int]]
    pairs: list[tuple[int, int]]
    slot: list[int]
    by_id: list[list[int]]
    rounds: int

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.paths)

    @classmethod
    def of(cls, paths: Sequence[Sequence[int]], n_vertices: int) -> _Family:
        line = [v for path in paths for v in path]
        parity: list[int | None] = [None] * len(line)
        start = 0
        for path in paths:
            parity[start:start + len(path) - 1] = [
                i & 1 for i in range(len(path) - 1)]
            start += len(path)
        slot = [-1] * n_vertices
        for i, v in enumerate(line):
            slot[v] = i
        return cls(paths=tuple(map(tuple, paths)), line=line, parity=parity,
                   comparators=tuple([p for p, par in enumerate(parity)
                                      if par == k] for k in (0, 1)),
                   pairs=list(zip(line, line[1:])), slot=slot,
                   by_id=[sorted(path) for path in paths],
                   rounds=max(map(len, paths), default=0))


# One rotation word per canonical region shape (see _shape_key): key
# (partner center, a, b) in axial offsets from the base center; "A"
# turns the base ring and "B" the partner's, "+" by one position
# counterclockwise and "-" clockwise.  Each word is the shortest one that
# swaps a and b and returns every other slot home; tests/_oracles.py
# regenerates them by a bidirectional search.  SwapEngine._region ranks
# only tabled shapes, by word length; these give every pair on every
# buildable grid up to 12x12 a region with its shortest word: the four
# 13-turn ones with the partner center two edges away in a straight
# line, and the 15- and 17-turn ones of pairs that no such region covers.
_SWAP_WORDS = {
    ((-2, 0), (-3, 0), (-3, 1)): "A+B+A-B+A+B+B+A-B+A+B+A-B+",
    ((-2, 0), (-3, 1), (-2, 1)): "A+B+A-B+B+A+B+A-B+A+B+A-B+",
    ((-2, 0), (-2, 1), (-1, 1)): "A-A-B+A-B-A-B+A-B-A-B+A-B-",
    ((-2, 0), (-2, 1), (-1, 0)): "A+B+A+B-A+B+A+B-A+B+A+B-A+",
    ((-2, 1), (-1, 0), (-1, 1)): "A+B+A+B+A+A+B-B-A+B+B+A+A+A+B-A-B-",
    ((-1, 0), (-2, 0), (-2, 1)): "A+B+A+B-B-A+B-B-A+B+B+A+B+A-B+",
    ((-1, 0), (-2, 0), (-1, 0)): "A+A+B-A+A+B-A-B-A-B+A-B-A-A-B-",
    ((-1, 0), (-2, 1), (-1, 0)): "A+A+B+A+B-A+B+A+B+A-A-B+A-A-B+",
    ((-1, 0), (-2, 1), (-1, 1)): "A+B+A+B-A+B+A+B+A-A-B+A-A-B+A+",
}

# Farthest hole, in hops from a common neighbour, that a transposition of
# two real discs walks in and back out: 2k + 3 single moves must be fewer
# than the turns of the shortest tabled word (13, so k <= 4; a word spells
# each turn in two characters).
_HOLE_REACH = (min(len(w) for w in _SWAP_WORDS.values()) // 2 - 4) // 2


@cache
def _shape_key(pq: int, pr: int, aq: int, ar: int, bq: int, br: int
               ) -> tuple[tuple, int, int]:
    """Smallest image of a region shape under the lattice symmetries.

    The arguments are the axial offsets of the partner center, a and b
    from the base center.  Returns (key, roles_swapped, reflected): key
    holds the offsets of the partner center and of the unordered pair
    {a, b} from the base center, after the map that gives the smallest
    key.  Translates share their offsets, so the map runs once per offset
    triple, and overlapping rings keep the cached triples few.
    """
    best = None
    for swapped, pts in enumerate((
            [(pq, pr), (aq, ar), (bq, br)],
            [(-pq, -pr), (aq - pq, ar - pr), (bq - pq, br - pr)])):
        for reflected in (0, 1):
            if reflected:
                pts = [(r, q) for q, r in pts]
            for _ in range(6):
                pts = [(-r, q + r) for q, r in pts]
                key = (pts[0], min(pts[1], pts[2]), max(pts[1], pts[2]))
                if best is None or key < best[0]:
                    best = (key, swapped, reflected)
    return best


class SwapEngine:
    """Builds and caches adjacent-pair swap schedules on a grid, and keeps
    the per-grid tables every route on it reads.

    Built with the engine: the ring turns (see below) and the common
    neighbours of each adjacent pair.  Built on first request: each
    pair's region and word (``schedule_for_pair``).  Built on the first
    route and kept for every later one: the three path families, built
    and checked by ``_path_families``, with their sort tables
    (``families``) and each covered vertex's row
    (``row_at``), the sharp-corner walls every sort batch starts from
    (``walls``), the cell count per d_g (``cell_count``) and the hop
    distances the circulations rank turns by (``hop_table``, one row per
    target vertex, filled as targets are asked for).  None of them
    depends on an instance, so one engine serves every instance on its
    grid, or on any grid built for an equal workspace.
    """

    def __init__(self, grid: TriGrid):
        self.grid = grid
        self._member: dict[int, list[int]] = {}
        for center in sorted(grid.ring_of):
            for v in grid.ring_of[center]:
                self._member.setdefault(v, []).append(center)
        # the rings sharing a vertex with each ring
        self._overlap = {
            c: {c2 for v in ring for c2 in self._member[v]} - {c}
            for c, ring in grid.ring_of.items()}
        self._axial = [grid.axial(v) for v in range(grid.n_vertices)]
        # (c1, c2, footprint) of each pair's region, and its schedule
        self._regions: dict[tuple[int, int], tuple[int, int, frozenset]] = {}
        self._pair_cache: dict[tuple[int, int], SwapSchedule] = {}
        self._cells: dict[int, int] = {}     # cell count per d_g
        # the common neighbours of each adjacent pair, in either order,
        # lowest id first: where a transposition's hole path ends
        adjacency = grid.adjacency
        self.common_neighbours: dict[tuple[int, int], tuple[int, ...]] = {}
        for a, b in grid.edges:
            self.common_neighbours[a, b] = self.common_neighbours[b, a] = (
                tuple(h for h in adjacency[a] if h in adjacency[b]))
        self.c_swap = 0
        # the turn table, one row per ring turn: by center, clockwise
        # (-1) before counterclockwise (+1), so a stable sort by gain
        # ranks turns by (-gain, center, turn).  Turn i is the step
        # ring_turns[i], which moves the disc on ring_tails[i, k] to
        # ring_heads[i, k]; its footprint, the ring plus its center, is
        # the bit mask ring_masks[i] (bit v for vertex v).  Rotation
        # words and circulation rounds share these tuples.
        self._turn_of: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self.ring_masks: list[int] = []
        for c in sorted(grid.ring_of):
            ring = grid.ring_of[c]
            for dr in (-1, 1):
                self._turn_of[c, dr] = tuple(zip(ring, ring[dr:] + ring[:dr]))
                self.ring_masks.append(sum(1 << v for v in ring + (c,)))
        self.ring_turns = list(self._turn_of.values())
        self.ring_tails, self.ring_heads = np.array(
            self.ring_turns, dtype=np.intp).reshape(-1, 6, 2).transpose(
                2, 0, 1).copy()

    @cached_property
    def families(self) -> tuple[_Family, _Family, _Family]:
        """The columns, the rows and the snake (see _path_families), each
        a _Family; the snake is a family of one path."""
        columns, rows, snake = _path_families(self.grid)
        V = self.grid.n_vertices
        return (_Family.of(columns, V), _Family.of(rows, V),
                _Family.of([snake], V))

    @cached_property
    def row_at(self) -> list[int]:
        """The row of each covered vertex, -1 on a sharp corner."""
        row_at = [-1] * self.grid.n_vertices
        for i, row in enumerate(self.families[1]):
            for v in row:
                row_at[v] = i
        return row_at

    @cached_property
    def walls(self) -> bytes:
        """One byte per vertex, set on the sharp corners: the mark bytes
        every sort batch starts from."""
        return bytes(v in self.grid.locked
                     for v in range(self.grid.n_vertices))

    def cell_count(self, d_g: int) -> int:
        """How many cells build_cell_partition makes for d_g (cached)."""
        count = self._cells.get(d_g)
        if count is None:
            count = self._cells[d_g] = len(set(
                build_cell_partition(self.grid, d_g)))
        return count

    @cached_property
    def _hops(self) -> tuple[np.ndarray, np.ndarray]:
        """The hop table behind hop_table, all rows zero, and which rows
        hold their distances: only the zero row V at first."""
        V = self.grid.n_vertices
        known = np.zeros(V + 1, dtype=bool)
        known[V] = True
        return np.zeros((V + 1, V), dtype=np.int64), known

    def hop_table(self, targets: np.ndarray) -> np.ndarray:
        """The (V + 1, V) table whose row t holds the hop distances from
        vertex t for every t in targets (a row is filled from the grid's
        kept BFS row once, on first request); row V is all zeros."""
        table, known = self._hops
        if not known[targets].all():
            for t in np.unique(targets[~known[targets]]).tolist():
                table[t] = self.grid.hops_from(t)
                known[t] = True
        return table

    def _region(self, a: int, b: int) -> tuple[int, int]:
        """Best-ranked pair of overlapping rings that together hold a and
        b, as their centers: shortest tabled word first, then the smallest
        center ids.  A region whose shape has no word is not ranked; when
        no region has one, the error names the shape of the pair of
        smallest center ids."""
        ring_of = self.grid.ring_of
        pairs = {(min(c1, c2), max(c1, c2))
                 for c1 in self._member.get(a, ()) for c2 in self._overlap[c1]
                 if b in ring_of[c1] or b in ring_of[c2]}
        if not pairs:
            raise SwapSearchError(f"no pair of rings covers ({a}, {b})")
        ranked = [(len(word), p) for p in pairs
                  if (word := _SWAP_WORDS.get(
                      self._canonical_shape(*p, a, b)[0]))]
        if not ranked:
            key = self._canonical_shape(*min(pairs), a, b)[0]
            raise SwapSearchError(f"no rotation word for region shape {key}")
        return min(ranked)[1]

    def _canonical_shape(self, c1: int, c2: int, a: int, b: int
                         ) -> tuple[tuple, int, int]:
        """The _shape_key of the rings of c1 and c2 with the pair a, b."""
        (cq, cr), (pq, pr), (aq, ar), (bq, br) = (
            self._axial[v] for v in (c1, c2, a, b))
        return _shape_key(pq - cq, pr - cr, aq - cq, ar - cr,
                          bq - cq, br - cr)

    def _rotation_word(self, c1: int, c2: int, a: int, b: int) -> list:
        """Rotation word transposing a and b on the rings of c1 and c2.

        The canonical shape's word maps back by swapping the ring roles
        and, for a reflection, reversing every turn (rings are ordered
        counterclockwise).  _region picks only regions with a word.
        """
        key, swapped, reflected = self._canonical_shape(c1, c2, a, b)
        word = _SWAP_WORDS[key]
        sign = -1 if reflected else 1
        return [("AB".index(ring) ^ swapped, sign if turn == "+" else -sign)
                for ring, turn in zip(word[::2], word[1::2])]

    def _materialize(self, c1: int, c2: int, a: int, b: int,
                     word: list, footprint: frozenset[int]) -> SwapSchedule:
        """The word's steps as turn-table rows, replayed to check that
        they are exactly the transposition of a and b."""
        centers = (c1, c2)
        steps = [self._turn_of[centers[which], d] for which, d in word]
        came_from = {v: v for v in footprint}
        for moves in steps:
            came_from.update([(v, came_from[u]) for u, v in moves])
        came_from[a], came_from[b] = came_from[b], came_from[a]
        if any(u != v for v, u in came_from.items()):
            raise SwapSearchError(
                f"word {word} on rings {c1}, {c2} is not the transposition "
                f"of ({a}, {b})")
        self.c_swap = max(self.c_swap, len(steps))
        return SwapSchedule(footprint=footprint, steps=steps)

    def _pair_region(self, a: int, b: int) -> tuple[int, int, frozenset]:
        """The centers of the region of adjacent covered vertices a, b
        (see _region) and its footprint, both rings plus the centers
        (cached)."""
        key = (a, b) if a < b else (b, a)
        region = self._regions.get(key)
        if region is None:
            if b not in self.grid.adjacency[a]:
                raise ValueError(f"vertices {a}, {b} are not adjacent")
            c1, c2 = self._region(a, b)
            ring_of = self.grid.ring_of
            region = self._regions[key] = (
                c1, c2, frozenset(ring_of[c1] + ring_of[c2] + (c1, c2)))
        return region

    def pair_footprint(self, a: int, b: int) -> frozenset[int]:
        """The vertices the word of a and b turns, without building the
        word: what a batch checks before it asks for the schedule."""
        return self._pair_region(a, b)[2]

    def schedule_for_pair(self, a: int, b: int) -> SwapSchedule:
        """Swap schedule for adjacent covered vertices a, b (cached)."""
        key = (a, b) if a < b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        c1, c2, footprint = self._pair_region(a, b)
        sched = self._materialize(c1, c2, a, b,
                                  self._rotation_word(c1, c2, a, b), footprint)
        self._pair_cache[key] = sched
        return sched


class _Router:
    """Occupancy state plus plan recording shared by isag and paft.

    Disc ids 0..n_real-1 are the instance robots, on their starts; higher
    ids are virtual discs standing in for empty vertices.  Steps where
    only virtual discs move are not recorded (physically nothing
    happens).  A recorded step stores only its real moves, timed by
    per-vertex clocks: it lands on the first plan step after the last one
    that moved a disc from or to any of its vertices, so every vertex
    sees its real discs in the order the steps were applied, and moves on
    disjoint vertices share a plan step.  ``finish`` builds the plan
    array.  ``route_covered`` runs the three phases and the completion
    pass, each one odd-even transposition sort by target slot over a
    family of vertex-disjoint paths (``sort_covered``), whose paths the
    clocks run side by side.  A sort transposes adjacent vertices in one
    of four ways (see ``_transposition``): a relabel of two virtual
    discs, one move, 2k + 3 moves through the nearest hole, or the pair's
    rotation word; at full occupancy only words occur.  The relabel, the
    one move and each of the 2k + 3 swap the contents of two vertices,
    and ``exchange`` lands each of them; ``apply_step`` lands any other
    set of moves: a word's turn, a circulation round or a corner staging
    move.  ``_hole_path`` finds the holes of the 2k + 3 moves and of
    corner staging alike.  Each round reads only the inverted comparators,
    a set kept up to date as values swap, and forms its batches on one
    mark byte per vertex, the sharp corners marked from the start: a
    pair whose a or b the batch holds waits for the next batch
    before any hole search, and a word is asked of the engine only once
    its footprint, which the engine keeps per pair, is clear of the
    batch (see ``sort_covered``).  Everything that depends on the grid
    alone, the path families and their sort tables, the rows, the walls,
    the cell counts and the hop rows, is read from the engine, so a
    route does only per-instance work; an engine built for another
    workspace is refused.
    """

    def __init__(self, grid: TriGrid, starts: tuple[int, ...],
                 engine: SwapEngine | None = None):
        self.grid = grid
        if engine is None:
            engine = SwapEngine(grid)
        elif engine.grid.workspace != grid.workspace:
            raise ValueError(
                f"SwapEngine built for {engine.grid.workspace}, but the "
                f"instance is on {grid.workspace}")
        self.engine = engine
        self.n_real = len(starts)
        self.starts = tuple(starts)
        self.pos = list(starts)
        self.occ = [-1] * grid.n_vertices
        for r, v in enumerate(starts):
            if self.occ[v] != -1:
                raise ValueError("duplicate start vertex")
            self.occ[v] = r
        self.moved: list[int] = []   # step, robot, v - u of every real move
        self.free = [0] * grid.n_vertices   # first step each vertex is free

    def add_virtual(self, v: int) -> int:
        if self.occ[v] != -1:
            raise PlannerInvariantError(f"virtual disc on occupied vertex {v}")
        d = len(self.pos)
        self.pos.append(v)
        self.occ[v] = d
        return d

    def exchange(self, u: int, v: int) -> None:
        """Swap the discs on u and v, the step ((u, v), (v, u)), and time
        its real moves by the clocks."""
        occ = self.occ
        du, dv = occ[u], occ[v]
        if du == -1 or dv == -1:
            raise PlannerInvariantError(
                f"move from empty vertex {u if du == -1 else v}")
        occ[u], occ[v] = dv, du
        self.pos[du], self.pos[dv] = v, u
        n_real, free = self.n_real, self.free
        if du < n_real or dv < n_real:
            t = free[u] if free[u] > free[v] else free[v]
            free[u] = free[v] = t + 1
            if du < n_real:
                self.moved += (t, du, v - u)
            if dv < n_real:
                self.moved += (t, dv, u - v)

    def apply_step(self, moves: Sequence[tuple[int, int]]) -> None:
        """Move the disc on u to v for every (u, v) at once and time the
        step's real moves by the clocks.  The walk that lifts the discs
        off their sources also takes the latest clock of every real
        move's vertices; the walk that drops them records each real move
        at that clock and sets its vertices' clocks one past it."""
        occ, n_real, free = self.occ, self.n_real, self.free
        discs = []
        t = 0       # the latest clock of a real move's vertices
        for u, v in moves:
            d = occ[u]
            if d == -1:
                raise PlannerInvariantError(f"move from empty vertex {u}")
            discs.append(d)
            occ[u] = -1
            if d < n_real:
                if free[u] > t:
                    t = free[u]
                if free[v] > t:
                    t = free[v]
        pos, moved = self.pos, self.moved
        for (u, v), d in zip(moves, discs):
            if occ[v] != -1:
                raise PlannerInvariantError(f"two discs target vertex {v}")
            occ[v] = d
            pos[d] = v
            if d < n_real:
                free[u] = free[v] = t + 1
                moved += (t, d, v - u)

    def finish(self) -> DiscretePlan:
        """The recorded steps as one array: row 0 is the start, every move
        adds v - u to its robot's column in the row after its step, and a
        running sum down the columns gives each step's vertices.  A step
        lands at most one past the latest step so far, so the steps used
        are 0 .. T - 1 with no empty row between them."""
        T = max(self.free)
        step, robot, delta = np.array(self.moved,
                                      dtype=np.intp).reshape(-1, 3).T
        pos = np.zeros((T + 1, self.n_real), dtype=np.intp)
        pos[0] = self.starts
        pos[step + 1, robot] = delta
        return DiscretePlan(np.cumsum(pos, axis=0, out=pos))

    # sequential single-disc machinery (boundary corners)

    def _empty(self, target: int, blocked: set[int]) -> None:
        """Walk the empty vertex nearest to target off the blocked set to
        target (see _hole_path); the discs it passes shift one step back."""
        n = self.grid.n_vertices
        path = self._hole_path((target,), blocked, bytes(n), n)
        if path is None:
            raise SwapSearchError(f"no reachable hole near {target}")
        for u, v in zip(path[1:], path):
            self.apply_step(((u, v),))

    def settle_boundary(self, goals: tuple[int, ...]) -> None:
        """Fix every sharp corner (on no hexagon) to its final content by
        single moves: goal owners roll in along one shortest path off the
        settled corners, the vertex ahead emptied before each move, then
        the other corners are emptied.  At full occupancy any required
        change is impossible."""
        owner = {g: r for r, g in enumerate(goals)}
        settled: set[int] = set()
        for u in sorted(owner.keys() & self.grid.locked):
            if self.pos[owner[u]] != u:
                if self.n_real == self.grid.n_vertices:
                    raise InfeasibleInstanceError(
                        f"full occupancy: vertex {u} lies on no hexagon, its "
                        f"disc can never move")
                try:
                    path = bfs_path(self.grid, self.pos[owner[u]], u, settled)
                except ValueError as exc:
                    raise SwapSearchError(str(exc)) from None
                for v, w in zip(path, path[1:]):
                    self._empty(w, settled | {v})
                    self.apply_step(((v, w),))
            settled.add(u)
        for u in sorted(self.grid.locked - owner.keys()):
            if self.occ[u] != -1:
                # a non-goal corner implies a hole exists somewhere
                self._empty(u, settled)
            settled.add(u)

    # parallel swap machinery

    def _hole_path(self, ends: Sequence[int], blocked: Iterable[int],
                   mark: bytes | bytearray, reach: int) -> list[int] | None:
        """Shortest path from the hole nearest to ends (lowest id among the
        nearest) to an end, at most reach hops, entering no blocked vertex
        and none the batch has marked; None when no hole is that close.  A
        hole holds no real disc.  Transpositions search around their pair,
        corner staging from the vertex to empty, over the whole grid."""
        occ, n_real, adjacency = self.occ, self.n_real, self.grid.adjacency
        frontier = [h for h in ends if not mark[h]]
        # blocked vertices stand in the parent map, so no path enters them
        parent = dict.fromkeys(blocked)
        parent.update(zip(frontier, frontier))
        while frontier and reach >= 0:
            holes = [u for u in frontier if occ[u] >= n_real or occ[u] < 0]
            if holes:
                path = [min(holes)]
                while parent[path[-1]] != path[-1]:
                    path.append(parent[path[-1]])
                return path
            reach -= 1
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in parent and not mark[w]:
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
        return None

    def _transposition(self, a: int, b: int, mark: bytearray
                       ) -> SwapSchedule | tuple[tuple[int, int], ...] | None:
        """Exchange the discs on adjacent covered vertices a and b, chosen
        by what they hold, if the exchange fits the batch: mark holds one
        byte per vertex, set on the vertices the batch has used.  What
        fits is landed, its footprint marked and its moves returned; a
        pair that does not fit changes nothing and returns None, to wait
        for the next batch.  Two virtual discs swap ids at once, batch or
        not, with no step (returns ()).  Otherwise a pair with a or b
        marked waits before any search.  A real disc and a virtual one
        take one move.  Two real discs with a hole k <= _HOLE_REACH hops
        from a common neighbour h (see _hole_path) take 2k + 3: the hole
        walks to h, then a to h, b to a, h to b, and the hole walks back,
        so every other disc returns home.  Each move (u, v) exchanges a
        real disc with the virtual one at its target, whose move is not
        recorded; these come back as the tuple of exchanges, whose
        endpoints are the footprint.  Anything else takes the pair's word,
        the engine's SwapSchedule, which is asked for only once the
        word's footprint is clear of the batch."""
        n_real = self.n_real
        da, db = self.occ[a], self.occ[b]
        if da >= n_real and db >= n_real:
            self.exchange(a, b)
            return ()
        if mark[a] or mark[b]:
            return None
        if da >= n_real or db >= n_real:
            swap = ((a, b),)
        else:
            path = (self._hole_path(self.engine.common_neighbours[a, b],
                                    (a, b), mark, _HOLE_REACH)
                    if len(self.pos) > n_real else None)
            if path is None:
                footprint = self.engine.pair_footprint(a, b)
                if any(map(mark.__getitem__, footprint)):
                    return None
                for v in footprint:
                    mark[v] = 1
                sched = self.engine.schedule_for_pair(a, b)
                for step in sched.steps:
                    self.apply_step(step)
                return sched
            for v in path:
                mark[v] = 1
            h = path[-1]
            walk = tuple(zip(path[1:], path))
            swap = (*walk, (a, h), (b, a), (h, b),
                    *((v, u) for u, v in reversed(walk)))
        mark[a] = mark[b] = 1
        for u, v in swap:
            self.exchange(u, v)
        return swap

    def sort_covered(self, family: _Family, target_of: dict[int, int]
                     ) -> None:
        """Route every disc on a family of vertex-disjoint paths to its
        target, which lies on the disc's own path, by one odd-even
        transposition sort over all the paths at once.

        vals[p] is the line slot of the target of the disc on line[p]
        (see _Family).  A comparator is inverted when vals[p] > vals[p + 1],
        and a round transposes the inverted comparators of its parity in
        order of p, so every path runs its own sort from the even round.
        The inverted sets are kept incrementally: a round leaves none of
        its own parity inverted, and a transposition swaps two values, so
        only comparators p - 1 and p + 1 are tested again.  A path of n
        slots sorts in at most n rounds (Habermann 1972), and the clocks
        run the paths' transpositions on disjoint vertices in the same
        plan steps."""
        line, parity, pairs = family.line, family.parity, family.pairs
        slot, occ = family.slot, self.occ
        key = [0] * len(self.pos)
        for d, tv in target_of.items():
            key[d] = slot[tv]
        vals = [key[d] for d in map(occ.__getitem__, line)]
        inverted = tuple({p for p in ps if vals[p] > vals[p + 1]}
                         for ps in family.comparators)
        transpose, walls = self._transposition, self.engine.walls
        rounds = 0
        while inverted[0] or inverted[1]:
            if rounds == family.rounds:
                raise PlannerInvariantError("odd-even rounds failed to converge")
            par = rounds & 1
            todo = sorted(inverted[par])
            rounds += 1
            wanted = [pairs[p] for p in todo]
            # batches of footprint-disjoint transpositions, each marking
            # the vertices it uses; a pair that meets the batch waits for
            # the next one.  Every batch starts with the sharp corners
            # marked: an emptied corner holds no disc to exchange, so it
            # is never a hole.  The clocks time each step, so a batch has
            # no common end.
            while wanted:
                mark = bytearray(walls)
                wanted = [(a, b) for a, b in wanted
                          if transpose(a, b, mark) is None]
            inverted[par].clear()
            other = inverted[par ^ 1]
            for p in todo:
                vals[p], vals[p + 1] = vals[p + 1], vals[p]
            for p in todo:
                for q in (p - 1, p + 1):
                    if parity[q] is not None:
                        if vals[q] > vals[q + 1]:
                            other.add(q)
                        else:
                            other.discard(q)
        if [key[d] for d in map(occ.__getitem__, line)] != list(
                range(len(line))):
            raise PlannerInvariantError("odd-even sort incomplete")

    def _placed(self, family: _Family, rank: Callable[[int], object]
                ) -> dict[int, int]:
        """Targets that put the discs of each path, in order of rank, on
        its vertices in id order."""
        occ = self.occ
        placed: dict[int, int] = {}
        for path, ids in zip(family.paths, family.by_id):
            placed.update(zip(sorted(map(occ.__getitem__, path), key=rank),
                              ids))
        return placed

    def route_covered(self, target_of: dict[int, int]) -> None:
        """Route every disc with a covered target to it: three phases of
        parallel path sorts, then a completion pass.

        (A) The columns sort each disc into the row that
        ``_row_assignment`` gives it, so that every row holds the goal
        columns of its own vertices.  (B) The rows sort each disc into its
        goal column.  (C) The columns sort each disc onto its target.
        Vertex ids run column by column, so in B and C a path's discs in
        order of target id meet its vertices in id order.  Last, one sort
        over the snake routes what an inexact row assignment left; after
        an exact one it finds nothing inverted."""
        columns, rows, snake = self.engine.families
        pos = self.pos
        # the grid numbers its vertex columns by row_of
        assigned = _row_assignment(
            rows.paths, self.engine.row_at, self.grid.row_of,
            {d: (pos[d], t) for d, t in target_of.items()})
        rank = {d: (r, pos[d]) for d, r in assigned.items()}
        self.sort_covered(columns, self._placed(columns, rank.__getitem__))
        self.sort_covered(rows, self._placed(rows, target_of.__getitem__))
        self.sort_covered(columns,
                          self._placed(columns, target_of.__getitem__))
        self.sort_covered(snake, target_of)

    def greedy_circulations(self, target_of: dict[int, int], cap: int) -> int:
        """Synchronized ring rotations chosen by a goal-distance potential.

        Real discs pull rotations toward their targets; virtual discs are
        free riders.  Every ring turn's gain (the drop in its real discs'
        hop distances to their targets) is read from the engine's hop
        table in one array expression, by the row of the target each ring
        vertex's disc carries; the best turns on disjoint rings (their
        footprint masks) run as one step, and the rows move with their
        discs.  Stops at the first iteration with no improving ring or
        after cap rounds.
        """
        eng, pos, V = self.engine, self.pos, self.grid.n_vertices
        # the target of the real disc on each vertex, V (the hop table's
        # zero row) where a virtual disc or none stands; times V, where
        # that row starts in the flattened table
        goal = [V] * V
        for d, tv in target_of.items():
            if d < self.n_real:
                goal[pos[d]] = tv
        row = np.array(goal, dtype=np.intp)
        hops = eng.hop_table(row).ravel()
        row *= V
        tails, heads = eng.ring_tails, eng.ring_heads
        shift = heads - tails
        turns, masks = eng.ring_turns, eng.ring_masks
        done = 0
        for _ in range(cap):
            at = row[tails]
            at += tails
            gain = hops[at]
            at += shift
            gain -= hops[at]
            gain = gain.sum(axis=1)
            better = np.flatnonzero(gain > 0)
            if not better.size:
                break
            used, chosen = 0, []
            for i in better[np.argsort(-gain[better], kind="stable")].tolist():
                if not used & masks[i]:
                    used |= masks[i]
                    chosen.append(i)
            self.apply_step([move for i in chosen for move in turns[i]])
            ran = np.array(chosen)
            row[heads[ran]] = row[tails[ran]]
            done += 1
        return done


def _completion_targets(router: _Router, inst: DiscreteInstance
                        ) -> dict[int, int]:
    """Targets for the covered-vertex sort: real goals plus a bijective
    completion for virtual discs (keep the start when possible)."""
    grid = inst.grid
    target_of: dict[int, int] = {}
    used: set[int] = set()
    for r, g in enumerate(inst.v_goals):
        if g in grid.covered:
            target_of[r] = g
            used.add(g)
    holes = [v for v in sorted(grid.covered) if router.occ[v] == -1]
    leftovers = set(v for v in grid.covered if v not in used)
    stay = [v for v in holes if v in leftovers]
    roam = [v for v in holes if v not in leftovers]
    roam_targets = sorted(leftovers - set(stay))
    if len(roam) != len(roam_targets):
        raise PlannerInvariantError("hole count differs from free targets")
    for v in stay:
        target_of[router.add_virtual(v)] = v
    for v, t in zip(roam, roam_targets):
        target_of[router.add_virtual(v)] = t
    return target_of


def _row_assignment(rows: Sequence[Sequence[int]], row_at: Sequence[int],
                    column: Sequence[int], ends: dict[int, tuple[int, int]]
                    ) -> dict[int, int]:
    """Phase A's row of each disc, given its vertex and target in ends.

    Every row must receive, from each column, as many discs as it has
    vertices there, and for each column as many discs bound there (their
    goal column, the column of their target) as it has vertices there:
    one b-matching per row on the bipartite multigraph of columns and
    goal columns whose edges are the discs.  Rows are matched one at a
    time, the irregular ones first: row 0 loses the two sharp corners
    and the wide last row holds two slots of each inner even column.  What
    they leave is regular (every other row holds one vertex of each
    column), so it splits into perfect matchings (König).  A row takes
    the discs it can greedily, nearest first by |row - R| + |goal row - R|,
    and completes its matching by augmenting paths over the counts of
    each (column, goal column) edge.  If a row's matching cannot be
    completed, the columns it is short of give it their nearest remaining
    discs, so each phase is still a permutation of every path; the
    completion pass then routes what the rows got wrong."""
    n = max(column) + 1
    caps = [[0] * n for _ in rows]
    for cap, row in zip(caps, rows):
        for v in row:
            cap[column[v]] += 1
    # per disc id: its row, its goal row, its column, its goal column and
    # its edge, numbered m * n + c
    D = max(ends, default=0) + 1
    row, goal_row, col, goal_col, edge = ([0] * D for _ in range(5))
    for d, (v, t) in ends.items():
        row[d], goal_row[d] = row_at[v], row_at[t]
        col[d], goal_col[d] = m, c = column[v], column[t]
        edge[d] = m * n + c
    left = list(ends)
    order = [0, len(rows) - 1, *range(1, len(rows) - 1)]
    row_of: dict[int, int] = {}
    for r in order:
        cap = caps[r]
        # nearest first, ties by disc id: one integer key per disc
        left = [k % D for k in sorted([
            (abs(row[d] - r) + abs(goal_row[d] - r)) * D + d for d in left])]
        have = [0] * (n * n)            # discs left per edge
        take = [0] * (n * n)            # discs taken per edge
        out, into = [0] * n, [0] * n    # discs taken by column, goal column
        for d in left:
            m, c, e = col[d], goal_col[d], edge[d]
            have[e] += 1
            if out[m] < cap[m] and into[c] < cap[c]:
                out[m] += 1
                into[c] += 1
                take[e] += 1
        while out != cap and _augment(cap, out, into, take, have):
            pass
        # each edge gives its first take[e] discs; then the columns still
        # short of the row's vertices give it their nearest remaining ones
        rest = []
        for d in left:
            e, m = edge[d], col[d]
            if take[e]:
                take[e] -= 1
                row_of[d] = r
            elif out[m] < cap[m]:
                out[m] += 1
                row_of[d] = r
            else:
                rest.append(d)
        left = rest
    return row_of


def _augment(cap: list[int], out: list[int], into: list[int],
             take: list[int], have: list[int]) -> bool:
    """Grow a row's b-matching by one disc along an augmenting path, a
    breadth-first search from the columns short of the row's vertices
    that ends at a goal column short of them: forward over an edge with
    discs left to take, back over one with discs taken.  Edge (m, c) is
    entry m * n + c of take and have.  False when no such path exists."""
    n = len(cap)
    # column -> goal column it was reached back from (None: a start)
    back: dict[int, int | None] = {m: None for m in range(n)
                                   if out[m] < cap[m]}
    via: dict[int, int] = {}    # goal column -> column it was reached from
    frontier = list(back)
    while frontier:
        nxt = []
        for m in frontier:
            for c in range(n):
                if c in via or take[m * n + c] >= have[m * n + c]:
                    continue
                via[c] = m
                if into[c] < cap[c]:
                    into[c] += 1
                    while True:
                        m = via[c]
                        take[m * n + c] += 1
                        c = back[m]
                        if c is None:
                            out[m] += 1
                            return True
                        take[m * n + c] -= 1
                for m2 in range(n):
                    if m2 not in back and take[m2 * n + c]:
                        back[m2] = c
                        nxt.append(m2)
        frontier = nxt
    return False


def _route(router: _Router, inst: DiscreteInstance,
           circulation_cap: int | None = None) -> tuple[DiscretePlan, int]:
    """Routing core shared by isag and paft: settle the boundary, complete
    with virtual discs, run greedy circulations (only when capped), route
    the covered vertices in three phases, check every goal.  Returns the
    plan and the circulation rounds run."""
    circ = 0
    if tuple(inst.v_starts) != tuple(inst.v_goals):
        router.settle_boundary(inst.v_goals)
        target_of = _completion_targets(router, inst)
        if circulation_cap is not None:
            circ = router.greedy_circulations(target_of, circulation_cap)
        router.route_covered(target_of)
        for r, g in enumerate(inst.v_goals):
            if router.pos[r] != g:
                raise PlannerInvariantError(
                    f"robot {r} ended at {router.pos[r]}, not {g}")
    return router.finish(), circ


def isag(inst: DiscreteInstance, engine: SwapEngine | None = None
         ) -> DiscretePlan:
    """Route the instance by boundary settlement plus the three phases
    of parallel odd-even sorts (columns, rows, columns) and the snake
    completion pass.

    Accepts any occupancy up to n = |V|; empty vertices are completed
    with virtual discs so every sort operates on a full permutation.  A
    shared SwapEngine carries its schedule caches and grid tables across
    instances.
    """
    return _route(_Router(inst.grid, inst.v_starts, engine), inst)[0]


def paft(inst: DiscreteInstance, engine: SwapEngine | None = None
         ) -> tuple[DiscretePlan, PaftReport]:
    """Cell pipeline: partition, circulations toward goal cells, then
    the three phases (columns, rows, columns) and the completion pass."""
    d_g = underestimated_makespan(inst)
    if d_g == 0:
        plan = DiscretePlan.from_steps([inst.v_starts])
        return plan, PaftReport(makespan=0, max_goal_distance=0, ratio=1.0,
                                cell_count=1, circulation_steps=0,
                                swap_constant=0)
    router = _Router(inst.grid, inst.v_starts, engine)
    cell_count = router.engine.cell_count(d_g)
    cap = None
    if cell_count > 1:
        cap = 2 * (inst.grid.n_rows + inst.grid.row_len[0]) + 10
    plan, circ = _route(router, inst, cap)
    return plan, PaftReport(makespan=plan.T, max_goal_distance=d_g,
                            ratio=_ratio(plan.T, d_g),
                            cell_count=cell_count, circulation_steps=circ,
                            swap_constant=router.engine.c_swap)
