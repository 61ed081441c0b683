"""Workspace and triangular-grid construction.

The workspace is a w-by-h rectangle with w = 4*n1 + 2 and
h = (4/sqrt(3))*n2 + 2.  A triangular lattice with edge length 4/sqrt(3)
is embedded at clearance 1 from the boundary: vertical vertex columns
two units apart (so w - 2 splits into exactly 2*n1 triangle columns),
odd columns shifted half an edge upward, anchored at (1, 1).  With these
dimensions the lattice tiles the inset box [1, w-1] x [1, h-1] exactly:
columns end on x = w - 1 and even columns on y = h - 1, so every point
of the box is within 4/3 (the triangle circumradius) of a grid vertex.
That bound is what makes nearest-vertex snapping injective and safe.
Vertex ids run column-major: left to right, bottom to top inside a
column.

Everything else follows from one convention.  The vertex at slot k of
column m has axial coordinates (q, r) = (k - m // 2, m) and sits at
(1 + 2r, 1 + EDGE_LEN * (q + r/2)); its neighbours are the six
``HEX_OFFSETS`` that exist, and the same six around a degree-6 vertex
list its hexagon ring counterclockwise.  A ring's cover is its centre's
colour (q - r) % 3, so the rings fall into up to three interleaving
covers.  The sharp ("locked") corners are the degree-2 vertices: they
lie on no hexagon, and the covers reach every other vertex.  The grid
also carries one family of vertex-disjoint "horizontal" waving paths
that cover every vertex.  Built on first use and kept with the grid:
the vertex coordinates (``TriGrid.coords``), the directed arcs
(``TriGrid.arcs``) and, per source asked for, one BFS row of hop
distances (``TriGrid.hops_from``, V int64) that every lower bound,
pruning mask and goal potential reads.

The arcs carry the model's per-step exclusions as one rule table
(``Arcs.at_most_one``) that the ILP's rows, the exhaustive search's
conflict bits and ``plan.check_plan`` all read.  ``bfs_distances`` is
the only whole-grid BFS and ``bfs_path`` the only path rule; PAFT's
``_Router._hole_path`` runs its own multi-source search for the nearest
hole, a few hops around a vertex pair for a transposition and over the
whole grid for corner staging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

EDGE_LEN = 4.0 / math.sqrt(3.0)   # lattice edge length
ROW_STEP = 2.0                    # spacing between vertex columns
HALF_SHIFT = EDGE_LEN / 2.0       # in-column offset of odd columns
CLEARANCE = 1.0                   # grid-to-boundary clearance
GEO_TOL = 1e-9
# axial (dq, dr) of the six neighbours, counterclockwise from -150 degrees
HEX_OFFSETS = ((0, -1), (-1, 0), (-1, 1), (0, 1), (1, 0), (1, -1))


class BoundsError(ValueError):
    """Workspace parameters outside the supported range."""


class CoverageError(RuntimeError):
    """Hexagon covers failed to reach a vertex they should cover."""


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y


@dataclass(frozen=True)
class Workspace:
    w: float
    h: float
    n1: int
    n2: int


@dataclass
class TriGrid:
    """Immutable after construction; safe to share across threads."""

    workspace: Workspace
    vertices: list[Vec2]
    adjacency: list[list[int]]            # sorted neighbor ids per vertex
    edges: list[tuple[int, int]]          # (i, j) with i < j, sorted
    triangles: list[tuple[int, int, int]]  # sorted triples, sorted list
    hex_covers: list[list[tuple[int, ...]]] = field(default_factory=list)
    horizontal_paths: list[list[int]] = field(default_factory=list)
    # lattice bookkeeping: "row" m is the m-th vertex column (x = 1 + 2m),
    # "col" k is the position inside it (y = 1 + k*edge, odd columns offset)
    row_of: list[int] = field(default_factory=list)
    col_of: list[int] = field(default_factory=list)
    row_start: list[int] = field(default_factory=list)
    row_len: list[int] = field(default_factory=list)
    n_rows: int = 0
    len_even: int = 0
    # degree-6 centre -> its hexagon ring, counterclockwise
    ring_of: dict[int, tuple[int, ...]] = field(default_factory=dict)
    locked: frozenset[int] = frozenset()   # degree-2 (sharp) corners
    covered: frozenset[int] = frozenset()  # vertices on at least one hexagon
    _hop_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_id(self, col: int, row: int) -> int:
        if not (0 <= row < self.n_rows and 0 <= col < self.row_len[row]):
            raise IndexError(f"no vertex at col={col}, row={row}")
        return self.row_start[row] + col

    def axial(self, v: int) -> tuple[int, int]:
        """Axial lattice coordinates (q, r) of vertex v."""
        return _axial(self.col_of[v], self.row_of[v])

    @cached_property
    def arcs(self) -> Arcs:
        """The arc table, built on first use and kept with the grid."""
        return Arcs.of(self)

    def hops_from(self, source: int) -> np.ndarray:
        """Read-only (V,) int64 hop distances from source, -1 where
        unreachable.  One BFS on first use, then kept with the grid."""
        if source not in self._hop_rows:
            row = np.array(bfs_distances(self, source), dtype=np.int64)
            row.flags.writeable = False
            self._hop_rows[source] = row
        return self._hop_rows[source]

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (V, 2) float64 vertex coordinates, built on first use."""
        xy = np.array([(p.x, p.y) for p in self.vertices],
                      dtype=np.float64).reshape(-1, 2)
        xy.flags.writeable = False
        return xy


@dataclass(frozen=True)
class Arcs:
    """The grid's directed arcs i -> j, j in the closed neighbourhood of i
    (a stay is the arc i -> i), numbered in (i, j) order, and the
    per-step exclusion rules over them.  The lookup tables are padded
    with A, one past the last arc."""

    tail: np.ndarray      # (A,)
    head: np.ndarray      # (A,)
    arc_of: np.ndarray    # (V, V): arc i -> j, A where there is none
    out: np.ndarray       # (V, W): arcs leaving each vertex, by head
    into: np.ndarray      # (V, W): arcs entering each vertex, by tail
    # (V + E + F, K): per step, at most one arc of each row is taken.
    # Vertex rows are ``out`` (one departure), edge rows (i, j) (j, i)
    # (no head-on swap), triangle rows (a,b) (b,a) (a,c) (c,a) (b,c) (c,b)
    at_most_one: np.ndarray

    @classmethod
    def of(cls, grid: TriGrid) -> "Arcs":
        V = grid.n_vertices
        closed = [sorted([v] + grid.adjacency[v]) for v in range(V)]
        deg = np.array([len(c) for c in closed])
        tail = np.repeat(np.arange(V), deg)
        head = np.array([j for c in closed for j in c])
        A = len(tail)
        arc_of = np.full((V + 1, V), A)       # row V: the padding vertex
        arc_of[tail, head] = np.arange(A)
        W = int(deg.max())
        pad = np.arange(W) >= deg[:, None]
        out = np.where(pad, A, (np.cumsum(deg) - deg)[:, None] + np.arange(W))
        nbr = np.full((V, W), V)
        nbr[~pad] = head
        into = arc_of[nbr, np.arange(V)[:, None]]
        e = np.array(grid.edges, dtype=int).reshape(-1, 2)
        f = np.array(grid.triangles, dtype=int).reshape(-1, 3)
        at_most_one = np.full((V + len(e) + len(f), max(W, 6)), A)
        at_most_one[:V, :W] = out
        at_most_one[V:V + len(e), :2] = arc_of[e, e[:, ::-1]]
        at_most_one[V + len(e):, :6] = arc_of[f[:, [0, 1, 0, 2, 1, 2]],
                                              f[:, [1, 0, 2, 0, 2, 1]]]
        return cls(tail=tail, head=head, arc_of=arc_of[:V], out=out, into=into,
                   at_most_one=at_most_one)

    @cached_property
    def successors(self) -> tuple[tuple, int]:
        """(arc, head, conflict bits at step 0) of each arc leaving each
        vertex, and the bits per step S; built on first use and kept.

        Step t owns bits [t*S, (t+1)*S), bit p for row p of
        ``at_most_one``: an arc taken between t and t+1 sets the bit of
        every row that holds it, so bit p at step t is the ILP's row
        (t, p).  Two time-expanded walks obey those rows together
        exactly when their masks share no bit.
        """
        return _successor_bits(self)


def _successor_bits(arcs: Arcs) -> tuple[tuple, int]:
    """Builds ``Arcs.successors``."""
    A = len(arcs.tail)
    bits = [0] * (A + 1)                  # slot A collects the padding
    for p, row in enumerate(arcs.at_most_one.tolist()):
        for a in row:
            bits[a] |= 1 << p
    head = arcs.head.tolist()
    return tuple(tuple((a, head[a], bits[a]) for a in row if a < A)
                 for row in arcs.out.tolist()), len(arcs.at_most_one)


def build_workspace(n1: int, n2: int) -> Workspace:
    """Workspace with w = 4*n1 + 2, h = (4/sqrt(3))*n2 + 2."""
    if n1 < 2 or n2 < 3:
        raise BoundsError(f"need n1 >= 2 and n2 >= 3, got n1={n1}, n2={n2}")
    return Workspace(w=4.0 * n1 + 2.0, h=EDGE_LEN * n2 + 2.0, n1=n1, n2=n2)


def triangle_circumradius() -> float:
    """Center-to-vertex distance of a lattice triangle (side/sqrt(3))."""
    return EDGE_LEN / math.sqrt(3.0)


def density_limit() -> float:
    """Asymptotic fraction of free space occupied by unit discs packed
    on a triangular pattern with pitch 8/3."""
    return (math.pi / 2.0) / (0.5 * (8.0 / 3.0) * EDGE_LEN)


def _axial(col: int, row: int) -> tuple[int, int]:
    """Axial coordinates (q, r) of the vertex at slot col of column row."""
    return col - row // 2, row


def build_grid(ws: Workspace) -> TriGrid:
    """Deterministic triangular grid for the workspace.

    Keeps every lattice point inside [1, w-1] x [1, h-1] (1e-9 tie
    tolerance).  Identical inputs produce bit-identical grids.
    """
    x_hi, y_hi = ws.w - CLEARANCE + GEO_TOL, ws.h - CLEARANCE + GEO_TOL
    vertices: list[Vec2] = []
    row_start, row_len, row_of, col_of = [], [], [], []
    m = 0
    while (x := CLEARANCE + ROW_STEP * m) <= x_hi:
        off = HALF_SHIFT if m % 2 else 0.0
        row_start.append(len(vertices))
        k = 0
        while (y := CLEARANCE + off + EDGE_LEN * k) <= y_hi:
            vertices.append(Vec2(x, y))
            row_of.append(m)
            col_of.append(k)
            k += 1
        row_len.append(k)
        m += 1

    axial = [_axial(k, m) for k, m in zip(col_of, row_of)]
    vid = {qr: v for v, qr in enumerate(axial)}
    around = [[vid.get((q + dq, r + dr)) for dq, dr in HEX_OFFSETS]
              for q, r in axial]
    adjacency = [sorted(u for u in nbrs if u is not None) for nbrs in around]
    edges = [(i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j]
    triangles = [(i, j, k) for i, j in edges for k in adjacency[j]
                 if k > j and k in adjacency[i]]
    ring_of = {c: tuple(nbrs) for c, nbrs in enumerate(around)
               if None not in nbrs}
    covered = frozenset(v for ring in ring_of.values() for v in ring)
    locked = frozenset(v for v, nbrs in enumerate(adjacency) if len(nbrs) == 2)
    missing = set(range(len(vertices))) - covered - locked
    if missing:
        raise CoverageError(
            f"hexagon covers miss non-corner vertices {sorted(missing)}")
    return TriGrid(
        workspace=ws, vertices=vertices, adjacency=adjacency, edges=edges,
        triangles=triangles, hex_covers=_covers(ring_of, axial),
        horizontal_paths=_path_family(row_start, row_len, adjacency),
        row_of=row_of, col_of=col_of, row_start=row_start, row_len=row_len,
        n_rows=len(row_len), len_even=row_len[0], ring_of=ring_of,
        locked=locked, covered=covered)


def _covers(ring_of: dict[int, tuple[int, ...]],
            axial: list[tuple[int, int]]) -> list[list[tuple[int, ...]]]:
    """Up to three interleaving hexagon covers: the rings grouped by the
    colour (q - r) % 3 of their centres.  Together they reach every
    vertex except the sharp boundary corners (which lie on no hexagon)."""
    by_color: list[list[tuple[int, ...]]] = [[], [], []]
    for c, ring in sorted(ring_of.items()):
        q, r = axial[c]
        by_color[(q - r) % 3].append(ring)
    return [cover for cover in by_color if cover]


def _path_family(row_start: list[int], row_len: list[int],
                 adjacency: list[list[int]]) -> list[list[int]]:
    """Horizontal waving paths, vertex-disjoint, that cover everything;
    the last one widens to absorb the long even columns."""
    def at(k: int, m: int) -> int:
        return row_start[m] + k

    nrows, le = len(row_len), row_len[0]
    lo = row_len[1] if nrows > 1 else 0
    horizontal = [[at(k, m) for m in range(nrows)]
                  for k in range(le if lo == le else lo - 1)]
    if lo != le:
        # wide wave over slots lo-1 (all columns) and le-1 (even columns)
        wide = [at(lo - 1, 0), at(le - 1, 0), at(lo - 1, 1)]
        for m in range(2, nrows, 2):
            wide += [at(le - 1, m), at(lo - 1, m)]
            if m + 1 < nrows:
                wide.append(at(lo - 1, m + 1))
        horizontal.append(wide)

    for path in horizontal:
        for a, b in zip(path, path[1:]):
            if b not in adjacency[a]:
                raise CoverageError(
                    f"path family not a grid path: {a} and {b} are not adjacent")
    return horizontal


def nearest_vertex(g: TriGrid, p: Vec2) -> int:
    """Closest grid vertex to p; ties broken by lowest vertex id.

    Constant time: candidate columns/slots come from lattice-coordinate
    rounding (a 3x3 index neighborhood, clamped to the grid).
    """
    px, py = p.x, p.y
    vertices, row_start, row_len = g.vertices, g.row_start, g.row_len
    best, best_d = -1, math.inf
    m0 = round((px - CLEARANCE) / ROW_STEP)
    for m in (m0 - 1, m0, m0 + 1):
        if not 0 <= m < g.n_rows:
            continue
        k0 = round((py - CLEARANCE - (HALF_SHIFT if m % 2 else 0.0))
                   / EDGE_LEN)
        first, last = row_start[m], row_start[m] + row_len[m] - 1
        for vid in (first + k0 - 1, first + k0, first + k0 + 1):
            vid = first if vid < first else last if vid > last else vid
            q = vertices[vid]
            d = math.hypot(q.x - px, q.y - py)
            if d < best_d - GEO_TOL or (
                    abs(d - best_d) <= GEO_TOL and vid < best):
                best, best_d = vid, d
    if best < 0:
        raise BoundsError(f"point ({px}, {py}) lies beyond every grid column")
    return best


def bfs_distances(g: TriGrid, source: int, blocked=()) -> list[int]:
    """Hop distances from source to every vertex (-1 if unreachable),
    over paths that enter no blocked vertex (the source is always 0)."""
    blocked = set(blocked)
    dist = [-1] * g.n_vertices
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if dist[v] < 0 and v not in blocked:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def bfs_path(g: TriGrid, source: int, target: int, blocked=()) -> list[int]:
    """A shortest path whose inner vertices avoid the blocked set.  It is
    rooted at the target: from the source, each step goes to the
    lowest-id neighbour one hop closer to the target."""
    blocked = set(blocked) - {source}
    dist = (bfs_distances(g, target, blocked) if blocked
            else g.hops_from(target).tolist())
    if dist[source] < 0:
        raise ValueError(f"no path {source}->{target} avoiding "
                         f"{sorted(blocked)}")
    path = [source]
    while path[-1] != target:
        cur = path[-1]
        path.append(min(v for v in g.adjacency[cur] if dist[v] == dist[cur] - 1))
    return path
