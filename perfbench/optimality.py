"""Independent feasibility test for a routing horizon.

``python3 perfbench/optimality.py < problems.json`` reads a JSON list of
``{"n1", "n2", "starts", "goals", "T"}`` (vertex ids in the column-major
order of ``oracles.lattice_points``) and prints a JSON list of booleans:
whether some legal synchronous plan of exactly T steps routes every
robot.  A makespan T is optimal when T is feasible and T - 1 is not.

The model shares nothing with ``triroute.ilp``: binary position
variables y[r, v, t] plus move variables x[r, u, v, t] on directed
edges, built over the neighbour relation of ``oracles.Lattice`` and
solved with scipy's MILP.  It runs as its own process so that scipy is
never imported by the measured process.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from oracles import Lattice, lattice_points
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp


def feasible(lat: Lattice, starts, goals, T: int) -> bool:
    n = len(starts)
    fwd = [lat.hops(s) for s in starts]
    bwd = [lat.hops(g) for g in goals]
    col: dict[tuple, int] = {}

    def var(key) -> int:
        return col.setdefault(key, len(col))

    # positions allowed by reachability from the start and to the goal
    for r in range(n):
        for t in range(T + 1):
            for v in range(lat.n):
                if fwd[r][v] <= t and bwd[r][v] <= T - t:
                    var(("y", r, v, t))
    for r in range(n):
        for t in range(T):
            for u in range(lat.n):
                if ("y", r, u, t) in col:
                    for v in lat.adj[u]:
                        if ("y", r, v, t + 1) in col:
                            var(("x", r, u, v, t))

    rows, lo, hi = [], [], []

    def row(terms, a, b) -> None:
        rows.append(terms)
        lo.append(a)
        hi.append(b)

    def y(r, v, t):
        return col.get(("y", r, v, t))

    for r in range(n):
        if y(r, starts[r], 0) is None or y(r, goals[r], T) is None:
            return False
        row([(y(r, starts[r], 0), 1)], 1, 1)
        row([(y(r, goals[r], T), 1)], 1, 1)
        for t in range(T + 1):
            row([(y(r, v, t), 1) for v in range(lat.n)
                 if y(r, v, t) is not None], 1, 1)
        for t in range(T):
            for v in range(lat.n):
                out = [col[k] for k in (("x", r, v, w, t) for w in lat.adj[v])
                       if k in col]
                inc = [col[k] for k in (("x", r, u, v, t) for u in lat.adj[v])
                       if k in col]
                here, nxt = y(r, v, t), y(r, v, t + 1)
                # at most one departure, and only from the occupied vertex
                if out:
                    row([(c, 1) for c in out] + [(here, -1)], -np.inf, 0)
                # y(t+1) = y(t) - departures + arrivals
                terms = [(c, 1) for c in out] + [(c, -1) for c in inc]
                if here is not None:
                    terms.append((here, -1))
                if nxt is not None:
                    terms.append((nxt, 1))
                if terms:
                    row(terms, 0, 0)
    for t in range(T + 1):
        for v in range(lat.n):
            terms = [(y(r, v, t), 1) for r in range(n)
                     if y(r, v, t) is not None]
            if len(terms) > 1:
                row(terms, -np.inf, 1)
    triangles = sorted({tr for tris in lat.edge_tris.values() for tr in tris})
    for t in range(T):
        for (u, v) in lat.edge_tris:
            terms = [(col[k], 1) for r in range(n)
                     for k in (("x", r, u, v, t), ("x", r, v, u, t)) if k in col]
            if len(terms) > 1:
                row(terms, -np.inf, 1)
        for a, b, c in triangles:
            terms = [(col[k], 1) for r in range(n)
                     for p, q in ((a, b), (b, a), (a, c), (c, a), (b, c), (c, b))
                     for k in [("x", r, p, q, t)] if k in col]
            if len(terms) > 1:
                row(terms, -np.inf, 1)

    ri = [k for k, terms in enumerate(rows) for _ in terms]
    ci = [c for terms in rows for c, _ in terms]
    data = [a for terms in rows for _, a in terms]
    mat = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), len(col)))
    res = milp(c=np.zeros(len(col)), integrality=np.ones(len(col)),
               bounds=Bounds(0, 1), constraints=[LinearConstraint(mat, lo, hi)])
    if res.status not in (0, 2):
        raise RuntimeError(f"milp status {res.status}: {res.message}")
    return res.status == 0


def main() -> int:
    problems = json.load(sys.stdin)
    lattices: dict[tuple[int, int], Lattice] = {}
    out = []
    for p in problems:
        key = (p["n1"], p["n2"])
        if key not in lattices:
            lattices[key] = Lattice(lattice_points(*key))
        out.append(feasible(lattices[key], p["starts"], p["goals"], p["T"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
