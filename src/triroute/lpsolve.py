"""Binary-LP solver runner: ``python -m triroute.lpsolve MODEL.lp OUT.sol``.

Reads the LP subset written by :func:`triroute.ilp.export_lp` (Maximize /
Subject To / Binary / End sections, +-1 or explicit integer coefficients)
and solves it with scipy's MILP interface.  On success the output file
has one "name value" line per variable; an infeasible model produces an
empty output file.  A malformed or unreadable model, an unwritable
output, or a ``milp`` run that settles neither way prints one
``lpsolve: ...`` line to stderr and exits 2.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp


class LpParseError(ValueError):
    pass


class MilpError(RuntimeError):
    """``milp`` ended without settling feasibility (time limit, numerical
    trouble, unbounded)."""


def parse_lp(text: str) -> tuple[list[str], list[float],
                                 list[tuple[dict[int, float], str, float]]]:
    """Returns (variable names, objective coefficients, constraint rows)."""
    section = None
    names: list[str] = []
    col: dict[str, int] = {}
    obj_terms: dict[int, float] = {}
    rows: list[tuple[dict[int, float], str, float]] = []

    def col_of(name: str) -> int:
        if name not in col:
            col[name] = len(names)
            names.append(name)
        return col[name]

    def parse_terms(tokens: list[str]) -> dict[int, float]:
        terms: dict[int, float] = {}
        sign, coef = 1.0, None
        for tok in tokens:
            if tok == "+":
                sign, coef = 1.0, None
            elif tok == "-":
                sign, coef = -1.0, None
            elif tok.replace(".", "", 1).isdigit():
                coef = float(tok)
            else:
                c = col_of(tok)
                terms[c] = terms.get(c, 0.0) + sign * (1.0 if coef is None else coef)
                sign, coef = 1.0, None
        return terms

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "minimize"):
            section = low
            continue
        if low == "subject to":
            section = "subject to"
            continue
        if low == "binary":
            section = "binary"
            continue
        if low == "end":
            break
        if section in ("maximize", "minimize"):
            body = line.split(":", 1)[1] if ":" in line else line
            if body.strip() == "0":
                continue
            terms = parse_terms(body.split())
            s = 1.0 if section == "maximize" else -1.0
            for c, v in terms.items():
                obj_terms[c] = obj_terms.get(c, 0.0) + s * v
        elif section == "subject to":
            body = line.split(":", 1)[1] if ":" in line else line
            tokens = body.split()
            op_idx = next((k for k, t in enumerate(tokens) if t in ("<=", ">=", "=")),
                          None)
            if op_idx is None:
                raise LpParseError(f"constraint without relation: {raw!r}")
            try:
                rhs = float(tokens[op_idx + 1])
            except (IndexError, ValueError):
                raise LpParseError(f"bad right-hand side: {raw!r}") from None
            rows.append((parse_terms(tokens[:op_idx]), tokens[op_idx], rhs))
        elif section == "binary":
            for tok in line.split():
                col_of(tok)
        else:
            raise LpParseError(f"content outside any section: {raw!r}")

    objective = [0.0] * len(names)
    for c, v in obj_terms.items():
        objective[c] = v
    return names, objective, rows


def solve_lp_text(text: str) -> tuple[list[str], list[int]] | None:
    """Solve; returns (names, 0/1 values) or None when infeasible.

    A zero objective is first given to the root node alone, without
    presolve; only when that settles neither feasibility nor
    infeasibility does the default ``milp`` call run.  Any other
    objective goes straight to the default call.
    """
    names, objective, rows = parse_lp(text)
    nvar = len(names)
    if nvar == 0:
        return [], []
    constraints = []
    if rows:
        data, ri, ci, lb, ub = [], [], [], [], []
        for k, (terms, op, rhs) in enumerate(rows):
            for c, v in terms.items():
                data.append(v)
                ri.append(k)
                ci.append(c)
            if op == "<=":
                lb.append(-np.inf)
                ub.append(rhs)
            elif op == ">=":
                lb.append(rhs)
                ub.append(np.inf)
            else:
                lb.append(rhs)
                ub.append(rhs)
        mat = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), nvar))
        constraints.append(LinearConstraint(mat, lb, ub))
    problem = dict(c=-np.asarray(objective), constraints=constraints,
                   integrality=np.ones(nvar), bounds=Bounds(0, 1))
    res = None
    if not any(objective):
        # A feasibility model: any point the root node finds is optimal,
        # and on these time-expanded models the root without presolve
        # usually settles feasibility in a fraction of presolve's time.
        res = milp(**problem, options={"presolve": False, "node_limit": 1})
    if res is None or res.status not in (0, 2):
        res = milp(**problem)
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise MilpError(f"milp failed: status={res.status} {res.message}")
    values = [int(round(x)) for x in res.x]
    return names, values


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m triroute.lpsolve MODEL.lp OUT.sol", file=sys.stderr)
        return 2
    try:
        with open(args[0]) as f:
            result = solve_lp_text(f.read())
        with open(args[1], "w") as f:
            if result is not None:
                for name, val in zip(*result):
                    f.write(f"{name} {val}\n")
    except (LpParseError, MilpError, OSError) as exc:
        print(f"lpsolve: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
