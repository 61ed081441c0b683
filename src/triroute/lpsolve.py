"""Binary-LP solver runner: ``python -m triroute.lpsolve MODEL.lp OUT.sol``.

Solves, with scipy's MILP interface, models in the one LP dialect that
:func:`triroute.ilp.export_lp` writes: ``Maximize`` / ``obj: 0`` /
``Subject To``, one ``cK: +- x ... (= | <=) rhs`` row per line with an
integer rhs, the ``Binary`` names, then ``End``.  The output file has
one "name value" line per variable, and none when the model is
infeasible.  A malformed or unreadable model, an unwritable output, or a
``milp`` run that settles neither way prints one ``lpsolve: ...`` line
to stderr and exits 2.  The child loads no triroute module but this one
and the package, which holds the row senses writer and reader share.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from . import EQ, SENSES

HEAD = ("Maximize", "obj: 0", "Subject To")
# Wall-clock bound on the root-only call, over 10x the slowest root of
# the ilp-dense benchmark (0.26 s); a root that has not settled by then
# gives way to the default call.
ROOT_TIME_LIMIT_S = 5.0


class LpParseError(ValueError):
    pass


class MilpError(RuntimeError):
    """``milp`` settled neither feasibility nor infeasibility."""


def parse_lp(text: str) -> tuple[list[str], sparse.csr_matrix,
                                 np.ndarray, np.ndarray]:
    """Returns (column names, constraint matrix, row lower and upper
    bounds); columns are numbered in order of first use."""
    lines = [ln.strip() for ln in text.splitlines()]

    def fail(k: int, problem: str) -> LpParseError:
        line = repr(lines[k]) if k < len(lines) else "end of file"
        return LpParseError(f"line {k + 1}: {problem}: {line}")

    for k, want in enumerate(HEAD):
        if lines[k:k + 1] != [want]:
            raise fail(k, f"expected {want!r}")
    k = first = len(HEAD)
    terms, counts, eq, upper = [], [], [], []
    while lines[k:k + 1] != ["Binary"]:
        try:   # no coefficients: signs and names alternate
            words = lines[k].split()
            if (len(words) % 2 == 0 or words[0] != f"c{k - first}:"
                    or not {"+", "-"} >= set(words[1:-2:2])
                    or not all(map(str.isidentifier, words[2:-2:2]))):
                raise ValueError
            eq.append(SENSES.index(words[-2]) == EQ)
            upper.append(int(words[-1]))
        except (ValueError, IndexError):
            raise fail(k, f"expected row 'c{k - first}: +- name ... "
                          "(= | <=) rhs' or 'Binary'") from None
        terms += words[1:-2]
        counts.append(len(words) // 2 - 1)
        k += 1
    col = {name: c for c, name in enumerate(dict.fromkeys(terms[1::2]))}
    if lines[-1] != "End" or sorted(lines[k + 1:-1]) != sorted(col):
        raise fail(k, "expected one Binary line per column, then 'End'")
    matrix = sparse.csr_matrix((np.where(np.array(terms[0::2]) == "-", -1., 1.),
                                list(map(col.__getitem__, terms[1::2])),
                                np.cumsum([0] + counts)),
                               shape=(len(counts), len(col)))
    matrix.sum_duplicates()   # canonical: sorted columns within each row
    upper = np.array(upper, dtype=float)
    return list(col), matrix, np.where(eq, upper, -np.inf), upper


def solve_lp_text(text: str) -> tuple[list[str], list[int]] | None:
    """Solve; returns (names, 0/1 values) or None when infeasible.

    The root node alone, without presolve, runs first: on these models it
    usually settles feasibility in a fraction of presolve's time, and any
    point is optimal.  Only when it settles neither way, within
    ``ROOT_TIME_LIMIT_S``, does the default ``milp`` call run."""
    names, matrix, lower, upper = parse_lp(text)
    if not names:
        return [], []
    problem = dict(c=np.zeros(len(names)), integrality=np.ones(len(names)),
                   constraints=[LinearConstraint(matrix, lower, upper)],
                   bounds=Bounds(0, 1))
    res = milp(**problem, options={"presolve": False, "node_limit": 1,
                                   "time_limit": ROOT_TIME_LIMIT_S})
    if res.status not in (0, 2):
        res = milp(**problem)
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise MilpError(f"milp failed: status={res.status} {res.message}")
    return names, [int(round(x)) for x in res.x]


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
                f.writelines(f"{name} {val}\n" for name, val in zip(*result))
    except (LpParseError, MilpError, OSError) as exc:
        print(f"lpsolve: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
