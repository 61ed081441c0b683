"""Shows that the benchmark's correctness checks can fail.

    python3 perfbench/selftest.py

Solves one small instance through the pipeline, checks that its output
passes every oracle, then corrupts copies of it and checks that each
corruption is rejected:

* one step of the discrete plan with a robot jumping off the grid edges;
* one step of the discrete plan with two robots on one vertex;
* one trajectory breakpoint moved next to a neighbouring disc;
* the plan padded with one idle step, so its makespan is not optimal.

Exits 0 when the clean output passes and every corruption is caught.
"""

from __future__ import annotations

import copy
import sys

import oracles
import run


def main() -> int:
    tr = run.load_triroute()
    grids, _ = run.set_up(tr, "ilp-small")
    lattices = {ws: oracles.Lattice(oracles.lattice_points(*ws))
                for ws in grids}
    w = tr.geometry.build_workspace(2, 3)
    case = run.workloads.Case("selftest", (2, 3), tr.io.format_instance(
        tr.instances.dense_instance(w, 4, 0)))
    solved = run.solve_case(tr, case, grids, None, None)
    plan, cplan, makespan = solved.plan, solved.cplan, solved.makespan
    lat = lattices[(2, 3)]

    def rejected(steps, trajectories, T, label, expect="") -> bool:
        """Whether the checks report an error containing ``expect``."""
        p = copy.copy(plan)
        p.steps = steps
        c = copy.copy(cplan)
        c.trajectories = trajectories
        errors, proof = run.check_case(lattices, "ilp-small", 0, solved._replace(
            plan=p, cplan=c, makespan=T))
        if proof is not None:
            errors += run.prove_optimal([proof])
        hit = [e for e in errors if expect in e]
        print(f"{label}: {'rejected' if hit else 'accepted'}"
              + (f" ({hit[0]})" if hit else ""))
        return bool(hit)

    clean = not rejected(plan.steps, cplan.trajectories, makespan,
                         "clean output")
    mid = len(plan.steps) // 2

    jump = [list(row) for row in plan.steps]
    here = jump[mid][0]
    far = next(v for v in range(lat.n) if lat.hops(here)[v] == 2
               and v not in jump[mid] and v not in jump[mid - 1]
               and v not in jump[mid + 1])
    jump[mid][0] = far
    shared = [list(row) for row in plan.steps]
    shared[mid][0] = shared[mid][1]

    moved = [list(pts) for pts in cplan.trajectories]
    k = len(moved[0]) // 2
    t, _ = moved[0][k]
    other = oracles.trajectory_arrays(cplan.trajectories)[1]
    x = float(oracles.np.interp(t, other[:, 0], other[:, 1]))
    y = float(oracles.np.interp(t, other[:, 0], other[:, 2]))
    moved[0][k] = (t, tr.geometry.Vec2(x + 1.0, y))

    padded = list(plan.steps) + [plan.steps[-1]]
    caught = [
        rejected([tuple(r) for r in jump], cplan.trajectories, makespan,
                 "robot jumps two hops", "not an edge"),
        rejected([tuple(r) for r in shared], cplan.trajectories, makespan,
                 "two robots on one vertex", "share a vertex"),
        rejected(plan.steps, moved, makespan, "breakpoint next to a neighbour",
                 "sampling found"),
        rejected(padded, cplan.trajectories, makespan + 1,
                 "one idle step added", "not optimal"),
    ]
    ok = clean and all(caught)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
