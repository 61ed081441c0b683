"""The benchmark harness under perfbench/ still measures this library.

``perfbench/tracing.py`` records its per-layer metrics by wrapping
library functions at the names their callers look them up by
(``triilp.build_model``, ``triilp.solve``, ``paft.paft``, ...).  A
refactor that renames or bypasses one of those names leaves its metric
at zero without failing the benchmark run, so these tests run a traced
solve of each kind and require every metric on its path to be non-zero.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One traced set-up and one traced solve_case per kind, as run.py does
# them, then one traced paft call on a full occupancy (see WORDS); prints
# the per-pass totals and the tracer's metric names as JSON.
TRACED_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
import run
from tracing import LAYER_METRICS, SETUP_METRICS, Tracer

tr = run.load_triroute()
tracer = Tracer(tr)
tracer.install()
grids = {ws: tr.geometry.build_grid(tr.geometry.build_workspace(*ws))
         for ws in ((2, 3), (3, 4))}
engine = run.warm_engine(tr, grids[(3, 4)], tracer)
tracer.uninstall()
ilp = tr.instances.dense_instance(grids[(2, 3)].workspace, 6, 2)
packing = tr.instances.dense_points(grids[(3, 4)].workspace)
goals = list(packing)
for i, j in ((11, 15), (12, 17)):
    goals[i], goals[j] = goals[j], goals[i]
small = tr.discretize.ContinuousInstance(
    workspace=grids[(3, 4)].workspace, starts=tuple(packing),
    goals=tuple(goals))
cases = [("ilp", (2, 3), ilp, None, None),
         ("external", (2, 3), ilp, None, "external"),
         ("paft", (3, 4), small, engine, None)]
for pass_no, (name, ws, inst, eng, backend) in enumerate(cases):
    case = run.workloads.Case(name, ws, tr.io.format_instance(inst))
    tracer.begin_case(name, pass_no)
    run.solve_case(tr, case, grids, eng, backend)
    tracer.end_case()
g = grids[(3, 4)]
a = min(g.covered)
b = next(v for v in g.adjacency[a] if v in g.covered)
goals = list(range(g.n_vertices))
goals[a], goals[b] = b, a
full = tr.discretize.DiscreteInstance(g, tuple(range(g.n_vertices)),
                                      tuple(goals))
tracer.begin_case("words", len(cases))
tr.paft.paft(full, engine)
tracer.end_case()
print(json.dumps({
    "totals": {p: dict(c) for p, c in tracer.pass_totals().items()},
    "setup": list(SETUP_METRICS), "layer": list(LAYER_METRICS)}))
"""

PIPELINE = ["io.parse_instance_s", "discretize.discretize_s",
            "validate.synthesize_s", "validate.breakpoints",
            "validate.validate_s", "validate.windows", "validate.pair_windows",
            "io.format_plan_s", "io.plan_bytes"]
# the 6-disc 2x3 instance (seed 2) has an infeasible first horizon
ILP = ["triilp.horizons", "triilp.infeasible_horizons", "ilp.build_model_s",
       "ilp.columns", "ilp.rows", "ilp.pruned_columns", "ilp.solve_s",
       "ilp.extract_plan_s"]
EXTERNAL = ["ilp.export_lp_s", "ilp.lp_bytes", "lpsolve.solve_lp_text_s",
            "ilp.solver_startup_s", "ilp.parse_solution_s"]
# the full 18-disc packing of 3x4 with two neighbouring pairs of goals
# exchanged: four cells and one circulation round
PAFT = ["paft.paft_s", "paft.makespan", "paft.lower_bound", "paft.cells",
        "paft.circulation_steps", "paft.swap_constant"]
# the router asks the engine only for rotation words it lands, and no
# packing instance lands one (a hole is always in reach), so the word
# path is a full occupancy of 3x4 with two neighbours exchanged, routed
# by paft on the warmed engine
WORDS = ["paft.paft_s", "paft.schedule_calls", "paft.makespan",
         "paft.swap_constant"]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_solves_record_every_metric_on_their_path():
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    setup, totals = out["setup"], out["totals"]
    # every metric the tracer defines, bar its own overhead, is on a path
    # checked here, so a metric added to the tracer cannot go unchecked
    assert (set(setup + PIPELINE + ILP + EXTERNAL + PAFT + WORDS)
            == set(out["layer"]) - {"trace.overhead_s"})
    expected = {"-1": setup, "0": PIPELINE + ILP,
                "1": PIPELINE + ILP + EXTERNAL, "2": PIPELINE + PAFT,
                "3": WORDS}
    zero = {p: [m for m in names if not totals.get(p, {}).get(m)]
            for p, names in expected.items()}
    assert zero == {p: [] for p in expected}
