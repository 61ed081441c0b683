"""Benchmark of the triroute solve pipeline, end to end and per layer.

    python3 perfbench/run.py --workload ilp-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/triroute``.  Each
instance goes through what ``triroute solve --out`` does: parse the
instance text, snap it to the grid, route it, synthesize trajectories,
validate them and format the continuous plan.  Grids (and, on
paft-dense, one warmed SwapEngine) are built once per run.  Whole
passes over the workload's instance set repeat for about ``--seconds``,
at least three of them.  Times are CPU seconds: those of this process
scaled to a reference machine speed that a calibration sweep run
between the solves measures, plus those of its solver children as
measured.  Each instance counts with its median pass.  The first pass is checked against the independent
oracles, later passes must reproduce it.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md.
"""

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import deque
from pathlib import Path
from typing import NamedTuple

import oracles
import workloads
from tracing import LAYER_METRICS, SETUP, SETUP_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solves_per_s": "1/s",
    "makespan_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 3
# passes per run at least; an instance's time is its median over passes
MIN_PASSES = 3
PAFT_SAMPLED_WINDOWS = 300
# optimality proofs per run chosen by the seed, besides the instances
# that are always proved
SAMPLED_PROOFS = 40
# calibration sweeps take about this share of the solving CPU time; one
# sweep takes REFERENCE_SWEEP_S CPU seconds at the reference speed
CALIBRATION_SHARE = 0.08
REFERENCE_SWEEP_S = 0.04


class BenchError(Exception):
    """The benchmark cannot run here."""


class Solved(NamedTuple):
    """What one pass of the pipeline produced for one instance."""
    inst: object          # ContinuousInstance
    plan: object          # DiscretePlan
    cplan: object         # ContinuousPlan
    report: object        # ValidationReport
    makespan: int
    lower: int            # the router's collision-free lower bound
    out_len: int          # characters of the formatted continuous plan


def load_triroute() -> types.SimpleNamespace:
    """Import triroute from this checkout's ``src``.  The external solver
    child finds it through PYTHONPATH, and the model files it exchanges
    go to a temporary directory inside the checkout."""
    if not (SRC / "triroute" / "__init__.py").is_file():
        raise BenchError(f"no triroute sources at {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    names = ("geometry", "discretize", "instances", "io", "ilp", "triilp",
             "paft", "validate")
    tr = types.SimpleNamespace(**{
        n: importlib.import_module(f"triroute.{n}") for n in names})
    if Path(tr.geometry.__file__).resolve().parent != SRC / "triroute":
        raise BenchError(f"imported triroute from {tr.geometry.__file__}")
    return tr


def warm_engine(tr, grid, tracer: Tracer | None):
    """A SwapEngine with a schedule for every covered adjacent pair."""
    t0 = time.perf_counter()
    engine = tr.paft.SwapEngine(grid)
    pairs = [(a, b) for a in sorted(grid.covered) for b in grid.adjacency[a]
             if a < b and b in grid.covered]
    for a, b in pairs:
        engine.schedule_for_pair(a, b)
    if tracer is not None:
        tracer.record("paft.engine_warm", t0, time.perf_counter())
        tracer.count("paft.swap_schedules", len(pairs))
    return engine


def set_up(tr, workload: str, tracer: Tracer | None = None):
    grids = {ws: tr.geometry.build_grid(tr.geometry.build_workspace(*ws))
             for ws in workloads.WORKSPACES[workload]}
    engine = None
    if workload == "paft-dense":
        engine = warm_engine(tr, grids[(6, 7)], tracer)
    return grids, engine


def cpu_times() -> tuple[float, float]:
    """CPU seconds of this process and of its finished children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), ch.ru_utime + ch.ru_stime


class Calibration:
    """The machine's speed over the run, from fixed plain-Python work that
    shares no code with triroute: a breadth-first search over a 150x150
    grid graph (about 5 MB, so that it leaves the small caches as the
    solves do) and a churn of small tuples through a set.  On a shared
    virtual machine the CPU seconds of fixed work drift by 10-30 % over
    tens of seconds.  The sweep drifts with the solves run in this
    process, so scaling their CPU time by it takes most of the drift out
    of the reported times while any change to triroute shows in full.
    Child processes, which may run on the other core and spend their
    time in compiled code, did not drift with it and are not scaled.
    Sweeps run between solves, as many as keep them at CALIBRATION_SHARE
    of the work, and each pass is scaled by the sweeps made during it."""

    SIDE = 150
    CHURN = 30000

    def __init__(self):
        n = self.SIDE
        nodes = {(i, j): (i, j) for i in range(n) for j in range(n)}
        steps = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1))
        self.adj = {v: [nodes[w] for w in ((v[0] + a, v[1] + b)
                                           for a, b in steps) if w in nodes]
                    for v in nodes}
        self.sources = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0)]
        self.sweeps: list[float] = []
        self.swept = self.work = 0.0

    def sweep(self) -> None:
        c0 = time.process_time()
        source = self.sources[len(self.sweeps) % len(self.sources)]
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            d = dist[u] + 1
            for v in self.adj[u]:
                if v not in dist:
                    dist[v] = d
                    queue.append(v)
        seen = set()
        for k in range(self.CHURN):
            seen.add((k % 97, k * 7 % 89, k % 13))
            if len(seen) > 5000:
                seen = set()
        self.sweeps.append(time.process_time() - c0)
        self.swept += self.sweeps[-1]

    def after(self, cpu: float) -> None:
        """Account ``cpu`` seconds of benchmark work and sweep as due."""
        self.work += cpu
        while self.swept < CALIBRATION_SHARE * self.work:
            self.sweep()

    def factor(self, first: int = 0) -> float:
        """Reference speed over the speed the sweeps from ``first`` on
        saw: it multiplies CPU seconds."""
        if len(self.sweeps) <= first:
            self.sweep()
        recent = self.sweeps[first:]
        return REFERENCE_SWEEP_S * len(recent) / sum(recent)


def probe_setup(workload: str) -> float:
    """CPU seconds a fresh interpreter spends starting and setting up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    c0 = sum(cpu_times())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed: {line!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return sum(cpu_times()) - c0


def solve_case(tr, case, grids, engine, backend) -> Solved:
    """One instance through the solve pipeline; the formatted plan is
    produced and dropped, as ``solve --out`` would write it."""
    inst = tr.io.parse_instance(case.text)
    grid = grids[case.workspace]
    dinst, snap_s, snap_g = tr.discretize.discretize(inst, grid)
    if engine is not None:
        plan, _ = tr.paft.paft(dinst, engine)
        makespan, lower = plan.T, tr.triilp.underestimated_makespan(dinst)
    else:
        # no backend argument on ilp-small: whatever the default is
        kwargs = {} if backend is None else {"backend": backend}
        plan, rep = tr.triilp.solve_triilp(dinst, **kwargs)
        makespan, lower = rep.makespan, rep.underestimate
    cplan = tr.validate.synthesize(inst, grid, plan, snap_s, snap_g)
    report = tr.validate.validate(cplan, inst.workspace)
    if not report.valid:
        raise RuntimeError(f"plan failed validation: {report.min_pair_clearance}")
    out_len = len(tr.io.format_continuous_plan(cplan))
    return Solved(inst, plan, cplan, report, makespan, lower, out_len)


def check_case(lattices, workload: str, seed: int, s: Solved
               ) -> tuple[list[str], dict | None]:
    """Oracle checks of one solve; returns errors and, for an ILP makespan
    above the hop bound, the horizons the optimality oracle must test."""
    ws = s.inst.workspace
    lat = lattices[(ws.n1, ws.n2)]
    steps = s.plan.steps
    errors = oracles.check_discrete(lat, s.inst.starts, s.inst.goals, steps,
                                    s.makespan, s.lower)
    arrays = oracles.trajectory_arrays(s.cplan.trajectories)
    errors += oracles.check_continuous(lat, arrays, s.inst.starts,
                                       s.inst.goals, steps, ws.w, ws.h)
    clearance = s.report.min_pair_clearance
    if workload == "paft-dense":
        errors += oracles.check_clearance(arrays, clearance, samples=200,
                                          windows=PAFT_SAMPLED_WINDOWS,
                                          seed=seed)
        return errors, None
    errors += oracles.check_clearance(arrays, clearance, samples=1000)
    proof = None
    if s.makespan > lat.lower_bound(steps[0], steps[-1]):
        proof = {"n1": ws.n1, "n2": ws.n2, "starts": list(steps[0]),
                 "goals": list(steps[-1]), "T": s.makespan}
    return errors, proof


def prove_optimal(proofs: list[dict]) -> list[str]:
    """Each makespan T must be feasible and T - 1 infeasible in the
    independent model (one child process for the whole batch)."""
    if not proofs:
        return []
    batch = [dict(p, T=p["T"] - d) for p in proofs for d in (0, 1)]
    proc = subprocess.run([sys.executable, str(HERE / "optimality.py")],
                          input=json.dumps(batch), capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        return [f"optimality oracle failed: {proc.stderr.strip()[-300:]}"]
    verdict = json.loads(proc.stdout)
    errors = []
    for k, p in enumerate(proofs):
        if not verdict[2 * k]:
            errors.append(f"oracle finds no plan of the reported makespan "
                          f"{p['T']}")
        if verdict[2 * k + 1]:
            errors.append(f"makespan {p['T']} is not optimal: "
                          f"{p['T'] - 1} steps suffice")
    return errors


def run(args) -> dict:
    tr = load_triroute()
    tracer = Tracer(tr) if args.trace else None
    setup_times = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    if tracer is not None:
        tracer.install()
    grids, engine = set_up(tr, args.workload, tracer)
    if tracer is not None:
        tracer.uninstall()
    cases = workloads.make_cases(tr, args.workload, args.seed)
    errors: list[str] = []
    lattices = {}
    for ws, grid in grids.items():
        pts = oracles.lattice_points(*ws)
        if [(p.x, p.y) for p in grid.vertices] != pts:
            errors.append(f"grid {ws} differs from the lattice enumeration")
        lattices[ws] = oracles.Lattice(pts)
    backend = "external" if args.workload == "ilp-dense" else None

    proofs: list[tuple[bool, dict]] = []
    first: dict[str, tuple] = {}
    plain: dict[str, list[float]] = {c.name: [] for c in cases}
    traced: dict[str, list[float]] = {c.name: [] for c in cases}
    steps: list[tuple[int, int]] = []
    attempted = failed = 0
    measured = 0.0
    passes = 0
    calibration = Calibration()
    speeds: list[float] = []

    def timed(case, pass_no, trace):
        """Wall seconds, CPU seconds of this process and of its children,
        and the pipeline's output or what it raised."""
        if trace:
            tracer.begin_case(case.name, pass_no)
        t0, (own0, kids0) = time.perf_counter(), cpu_times()
        try:
            out = solve_case(tr, case, grids, engine, backend)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            out = exc
        wall, (own1, kids1) = time.perf_counter() - t0, cpu_times()
        if trace:
            tracer.end_case()
        return wall, own1 - own0, kids1 - kids0, out

    t_loop = time.perf_counter()
    while (passes < MIN_PASSES
           or measured + 0.5 * measured / passes < args.seconds):
        first_sweep = len(calibration.sweeps)
        this_pass: list[tuple[dict, str, float, float]] = []
        for case in cases:
            for trace in ([False, True] if tracer is not None else [False]):
                attempted += 1
                wall, own, kids, out = timed(case, passes, trace)
                measured += wall
                calibration.after(own + kids)
                if isinstance(out, Exception):
                    failed += 1
                    print(f"# {case.name}: {type(out).__name__}: {out}",
                          file=sys.stderr)
                    continue
                this_pass.append(
                    (traced if trace else plain, case.name, own, kids))
                digest = (hash(tuple(out.plan.steps)),
                          out.report.min_pair_clearance, out.out_len)
                if case.name not in first:
                    first[case.name] = digest
                    steps.append((out.makespan, out.lower))
                    errs, proof = check_case(lattices, args.workload,
                                             args.seed, out)
                    errors += [f"{case.name}: {e}" for e in errs]
                    if proof is not None:
                        proofs.append((case.always_proved, proof))
                elif digest != first[case.name]:
                    errors.append(f"{case.name}: output differs between runs")
                del out     # a paft-dense plan holds ~40 MB of objects
        speeds.append(calibration.factor(first_sweep))
        for times, name, own, kids in this_pass:
            times[name].append(own * speeds[-1] + kids)
        passes += 1
    t_loop = time.perf_counter() - t_loop
    plain = [statistics.median(ts) for ts in plain.values() if ts]
    traced = [statistics.median(ts) for ts in traced.values() if ts]
    if not plain:
        raise BenchError("every solve failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampled = [p for always, p in proofs if not always]
    proved = [p for always, p in proofs if always]
    proved += random.Random(args.seed).sample(
        sampled, min(SAMPLED_PROOFS, len(sampled)))
    errors += prove_optimal(proved)
    for e in errors[:20]:
        print(f"# check failed: {e}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(plain),
            "solves_per_s": len(plain) / sum(plain),
            "makespan_ratio": tr.validate.optimality_metrics(steps).aggregate,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    else:
        metrics = layer_metrics(tracer, passes, plain, traced)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"trace-{args.workload}-s{args.seed}.jsonl")
    print(f"# {args.workload} seed {args.seed}: {len(cases)} instances, "
          f"{passes} passes, {attempted} solves, {failed} failed, "
          f"{measured:.1f} s solving, {t_loop - measured:.1f} s checking, "
          f"{len(proved)} of {len(proofs)} optimality proofs made",
          file=sys.stderr)
    print("# speed factors of the passes: "
          + " ".join(f"{k:.4f}" for k in speeds)
          + f" from {len(calibration.sweeps)} calibration sweeps",
          file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(tracer: Tracer, passes: int, plain, traced) -> dict:
    """Per-pass totals of every layer metric, median over the passes;
    set-up figures come from the single traced set-up.  ``plain`` and
    ``traced`` are the per-instance median times of the two kinds of
    solve, scaled like ``solve_s``."""
    totals = tracer.pass_totals()
    setup = totals.get(SETUP, {})
    values = {}
    for name in LAYER_METRICS:
        if name in SETUP_METRICS:
            values[name] = setup.get(name, 0.0)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(traced) - statistics.median(plain)
        else:
            values[name] = statistics.median(
                totals.get(p, {}).get(name, 0.0) for p in range(passes))
    return {k: {"value": v, "unit": LAYER_METRICS[k][0]}
            for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKSPACES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            set_up(load_triroute(), args.workload)
            print("ready", flush=True)
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
