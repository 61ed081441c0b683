"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` replaces each traced public function at the name its
caller looks it up by (``triilp.build_model``, ``ilp.export_lp``, ...)
with a wrapper that records a span, and ``uninstall`` puts the originals
back, so untraced solves run the library untouched.  Spans stay in
memory until ``dump`` writes them out at the end of the run.  Counts
that need a walk over a plan are deferred to ``end_case``, after the
instance's timed region.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "geometry.build_grid_s": ("s", "lower"),
    "paft.engine_warm_s": ("s", "lower"),
    "paft.swap_schedules": ("count", "lower"),
    "io.parse_instance_s": ("s", "lower"),
    "discretize.discretize_s": ("s", "lower"),
    "triilp.horizons": ("count", "lower"),
    "triilp.infeasible_horizons": ("count", "lower"),
    "ilp.build_model_s": ("s", "lower"),
    "ilp.columns": ("count", "lower"),
    "ilp.rows": ("count", "lower"),
    "ilp.pruned_columns": ("count", "lower"),
    "ilp.export_lp_s": ("s", "lower"),
    "ilp.lp_bytes": ("B", "lower"),
    "ilp.solve_s": ("s", "lower"),
    "lpsolve.solve_lp_text_s": ("s", "lower"),
    "ilp.solver_startup_s": ("s", "lower"),
    "ilp.parse_solution_s": ("s", "lower"),
    "ilp.extract_plan_s": ("s", "lower"),
    "paft.paft_s": ("s", "lower"),
    "paft.schedule_calls": ("count", "lower"),
    "paft.makespan": ("count", "lower"),
    "paft.lower_bound": ("count", "higher"),
    "paft.cells": ("count", "lower"),
    "paft.circulation_steps": ("count", "lower"),
    "paft.swap_constant": ("count", "lower"),
    "validate.synthesize_s": ("s", "lower"),
    "validate.breakpoints": ("count", "lower"),
    "validate.validate_s": ("s", "lower"),
    "validate.windows": ("count", "lower"),
    "validate.pair_windows": ("count", "lower"),
    "io.format_plan_s": ("s", "lower"),
    "io.plan_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

SETUP = -1   # pass number of spans recorded while setting up
SETUP_METRICS = ("geometry.build_grid_s", "paft.engine_warm_s",
                 "paft.swap_schedules")


def _windows(plan) -> int:
    """Linear windows ``validate`` walks: distinct breakpoint times, with
    times closer than 1e-12 merged as it merges them."""
    times = sorted({t for pts in plan.trajectories for t, _ in pts})
    merged = 1
    last = times[0]
    for t in times[1:]:
        if t - last > 1e-12:
            merged += 1
            last = t
    return merged - 1


class Tracer:
    def __init__(self, tr):
        self.tr = tr
        self.spans: list[tuple[str, str, int, float, float]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.case = "setup"
        self.pass_no = SETUP
        self._saved: list[tuple[object, str, object]] = []
        self._deferred: list = []
        self._solve: dict | None = None   # inner times of the open ilp.solve

    # recording ---------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_no][name] += value

    def record(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((name, self.case, self.pass_no, t0, t1))

    def _wrap(self, owner, attr: str, span: str, after=None,
              before=None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before is not None:
                before()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.record(span, t0, t1)
            if after is not None:
                after(out, args, t1 - t0)
            return out

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        tr = self.tr
        self._wrap(tr.geometry, "build_grid", "geometry.build_grid")
        self._wrap(tr.io, "parse_instance", "io.parse_instance")
        self._wrap(tr.discretize, "discretize", "discretize.discretize")
        self._wrap(tr.triilp, "build_model", "ilp.build_model",
                   self._after_build_model)
        self._wrap(tr.triilp, "solve", "ilp.solve", self._after_solve,
                   before=self._open_solve)
        self._wrap(tr.triilp, "extract_plan", "ilp.extract_plan")
        self._wrap(tr.ilp, "export_lp", "ilp.export_lp", self._after_export)
        self._wrap(tr.ilp, "parse_solution", "ilp.parse_solution",
                   self._after_parse)
        self._wrap(tr.paft, "paft", "paft.paft", self._after_paft)
        self._wrap(tr.validate, "synthesize", "validate.synthesize",
                   self._after_synthesize)
        self._wrap(tr.validate, "validate", "validate.validate",
                   self._after_validate)
        self._wrap(tr.io, "format_continuous_plan", "io.format_plan",
                   lambda out, args, dt: self.count("io.plan_bytes", len(out)))
        engine = tr.paft.SwapEngine
        schedule = engine.schedule_for_pair

        def counted(eng, a, b):
            self.count("paft.schedule_calls", 1)
            return schedule(eng, a, b)

        self._saved.append((engine, "schedule_for_pair", schedule))
        engine.schedule_for_pair = counted

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # counts taken from call results ------------------------------------

    def _after_build_model(self, model, args, dt) -> None:
        self.count("ilp.columns", len(model.variables))
        self.count("ilp.rows", len(model.constraints))
        self.count("ilp.pruned_columns", model.pruned_count)

    def _after_export(self, text, args, dt) -> None:
        self.count("ilp.lp_bytes", len(text))
        if self._solve is not None:
            self._solve["export"] += dt
            self._solve["texts"].append(text)

    def _after_parse(self, sol, args, dt) -> None:
        if self._solve is not None:
            self._solve["parse"] += dt

    def _open_solve(self) -> None:
        self._solve = {"export": 0.0, "parse": 0.0, "texts": []}

    def _after_solve(self, sol, args, dt) -> None:
        model = args[0]
        self.count("triilp.horizons", 1)
        if sol.objective_value != model.n:
            self.count("triilp.infeasible_horizons", 1)
        inner, self._solve = self._solve, None
        if inner["texts"]:
            self._deferred.append(lambda: self._solver_startup(dt, inner))

    def _after_paft(self, out, args, dt) -> None:
        rep = out[1]
        self.count("paft.makespan", rep.makespan)
        self.count("paft.lower_bound", rep.max_goal_distance)
        self.count("paft.cells", rep.cell_count)
        self.count("paft.circulation_steps", rep.circulation_steps)
        c = self.counts[self.pass_no]
        c["paft.swap_constant"] = max(c["paft.swap_constant"], rep.swap_constant)

    def _after_synthesize(self, plan, args, dt) -> None:
        self._deferred.append(lambda: self.count(
            "validate.breakpoints", sum(len(p) for p in plan.trajectories)))

    def _after_validate(self, report, args, dt) -> None:
        plan = args[0]

        def windows():
            w = _windows(plan)
            n = len(plan.trajectories)
            self.count("validate.windows", w)
            self.count("validate.pair_windows", w * n * (n - 1) // 2)

        self._deferred.append(windows)

    def _solver_startup(self, solve_dt: float, inner: dict) -> None:
        """Solve the exported LP text in-process and charge the rest of the
        external call (process start, imports, file I/O) to start-up."""
        lpsolve = importlib.import_module("triroute.lpsolve")
        lp_dt = 0.0
        for text in inner["texts"]:
            t0 = time.perf_counter()
            lpsolve.solve_lp_text(text)
            t1 = time.perf_counter()
            self.record("lpsolve.solve_lp_text", t0, t1)
            lp_dt += t1 - t0
        self.count("ilp.solver_startup_s",
                   solve_dt - inner["export"] - inner["parse"] - lp_dt)

    # per-instance bracketing -------------------------------------------

    def begin_case(self, name: str, pass_no: int) -> None:
        self.case, self.pass_no = name, pass_no
        self.install()

    def end_case(self) -> None:
        """Leave the timed region: restore the library, run deferred work."""
        self.uninstall()
        deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    # report --------------------------------------------------------------

    def pass_totals(self) -> dict[int, dict[str, float]]:
        """Seconds per span name plus counts, per pass."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, _, p, t0, t1 in self.spans:
            out[p][name + "_s"] += t1 - t0
        for p, c in self.counts.items():
            out[p].update(c)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, case, p, t0, t1 in self.spans:
                f.write(json.dumps({"span": name, "case": case, "pass": p,
                                    "start": t0, "end": t1}) + "\n")
