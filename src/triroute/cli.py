"""Command-line front end: gen, solve, prove, bench, render.

Exit codes: 0 success, 1 separation sweep failed at every epsilon
(prove), 2 parse error / bad arguments / unreadable input or unwritable
output, 3 inadmissible instance, 4 solver, planner invariant, snap,
synthesis, grid, sweep or generation failure, 5 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
import time

from . import io as tio
from . import render as trender
from .discretize import (InadmissibleInstanceError, SnapConsistencyError,
                         discretize)
from .geometry import CoverageError, build_grid, build_workspace
from .ilp import ExhaustiveGuardError, SolverError
from .instances import GenerationError, dense_instance, random_instance
from .paft import (InfeasibleInstanceError, PlannerInvariantError, SwapEngine,
                   SwapSearchError, isag, paft)
from .plan import DiscretePlan
from .prover import SweepError, format_certificate, verify
from .triilp import (HorizonExceededError, SolveReport, _ratio, solve_split,
                     solve_triilp, underestimated_makespan)
from .validate import (SynthesisError, optimality_metrics, synthesize,
                       validate)

EXIT_OK = 0
EXIT_PROOF_FAILED = 1
EXIT_PARSE = 2
EXIT_INADMISSIBLE = 3
EXIT_SOLVER = 4
EXIT_VALIDATION = 5

_METHOD_RE = re.compile(r"^triilp-split-([0-9]+)$")


def _parse_method(name: str) -> tuple[str, int | None]:
    """(name, K) for ``triilp-split-K``, else (name, None)."""
    if name in ("triilp", "paft", "isag"):
        return name, None
    m = _METHOD_RE.match(name)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise tio.ParseError(f"bad split arity in method {name!r}")
        return name, k
    raise tio.ParseError(f"unknown method {name!r}")


def _workspace(word: str):
    try:
        n1, n2 = map(tio.integer, word.lower().split("x"))
    except ValueError:
        raise ValueError(f"size {word!r} is not N1xN2") from None
    return build_workspace(n1, n2)


def _epsilons(text: str) -> list[float]:
    epsilons = [tio.real(word) for word in text.split(",") if word]
    if not epsilons:
        raise ValueError(f"{text!r} names no epsilon")
    if bad := [eps for eps in epsilons if eps <= 0]:
        raise ValueError(f"epsilon {bad[0]!r} is not > 0")
    return epsilons


def _flag(convert, sep: str | None = None):
    """An argparse type: one value, or a ``sep`` list of values, read by
    a converter whose ValueError argparse prints after the flag."""
    def parse(text: str):
        try:
            if sep is None:
                return convert(text)
            return [convert(word) for word in text.split(sep)]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _run_method(method: tuple[str, int | None], dinst, backend: str,
                solver_cmd: str | None, engine: SwapEngine | None = None):
    """Runs a ``_parse_method`` result; returns (DiscretePlan, SolveReport)."""
    name, k = method
    if k is not None:
        return solve_split(dinst, k, backend=backend, solver_cmd=solver_cmd)
    if name == "triilp":
        return solve_triilp(dinst, backend=backend, solver_cmd=solver_cmd)
    t0 = time.perf_counter()
    if name == "isag":
        plan = isag(dinst, engine)
        lo = underestimated_makespan(dinst)
    else:
        plan, rep = paft(dinst, engine)
        lo = rep.max_goal_distance
    return plan, SolveReport(makespan=plan.T, underestimate=lo,
                             optimality_ratio=_ratio(plan.T, lo),
                             wall_time=time.perf_counter() - t0, iterations=0)


def _print_report(pairs: list[tuple[str, object]]) -> None:
    for k, v in pairs:
        print(f"{k}={v}")


def cmd_gen(args) -> int:
    ws = build_workspace(args.n1, args.n2)
    if args.pattern == "dense":
        inst = dense_instance(ws, args.count, args.seed, strict=args.strict)
    else:
        inst = random_instance(ws, args.count, args.seed)
    tio.write_instance(args.out, inst)
    print(f"wrote {args.out} ({inst.n} discs, pattern={args.pattern})")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = tio.read_instance(args.instance)
    ws = inst.workspace
    grid = build_grid(ws)
    dinst, snap_s, snap_g = discretize(inst, grid)
    plan, report = _run_method(args.method, dinst, args.backend,
                               args.solver_cmd)
    cplan = synthesize(inst, grid, plan, snap_s, snap_g)
    vr = validate(cplan, ws)
    if not vr.valid:
        print(f"validation failed: min clearance {vr.min_pair_clearance:.9f}, "
              f"boundary_ok={vr.boundary_ok}; refusing to write the plan",
              file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        with open(args.out, "w") as f:
            if args.plan_mode == "continuous":
                f.write(tio.format_continuous_plan(cplan))
            else:
                f.write(tio.format_discrete_plan(plan))
    _print_report([
        ("method", args.method[0]),
        ("robots", inst.n),
        ("discrete_makespan", report.makespan),
        ("underestimate", report.underestimate),
        ("ratio", f"{report.optimality_ratio:.6f}"),
        ("continuous_makespan", f"{cplan.makespan:.6f}"),
        ("min_pair_clearance", f"{vr.min_pair_clearance:.9f}"),
        ("wall_time", f"{report.wall_time:.3f}"),
        ("plan_file", args.out or "-"),
    ])
    return EXIT_OK


def cmd_prove(args) -> int:
    epsilons = args.epsilons
    passed = False
    for eps in epsilons:
        cert = verify(eps)
        out = f"{args.out}.eps{eps}.cert" if len(epsilons) > 1 else args.out
        with open(out, "w") as f:
            f.write(format_certificate(cert))
        print(f"epsilon={eps}: min_delta={cert.min_delta:.9g} "
              f"verdict={cert.verdict} cases={cert.case_count} -> {out}")
        if cert.passed:
            passed = True
            break
    return EXIT_OK if passed else EXIT_PROOF_FAILED


def cmd_bench(args) -> int:
    # open the outputs first, so a bad path fails before anything is solved
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w")) if args.out else None
        plot = stack.enter_context(open(args.plot, "w")) if args.plot else None
        rows = _bench_rows(args)
        header = ["method", "n", "mean_time", "ratio", "failures"]
        lines = ["\t".join(header)]
        for r in rows:
            lines.append("\t".join([r["method"], str(r["n"]),
                                    f"{r['mean_time']:.6f}", f"{r['ratio']:.6f}",
                                    str(r["failures"])]))
        table = "\n".join(lines) + "\n"
        if out:
            out.write(table)
        print(table, end="")
        if plot:
            plot.write(trender.render_benchmark(rows))
    return EXIT_OK


def _bench_rows(args) -> list[dict]:
    rows = []
    for ws in args.sizes:
        grid = build_grid(ws)
        engine = SwapEngine(grid)
        for n in args.robots:
            for method in args.methods:
                times, steps, failures = [], [], 0
                for k in range(args.count):
                    seed = args.seed + 1000 * k
                    try:
                        if args.pattern == "dense":
                            inst = dense_instance(ws, n, seed)
                        else:
                            inst = random_instance(ws, n, seed)
                        dinst, snap_s, snap_g = discretize(inst, grid)
                        t0 = time.perf_counter()
                        plan, rep = _run_method(method, dinst, args.backend,
                                                args.solver_cmd, engine)
                        times.append(time.perf_counter() - t0)
                        cplan = synthesize(inst, grid, plan, snap_s, snap_g)
                        if not validate(cplan, ws).valid:
                            raise RuntimeError("plan failed validation")
                        steps.append((rep.makespan, rep.underestimate))
                    except Exception as exc:  # noqa: BLE001 - suite continues
                        failures += 1
                        print(f"# failure n1={ws.n1} n2={ws.n2} n={n} "
                              f"method={method[0]} seed={seed}: {exc}",
                              file=sys.stderr)
                mean_time = sum(times) / len(times) if times else float("nan")
                rows.append({"method": method[0], "n": n, "n1": ws.n1,
                             "n2": ws.n2, "mean_time": mean_time,
                             "ratio": optimality_metrics(steps).aggregate,
                             "failures": failures})
    return rows


def cmd_render(args) -> int:
    inst = tio.read_instance(args.instance)
    ws = inst.workspace
    grid = build_grid(ws)
    dplan = cplan = None
    if args.plan:
        loaded = tio.read_plan(args.plan)
        if isinstance(loaded, DiscretePlan):
            dplan = loaded
            if dplan.n != inst.n:
                raise tio.ParseError("plan robot count differs from instance")
            off = dplan.positions[(dplan.positions < 0)
                                  | (dplan.positions >= grid.n_vertices)]
            if off.size:
                raise tio.ParseError(f"plan names vertex {off[0]}, not on the "
                                     f"grid of {grid.n_vertices} vertices")
        else:
            cplan = loaded
            if len(cplan.paths) != inst.n:
                raise tio.ParseError("plan robot count differs from instance")
    svg = trender.render(ws, grid=grid, inst=inst, dplan=dplan, cplan=cplan,
                         mode=args.mode, at=args.time)
    with open(args.out, "w") as f:
        f.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="triroute",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--n1", type=int, required=True)
    g.add_argument("--n2", type=int, required=True)
    g.add_argument("--count", type=_flag(tio.count), required=True)
    g.add_argument("--pattern", choices=["dense", "random"], default="random")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--strict", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="dense pitch 8/3 + 1e-6 (on) or exactly 8/3 (off)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="route an instance and validate the plan")
    s.add_argument("instance")
    s.add_argument("--method", type=_flag(_parse_method), default="triilp",
                   help="triilp | triilp-split-K | paft | isag")
    s.add_argument("--backend", choices=["exhaustive", "external"],
                   default="exhaustive")
    s.add_argument("--solver-cmd", default=None,
                   help="external solver template with {model} {solution} "
                        "({python} available); overrides TRIROUTE_SOLVER_CMD")
    s.add_argument("--plan-mode", choices=["continuous", "discrete"],
                   default="continuous")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    p = sub.add_parser("prove", help="run the separation sweep certificates")
    p.add_argument("--epsilons", type=_flag(_epsilons),
                   default="0.1,0.05,0.025",
                   help="comma list, processed in order, stops at first pass")
    p.add_argument("--out", default="separation.cert")
    p.set_defaults(func=cmd_prove)

    b = sub.add_parser("bench", help="benchmark methods over a suite")
    b.add_argument("--sizes", type=_flag(_workspace, ","), default="2x3",
                   help="comma list of N1xN2")
    b.add_argument("--robots", type=_flag(tio.count, ","), default="4",
                   help="comma list of robot counts")
    b.add_argument("--methods", type=_flag(_parse_method, ","),
                   default="triilp")
    b.add_argument("--pattern", choices=["dense", "random"], default="random")
    b.add_argument("--count", type=_flag(tio.positive), default=3,
                   help="instances per cell")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--backend", choices=["exhaustive", "external"],
                   default="exhaustive")
    b.add_argument("--solver-cmd", default=None)
    b.add_argument("--out", default=None)
    b.add_argument("--plot", default=None)
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("render", help="draw an instance or plan as SVG")
    r.add_argument("--instance", required=True)
    r.add_argument("--plan", default=None)
    r.add_argument("--mode", choices=["snapshot", "trace"], default="snapshot")
    r.add_argument("--time", type=_flag(tio.real), default=0.0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    # clauses match in order; the first two catch ValueErrors that are
    # not parse errors
    try:
        return args.func(args)
    except InadmissibleInstanceError as exc:
        print(f"inadmissible instance: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (InfeasibleInstanceError, SynthesisError, SolverError,
            HorizonExceededError, GenerationError, ExhaustiveGuardError,
            SwapSearchError, PlannerInvariantError, SnapConsistencyError,
            CoverageError, SweepError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:        # ParseError and BoundsError among them
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"I/O error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
