"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines and the logged (not asserted) substitute measurements.
"""

import math
import random
import time

import numpy as np
import pytest

from _oracles import (joint_bfs_makespan, max_segment_speed, model_rows,
                      sampled_min_distance, sharp_angle_rows,
                      snap_clearance_infimum)
from conftest import (full_occupancy_instance, hex_covers,
                      kernel_min_distance, random_discrete_instance)
from triroute import io as tio
from triroute.cli import main as cli_main
from triroute.discretize import DiscreteInstance, discretize, snap
from triroute.geometry import (EDGE_LEN, build_grid, build_workspace,
                               density_limit, triangle_circumradius)
from triroute.ilp import build_model, solve
from triroute.instances import dense_instance, random_instance
from triroute.paft import SwapEngine, isag, paft
from triroute.plan import check_plan
from triroute.prover import verify
from triroute.triilp import (solve_split, solve_triilp,
                             underestimated_makespan)
from triroute.validate import (optimality_metrics, synthesize,
                               synthesize_discrete, validate)

CLEAR = 2.0 - 1e-9


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1

PUBLISHED_MIN_DELTA = 0.076


@pytest.fixture(scope="module")
def sweep_0025():
    return verify(0.025)


def test_proof_reproduction_certificate(tmp_path, sweep_0025):
    t0 = time.perf_counter()
    cert_path = tmp_path / "sep.cert"
    code = cli_main(["prove", "--epsilons", "0.025", "--out", str(cert_path)])
    elapsed = time.perf_counter() - t0
    text = cert_path.read_text()
    cert = sweep_0025
    ok = (code == 0 and "verdict pass" in text
          and cert.min_delta > 2 * 0.025 and elapsed < 300.0)
    assert _report("proof-certificate",
                   ok, f"min_delta={cert.min_delta:.6f} > 0.05, "
                       f"runtime={elapsed:.1f}s < 300s")


def _is_nearest_lattice_vertex(p, v, tol=1e-9):
    """v is a lattice vertex a*(EDGE_LEN, 0) + b*(EDGE_LEN/2, 2) and no
    lattice vertex near p is closer than v by more than tol."""
    b = v[1] / 2.0
    a = v[0] / EDGE_LEN - b / 2.0
    if abs(a - round(a)) > 1e-9 or abs(b - round(b)) > 1e-9:
        return False
    bp = round(p[1] / 2.0)
    ap = round(p[0] / EDGE_LEN - bp / 2.0)
    dv = math.dist(p, v)
    return all(math.dist(p, ((ap + da) * EDGE_LEN + (bp + db) * EDGE_LEN / 2,
                             2.0 * (bp + db))) >= dv - tol
               for da in range(-2, 3) for db in range(-2, 3))


def test_proof_reproduction_reported_band(sweep_0025):
    # A sound sweep reports the snap-phase clearance infimum to within
    # 2*epsilon (prover docstring: box and cell centers are within epsilon
    # of every configuration they stand for).  The infimum comes from an
    # independent oracle: a dense search plus local refinement over the
    # closed wedge, the partner at exactly 8/3 and every nearest target
    # but the origin.  It is ~0.1690, attained at the wedge corners.  The
    # published ~0.076 lies 0.093 below it, outside the band, so it is
    # kept only as a one-sided margin the certificate must not undercut.
    cert = sweep_0025
    eps = cert.epsilon
    oracle = snap_clearance_infimum()

    # the oracle's witness is an admissible critical configuration
    x, y = oracle.s_i
    assert abs(math.dist(oracle.s_i, oracle.s_j) - 8.0 / 3.0) <= 1e-9
    assert -1e-12 <= x <= EDGE_LEN / 2 + 1e-12
    assert -1e-12 <= y and y * EDGE_LEN / 2 <= x * 2.0 / 3.0 + 1e-12
    assert oracle.v_j.any() and _is_nearest_lattice_vertex(oracle.s_j,
                                                           oracle.v_j)
    sampled = sampled_min_distance(oracle.s_i, np.zeros(2),
                                   oracle.s_j, oracle.v_j) - 2.0
    assert abs(sampled - oracle.infimum) <= 1e-6

    gap = abs(cert.min_delta - oracle.infimum)
    ok = gap <= 2 * eps and cert.min_delta >= PUBLISHED_MIN_DELTA
    _report("proof-band", ok,
            f"min_delta={cert.min_delta:.6f}, oracle infimum="
            f"{oracle.infimum:.6f}, gap={gap:.6f} <= 2*eps={2 * eps}, "
            f">= published {PUBLISHED_MIN_DELTA}")
    assert ok, (
        f"min_delta {cert.min_delta:.6f} is not within 2*eps={2 * eps} of "
        f"the oracle's clearance infimum {oracle.infimum:.6f}, or falls "
        f"below the published margin {PUBLISHED_MIN_DELTA}")


# ---------------------------------------------------------------- criterion 2

def test_density_constant():
    value = density_limit()
    ok = abs(value - 0.5101) <= 0.0005
    assert _report("density-constant", ok, f"density_limit={value:.6f}")


# ---------------------------------------------------------------- criterion 3

def test_geometry_constants():
    g = build_grid(build_workspace(3, 3))
    edge_ok = all(abs(g.vertices[i].dist(g.vertices[j]) - EDGE_LEN) <= 1e-9
                  for i, j in g.edges)
    circ_ok = abs(triangle_circumradius() - 4.0 / 3.0) <= 1e-9
    hex_ok = True
    for cover in hex_covers(g):
        for ring in cover:
            for idx in range(6):
                a = g.vertices[ring[idx]]
                b = g.vertices[ring[(idx + 1) % 6]]
                c = g.vertices[ring[(idx + 2) % 6]]
                u, w = a - b, c - b
                cosang = u.dot(w) / (u.norm() * w.norm())
                if abs(cosang + 0.5) > 1e-9:
                    hex_ok = False
    ok = edge_ok and circ_ok and hex_ok
    assert _report("geometry-constants", ok,
                   f"edge={EDGE_LEN:.9f} circumradius={triangle_circumradius():.9f} "
                   f"hex_angles=120deg")


# ---------------------------------------------------------------- criterion 4

def test_lemma1_property_suite():
    sizes = [(2, 3, 4), (3, 3, 6), (3, 4, 8), (4, 5, 11), (5, 4, 11)]
    grids = {(n1, n2): build_grid(build_workspace(n1, n2))
             for n1, n2, _ in sizes}
    injective = clear = 0
    total = 1000
    worst = math.inf
    for k in range(total):
        n1, n2, cap = sizes[k % len(sizes)]
        ws = grids[(n1, n2)].workspace
        g = grids[(n1, n2)]
        inst = random_instance(ws, 2 + (k % cap), seed=k)
        ok_inj = True
        min_d = math.inf
        for which in ("starts", "goals"):
            res = snap(inst, g, which)
            if len(set(res.assignment)) != inst.n:
                ok_inj = False
                continue
            pts = inst.starts if which == "starts" else inst.goals
            a0 = np.array([[p.x, p.y] for p in pts])
            a1 = np.array([[g.vertices[v].x, g.vertices[v].y]
                           for v in res.assignment])
            n = inst.n
            ii, jj = np.triu_indices(n, k=1)
            d = kernel_min_distance(a0[ii], a1[ii], a0[jj], a1[jj])
            if len(d):
                min_d = min(min_d, float(d.min()))
        injective += ok_inj
        if min_d >= CLEAR:
            clear += 1
        worst = min(worst, min_d)
    ok = injective == total and clear == total
    assert _report("lemma1-suite", ok,
                   f"injective {injective}/{total}, clearance {clear}/{total}, "
                   f"worst snap-phase distance {worst:.9f}")


# ---------------------------------------------------------------- criterion 5

def test_oracle_equivalence_and_backend_agreement():
    g18 = build_grid(build_workspace(2, 3))   # 18 vertices
    g25 = build_grid(build_workspace(3, 3))   # 25 vertices
    matches = 0
    cases = []
    for seed in range(30):
        cases.append((g18, random_discrete_instance(g18, 2, seed)))
    for seed in range(10):
        cases.append((g25, random_discrete_instance(g25, 2, 100 + seed)))
    for seed in range(12):
        cases.append((g18, random_discrete_instance(g18, 3, 200 + seed)))
    for g, inst in cases:
        opt = joint_bfs_makespan(g, inst.v_starts, inst.v_goals, cap=14)
        assert opt is not None
        plan, rep = solve_triilp(inst)
        assert rep.makespan == opt, (inst.v_starts, inst.v_goals,
                                     rep.makespan, opt)
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        matches += 1

    agree = 0
    for seed in range(10):
        inst = random_discrete_instance(g18, 2, 300 + seed)
        T = max(1, underestimated_makespan(inst))
        model = build_model(inst, T)
        a = solve(model, backend="exhaustive")
        b = solve(model, backend="external")
        assert a.objective_value == b.objective_value
        agree += 1
    ok = matches >= 50 and agree >= 10
    assert _report("oracle-equivalence", ok,
                   f"{matches} oracle matches, {agree} backend agreements")


# ---------------------------------------------------------------- criterion 6

def test_constraint_semantics():
    g = build_grid(build_workspace(2, 3))
    a, b = g.edges[0]
    head_on = solve(build_model(DiscreteInstance(
        grid=g, v_starts=(a, b), v_goals=(b, a)), 1)).objective_value
    ta, tb, tc = g.triangles[0]
    tri = solve(build_model(DiscreteInstance(
        grid=g, v_starts=(ta, tb), v_goals=(tb, tc)), 1)).objective_value
    # straight two-edge corridor: the midpoint is the unique length-2 route
    m = next(m for m in range(g.n_rows) if g.row_len[m] >= 3)
    u, mid, w = (g.row_start[m] + k for k in (0, 1, 2))
    vertex = solve(build_model(DiscreteInstance(
        grid=g, v_starts=(u, mid), v_goals=(w, mid)), 2)).objective_value

    inst = DiscreteInstance(grid=g, v_starts=(1, 6), v_goals=(6, 1))
    model = build_model(inst, 2, prune=False)
    angle_rows = sharp_angle_rows(model)
    tri_rows = [(terms, rhs) for terms, s, rhs in model_rows(model)
                if s == "<=" and len(terms) > 2]
    col_tris = {}
    for k, (terms, rhs) in enumerate(tri_rows):
        for _, c in terms:
            col_tris.setdefault(c, []).append(k)
    rng = random.Random(1)
    nvar = len(model.variables)
    cols = list(range(nvar))
    implied = 0
    for _ in range(10_000):
        # build a random assignment that satisfies every triangle row
        rng.shuffle(cols)
        used_tris = set()
        assign = [False] * nvar
        ones = 0
        for c in cols:
            tris = col_tris.get(c, ())
            if any(t in used_tris for t in tris):
                continue
            assign[c] = True
            used_tris.update(tris)
            ones += 1
            if ones >= 40:
                break
        assert all(sum(assign[c] for _, c in terms) <= rhs
                   for terms, rhs in tri_rows)
        if all(sum(assign[c] for _, c in terms) <= rhs
               for terms, _, rhs in angle_rows):
            implied += 1
        else:
            implied = -10**9
    ok = head_on < 2 and tri < 2 and vertex < 2 and implied == 10_000
    assert _report("constraint-semantics", ok,
                   f"head_on={head_on} triangle={tri} vertex={vertex} "
                   f"implication on 10^4 assignments holds")


# ---------------------------------------------------------------- criterion 7

def test_planner_validity_suite():
    checked = 0
    failures = []

    def continuous_case(method, n1, n2, n, seed):
        nonlocal checked
        ws = build_workspace(n1, n2)
        g = build_grid(ws)
        inst = random_instance(ws, n, seed)
        dinst, ss, sg = discretize(inst, g)
        if method == "triilp":
            plan, _ = solve_triilp(dinst)
        elif method == "split":
            plan, _ = solve_split(dinst, 2)
        elif method == "isag":
            plan = isag(dinst)
        else:
            plan, _ = paft(dinst)
        cp = synthesize(inst, g, plan, ss, sg)
        vr = validate(cp, ws)
        speed = max_segment_speed(cp)
        if not (vr.valid and vr.min_pair_clearance >= CLEAR
                and speed <= 1.0 + 1e-9):
            failures.append((method, n1, n2, seed, vr.min_pair_clearance))
        checked += 1

    def discrete_full_case(method, n1, n2, seed, engine_cache={}):
        nonlocal checked
        key = (n1, n2)
        if key not in engine_cache:
            g = build_grid(build_workspace(n1, n2))
            engine_cache[key] = (g, SwapEngine(g))
        g, engine = engine_cache[key]
        inst = full_occupancy_instance(g, seed)
        if method == "isag":
            plan = isag(inst, engine)
        else:
            plan, _ = paft(inst, engine)
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        cp = synthesize_discrete(g, plan)
        vr = validate(cp, g.workspace)
        speed = max_segment_speed(cp)
        if not (vr.valid and vr.min_pair_clearance >= CLEAR
                and speed <= 1.0 + 1e-9):
            failures.append((method + "-full", n1, n2, seed,
                             vr.min_pair_clearance))
        checked += 1

    for seed in range(20):
        continuous_case("triilp", 2, 3, 2 + seed % 3, seed)
    for seed in range(20):
        continuous_case("split", 3, 3, 2 + seed % 3, 50 + seed)
    for seed in range(10):
        continuous_case("isag", 2, 3, 2 + seed % 3, 100 + seed)
    for seed in range(10):
        continuous_case("paft", 3, 3, 2 + seed % 4, 150 + seed)
    for seed in range(10):
        discrete_full_case("isag", 2, 3, seed)
    for seed in range(10):
        discrete_full_case("isag", 2, 4, 20 + seed)
    for seed in range(10):
        discrete_full_case("paft", 2, 3, 40 + seed)
    for seed in range(10):
        discrete_full_case("paft", 3, 3, 60 + seed)

    ok = checked >= 100 and not failures
    assert _report("planner-validity", ok,
                   f"{checked} plans validated, failures={failures[:3]}")


# ---------------------------------------------------------------- criterion 8

def test_ratio_accounting():
    g = build_grid(build_workspace(2, 3))
    rows = []
    for seed in range(10):
        inst = random_discrete_instance(g, 2, 400 + seed)
        _, rep = solve_triilp(inst)
        rows.append((rep.makespan, rep.underestimate))
    m = optimality_metrics(rows)
    recomputed = sum(t for t, _ in rows) / sum(h for _, h in rows)
    identity = optimality_metrics([(0, 0)] * 5)
    ok = abs(m.aggregate - recomputed) < 1e-12 and identity.aggregate == 1.0
    assert _report("ratio-accounting", ok,
                   f"aggregate={m.aggregate:.6f} recomputed={recomputed:.6f} "
                   f"identity=1.0")


# ---------------------------------------------------------------- criterion 9

def test_substitute_benchmarks_logged():
    # The published timing/ratio table values are hardware- and
    # solver-bound; these substitutes are solved and logged instead.
    ws = build_workspace(2, 3)
    g = build_grid(ws)
    rng = random.Random(0)
    starts = tuple(rng.sample(range(g.n_vertices), 10))
    goals = tuple(rng.sample(range(g.n_vertices), 10))
    dinst = DiscreteInstance(grid=g, v_starts=starts, v_goals=goals)
    t0 = time.perf_counter()
    plan, rep = solve_triilp(dinst, backend="external")
    t_min = time.perf_counter() - t0
    ok_min = t_min < 600.0 and not check_plan(g, plan, starts, goals)
    print(f"  [logged] 10-robot minimal-grid external solve: "
          f"makespan={rep.makespan} underestimate={rep.underestimate} "
          f"time={t_min:.1f}s")

    ws2 = build_workspace(3, 5)
    g2 = build_grid(ws2)
    inst2 = dense_instance(ws2, 20, seed=1)
    dinst2, ss2, sg2 = discretize(inst2, g2)
    t0 = time.perf_counter()
    plan2, rep2 = solve_triilp(dinst2, backend="external")
    t_fig = time.perf_counter() - t0
    cp2 = synthesize(inst2, g2, plan2, ss2, sg2)
    vr2 = validate(cp2, ws2)
    print(f"  [logged] dense 20-robot instance: makespan={rep2.makespan} "
          f"ratio={rep2.optimality_ratio:.3f} time={t_fig:.1f}s "
          f"min_clearance={vr2.min_pair_clearance:.6f}")
    ok = ok_min and vr2.valid
    assert _report("substitute-benchmarks", ok,
                   f"10-robot in {t_min:.1f}s < 600s; 20-robot plan valid, "
                   f"ratio logged")


# --------------------------------------------------------------- criterion 10

# makespan / d_g of the seed-7 full-occupancy instances below, as recorded
# when routing became three phases of parallel sorts along the columns,
# rows and columns; a longer plan on any size fails the scaling test
PAFT_RATIO_BOUNDS = (1691 / 7, 2591 / 11, 4097 / 18, 6895 / 23)


def test_paft_scaling():
    sizes = [(4, 5), (6, 7), (9, 10), (11, 17)]   # |V| = 50, 98, 200, 403
    vs, times, ratios = [], [], []
    rng = random.Random(99)
    for n1, n2 in sizes:
        g = build_grid(build_workspace(n1, n2))
        engine = SwapEngine(g)
        for a in sorted(g.covered):          # warm the schedule caches
            for b in g.adjacency[a]:
                if b > a and b in g.covered:
                    engine.schedule_for_pair(a, b)
        inst = full_occupancy_instance(g, seed=7)
        best = math.inf
        # best of three process CPU times at every size, so load from other
        # processes and one slow repetition do not move the slope
        for _ in range(3):
            t0 = time.process_time()
            plan, rep = paft(inst, engine)
            best = min(best, time.process_time() - t0)
        vs.append(g.n_vertices)
        times.append(best)
        ratios.append(rep.ratio)
    lx = np.log(np.array(vs, dtype=float))
    ly = np.log(np.array(times))
    slope = float(np.polyfit(lx, ly, 1)[0])
    # each phase sorts paths of O(rows + cols) slots, so the transpositions
    # grow like |V| (rows + cols), about |V|^1.5; one serial sort over the
    # snake, Theta(|V|) rounds, measures 2.1, above the band
    ok = 1.2 <= slope <= 2.0 and all(
        r <= bound + 1e-9 for r, bound in zip(ratios, PAFT_RATIO_BOUNDS))
    assert _report(
        "paft-scaling", ok,
        f"sizes={vs} times={[f'{t:.3f}' for t in times]} slope={slope:.2f} "
        f"in [1.2, 2.0]; makespan/d_g ratios={[f'{r:.0f}' for r in ratios]} "
        f"bounded by recorded {[f'{b:.0f}' for b in PAFT_RATIO_BOUNDS]}")


# PAFT makespans of dense partial occupancies (`gen --pattern dense`):
# (n1, n2, count, seed) -> steps, as recorded when routing became three
# phases of parallel sorts; a longer plan on any instance fails
PAFT_PARTIAL_MAKESPANS = {(2, 3, 6, 4): 16, (4, 5, 20, 3): 37,
                          (4, 5, 30, 1): 63, (6, 7, 40, 2): 89,
                          (6, 7, 63, 5): 139}


def test_paft_partial_occupancy_makespans():
    got = {}
    for (n1, n2, count, seed), bound in PAFT_PARTIAL_MAKESPANS.items():
        ws = build_workspace(n1, n2)
        g = build_grid(ws)
        inst, _, _ = discretize(dense_instance(ws, count, seed), g)
        plan = paft(inst)[0]
        assert not check_plan(g, plan, inst.v_starts, inst.v_goals)
        got[n1, n2, count, seed] = plan.T
    ok = all(got[k] <= bound for k, bound in PAFT_PARTIAL_MAKESPANS.items())
    assert _report("paft-partial-makespans", ok,
                   f"makespans={got} bounded by recorded "
                   f"{PAFT_PARTIAL_MAKESPANS}")
