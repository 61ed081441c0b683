"""Exhaustive sweep certifying that grid snapping is collision-free.

Two discs at separation exactly 8/3 are the critical configuration: one
center in the fundamental wedge of a lattice vertex (a 1/12 slice of a
lattice triangle), the other anywhere on the circle of radius 8/3 around
it.  The wedge is covered by an epsilon grid of boxes, the circle by an
annulus cut into roughly-square cells; every (box center, cell center,
candidate target vertex) case is evaluated analytically.  Trajectory
perturbation within a box/cell is at most epsilon per disc, so a minimum
case clearance above 2*epsilon certifies the continuous statement.

All clearances are reported as center distance minus the contact
distance 2 (discs are open, so contact at exactly 2 is not a collision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import SEPARATION
from .geometry import EDGE_LEN, HALF_SHIFT, ROW_STEP, Vec2
from .validate import CONTACT, closest_approach

# fundamental wedge: lattice vertex v=(0,0), edge midpoint x=(s/2, 0),
# triangle centroid o=(s/2, 2/3); region 0<=x<=s/2, 0<=y<=x*(4/(3s))
_WEDGE_X = HALF_SHIFT
_WEDGE_Y = ROW_STEP / 3.0
_WEDGE_SLOPE = _WEDGE_Y / _WEDGE_X


class SweepError(RuntimeError):
    """The sweep found no case to certify, so it proves nothing."""


@dataclass(frozen=True)
class SweepCase:
    s_i: Vec2
    v_i: Vec2
    s_j: Vec2
    v_j: Vec2


@dataclass
class Certificate:
    epsilon: float
    case_count: int
    min_delta: float            # min over cases of (min center distance - 2)
    min_center_distance: float
    worst_case: SweepCase
    verdict: str                # "pass" iff min_delta > 2*epsilon

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def enumerate_region_boxes(epsilon: float) -> list[Vec2]:
    """Centers of all epsilon boxes of an axis-aligned grid (anchored at
    the lattice vertex) that intersect the fundamental wedge."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out = []
    ni = int(math.ceil(_WEDGE_X / epsilon))
    nj = int(math.ceil(_WEDGE_Y / epsilon))
    for i in range(ni):
        x0, x1 = i * epsilon, (i + 1) * epsilon
        if x0 > _WEDGE_X + 1e-12:
            continue
        y_cap = _WEDGE_SLOPE * min(x1, _WEDGE_X)
        for j in range(nj):
            y0 = j * epsilon
            if y0 <= y_cap + 1e-12:
                out.append(Vec2((i + 0.5) * epsilon, (j + 0.5) * epsilon))
    return out


def _lattice_points(ab: np.ndarray) -> np.ndarray:
    """Planar coordinates of integer lattice coordinates (a, b)."""
    a = ab[..., 0]
    b = ab[..., 1]
    return np.stack([a * EDGE_LEN + b * HALF_SHIFT, b * ROW_STEP], axis=-1)


def _nearest_lattice_candidates(points: np.ndarray, tol: float = 1e-9
                                ) -> tuple[np.ndarray, np.ndarray]:
    """For each point, the 3x3 rounded lattice neighborhood with a mask
    marking entries whose distance is within tol of that point's minimum.

    Returns (ab_candidates (N, 9, 2) int, mask (N, 9) bool).
    """
    bf = points[:, 1] / ROW_STEP
    af = points[:, 0] / EDGE_LEN - bf / 2.0
    base = np.stack([np.round(af), np.round(bf)], axis=-1).astype(np.int64)
    offs = np.array([(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1)],
                    dtype=np.int64)
    cand = base[:, None, :] + offs[None, :, :]        # (N, 9, 2)
    latt = _lattice_points(cand)
    d = np.linalg.norm(latt - points[:, None, :], axis=-1)
    dmin = d.min(axis=1)
    mask = d <= (dmin + tol)[:, None]
    return cand, mask


def _annulus_cases(s_i: np.ndarray, epsilon: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All (s_j, v_j) cases for one box center.

    The annulus outer perimeter is split into arcs no longer than
    sqrt(2)*epsilon, giving roughly square cells; cell centers sit at
    radius exactly 8/3.  Candidate target vertices are all lattice
    vertices within 1e-9 of minimal distance to any corner (or the
    center) of the cell, except the origin vertex itself: the snapping
    assignment is injective, so the second disc can never share the
    first disc's target.  (Origin candidates only arise as cell
    discretization artifacts of that excluded boundary case.)

    Returns (s_j (K, 2), v_j (K, 2)).
    """
    half = math.sqrt(2.0) * epsilon / 2.0
    r_out = SEPARATION + half
    n_cells = int(math.ceil(2.0 * math.pi * r_out / (math.sqrt(2.0) * epsilon)))
    theta = (np.arange(n_cells) + 0.5) * (2.0 * math.pi / n_cells)
    radial = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    tangent = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    centers = s_i[None, :] + SEPARATION * radial

    probes = np.concatenate([
        centers[:, None, :],
        centers[:, None, :] + half * (radial + tangent)[:, None, :],
        centers[:, None, :] + half * (radial - tangent)[:, None, :],
        centers[:, None, :] + half * (-radial + tangent)[:, None, :],
        centers[:, None, :] + half * (-radial - tangent)[:, None, :],
    ], axis=1)                                        # (M, 5, 2)
    flat = probes.reshape(-1, 2)
    cand, mask = _nearest_lattice_candidates(flat)
    cell_idx = np.repeat(np.arange(n_cells), 5)
    cell_idx = np.repeat(cell_idx[:, None], 9, axis=1)

    not_origin = (cand[..., 0] != 0) | (cand[..., 1] != 0)
    sel = (mask & not_origin).reshape(-1)
    cells = cell_idx.reshape(-1)[sel]
    abs_sel = cand.reshape(-1, 2)[sel]
    # dedupe (cell, a, b) triples
    key = np.stack([cells, abs_sel[:, 0], abs_sel[:, 1]], axis=-1)
    uniq = np.unique(key, axis=0)
    s_j = centers[uniq[:, 0]]
    v_j = _lattice_points(uniq[:, 1:].astype(np.float64))
    return s_j, v_j


def verify(epsilon: float) -> Certificate:
    """Run the full sweep at one epsilon and certify the clearance bound."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    boxes = enumerate_region_boxes(epsilon)
    best = math.inf
    best_case: SweepCase | None = None
    case_count = 0
    for box in boxes:
        s_i = np.array([box.x, box.y])
        s_j, v_j = _annulus_cases(s_i, epsilon)
        case_count += len(s_j)
        # disc i moves from s_i to the origin, disc j from s_j to v_j
        d0, dm, d1, _ = closest_approach((s_j - s_i).T, (v_j - s_j + s_i).T)
        d = np.sqrt(np.minimum(np.minimum(d0, d1), dm))
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
            best_case = SweepCase(s_i=box, v_i=Vec2(0.0, 0.0),
                                  s_j=Vec2(*s_j[i]), v_j=Vec2(*v_j[i]))
    if best_case is None:
        raise SweepError(
            f"the sweep at epsilon={epsilon} found no case with a finite clearance")
    min_delta = best - CONTACT
    verdict = "pass" if min_delta > 2.0 * epsilon else "fail"
    return Certificate(epsilon=epsilon, case_count=case_count,
                       min_delta=min_delta, min_center_distance=best,
                       worst_case=best_case, verdict=verdict)


def format_certificate(cert: Certificate) -> str:
    """Text report; min_delta carries 9 significant digits."""
    wc = cert.worst_case
    lines = [
        "separation-sweep certificate",
        f"epsilon {cert.epsilon!r}",
        f"case_count {cert.case_count}",
        f"min_delta {cert.min_delta:.9g}",
        f"min_center_distance {cert.min_center_distance:.9g}",
        f"worst_si {wc.s_i.x!r} {wc.s_i.y!r}",
        f"worst_vi {wc.v_i.x!r} {wc.v_i.y!r}",
        f"worst_sj {wc.s_j.x!r} {wc.s_j.y!r}",
        f"worst_vj {wc.v_j.x!r} {wc.v_j.y!r}",
        f"verdict {cert.verdict}",
    ]
    return "\n".join(lines) + "\n"
