import math
import random

import numpy as np
import pytest

from _oracles import MovingDisc, min_pair_distance, sampled_min_distance
from conftest import kernel_min_distance
from triroute.geometry import EDGE_LEN, Vec2
from triroute.cli import main as cli_main
from triroute.prover import (SweepError, _annulus_cases,
                             enumerate_region_boxes, format_certificate,
                             verify)

SEP = 8.0 / 3.0
WEDGE_AREA = EDGE_LEN / 6.0  # right triangle: vertex, edge midpoint, centroid


def _annulus_cells(s_i: Vec2, epsilon: float
                   ) -> list[tuple[Vec2, list[Vec2]]]:
    """The sweep's cases around s_i grouped by cell: each cell center with
    its candidate target vertices, in the sweep's order."""
    s_j, v_j = _annulus_cases(np.array([s_i.x, s_i.y]), epsilon)
    by_cell: dict[tuple[float, float], list[Vec2]] = {}
    for (sx, sy), (vx, vy) in zip(s_j.tolist(), v_j.tolist()):
        by_cell.setdefault((sx, sy), []).append(Vec2(vx, vy))
    return [(Vec2(*k), cands) for k, cands in by_cell.items()]


def _kernel(a: MovingDisc, b: MovingDisc) -> float:
    a0, a1, b0, b1 = (np.array([[p.x, p.y]]) for p in (*a, *b))
    return float(kernel_min_distance(a0, a1, b0, b1)[0])


def test_min_pair_distance_head_on_stops_at_two():
    a = MovingDisc(Vec2(0, 0), Vec2(1, 0))
    b = MovingDisc(Vec2(4, 0), Vec2(3, 0))
    assert abs(min_pair_distance(a, b) - 2.0) < 1e-12
    assert abs(_kernel(a, b) - 2.0) < 1e-12


def test_min_pair_distance_stationary():
    a = MovingDisc(Vec2(0, 0), Vec2(0, 0))
    b = MovingDisc(Vec2(SEP, 0), Vec2(SEP, 0))
    assert abs(min_pair_distance(a, b) - SEP) < 1e-12
    assert abs(_kernel(a, b) - SEP) < 1e-12


def test_min_pair_distance_matches_dense_sampling():
    rng = random.Random(3)
    n = 20000
    pts = np.array([[rng.uniform(-3, 3) for _ in range(8)] for _ in range(n)])
    a0, a1, b0, b1 = pts[:, 0:2], pts[:, 2:4], pts[:, 4:6], pts[:, 6:8]
    analytic = kernel_min_distance(a0, a1, b0, b1)
    samples = 10_000
    for i in range(0, n, 97):
        sampled = sampled_min_distance(a0[i], a1[i], b0[i], b1[i], samples)
        assert analytic[i] <= sampled + 1e-12
        # squared distance is quadratic in t with leading coefficient
        # |dv|^2, so the sampling grid overshoots by at most (|dv| dt/2)^2
        dv = (b1[i] - b0[i]) - (a1[i] - a0[i])
        bound = (np.linalg.norm(dv) * (1.0 / (samples - 1)) / 2) ** 2
        assert sampled**2 - analytic[i]**2 <= bound + 1e-12
        if analytic[i] > 0.1:
            assert abs(analytic[i] - sampled) < 1e-6
    # the one-pair oracle agrees with the kernel
    for i in range(0, n, 501):
        s = min_pair_distance(MovingDisc(Vec2(*a0[i]), Vec2(*a1[i])),
                              MovingDisc(Vec2(*b0[i]), Vec2(*b1[i])))
        assert abs(s - analytic[i]) < 1e-12


def test_region_boxes_single_box_for_huge_epsilon():
    # wedge diameter is 4/3, so one box suffices beyond that
    assert len(enumerate_region_boxes(1.4)) == 1


def test_region_wedge_area_closed_form():
    # independent shoelace oracle over the wedge corners
    v = (0.0, 0.0)
    x = (EDGE_LEN / 2.0, 0.0)
    o = (EDGE_LEN / 2.0, 2.0 / 3.0)
    shoelace = 0.5 * abs(v[0] * (x[1] - o[1]) + x[0] * (o[1] - v[1])
                         + o[0] * (v[1] - x[1]))
    assert abs(shoelace - WEDGE_AREA) < 1e-12
    assert abs(WEDGE_AREA - EDGE_LEN / 6.0) < 1e-12


def test_region_box_count_tracks_area():
    eps = 0.025
    boxes = enumerate_region_boxes(eps)
    ideal = WEDGE_AREA / eps**2
    assert ideal / 2 <= len(boxes) <= 2 * ideal


def test_region_boxes_reject_bad_epsilon():
    with pytest.raises(ValueError):
        enumerate_region_boxes(0.0)


def test_annulus_cell_count_and_membership():
    eps = 0.025
    s_i = Vec2(0.3, 0.1)
    cells = _annulus_cells(s_i, eps)
    expected = math.ceil(2 * math.pi * (SEP + math.sqrt(2) * eps / 2)
                          / (math.sqrt(2) * eps))
    assert abs(len(cells) - expected) <= 1
    for s_j, cands in cells:
        assert abs(s_i.dist(s_j) - SEP) <= math.sqrt(2) * eps / 2 + 1e-9
        assert len(cands) >= 1
        for v in cands:
            assert (v.x, v.y) != (0.0, 0.0)  # injectivity excludes the origin


def test_verify_passes_at_low_epsilon():
    cert = verify(0.05)
    assert cert.passed
    assert cert.min_delta > 2 * 0.05
    assert cert.case_count > 10_000


def test_verify_fails_at_large_epsilon():
    cert = verify(0.5)
    assert not cert.passed
    assert cert.min_delta <= 2 * 0.5


def test_empty_sweep_raises_sweep_error(monkeypatch, tmp_path):
    monkeypatch.setattr("triroute.prover.enumerate_region_boxes",
                        lambda epsilon: [])
    with pytest.raises(SweepError, match="no case"):
        verify(0.5)
    assert cli_main(["prove", "--epsilons", "0.5",
                     "--out", str(tmp_path / "c.cert")]) == 4


def test_verify_monotone_up_to_discretization_noise():
    deltas = {}
    for eps in (0.1, 0.05):
        deltas[eps] = verify(eps).min_delta
    assert deltas[0.05] <= deltas[0.1] + 4 * 0.05


def test_sweep_soundness_on_sampled_cases():
    # perturbing both endpoints inside their cells keeps the true minimum
    # within the 2-epsilon displacement bound of the swept value
    eps = 0.05
    rng = random.Random(8)
    boxes = enumerate_region_boxes(eps)
    for bi in range(0, len(boxes), 37):
        s_i = boxes[bi]
        cells = _annulus_cells(s_i, eps)
        s_j, cands = cells[rng.randrange(len(cells))]
        v_j = cands[0]
        base = min_pair_distance(MovingDisc(s_i, Vec2(0, 0)),
                                 MovingDisc(s_j, v_j))
        for _ in range(20):
            dx = rng.uniform(-eps / 2, eps / 2)
            dy = rng.uniform(-eps / 2, eps / 2)
            half = math.sqrt(2) * eps / 2
            ex = rng.uniform(-half, half)
            ey = rng.uniform(-half, half)
            moved = min_pair_distance(
                MovingDisc(Vec2(s_i.x + dx, s_i.y + dy), Vec2(0, 0)),
                MovingDisc(Vec2(s_j.x + ex, s_j.y + ey), v_j))
            assert moved >= base - 2 * eps - 1e-9


def test_sweep_coverage_of_admissible_pairs():
    # every exact-separation pair with s_i in the wedge lands inside some
    # enumerated (box, cell) case
    eps = 0.05
    rng = random.Random(12)
    boxes = enumerate_region_boxes(eps)
    for _ in range(200):
        x = rng.uniform(0, EDGE_LEN / 2)
        y = rng.uniform(0, x * (2.0 / 3.0) / (EDGE_LEN / 2))
        theta = rng.uniform(0, 2 * math.pi)
        sx, sy = x + SEP * math.cos(theta), y + SEP * math.sin(theta)
        box = min(boxes, key=lambda b: max(abs(b.x - x), abs(b.y - y)))
        assert max(abs(box.x - x), abs(box.y - y)) <= eps / 2 + 1e-12
        cells = _annulus_cells(box, eps)
        inside = any(
            abs(Vec2(sx, sy).dist(c) ) <= math.sqrt(2) * eps + 1e-9
            for c, _ in cells)
        assert inside


def test_certificate_format():
    cert = verify(0.5)
    text = format_certificate(cert)
    assert text.startswith("separation-sweep certificate\n")
    assert f"min_delta {cert.min_delta:.9g}" in text
    assert "verdict fail" in text
    assert "worst_si" in text and "worst_vj" in text
