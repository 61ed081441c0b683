"""Instance generators: dense triangular packings and random placements."""

from __future__ import annotations

import math
import random

from .discretize import SEPARATION, ContinuousInstance
from .geometry import Vec2, Workspace


# candidate points rejection sampling draws per configuration
SAMPLE_ATTEMPTS = 20000


class GenerationError(RuntimeError):
    """Could not place the requested number of discs."""


def dense_points(ws: Workspace, strict: bool = True) -> list[Vec2]:
    """Triangular packing of the inset box at pitch 8/3 (+1e-6 when strict,
    since the separation requirement is a strict inequality)."""
    pitch = SEPARATION + (1e-6 if strict else 0.0)
    row_h = pitch * math.sqrt(3.0) / 2.0
    pts = []
    y = 1.0
    row = 0
    while y <= ws.h - 1.0 + 1e-12:
        x = 1.0 + (pitch / 2.0 if row % 2 else 0.0)
        while x <= ws.w - 1.0 + 1e-12:
            pts.append(Vec2(x, y))
            x += pitch
        y += row_h
        row += 1
    return pts


def dense_instance(ws: Workspace, count: int, seed: int,
                   strict: bool = True) -> ContinuousInstance:
    """First `count` packing positions; goals are the same positions under
    a seeded random relabeling."""
    pts = dense_points(ws, strict=strict)
    if count > len(pts):
        raise GenerationError(
            f"workspace fits {len(pts)} discs at pitch 8/3, wanted {count}")
    starts = pts[:count]
    rng = random.Random(seed)
    perm = list(range(count))
    rng.shuffle(perm)
    goals = [starts[perm[i]] for i in range(count)]
    return ContinuousInstance(workspace=ws, starts=tuple(starts),
                              goals=tuple(goals))


def _sample_config(ws: Workspace, count: int, rng: random.Random
                   ) -> list[Vec2]:
    pts: list[Vec2] = []
    budget = SAMPLE_ATTEMPTS
    while len(pts) < count:
        if budget <= 0:
            raise GenerationError(
                f"rejection sampling exhausted after {SAMPLE_ATTEMPTS} "
                f"attempts ({len(pts)}/{count} placed)")
        budget -= 1
        p = Vec2(rng.uniform(1.0, ws.w - 1.0), rng.uniform(1.0, ws.h - 1.0))
        if all(p.dist(q) > SEPARATION + 1e-9 for q in pts):
            pts.append(p)
    return pts


def packing_bound(ws: Workspace) -> int:
    """Most disc centres at pairwise separation d = 8/3 that the inset box
    [1, w - 1] x [1, h - 1] holds, by Oler's bound for points at least d
    apart in a convex region of area A and perimeter P:
    N <= 2A / (sqrt(3) d^2) + P / (2d) + 1."""
    a, b = ws.w - 2.0, ws.h - 2.0
    return math.floor(2.0 * a * b / (math.sqrt(3.0) * SEPARATION ** 2)
                      + (a + b) / SEPARATION + 1.0 + 1e-9)


def random_instance(ws: Workspace, count: int, seed: int
                    ) -> ContinuousInstance:
    """Rejection-sampled starts and goals at pairwise separation > 8/3.
    A count above packing_bound is rejected before any draw."""
    bound = packing_bound(ws)
    if count > bound:
        raise GenerationError(
            f"workspace holds at most {bound} discs at separation 8/3, "
            f"wanted {count}")
    rng = random.Random(seed)
    starts = _sample_config(ws, count, rng)
    goals = _sample_config(ws, count, rng)
    return ContinuousInstance(workspace=ws, starts=tuple(starts),
                              goals=tuple(goals))
