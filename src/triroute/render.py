"""Deterministic SVG drawings of workspaces, instances, and plans.

Output bytes depend only on the inputs: floats are emitted at fixed
precision and elements in a fixed order, so renders are diffable and
usable as golden files.
"""

from __future__ import annotations

import math

import numpy as np

from .discretize import ContinuousInstance
from .geometry import TriGrid, Vec2, Workspace
from .plan import DiscretePlan
from .validate import ContinuousPlan

_SCALE = 40.0
_PAD = 10.0

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]


def _f(x: float) -> str:
    return f"{x:.4f}"


class _Svg:
    def __init__(self, w: float, h: float):
        self.w = w
        self.h = h
        self.parts: list[str] = []

    def x(self, wx: float) -> str:
        return _f(_PAD + wx * _SCALE)

    def y(self, wy: float) -> str:
        return _f(_PAD + (self.h - wy) * _SCALE)

    def line(self, a: Vec2, b: Vec2, stroke: str, width: float) -> None:
        self.parts.append(
            f'<line x1="{self.x(a.x)}" y1="{self.y(a.y)}" x2="{self.x(b.x)}" '
            f'y2="{self.y(b.y)}" stroke="{stroke}" stroke-width="{_f(width)}"/>')

    def circle(self, c: Vec2, r: float, fill: str, stroke: str = "none",
               opacity: float = 1.0) -> None:
        self.parts.append(
            f'<circle cx="{self.x(c.x)}" cy="{self.y(c.y)}" r="{_f(r * _SCALE)}" '
            f'fill="{fill}" stroke="{stroke}" opacity="{_f(opacity)}"/>')

    def polyline(self, xy: list[list[float]], stroke: str, width: float) -> None:
        coords = " ".join(f"{self.x(x)},{self.y(y)}" for x, y in xy)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"/>')

    def text(self, p: Vec2, s: str, size: float = 10.0) -> None:
        self.parts.append(
            f'<text x="{self.x(p.x)}" y="{self.y(p.y)}" font-size="{_f(size)}" '
            f'font-family="monospace">{s}</text>')

    def tostring(self) -> str:
        width = _f(2 * _PAD + self.w * _SCALE)
        height = _f(2 * _PAD + self.h * _SCALE)
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}" viewBox="0 0 {width} {height}">')
        return "\n".join([head, *self.parts, "</svg>"]) + "\n"


def _interp(path: np.ndarray, t: float) -> Vec2:
    """Position at time t on rows (t, x, y), clamped to the first and last."""
    if t <= path[0, 0]:
        return Vec2(*path[0, 1:].tolist())
    later = np.flatnonzero(path[1:, 0] >= t)
    if not len(later):
        return Vec2(*path[-1, 1:].tolist())
    (t0, x0, y0), (t1, x1, y1) = path[later[0]:later[0] + 2].tolist()
    if t1 <= t0:
        return Vec2(x1, y1)
    f = (t - t0) / (t1 - t0)
    return Vec2(x0 + f * (x1 - x0), y0 + f * (y1 - y0))


def render(ws: Workspace, grid: TriGrid | None = None,
           inst: ContinuousInstance | None = None,
           dplan: DiscretePlan | None = None,
           cplan: ContinuousPlan | None = None,
           mode: str = "snapshot", at: float = 0.0) -> str:
    """Workspace border, grid edges, then discs or traces.

    snapshot: disc positions at time `at` (continuous) or step round(at)
    (discrete).  trace: one polyline per disc over the whole plan.
    """
    svg = _Svg(ws.w, ws.h)
    svg.parts.append(
        f'<rect x="{svg.x(0)}" y="{svg.y(ws.h)}" width="{_f(ws.w * _SCALE)}" '
        f'height="{_f(ws.h * _SCALE)}" fill="white" stroke="black" '
        f'stroke-width="1.5"/>')
    if grid is not None:
        for i, j in grid.edges:
            svg.line(grid.vertices[i], grid.vertices[j], "#cccccc", 0.8)

    def disc_color(r: int) -> str:
        return _PALETTE[r % len(_PALETTE)]

    if mode == "trace":
        if cplan is not None:
            for r, path in enumerate(cplan.paths):
                svg.polyline(path[:, 1:].tolist(), disc_color(r), 1.2)
        elif dplan is not None and grid is not None:
            for r in range(dplan.n):
                svg.polyline(grid.coords[dplan.positions[:, r]].tolist(),
                             disc_color(r), 1.2)

    if inst is not None:
        for r, p in enumerate(inst.goals):
            svg.circle(p, 1.0, "none", stroke=disc_color(r), opacity=0.6)
    positions: list[Vec2] | None = None
    if mode == "snapshot":
        if cplan is not None:
            positions = [_interp(path, at) for path in cplan.paths]
        elif dplan is not None and grid is not None:
            k = min(max(int(round(at)), 0), dplan.T)
            positions = [grid.vertices[v] for v in dplan.positions[k].tolist()]
        elif inst is not None:
            positions = list(inst.starts)
    if positions is not None:
        for r, p in enumerate(positions):
            svg.circle(p, 1.0, disc_color(r), opacity=0.55)
            svg.text(p, str(r + 1))
    return svg.tostring()


# the benchmark table columns that render_benchmark plots, one panel each
BENCHMARK_METRICS = ("mean_time", "ratio")


def render_benchmark(rows: list[dict]) -> str:
    """Stacked line-plot panels (one per BENCHMARK_METRICS column) against
    robot count.  A non-finite value (a cell where every instance failed)
    is left out of its line and of its panel's scale."""
    methods = sorted({r["method"] for r in rows})
    ns = sorted({r["n"] for r in rows})
    width, panel_h, pad = 480.0, 240.0, 40.0
    height = panel_h * max(1, len(BENCHMARK_METRICS))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    if rows and ns:
        nmax = max(ns) or 1
        for pi, metric in enumerate(BENCHMARK_METRICS):
            top = pi * panel_h
            vals = [float(r[metric]) for r in rows]
            vmax = max(filter(math.isfinite, vals), default=0.0) or 1.0
            parts.append(f'<line x1="{pad}" y1="{top + panel_h - pad:.1f}" '
                         f'x2="{width - pad}" y2="{top + panel_h - pad:.1f}" '
                         f'stroke="black"/>')
            parts.append(f'<line x1="{pad}" y1="{top + pad:.1f}" x2="{pad}" '
                         f'y2="{top + panel_h - pad:.1f}" stroke="black"/>')
            parts.append(f'<text x="{width / 2:.1f}" y="{top + panel_h - 8:.1f}" '
                         f'font-size="12" font-family="monospace">robots</text>')
            parts.append(f'<text x="6" y="{top + pad - 10:.1f}" font-size="12" '
                         f'font-family="monospace">{metric}</text>')

            for mi, method in enumerate(methods):
                color = _PALETTE[mi % len(_PALETTE)]
                pts = sorted((r["n"], float(r[metric])) for r in rows
                             if r["method"] == method
                             and math.isfinite(float(r[metric])))
                coords = " ".join(
                    f"{pad + (width - 2 * pad) * (n / nmax):.2f},"
                    f"{top + panel_h - pad - (panel_h - 2 * pad) * (v / vmax):.2f}"
                    for n, v in pts)
                parts.append(f'<polyline points="{coords}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
                parts.append(f'<text x="{width - pad + 4:.1f}" '
                             f'y="{top + pad + 14 * mi:.1f}" font-size="11" '
                             f'fill="{color}" font-family="monospace">{method}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
