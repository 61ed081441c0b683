"""Line-oriented text formats: instances (.oldr), plans (.plan).

Every file opens with a versioned header.  Floats are written with
repr(), so write -> read round-trips are lossless.
"""

from __future__ import annotations

import numpy as np

from .discretize import (ContinuousInstance, InadmissibleInstanceError,
                         check_clearance, validate_separation)
from .geometry import Vec2, build_workspace
from .plan import DiscretePlan
from .validate import ContinuousPlan


class ParseError(ValueError):
    """Malformed instance or plan file."""


INSTANCE_HEADER = "oldr 1"
PLAN_HEADER = "plan 1"


def format_instance(inst: ContinuousInstance) -> str:
    ws = inst.workspace
    lines = [INSTANCE_HEADER, f"workspace {ws.n1} {ws.n2}"]
    for i in range(inst.n):
        s, g = inst.starts[i], inst.goals[i]
        lines.append(f"disc {i + 1} {s.x!r} {s.y!r} {g.x!r} {g.y!r}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ContinuousInstance:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != INSTANCE_HEADER:
        raise ParseError(f"missing header {INSTANCE_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("workspace "):
        raise ParseError("missing workspace line")
    try:
        _, n1s, n2s = lines[1].split()
        ws = build_workspace(int(n1s), int(n2s))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad workspace line: {lines[1]!r}") from exc
    starts, goals = [], []
    for k, ln in enumerate(lines[2:]):
        parts = ln.split()
        if len(parts) != 6 or parts[0] != "disc":
            raise ParseError(f"bad disc line: {ln!r}")
        try:
            disc_id = int(parts[1])
            sx, sy, gx, gy = (float(p) for p in parts[2:])
        except ValueError as exc:
            raise ParseError(f"bad disc line: {ln!r}") from exc
        if not np.isfinite((sx, sy, gx, gy)).all():
            raise ParseError(f"non-finite coordinate in disc line: {ln!r}")
        if disc_id != k + 1:
            raise ParseError(f"disc ids must be contiguous from 1, got {disc_id}")
        starts.append(Vec2(sx, sy))
        goals.append(Vec2(gx, gy))
    inst = ContinuousInstance(workspace=ws, starts=tuple(starts),
                              goals=tuple(goals))
    report = validate_separation(inst)
    if not report.ok:
        v = (report.start_violations + report.goal_violations)[0]
        raise InadmissibleInstanceError(
            f"separation violated: discs {v[0] + 1}, {v[1] + 1} at "
            f"distance {v[2]:.6f} <= 8/3")
    bad = check_clearance(inst)
    if bad:
        which, i, margin = bad[0]
        raise InadmissibleInstanceError(
            f"{which} of disc {i + 1} is {margin:.6f} from the boundary "
            f"(needs 1)")
    return inst


def read_instance(path: str) -> ContinuousInstance:
    with open(path) as f:
        return parse_instance(f.read())


def write_instance(path: str, inst: ContinuousInstance) -> None:
    with open(path, "w") as f:
        f.write(format_instance(inst))


def format_discrete_plan(plan: DiscretePlan) -> str:
    lines = [f"{PLAN_HEADER} discrete", f"robots {plan.n}",
             f"steps {len(plan.positions)}"]
    for t, row in enumerate(plan.positions.tolist()):
        lines.append("step " + str(t) + " " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def format_continuous_plan(plan: ContinuousPlan) -> str:
    parts = [f"{PLAN_HEADER} continuous\nrobots {len(plan.paths)}\n"]
    if plan.paths:
        rows = np.concatenate(plan.paths)
        # times repeat across discs and coordinates across vertices: one
        # repr per distinct float, keyed by its bits (0.0 and -0.0 differ)
        words = np.empty((len(rows), 4), dtype=object)   # "pt t x y\n"
        words[:, 0] = "pt "
        for c, sep in enumerate((" ", " ", "\n")):
            bits, idx = np.unique(rows[:, c].view(np.int64),
                                  return_inverse=True)
            words[:, c + 1] = np.array([repr(v) + sep for v in
                                        bits.view(np.float64).tolist()],
                                       dtype=object)[idx.ravel()]
        end = 0
        for r, p in enumerate(plan.paths):
            parts.append(f"disc {r + 1} {len(p)}\n")
            parts.append("".join(words[end:end + len(p)].ravel().tolist()))
            end += len(p)
    return "".join(parts)


def parse_plan(text: str) -> DiscretePlan | ContinuousPlan:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty plan file")
    head = lines[0].split()
    if len(head) != 3 or " ".join(head[:2]) != PLAN_HEADER:
        raise ParseError(f"missing header {PLAN_HEADER!r}")
    mode = head[2]
    if mode == "discrete":
        return _parse_discrete(lines)
    if mode == "continuous":
        return _parse_continuous(lines)
    raise ParseError(f"unknown plan mode {mode!r}")


def _parse_discrete(lines: list[str]) -> DiscretePlan:
    try:
        n = int(lines[1].split()[1])
        count = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError("bad plan preamble") from exc
    if count < 1:
        raise ParseError(f"plan needs at least one step, header said {count}")
    vertices: list[int] = []
    for ln in lines[3:]:
        parts = ln.split()
        if parts[0] != "step":
            raise ParseError(f"bad step line: {ln!r}")
        if len(parts) - 2 != n:
            raise ParseError(f"step row has {len(parts) - 2} entries, wanted {n}")
        try:
            vertices.extend(int(v) for v in parts[2:])
        except ValueError as exc:
            raise ParseError(f"bad step line: {ln!r}") from exc
    if len(lines) - 3 != count:
        raise ParseError(f"plan has {len(lines) - 3} steps, header said {count}")
    return DiscretePlan(np.array(vertices, dtype=np.intp).reshape(count, n))


def _parse_continuous(lines: list[str]) -> ContinuousPlan:
    try:
        n = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError("bad plan preamble") from exc
    paths: list[np.ndarray] = []
    i = 2
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] != "disc" or len(parts) != 3:
            raise ParseError(f"bad disc line: {lines[i]!r}")
        try:
            npts = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad disc line: {lines[i]!r}") from exc
        if not 1 <= npts <= len(lines) - i - 1:
            raise ParseError(f"disc line {lines[i]!r} wants {npts} points, "
                             f"{len(lines) - i - 1} lines follow")
        rows = []
        for ln in lines[i + 1:i + 1 + npts]:
            q = ln.split()
            if q[0] != "pt" or len(q) != 4:
                raise ParseError(f"bad pt line: {ln!r}")
            try:
                rows.append((float(q[1]), float(q[2]), float(q[3])))
            except ValueError as exc:
                raise ParseError(f"bad pt line: {ln!r}") from exc
            if not np.isfinite(rows[-1]).all():
                raise ParseError(f"non-finite value in pt line: {ln!r}")
        paths.append(np.array(rows))
        i += 1 + npts
    if len(paths) != n:
        raise ParseError(f"plan has {len(paths)} discs, header said {n}")
    makespan = max((p[-1, 0] for p in paths), default=0.0)
    return ContinuousPlan(paths, makespan=float(makespan), snap_in=0.0,
                          grid_duration=float(makespan), snap_out=0.0)


def read_plan(path: str) -> DiscretePlan | ContinuousPlan:
    with open(path) as f:
        return parse_plan(f.read())
