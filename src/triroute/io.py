"""Line-oriented text formats: instances (.oldr), plans (.plan).

Every file opens with a versioned header.  Floats are written with
repr(), so write -> read round-trips are lossless.  One record reader
reads both formats, and every error it raises names the line.
"""

from __future__ import annotations

import math

import numpy as np

from .discretize import (ContinuousInstance, InadmissibleInstanceError,
                         check_clearance, validate_separation)
from .geometry import BoundsError, Vec2, build_workspace
from .plan import DiscretePlan
from .validate import ContinuousPlan


class ParseError(ValueError):
    """Malformed instance or plan file; the message names the line."""


# Field converters return a field's value or raise ValueError; the CLI
# reads its flags with them too.
def integers(least: int = -2 ** 63, below: int = 2 ** 63,
             problem: str = "{!r} is not a 64-bit integer"):
    """Converter for an integer field in [least, below)."""
    def convert(word: str) -> int:
        if not least <= (value := int(word)) < below:
            raise ValueError(problem.format(word))
        return value
    return convert


integer = integers()
count = integers(0, problem="{!r} is not a count (an integer >= 0)")
positive = integers(1, problem="{!r} is not a positive count")


def index(expected: int):
    return integers(expected, expected + 1, f"expected {expected}, got {{!r}}")


def real(word: str) -> float:
    if not math.isfinite(value := float(word)):
        raise ValueError(f"non-finite value {word!r}")
    return value


class _Records:
    """Non-blank lines read one record at a time, then an empty end line."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self._lines = [(k, ln.strip()) for k, ln in enumerate(lines, 1)
                       if ln.strip()] + [(len(lines) + 1, "")]
        self._next = 0

    def __bool__(self) -> bool:
        return self._next < len(self._lines) - 1

    def fail(self, problem: str) -> ParseError:
        k, line = self._lines[self._next - 1]
        return ParseError(f"{problem} (line {k}: {line!r})")

    def read(self, keyword: str, *fields, row=(None, 0)) -> list:
        """The next line's fields: ``keyword``, one field per converter,
        then with ``row=(convert, n)`` n more fields as one list."""
        self._next = min(self._next + 1, len(self._lines))
        words = self._lines[self._next - 1][1].split()
        convert, want = row[0], 1 + len(fields) + row[1]
        if words[:1] != [keyword] or len(words) != want:
            raise self.fail(f"expected a {keyword!r} line of {want} words")
        try:
            values = [f(w) for f, w in zip(fields, words[1:])]
            if convert:
                values.append([convert(w) for w in words[1 + len(fields):]])
        except ValueError as exc:
            raise self.fail(str(exc)) from None
        return values

    def end(self) -> None:
        if self:
            self._next += 1
            raise self.fail("line after the last record")


def format_instance(inst: ContinuousInstance) -> str:
    ws = inst.workspace
    lines = ["oldr 1", f"workspace {ws.n1} {ws.n2}"]
    for i, (s, g) in enumerate(zip(inst.starts, inst.goals), 1):
        lines.append(f"disc {i} {s.x!r} {s.y!r} {g.x!r} {g.y!r}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ContinuousInstance:
    records = _Records(text)
    records.read("oldr", index(1))
    n1, n2 = records.read("workspace", integer, integer)
    try:
        ws = build_workspace(n1, n2)
    except BoundsError as exc:
        raise records.fail(str(exc)) from None
    discs = []
    while records:
        discs.append(records.read("disc", index(len(discs) + 1),
                                  real, real, real, real))
    inst = ContinuousInstance(ws, tuple(Vec2(*d[1:3]) for d in discs),
                              tuple(Vec2(*d[3:]) for d in discs))
    report = validate_separation(inst)
    if not report.ok:
        i, j, d = (report.start_violations + report.goal_violations)[0]
        raise InadmissibleInstanceError(f"separation violated: discs {i + 1}, "
                                        f"{j + 1} at distance {d:.6f} <= 8/3")
    if bad := check_clearance(inst):
        which, i, m = bad[0]
        raise InadmissibleInstanceError(f"{which} of disc {i + 1} is {m:.6f} "
                                        "from the boundary (needs 1)")
    return inst


def read_instance(path: str) -> ContinuousInstance:
    with open(path) as f:
        return parse_instance(f.read())


def write_instance(path: str, inst: ContinuousInstance) -> None:
    with open(path, "w") as f:
        f.write(format_instance(inst))


def format_discrete_plan(plan: DiscretePlan) -> str:
    lines = ["plan 1 discrete", f"robots {plan.n}",
             f"steps {len(plan.positions)}"]
    for t, row in enumerate(plan.positions.tolist()):
        lines.append("step " + str(t) + " " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def format_continuous_plan(plan: ContinuousPlan) -> str:
    parts = [f"plan 1 continuous\nrobots {len(plan.paths)}\n"]
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
    """The grammar is in README "File formats"."""
    records = _Records(text)
    _, mode = records.read("plan", index(1), str)
    if mode not in ("discrete", "continuous"):
        raise records.fail(f"unknown plan mode {mode!r}")
    n, = records.read("robots", count)
    if mode == "discrete":
        steps, = records.read("steps", positive)
        rows = [records.read("step", index(t), row=(integer, n))[1]
                for t in range(steps)]
        plan = DiscretePlan(np.array(rows, dtype=np.intp).reshape(steps, n))
    else:
        paths = []
        for d in range(1, n + 1):
            _, points = records.read("disc", index(d), positive)
            rows = []
            for _ in range(points):
                rows.append(records.read("pt", real, real, real))
                if len(rows) > 1 and rows[-1][0] < rows[-2][0]:
                    raise records.fail("time goes backwards")
            paths.append(np.array(rows))
        end = max((p[-1, 0] for p in paths), default=0.0)
        plan = ContinuousPlan(paths, makespan=float(end))
    records.end()
    return plan


def read_plan(path: str) -> DiscretePlan | ContinuousPlan:
    with open(path) as f:
        return parse_plan(f.read())
