"""Property tests of the instance and plan readers.

Valid files round-trip unchanged.  Mutated ones (lines dropped,
duplicated or swapped, tokens replaced by nan, inf, -1, 0 or 10**12)
reach the user through ``triroute solve`` and ``triroute render`` as a
documented exit code, never as a traceback.  A parse error names its
line; render's checks of a parsed plan against the instance name the
robot count or the off-grid vertex instead.  Workspace tokens stay within 2..6: a large grid is built in
Python and would exhaust memory.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from triroute import io as tio
from triroute.cli import main
from triroute.discretize import discretize
from triroute.geometry import build_grid, build_workspace
from triroute.instances import dense_instance, random_instance
from triroute.plan import DiscretePlan
from triroute.triilp import solve_triilp
from triroute.validate import ContinuousPlan, synthesize

TOKENS = ["nan", "inf", "-1", "0", str(10 ** 12)]


def _valid_files():
    ws = build_workspace(2, 3)
    inst = dense_instance(ws, 3, 1)
    grid = build_grid(ws)
    dinst, snap_s, snap_g = discretize(inst, grid)
    plan = solve_triilp(dinst)[0]
    cplan = synthesize(inst, grid, plan, snap_s, snap_g)
    return (tio.format_instance(inst), tio.format_discrete_plan(plan),
            tio.format_continuous_plan(cplan))


INSTANCE, DISCRETE, CONTINUOUS = _valid_files()


@st.composite
def mutants(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split()
            k = draw(st.integers(0, len(words) - 1))
            if words[0] == "workspace" and k:
                words[k] = str(draw(st.integers(2, 6)))
            else:
                words[k] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words)
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("formats")
    (path / "valid.oldr").write_text(INSTANCE)
    return path


def _exits_cleanly(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err
    if code == 2:
        assert re.search(r"\(line \d+: |plan robot count differs from "
                         r"instance|plan names vertex -?\d+, not on the grid",
                         err), err
    return code


@given(text=mutants(INSTANCE))
def test_mutated_instance_exits_cleanly(workdir, text):
    path = workdir / "mutant.oldr"
    path.write_text(text)
    _exits_cleanly("solve", str(path), "--method", "isag")


@given(text=st.one_of(mutants(DISCRETE), mutants(CONTINUOUS)))
def test_mutated_plan_exits_cleanly(workdir, text):
    path, out = workdir / "mutant.plan", workdir / "mutant.svg"
    path.write_text(text)
    out.unlink(missing_ok=True)
    code = _exits_cleanly("render", "--instance", str(workdir / "valid.oldr"),
                          "--plan", str(path), "--out", str(out))
    assert out.exists() == (code == 0)


@given(n1=st.integers(2, 4), n2=st.integers(3, 4), n=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32))
def test_valid_instance_round_trips(n1, n2, n, seed):
    text = tio.format_instance(random_instance(build_workspace(n1, n2), n,
                                               seed))
    assert tio.format_instance(tio.parse_instance(text)) == text


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=2,
                         max_size=2), min_size=1, max_size=5))
def test_valid_discrete_plan_round_trips(rows):
    text = tio.format_discrete_plan(DiscretePlan(np.array(rows)))
    assert tio.format_discrete_plan(tio.parse_plan(text)) == text


@given(st.lists(st.lists(st.tuples(finite, finite, finite), min_size=1,
                         max_size=4), max_size=3))
def test_valid_continuous_plan_round_trips(paths):
    paths = [np.array(sorted(p)) for p in paths]
    end = max((p[-1, 0] for p in paths), default=0.0)
    text = tio.format_continuous_plan(ContinuousPlan(paths, makespan=end))
    assert tio.format_continuous_plan(tio.parse_plan(text)) == text


# disc lines whose index is wrong: the index is checked before the
# coordinates, so the error names it even when a coordinate is bad too
BAD_DISC_INDEX = {
    "skipped": ("disc 2 3 3 3 3", "expected 1, got '2'"),
    "huge": (f"disc {2 ** 70} 3 3 3 3", f"expected 1, got '{2 ** 70}'"),
    "and a bad coordinate": ("disc 10 3 3 3 y", "expected 1, got '10'"),
    "and an infinite one": ("disc 0 3 3 3 inf", "expected 1, got '0'"),
    "not an integer": ("disc 1.0 3 3 3 y", "expected 1, got '1.0'"),
    # int() reads each of these as 1
    "plus sign": ("disc +1 3 3 3 3", "expected 1, got '+1'"),
    "underscore": ("disc 0_1 3 3 3 3", "expected 1, got '0_1'"),
    "Arabic-Indic digit": ("disc \u0661 3 3 3 3", "expected 1, got '\u0661'"),
    "fullwidth digit": ("disc \uff11 3 3 3 3", "expected 1, got '\uff11'"),
}


@pytest.mark.parametrize("line, problem", BAD_DISC_INDEX.values(),
                         ids=BAD_DISC_INDEX.keys())
def test_wrong_disc_index_is_named(line, problem):
    with pytest.raises(tio.ParseError) as err:
        tio.parse_instance(f"oldr 1\nworkspace 2 3\n{line}\n")
    assert str(err.value) == f"{problem} (line 3: {line!r})"


# number fields other than the disc index: an integer is ASCII -?[0-9]+
# and a real has no "_" and no non-ASCII character, though int() and
# float() read every word below
BAD_NUMBER_FIELDS = {
    "workspace": (tio.parse_instance, "oldr 1\nworkspace +2 3\n", 2,
                  "'+2' is not a 64-bit integer"),
    "workspace digit": (tio.parse_instance, "oldr 1\nworkspace 2 \u0663\n", 2,
                        "'\u0663' is not a 64-bit integer"),
    "robots": (tio.parse_plan,
               "plan 1 discrete\nrobots 0_1\nsteps 1\nstep 0 5\n", 2,
               "'0_1' is not a count (an integer >= 0)"),
    "steps": (tio.parse_plan,
              "plan 1 discrete\nrobots 1\nsteps +1\nstep 0 5\n", 3,
              "'+1' is not a positive count"),
    "step index": (tio.parse_plan,
                   "plan 1 discrete\nrobots 1\nsteps 1\nstep \uff10 5\n", 4,
                   "expected 0, got '\uff10'"),
    "step vertex": (tio.parse_plan,
                    "plan 1 discrete\nrobots 1\nsteps 1\nstep 0 5_0\n", 4,
                    "'5_0' is not a 64-bit integer"),
    "disc coordinate": (tio.parse_instance,
                        "oldr 1\nworkspace 2 3\ndisc 1 3_0.0 3 3 3\n", 3,
                        "could not convert string to float: '3_0.0'"),
    "disc digit": (tio.parse_instance,
                   "oldr 1\nworkspace 2 3\ndisc 1 3 3 3 \u0663\n", 3,
                   "could not convert string to float: '\u0663'"),
    "point": (tio.parse_plan,
              "plan 1 continuous\nrobots 1\ndisc 1 1\npt 0 3 \uff13.5\n", 4,
              "could not convert string to float: '\uff13.5'"),
}


@pytest.mark.parametrize("parse, text, line, problem",
                         BAD_NUMBER_FIELDS.values(),
                         ids=BAD_NUMBER_FIELDS.keys())
def test_number_fields_are_strict(parse, text, line, problem):
    with pytest.raises(tio.ParseError) as err:
        parse(text)
    named = text.splitlines()[line - 1]
    assert str(err.value) == f"{problem} (line {line}: {named!r})"
