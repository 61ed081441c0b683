import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (_edge_tri_map, _legal_transition,
                      reference_format_discrete_plan)
from triroute import io as tio
from triroute.geometry import build_grid, build_workspace
from triroute.plan import DiscretePlan, check_plan

# sha256 of the discrete plan text: the ilp_suite plans' texts joined in
# order, recorded when plans were lists of tuples, and the 4x5
# full-occupancy PAFT plan, recorded when routing became three phases of
# parallel sorts
ILP_SUITE_TEXT_SHA = \
    "8cf4338c19fa3214287a4b386b5891b59438b4777ff95c19ccfa25584a34df77"
PAFT_FULL_TEXT_SHA = \
    "a302246e024a8df282df252300dab6c6f72be64a3e9019c95d62ca21f40e2451"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_steps_view_is_the_array_rows(paft_full):
    plan = paft_full
    assert plan.positions.dtype == np.intp
    assert plan.positions.shape == (plan.T + 1, plan.n)
    steps = plan.steps
    assert steps == [tuple(row) for row in plan.positions.tolist()]
    assert all(type(v) is int for v in steps[1])
    assert hash(tuple(steps)) == hash(tuple(plan.steps))
    steps[0] = ()                      # a copy, not the plan
    assert plan.steps[0] == tuple(plan.positions[0].tolist())


def test_steps_assignment_replaces_the_array():
    plan = DiscretePlan.from_steps([(1, 2), (2, 3)])
    plan.steps = [(4, 5), (5, 6), (6, 7)]
    assert plan.T == 2 and plan.n == 2
    assert plan.positions.tolist() == [[4, 5], [5, 6], [6, 7]]
    empty = DiscretePlan.from_steps([(), ()])
    assert (empty.T, empty.n) == (1, 0)


def test_discrete_text_unchanged_and_round_trips(ilp_suite, paft_full):
    texts = []
    for plan in [case[2] for case in ilp_suite] + [paft_full]:
        text = tio.format_discrete_plan(plan)
        assert text == reference_format_discrete_plan(plan.steps)
        back = tio.parse_plan(text)
        assert back.positions.dtype == np.intp
        assert np.array_equal(back.positions, plan.positions)
        assert tio.format_discrete_plan(back) == text
        texts.append(text)
    assert _sha("".join(texts[:-1])) == ILP_SUITE_TEXT_SHA
    assert _sha(texts[-1]) == PAFT_FULL_TEXT_SHA


@pytest.mark.parametrize("text", [
    "plan 1 discrete\nrobots 2\nsteps 1\nstep 0 1\n",
    "plan 1 discrete\nrobots 1\nsteps 1\nstep 0 x\n",
    "plan 1 discrete\nrobots 1\nsteps 2\nstep 0 1\n",
], ids=["short row", "non-integer", "count"])
def test_malformed_discrete_plan_raises_parse_error(text):
    with pytest.raises(tio.ParseError):
        tio.parse_plan(text)


def test_check_plan_reports_each_rule(minimal_grid):
    g = minimal_grid
    a, b, c = g.triangles[0]
    far = next(v for v in range(g.n_vertices)
               if v != a and v not in g.adjacency[a])
    cases = {
        "not injective": [(a, b), (a, a)],
        "jumps": [(a,), (far,)],
        "head-on": [(a, b), (b, a)],
        "concurrent moves on triangle": [(a, b), (b, c)],
    }
    for expect, steps in cases.items():
        errors = check_plan(g, DiscretePlan.from_steps(steps))
        assert any(expect in e for e in errors), (expect, errors)
    assert check_plan(g, DiscretePlan.from_steps([])) == ["plan has no steps"]
    ok = DiscretePlan.from_steps([(a, c), (b, c)])
    assert check_plan(g, ok, (a, c), (b, c)) == []
    assert check_plan(g, ok, (c, a), (c, b)) == [
        "step 0 does not match start configuration",
        "step 1 does not match goal configuration"]


# the minimal and the medium grid, each with the oracle's edge map
GRIDS = [(g, _edge_tri_map(g)) for g in
         (build_grid(build_workspace(2, 3)), build_grid(build_workspace(4, 5)))]


@st.composite
def single_steps(draw):
    """A grid and one step of up to six robots near one vertex, each
    staying or moving to a neighbour (head-on swaps, triangle conflicts,
    collisions), and sometimes one robot sent up to two hops (jumps)."""
    g, etri = draw(st.sampled_from(GRIDS))
    centre = draw(st.integers(0, g.n_vertices - 1))
    near = sorted({w for u in [centre, *g.adjacency[centre]]
                   for w in [u, *g.adjacency[u]]})
    cur = draw(st.lists(st.sampled_from(near), min_size=1, max_size=6,
                        unique=True))
    nxt = [draw(st.sampled_from([u, *g.adjacency[u]])) for u in cur]
    if draw(st.booleans()):
        nxt[draw(st.integers(0, len(cur) - 1))] = draw(st.sampled_from(near))
    return g, etri, tuple(cur), tuple(nxt)


@settings(max_examples=400)
@given(single_steps())
def test_check_plan_matches_transition_oracle(case):
    g, etri, cur, nxt = case
    errors = check_plan(g, DiscretePlan.from_steps([cur, nxt]))
    jumps = [(r, u, v) for r, (u, v) in enumerate(zip(cur, nxt))
             if u != v and v not in g.adjacency[u]]
    legal = not jumps and _legal_transition(g, cur, nxt, etri)
    assert (errors == []) == legal, (cur, nxt, errors)
    assert [e for e in errors if "jumps" in e] == [
        f"step 0: robot {r} jumps {u}->{v}" for r, u, v in jumps]
    assert any("not injective" in e for e in errors) == (
        len(set(nxt)) < len(nxt))
