import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, never time out on
# a loaded machine, and keep to a few dozen examples each.
settings.register_profile("triroute", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("triroute")

from triroute.discretize import DiscreteInstance, discretize
from triroute.geometry import build_grid, build_workspace
from triroute.instances import random_instance
from triroute.paft import SwapEngine, paft
from triroute.triilp import solve_split, solve_triilp
from triroute.validate import closest_approach


@pytest.fixture(scope="session")
def minimal_grid():
    return build_grid(build_workspace(2, 3))


@pytest.fixture(scope="session")
def small_grid():
    return build_grid(build_workspace(3, 3))


@pytest.fixture(scope="session")
def medium_grid():
    return build_grid(build_workspace(4, 5))


def random_discrete_instance(grid, n, seed):
    """n distinct random starts and goals on the grid."""
    rng = random.Random(seed)
    starts = tuple(rng.sample(range(grid.n_vertices), n))
    goals = tuple(rng.sample(range(grid.n_vertices), n))
    return DiscreteInstance(grid=grid, v_starts=starts, v_goals=goals)


def kernel_min_distance(a0, a1, b0, b1):
    """Minimum center distance of discs moving a0 -> a1 and b0 -> b1
    over t in [0, 1], per row of (N, 2) endpoint arrays, from
    validation's closest-approach kernel."""
    dp = b0 - a0
    d0, dm, d1, _ = closest_approach(dp.T, ((b1 - b0) - (a1 - a0)).T)
    return np.sqrt(np.minimum(np.minimum(d0, dm), d1))


def full_occupancy_instance(grid, seed):
    """Every vertex occupied; the permutation fixes vertices that lie on
    no hexagon (anything else is provably unsolvable)."""
    rng = random.Random(seed)
    covered = sorted(grid.covered)
    perm = covered[:]
    rng.shuffle(perm)
    goals = list(range(grid.n_vertices))
    for v, p in zip(covered, perm):
        goals[v] = p
    return DiscreteInstance(grid=grid,
                            v_starts=tuple(range(grid.n_vertices)),
                            v_goals=tuple(goals))


@pytest.fixture(scope="session")
def ilp_suite():
    """The continuous ILP cases of the acceptance validity suite:
    (instance, grid, plan, start snap, goal snap)."""
    def case(n1, n2, seed, route):
        ws = build_workspace(n1, n2)
        inst = random_instance(ws, 2 + seed % 3, seed)
        g = build_grid(ws)
        dinst, ss, sg = discretize(inst, g)
        return inst, g, route(dinst)[0], ss, sg

    return ([case(2, 3, seed, solve_triilp) for seed in range(20)]
            + [case(3, 3, seed, lambda d: solve_split(d, 2))
               for seed in range(50, 70)])


@pytest.fixture(scope="session")
def paft_full(medium_grid):
    """A full-occupancy PAFT plan on 4x5."""
    inst = full_occupancy_instance(medium_grid, 0)
    plan, _ = paft(inst, SwapEngine(medium_grid))
    return plan
