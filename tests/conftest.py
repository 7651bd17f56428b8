import random
from fractions import Fraction

import pytest
from hypothesis import settings

from affchar.rootdata import build_root_system

# One profile for every property test: the same examples on every run, no
# deadline (exact arithmetic has no fixed cost per example) and no example
# database on disk.  Each test sets only its own max_examples.
settings.register_profile("affchar", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("affchar")


def rand_fraction(rng, lo=-9, hi=9, max_den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_weight(rng, rank, lo=-9, hi=9, max_den=6):
    return tuple(rand_fraction(rng, lo, hi, max_den) for _ in range(rank))


def coweight_form_on_coroots(rs, x, y):
    """kappa_b(x, y) for x, y in simple-coroot coordinates."""
    return sum(
        x[i] * y[j] * rs.cartan[i][j] / rs.halfsq[j]
        for i in range(rs.rank) for j in range(rs.rank))


def root_of_coroot(rs, gamma):
    """Root whose coroot has the given simple-coroot coordinates, in
    simple-root coordinates: the Fraction reference of `coroot_roots`."""
    nu = [g / rs.halfsq[i] for i, g in enumerate(gamma)]
    sq = coweight_form_on_coroots(rs, gamma, gamma)
    return tuple(2 * x / sq for x in nu)


@pytest.fixture(scope="session")
def sl2():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def sl3():
    return build_root_system("A", 2)


@pytest.fixture()
def rng():
    return random.Random(20240811)
