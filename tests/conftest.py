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


@pytest.fixture(scope="session")
def sl2():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def sl3():
    return build_root_system("A", 2)


@pytest.fixture()
def rng():
    return random.Random(20240811)
