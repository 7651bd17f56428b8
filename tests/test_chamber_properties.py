"""Property tests of the chamber walk and the cached coroot table.

The walk's reference is the whole finite dot orbit, filtered to the closed
dominant or antidominant chamber (shifted); the table's reference is the
Fraction pairing of the root of one coroot with another.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affchar.affine import finite_dominant_representative
from affchar.characters import finite_antidominant_element
from affchar.rootdata import build_root_system
from conftest import finite_dot_orbit, root_of_coroot

ROOT_SYSTEMS = [build_root_system(letter, rank) for letter, rank in
                [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2),
                 ("B", 3)]]

fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


def pair_root_coroot(rs, beta, gamma):
    """<beta, gamma> with beta in simple-root, gamma in simple-coroot
    coordinates."""
    return sum(
        beta[j] * gamma[i] * rs.cartan[i][j]
        for i in range(rs.rank) for j in range(rs.rank))


@st.composite
def finite_weights(draw):
    rs = draw(st.sampled_from(ROOT_SYSTEMS))
    return rs, tuple(draw(fractions) for _ in range(rs.rank))


@settings(max_examples=150)
@given(finite_weights())
def test_walk_reaches_the_chamber_element_of_the_orbit(case):
    rs, lam = case
    orbit = finite_dot_orbit(rs, lam)
    dom = [w for w in orbit if all(a + 1 >= 0 for a in w)]
    anti = [w for w in orbit if all(a + 1 <= 0 for a in w)]
    assert len(dom) == len(anti) == 1
    assert finite_dominant_representative(rs, lam) == dom[0]
    assert finite_antidominant_element(rs, lam) == anti[0]


@pytest.mark.parametrize("rs", ROOT_SYSTEMS, ids=lambda rs: rs.cartan_type)
def test_coroot_table_pairs_like_the_roots(rs):
    table = rs.coroot_roots
    coroots = list(rs.positive_coroots) + [tuple(-x for x in g)
                                           for g in rs.positive_coroots]
    assert set(table) == set(coroots)
    for g in coroots:
        assert all(type(b) is int for b in table[g])
        root = root_of_coroot(rs, g)
        for h in coroots:
            assert (sum(b * x for b, x in zip(table[g], h))
                    == pair_root_coroot(rs, root, h))
