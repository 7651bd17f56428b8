"""The immutable value types: ``rootdata.Level``, ``affine.LevelWeight``
and ``affine.AffineCoroot``.

Two values built apart from the same fields are equal and hash alike,
whatever route built them; no field can be assigned; and only ints and
Fractions enter, so no float, bool or string reaches the exact
arithmetic.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affchar.affine import AffineCoroot, LevelWeight, dot_reflect
from affchar.errors import DomainError
from affchar.rootdata import Level, build_root_system

ROOT_SYSTEMS = [build_root_system(letter, rank) for letter, rank in
                [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]]

coordinates = st.one_of(st.integers(-6, 6),
                        st.builds(F, st.integers(-12, 12), st.integers(1, 6)))


@st.composite
def weights_and_coroots(draw):
    """A weight at a level and a real affine coroot, (gamma, m) with m a
    multiple of the lacing number of gamma."""
    rs = draw(st.sampled_from(ROOT_SYSTEMS))
    lam = tuple(draw(coordinates) for _ in range(rs.rank))
    lw = LevelWeight(rs, lam, Level(draw(coordinates)))
    gamma = draw(st.sampled_from(sorted(rs.coroot_lacing)))
    m = rs.coroot_lacing[gamma] * draw(st.integers(-3, 3))
    return lw, AffineCoroot(gamma, m)


def assert_same_value(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@settings(max_examples=60)
@given(weights_and_coroots())
def test_rebuilt_values_are_equal_and_hash_alike(case):
    lw, cr = case
    assert_same_value(lw.with_lam(lw.lam), lw)
    assert_same_value(dot_reflect(dot_reflect(lw, cr), cr), lw)
    assert_same_value(Level(lw.k), lw.level)
    assert_same_value(AffineCoroot(tuple(cr.gamma), int(cr.m)), cr)
    # ints enter as Fractions, so an int level equals its Fraction
    assert all(a.__class__ is F for a in lw.lam)
    assert lw.k.__class__ is F
    # equal values are one dictionary key
    assert len({lw, lw.with_lam(lw.lam), Level(lw.k), lw.level,
                cr, AffineCoroot(cr.gamma, cr.m)}) == 3


@settings(max_examples=30)
@given(weights_and_coroots(), coordinates)
def test_values_differ_when_a_field_does(case, x):
    lw, cr = case
    lam = (lw.lam[0] + 1,) + lw.lam[1:]
    assert lw.with_lam(lam) != lw
    assert LevelWeight(lw.rs, lw.lam, Level(lw.k + 1)) != lw
    # the root system is compared by identity, as it has no __eq__
    rs = build_root_system(lw.rs.letter, lw.rs.rank)
    assert LevelWeight(rs, lw.lam, lw.level) != lw
    assert AffineCoroot(cr.gamma, cr.m + 1) != cr
    assert Level(x) != Level(x + 1)
    # no value equals its fields as a tuple
    assert cr != (cr.gamma, cr.m) and lw.level != lw.k


@settings(max_examples=30)
@given(weights_and_coroots(), coordinates)
def test_fields_cannot_be_assigned(case, x):
    lw, cr = case
    for value, fields in [(lw, ("rs", "lam", "level")),
                          (lw.level, ("k",)), (cr, ("gamma", "m"))]:
        before = repr(value)
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, x)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before


@settings(max_examples=30)
@given(weights_and_coroots(), st.integers(0, 5))
def test_a_wrong_coordinate_count_is_a_domain_error(case, count):
    lw, _ = case
    if count != lw.rs.rank:
        with pytest.raises(DomainError, match="wrong number of coordinates"):
            LevelWeight(lw.rs, (F(0),) * count, lw.level)


def test_repr_names_the_fields():
    cr = AffineCoroot((1, 0), -2)
    assert repr(cr) == "AffineCoroot(gamma=(1, 0), m=-2)"
    assert repr(Level(F(-3, 2))) == "Level(k=Fraction(-3, 2))"


@pytest.mark.parametrize("k", [0.1, 2.0, True, False, "1/3", None,
                               complex(1, 0)])
def test_a_level_is_an_int_or_a_fraction(k):
    with pytest.raises(DomainError, match="level must be an int or a "
                                          "Fraction"):
        Level(k)


@pytest.mark.parametrize("coordinate", [0.5, True, "1/3", None])
def test_weight_coordinates_are_ints_or_fractions(coordinate):
    sl3 = build_root_system("A", 2)
    with pytest.raises(DomainError, match="weight coordinate must be"):
        LevelWeight(sl3, (coordinate, F(1, 3)), Level(-3))
    with pytest.raises(DomainError, match="weight coordinate must be"):
        LevelWeight(sl3, (F(1, 3), coordinate), Level(-3))


def test_fraction_coordinates_are_kept_as_given():
    sl3 = build_root_system("A", 2)
    a, b = F(1, 2), F(-7, 3)
    lw = LevelWeight(sl3, [a, b], Level(F(-5, 2)))
    assert lw.lam[0] is a and lw.lam[1] is b
    lw = LevelWeight(sl3, (a, 4), Level(-5))
    assert lw.lam == (a, F(4)) and lw.lam[0] is a
    assert [x.__class__ for x in lw.lam] == [F, F]
    assert lw.k == F(-5) and lw.k.__class__ is F
