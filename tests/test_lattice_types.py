"""The type contract of the lattice data: roots, coroots and affine
coroots are int tuples in every type, so no pairing or reflection on them
builds a Fraction (or, through an int/int division, a float)."""

from fractions import Fraction as F

import pytest

from affchar.affine import (LevelWeight, classify_weight, integral_system,
                            simple_affine_coroots)
from affchar.rootdata import Level, build_root_system
from conftest import integral_coroots

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("B", 4), ("C", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8),
         ("F", 4), ("G", 2)]


def _all_int(vectors):
    return all(type(x) is int for v in vectors for x in v)


def _coroots_int(coroots):
    return all(type(cr.m) is int and _all_int([cr.gamma]) for cr in coroots)


@pytest.mark.parametrize("letter,rank", TYPES)
def test_root_data_are_int(letter, rank):
    rs = build_root_system(letter, rank)
    assert _all_int(rs.positive_roots)
    assert _all_int(rs.positive_coroots)
    assert _all_int(rs.simple_roots)
    assert _all_int(rs.simple_coroots)
    assert _all_int([rs.theta_check])
    assert type(rs.h_dual) is int and type(rs.coxeter_number) is int
    assert _all_int(rs.coroot_roots) and _all_int(rs.coroot_roots.values())
    assert _all_int(rs.coroot_lacing)
    assert all(type(r) is int for r in rs.coroot_lacing.values())
    assert len(rs.coroot_roots) == len(rs.coroot_lacing) \
        == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("letter,rank", TYPES)
def test_affine_coroots_are_int(letter, rank):
    rs = build_root_system(letter, rank)
    assert _coroots_int(simple_affine_coroots(rs).values())
    # a non-integral level, so the integral system is small but not empty,
    # and a weight on a wall, so classify_weight reports walls
    level = Level(-rs.h_dual - F(1, 2))
    lw = LevelWeight(rs, (0,) * rank, level)
    isys = integral_system(lw)
    positives = integral_coroots(lw, 4)
    assert positives and isys.simples
    assert _coroots_int(positives)
    assert _coroots_int(isys.simples)
    walls = classify_weight(LevelWeight(rs, (-1,) * rank,
                                        Level(-rs.h_dual - 2))).walls
    assert walls and _coroots_int(walls)
