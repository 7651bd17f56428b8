from fractions import Fraction as F

import pytest

from affchar.errors import DomainError
from affchar.rootdata import Level, build_root_system
from affchar.affine import LevelWeight, finite_dot_orbit
from affchar.characters import (KAC_MOODY, MULTIPLICITY_RULES, SIMPLE,
                                VERMA, DUAL_VERMA, ZERO, ModuleLabel,
                                ch_simple_W, ch_verma_Oprime,
                                ch_verma_W, ds_exponent, ds_transform,
                                energy_offsets, hc_project, psi_s_label)
from affchar.qseries import eta_factor, equal_to_order
from conftest import rand_fraction, rand_weight


def test_hc_project_examples(sl2):
    lvl = Level(F(1))
    assert hc_project(sl2, (F(0),), lvl) == hc_project(sl2, (F(-2),), lvl)
    chi = hc_project(sl2, (F(1),), lvl)
    assert sorted(chi.orbit()) == [(F(-3),), (F(1),)]
    assert chi.rep == (F(1),)
    # labels at different levels differ
    assert hc_project(sl2, (F(0),), lvl) != hc_project(sl2, (F(0),), Level(F(2)))


def test_hc_idempotent_and_invariant(sl2, sl3, rng):
    for rs in (sl2, sl3):
        lvl = Level(F(-5, 3))
        for _ in range(100):
            lam = rand_weight(rng, rs.rank)
            chi = hc_project(rs, lam, lvl)
            assert hc_project(rs, chi.rep, lvl) == chi
            for mu in chi.orbit():
                assert hc_project(rs, mu, lvl) == chi


def test_regular_orbit_size(sl3, rng):
    # free dot action off the walls: orbit size |W_f| = 6 for sl3
    hits = 0
    for _ in range(20):
        lam = rand_weight(rng, 2)
        shifted = tuple(a + 1 for a in lam)
        if any(v == 0 for v in shifted):
            continue
        orbit = finite_dot_orbit(sl3, lam)
        if len(orbit) == 6:
            hits += 1
    assert hits >= 15


def test_energy_offsets_examples(sl2):
    chi = hc_project(sl2, (F(0),), Level(F(1)))
    off = energy_offsets(chi)
    assert off.e_delta == F(-1, 4)
    assert off.e_m - off.e_delta == 0
    chiw = hc_project(sl2, (F(1),), Level(F(1)))
    assert energy_offsets(chiw).conformal_weight == F(1, 4)


def test_energy_offsets_reject_critical(sl2):
    chi = hc_project(sl2, (F(0),), Level(F(-2)))
    with pytest.raises(DomainError):
        energy_offsets(chi)
    with pytest.raises(DomainError):
        ch_verma_W(chi, 5)
    with pytest.raises(DomainError):
        ch_verma_Oprime(chi, 5)


def test_offset_gap_equals_ds_exponent(sl2, sl3, rng):
    g2 = build_root_system("G", 2)
    for rs in (sl2, sl3, g2):
        gap = ds_exponent(rs)
        for _ in range(10):
            k = rand_fraction(rng)
            if k == -rs.h_dual:
                continue
            chi = hc_project(rs, rand_weight(rng, rs.rank), Level(k))
            off = energy_offsets(chi)
            assert off.e_m - off.e_delta == gap


def test_ds_exponent_sl2_is_zero(sl2):
    assert ds_exponent(sl2) == 0


def test_verma_characters(sl2, sl3):
    chi = hc_project(sl2, (F(0),), Level(F(-3)))
    wv = ch_verma_W(chi, 10)
    assert list(wv.coeffs) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    ov = ch_verma_Oprime(chi, 6)
    assert list(ov.coeffs) == list(eta_factor(1, -3, 6).coeffs)
    assert ov.coeffs[0] == 1
    chi3 = hc_project(sl3, (F(0), F(0)), Level(F(1)))
    assert list(ch_verma_Oprime(chi3, 4).coeffs) == \
        list(eta_factor(1, -8, 4).coeffs)
    assert list(ch_verma_W(chi3, 4).coeffs) == \
        list(eta_factor(1, -2, 4).coeffs)


def test_ds_transform_identity_random(sl2, sl3, rng):
    for rs in (sl2, sl3):
        for _ in range(25):
            k = rand_fraction(rng)
            if k == -rs.h_dual:
                continue
            chi = hc_project(rs, rand_weight(rng, rs.rank), Level(k))
            lhs = ds_transform(ch_verma_Oprime(chi, 30), rs)
            assert equal_to_order(lhs, ch_verma_W(chi, 30), 30)


def test_ds_transform_zero(sl2):
    from affchar.qseries import zero
    out = ds_transform(zero(10), sl2)
    assert out.is_zero


def test_psi_s_examples(sl2):
    lvl = Level(F(-3))
    assert psi_s_label(sl2, ModuleLabel(SIMPLE, KAC_MOODY, (F(0),), lvl)) is ZERO
    img = psi_s_label(sl2, ModuleLabel(SIMPLE, KAC_MOODY, (F(-1),), lvl))
    assert img is not ZERO and img.kind == SIMPLE
    img = psi_s_label(sl2, ModuleLabel(VERMA, KAC_MOODY, (F(5),), lvl))
    assert img.kind == VERMA and img.parameter == hc_project(sl2, (F(5),), lvl)
    img = psi_s_label(sl2, ModuleLabel(DUAL_VERMA, KAC_MOODY, (F(5),), lvl))
    assert img.kind == DUAL_VERMA


def test_psi_s_commutes_with_projection(sl2, rng):
    lvl = Level(F(-3))
    for _ in range(50):
        lam = rand_weight(rng, 1)
        chi = hc_project(sl2, lam, lvl)
        img = psi_s_label(sl2, ModuleLabel(VERMA, KAC_MOODY, lam, lvl))
        assert img.parameter == chi
        img2 = psi_s_label(sl2, ModuleLabel(VERMA, KAC_MOODY, chi.rep, lvl))
        assert img2.parameter == chi


def test_psi_s_rejects_w_side(sl2):
    lvl = Level(F(-3))
    chi = hc_project(sl2, (F(0),), lvl)
    from affchar.characters import W_ALGEBRA
    lbl = ModuleLabel(VERMA, W_ALGEBRA, chi, lvl)
    with pytest.raises(DomainError):
        psi_s_label(sl2, lbl)


def test_psi_s_w0_twist_flag(sl2):
    lvl = Level(F(-3))
    # Lam = 1: pairing 1 is a nonnegative integer, dies untwisted; the
    # twisted test reads the antidominant translate -3, which survives
    lbl = ModuleLabel(SIMPLE, KAC_MOODY, (F(1),), lvl)
    assert psi_s_label(sl2, lbl) is ZERO
    assert psi_s_label(sl2, lbl, w0_twist=True) is not ZERO


def chain_weight(sl2):
    return LevelWeight(sl2, (F(-2),), Level(F(-4)))


def test_simple_character_minimal_element(sl2):
    lw = chain_weight(sl2)
    res = ch_simple_W(lw, (), 15, length_bound=6)
    chi = hc_project(sl2, lw.lam, lw.level)
    assert equal_to_order(res.series, ch_verma_W(chi, 15), 15)
    assert res.contributions[0][1] == 1


def test_simple_character_chain_structure(sl2):
    lw = chain_weight(sl2)
    res = ch_simple_W(lw, (1, 0, 1), 20, length_bound=6)
    n = len(res.minimal_words)
    assert res.multiplicity_matrix == [[1 if j >= i else 0 for j in range(n)]
                                       for i in range(n)]
    for i in range(n):
        for j in range(n):
            expect = 1 if i == j else (-1 if j == i + 1 else 0)
            assert res.inverse_matrix[i][j] == expect
    # contributions carry signs (-1)^(l(w) - l(y)) where nonzero
    assert [(len(w), c) for w, c, _ in res.contributions] == [(2, -1), (3, 1)]


def test_simple_character_unitriangular_recombination(sl2):
    lw = chain_weight(sl2)
    res = ch_simple_W(lw, (1, 0, 1), 12, length_bound=6)
    n = len(res.minimal_words)
    for i in range(n):
        for j in range(n):
            s = sum(res.multiplicity_matrix[i][k] * res.inverse_matrix[k][j]
                    for k in range(n))
            assert s == (1 if i == j else 0)


def test_simple_character_positivity(sl2):
    lw = chain_weight(sl2)
    for word in [(), (1,), (1, 0), (1, 0, 1), (1, 0, 1, 0)]:
        res = ch_simple_W(lw, word, 30, length_bound=7)
        assert all(c >= 0 for c in res.series.coeffs)


def test_simple_character_nonchain_sl3():
    sl3 = build_root_system("A", 2)
    lw = LevelWeight(sl3, (F(-2), F(-2)), Level(F(-6)))
    # the minimal-coset KL matrix has a 2 above the length-4 reflection,
    # so its inverse drops the unit column entirely
    res = ch_simple_W(lw, (2, 0, 1, 2), 30, length_bound=5)
    got = {tuple(y): c for y, c, _ in res.contributions}
    assert got == {(2,): -1, (2, 0, 1): -1, (2, 0, 1, 2): 1}
    assert all(c >= 0 for c in res.series.coeffs)
    res2 = ch_simple_W(lw, (2, 0, 1), 30, length_bound=5)
    got2 = {tuple(y): c for y, c, _ in res2.contributions}
    assert got2 == {(2,): 1, (2, 0): -1, (2, 1): -1, (2, 0, 1): 1}
    assert all(c >= 0 for c in res2.series.coeffs)
    # rules coincide on rank-one chains but differ here
    par = ch_simple_W(lw, (2, 0, 1), 30, length_bound=5,
                      multiplicities="parabolic:q")
    assert {tuple(y): c for y, c, _ in par.contributions} != got2


def test_simple_character_trivial_integral_weyl_group(sl2):
    lw = LevelWeight(sl2, (F(1, 3),), Level(F(-5, 2)))
    res = ch_simple_W(lw, (), 10)
    chi = hc_project(sl2, lw.lam, lw.level)
    assert equal_to_order(res.series, ch_verma_W(chi, 10), 10)
    with pytest.raises(DomainError):
        ch_simple_W(lw, (0,), 10)


def test_simple_character_rejections(sl2):
    with pytest.raises(DomainError):
        ch_simple_W(LevelWeight(sl2, (F(0),), Level(F(-4))), (), 10)
    with pytest.raises(DomainError):
        ch_simple_W(LevelWeight(sl2, (F(-2),), Level(F(1))), (), 10)
    with pytest.raises(DomainError):
        # non-minimal coset representative
        ch_simple_W(chain_weight(sl2), (0,), 10, length_bound=6)


@pytest.mark.parametrize("rule", MULTIPLICITY_RULES)
@pytest.mark.parametrize("letter,rank,level,lam,word,bound", [
    ("A", 2, -6, (-2, -2), (2, 0, 1, 2), 5),
    ("A", 2, -6, (-2, -2), (2, 0, 1), 5),
    ("B", 2, -7, (-2, -2), (2, 0, 1, 0, 2, 0), 8),
    ("G", 2, -9, (F(-5, 2), -3), (2, 0, 3, 1, 3), 8),
])
def test_contributions_are_last_inverse_column(rule, letter, rank, level,
                                               lam, word, bound):
    # the back-substituted column against the whole inverse
    lw = LevelWeight(build_root_system(letter, rank), lam, Level(level))
    res = ch_simple_W(lw, word, 4, length_bound=bound, multiplicities=rule)
    assert res.minimal_words[-1] == word
    last = [row[-1] for row in res.inverse_matrix]
    assert [(y, c) for y, c, _ in res.contributions] == [
        (y, c) for y, c in zip(res.minimal_words, last) if c != 0]
