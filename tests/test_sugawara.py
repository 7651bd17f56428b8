import itertools
from fractions import Fraction as F

import pytest

from affchar.errors import DomainError, TruncationOverflow
from affchar.qseries import eta_factor
from affchar.rootdata import Level, build_root_system
from affchar.characters import energy_offsets, hc_project
from affchar.sugawara import build_truncated_verma, check_dss, sugawara_mode
from conftest import rand_fraction


def test_basis_graded_dimensions():
    m = build_truncated_verma(0, 1, 5, 2)
    eta3 = eta_factor(1, -3, 5)
    for d in range(6):
        count = sum(1 for mono in m.basis
                    if m.depth(mono) == d and m.f0_count(mono) == 0)
        assert count == eta3.coeffs[d]
    # each zero-mode power replicates the graded piece
    for j in range(3):
        count = sum(1 for mono in m.basis if m.f0_count(mono) == j)
        assert count == sum(eta3.coeffs)


def test_zero_depth_module():
    m = build_truncated_verma(0, 1, 0, 2)
    assert [m.f0_count(mono) for mono in m.basis] == [0, 1, 2]


def test_highest_weight_relations():
    m = build_truncated_verma(F(7, 3), F(1, 5), 3, 1)
    assert m.apply_word((("e", 0),), ()) == {}
    assert m.apply_word((("e", 2),), ()) == {}
    assert m.apply_word((("h", 1),), ()) == {}
    assert m.apply_word((("f", 3),), ()) == {}
    assert m.apply_word((("h", 0),), ()) == {(): F(7, 3)}


def test_bracket_relations_sampled():
    m = build_truncated_verma(F(1, 2), F(-1, 3), 4, 2)
    checked = m.verify_brackets(modes=(-2, -1, 0, 1, 2))
    assert checked > 200


def test_resource_bounds_rejected():
    with pytest.raises(DomainError):
        build_truncated_verma(0, 1, 9, 2)
    with pytest.raises(DomainError):
        build_truncated_verma(0, 1, 2, 9)
    with pytest.raises(DomainError):
        build_truncated_verma(0, -2, 3, 1)
    m = build_truncated_verma(0, 1, 2, 1)
    with pytest.raises(DomainError):
        sugawara_mode(m, 5)


def test_truncation_overflow_is_loud():
    m = build_truncated_verma(0, 1, 2, 0)
    deep = (("f", -2),)
    with pytest.raises(TruncationOverflow):
        m.apply_word((("e", -1),), deep)   # depth 3 > 2
    with pytest.raises(TruncationOverflow):
        m.apply_word((("f", 0),), ())      # f0 tail exceeded


def test_straightening_avoids_spurious_overflow():
    # e_0 f_0 |0> = h_0 |0> stays inside even with no f0 tail tracked
    m = build_truncated_verma(F(3), 1, 1, 0)
    assert m.apply_word((("e", 0), ("f", 0)), ()) == {(): F(3)}


def test_sugawara_vacuum_eigenvalues():
    m = build_truncated_verma(0, 1, 2, 1)
    assert sugawara_mode(m, 0)(()) == {}
    m2 = build_truncated_verma(1, 1, 2, 1)
    assert sugawara_mode(m2, 0)(()) == {(): F(1, 4)}
    for n in (1, 2):
        assert sugawara_mode(m2, n)(()) == {}


def test_sugawara_depth_one_conformal_weight():
    m = build_truncated_verma(0, 1, 3, 1)
    s0 = sugawara_mode(m, 0)
    for mono in m.basis:
        if m.depth(mono) == 1 and m.f0_count(mono) == 0:
            assert s0(mono) == {mono: F(1)}


def test_sugawara_hw_matches_energy_offsets(rng):
    for _ in range(10):
        a = rand_fraction(rng)
        k = rand_fraction(rng)
        if k == -2:
            continue
        m = build_truncated_verma(a, k, 0, 0)
        val = sugawara_mode(m, 0)(()).get((), F(0))
        rs = build_root_system("A", 1)
        chi = hc_project(rs, (a,), Level(k))
        assert val == energy_offsets(chi).conformal_weight


def test_spectral_flow_examples():
    # Ad_{t^{lam_check}} S_0 = S_0 + lam_check_0 + kappa(lam_check,
    # lam_check)/2 on |Lam>, a = 5, k = 1: 35/12 + (x/2) 5 + x^2/4
    m = build_truncated_verma(F(5), 1, 0, 0)
    for p, value in ((0, F(35, 12)), (1, F(17, 3)), (-1, F(2, 3)),
                     (2, F(107, 12))):
        assert sugawara_mode(m, 0, p)(()) == {(): value}


def test_spectral_flow_zero_coweight_is_identity():
    # x = 0 flows nothing: Ad S_n = S_n, no constant, no hw shift, and
    # the flipped flow is the same flow
    m = build_truncated_verma(F(2, 3), F(5, 4), 3, 1)
    hw = m.a * (m.a + 2) / 2 / (2 * (m.k + 2))
    for n in range(-2, 3):
        rep = check_dss(m, 0, n)
        assert rep.passed and not rep.mismatches
        assert rep.hw_expected == rep.hw_actual == hw
        assert (check_dss(m, 0, n, flip_sign=True).to_json_dict()
                == rep.to_json_dict())


def test_spectral_flow_requires_adjoint_cocharacter():
    m = build_truncated_verma(0, 1, 2, 1)
    with pytest.raises(DomainError, match="1/2 omega_check is not a "
                                          "cocharacter of the adjoint torus"):
        check_dss(m, F(1, 2), 0)


def test_flip_sign_is_the_opposite_flow():
    # the flipped check at x flows by -x, as the check at -x does, so both
    # straighten the same three sides of every vector and skip the same
    # vectors; the flipped check keeps the identity stated for +x, so
    # apart from lam_check its report is that of -x save for the
    # mismatches it finds
    m = build_truncated_verma(F(1, 3), F(-1, 2), 3, 1)
    for x in (1, 2, -1):
        for n in range(-2, 3):
            flipped = check_dss(m, x, n, flip_sign=True).to_json_dict()
            straight = check_dss(m, -x, n).to_json_dict()
            assert straight["passed"] and not flipped["passed"]
            assert (flipped.pop("lam_check"), straight.pop("lam_check")) == (
                [str(x)], [str(-x)])
            for key in ("mismatches", "passed"):
                flipped.pop(key), straight.pop(key)
            assert flipped == straight


def test_spectral_flow_flip_sign():
    # with l_n = (x/2) h_n, Ad_{t^{-x}} S_n = S_n - l_n + c and
    # Ad_{t^{x}} S_n = S_n + l_n + c: the flipped checks at x and -x
    # each find the other's two sides, swapped, on every vector that
    # both test
    m = build_truncated_verma(F(1, 3), F(-1, 2), 3, 1)
    for x in (1, 2):
        for n in range(-2, 3):
            mine = {mono: (lhs, rhs) for mono, lhs, rhs
                    in check_dss(m, x, n, flip_sign=True).mismatches}
            other = {mono: (rhs, lhs) for mono, lhs, rhs
                     in check_dss(m, -x, n, flip_sign=True).mismatches}
            common = mine.keys() & other.keys()
            assert common
            assert ({v: mine[v] for v in common}
                    == {v: other[v] for v in common})


def test_check_dss_small_grid():
    m = build_truncated_verma(0, F(-1, 2), 4, 1)
    for lam in (1, 2):
        for n in (-1, 0, 1):
            rep = check_dss(m, lam, n)
            assert rep.passed
            assert rep.tested > 0 and not rep.mismatches


def apply_vec(op, vec):
    """op applied to a sparse vector {monomial: coefficient}."""
    out = {}
    for mono, c in vec.items():
        for m2, c2 in op(mono).items():
            out[m2] = out.get(m2, F(0)) + c * c2
    return {m: c for m, c in out.items() if c != 0}


def action_table(op, module):
    """Sparse action table of op on the module basis; entries that
    overflow the window map to the TruncationOverflow marker."""
    t = {}
    for mono in module.basis:
        try:
            t[mono] = op(mono)
        except TruncationOverflow as exc:
            t[mono] = exc
    return t


def test_mode_operator_table():
    m = build_truncated_verma(0, 1, 2, 1)
    s1 = sugawara_mode(m, 1)
    table = action_table(s1, m)
    assert set(table) == set(m.basis)


def test_virasoro_commutators():
    m = build_truncated_verma(F(1, 3), F(-1, 2), 4, 1)
    for mm, nn in itertools.product((-1, 0, 1), repeat=2):
        sm, sn = sugawara_mode(m, mm), sugawara_mode(m, nn)
        smn = sugawara_mode(m, mm + nn)
        for mono in m.basis:
            try:
                lhs = apply_vec(sm, sn(mono))
                rhs = apply_vec(sn, sm(mono))
                expect = {x: (mm - nn) * c for x, c in smn(mono).items()}
            except TruncationOverflow:
                continue
            diff = dict(lhs)
            for x, c in rhs.items():
                diff[x] = diff.get(x, F(0)) - c
            diff = {x: c for x, c in diff.items() if c != 0}
            expect = {x: c for x, c in expect.items() if c != 0}
            assert diff == expect


@pytest.mark.parametrize("a, k", [(F(1, 3), F(-1, 2)), (F(3, 4), F(2, 3))])
def test_check_dss_non_integral_weight_and_level(a, k):
    # D = lcm(den a, den k) > 1 and a != 0, so the scaled vacuum term A,
    # the flow scalar K c and both check multipliers are all exercised
    m = build_truncated_verma(a, k, 4, 1)
    assert m.D > 1 and m.A != 0
    for lam in (1, 2, -1):
        for n in range(-2, 3):
            rep = check_dss(m, lam, n)
            assert rep.passed
            assert rep.tested + rep.skipped == len(m.basis)
            # the opposite flow differs by 2 lam_check_n, which is nonzero
            # on the window in every mode; the hw shift holds either way
            flipped = check_dss(m, lam, n, flip_sign=True)
            assert flipped.mismatches and not flipped.passed
            assert flipped.hw_expected == flipped.hw_actual
            assert flipped.tested + flipped.skipped == len(m.basis)
