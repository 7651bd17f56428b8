from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affchar.errors import DomainError, TruncationOverflow
from affchar.rootdata import (Level, _mat_inv, build_root_system,
                              casimir_eigenvalue)
from conftest import coweight_form_on_coroots, rand_fraction, rand_weight

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("B", 2), ("B", 3),
             ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
             ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_structure_invariants(letter, rank):
    rs = build_root_system(letter, rank)
    assert len(rs.positive_roots) == (rs.dim - rank) // 2
    assert sum(2 * d + 1 for d in rs.exponents) == rs.dim
    assert rs.exponents[-1] == rs.coxeter_number - 1
    assert all(rs.exponents[i] + rs.exponents[rank - 1 - i] == rs.coxeter_number
               for i in range(rank))
    # exponents are the conjugate of the height profile
    heights = [int(sum(b)) for b in rs.positive_roots]
    for m in range(1, rs.coxeter_number):
        assert sum(1 for h in heights if h == m) == \
            sum(1 for d in rs.exponents if d >= m)
    # basic form normalization and rho pairings
    assert coweight_form_on_coroots(rs, rs.theta_check, rs.theta_check) == 2
    for i in range(rank):
        acheck = tuple(F(int(i == j)) for j in range(rank))
        assert rs.pair_weight_coroot(rs.rho, acheck) == 1


def test_small_type_facts():
    a1 = build_root_system("A", 1)
    assert a1.exponents == (1,)
    assert a1.coxeter_number == 2 and a1.h_dual == 2 and a1.dim == 3

    a2 = build_root_system("A", 2)
    assert a2.exponents == (1, 2)
    assert a2.coxeter_number == 3 and a2.dim == 8

    g2 = build_root_system("G", 2)
    assert g2.exponents == (1, 5)
    assert g2.coxeter_number == 6 and g2.h_dual == 4
    assert sum(2 * d + 1 for d in g2.exponents) == 14


def test_invalid_types_rejected():
    for letter, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("F", 3),
                         ("G", 3), ("E", 5), ("H", 3), ("Z", 1), (5, 1)]:
        with pytest.raises(DomainError):
            build_root_system(letter, rank)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_coroots_use_the_quadratic_form_of_each_root(letter, rank):
    # the closure hands each root its parent's (beta, beta)/2; the
    # reference evaluates the form on every root
    rs = build_root_system(letter, rank)
    for beta, gamma in zip(rs.positive_roots, rs.positive_coroots):
        half = sum(beta[i] * beta[j] * rs.cartan[i][j] * rs.halfsq[i]
                   for i in range(rank) for j in range(rank)) / 2
        assert gamma == tuple(b * h / half
                              for b, h in zip(beta, rs.halfsq))
        assert rs.coroot_lacing[gamma] == 1 / half


def dense_mat_inv(a):
    """Gauss-Jordan inverse over Fraction with every row operation run
    over the whole row; the reference for `_mat_inv`."""
    n = len(a)
    m = [[F(x) for x in row] + [F(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        d = m[col][col]
        m[col] = [x / d for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


CARTAN_TYPES = ([("A", r) for r in range(1, 13)]
                + [(t, r) for t in "BC" for r in range(2, 11)]
                + [("D", r) for r in range(3, 11)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_inverse_cartan_matrices_match_dense_elimination():
    for letter, rank in CARTAN_TYPES:
        rs = build_root_system(letter, rank)
        assert rs.cartan_inv == tuple(map(tuple, dense_mat_inv(rs.cartan)))


@settings(max_examples=150)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_mat_inv_matches_dense_elimination(rows):
    # small integer matrices, many with zero pivots that need a row swap;
    # a singular one finds no pivot either way
    try:
        expect = dense_mat_inv(rows)
    except StopIteration:
        with pytest.raises(StopIteration):
            _mat_inv(rows)
        return
    got = _mat_inv(rows)
    assert got == expect
    assert all(type(x) is F for row in got for x in row)


def test_rank_over_the_step_budget_is_refused_before_any_work():
    # rank^4 against 10^8 steps: rank 101 is the first refused
    for letter in "ABCD":
        with pytest.raises(TruncationOverflow) as exc:
            build_root_system(letter, 101)
        assert exc.value.witness == 101 ** 4
    with pytest.raises(TruncationOverflow):
        build_root_system("A", 10 ** 6)
    # a rank the type does not have is still a domain error
    for letter, rank in [("E", 101), ("G", 1000)]:
        with pytest.raises(DomainError):
            build_root_system(letter, rank)


def test_form_examples(sl2):
    acheck = sl2.simple_coroots[0]
    assert Level(F(1)).k * sl2.coweight_form(acheck, acheck) == 2
    for k in (F(1), F(-7, 3), F(5, 2)):
        assert (Level(k).k * sl2.coweight_form(sl2.rho_check, sl2.rho_check)
                == k / 2)
        zero = Level(F(0)).k * sl2.coweight_form(acheck, sl2.rho_check)
        assert zero == 0


def test_form_bilinear_exact(sl3, rng):
    lvl = Level(F(7, 3))
    for _ in range(50):
        x = rand_weight(rng, 2)
        y = rand_weight(rng, 2)
        z = rand_weight(rng, 2)
        a = rand_fraction(rng)
        lhs = lvl.k * sl3.coweight_form(
            tuple(a * xi + yi for xi, yi in zip(x, y)), z)
        rhs = (a * lvl.k * sl3.coweight_form(x, z)
               + lvl.k * sl3.coweight_form(y, z))
        assert lhs == rhs
        assert (lvl.k * sl3.coweight_form(x, y)
                == lvl.k * sl3.coweight_form(y, x))


def test_casimir_examples(sl2):
    assert casimir_eigenvalue(sl2, (F(0),)) == 0
    assert casimir_eigenvalue(sl2, (F(-2),)) == 0
    for a in (F(1), F(2), F(-5), F(7, 2)):
        assert casimir_eigenvalue(sl2, (a,)) == a * (a + 2) / 2


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("G", 2)])
def test_casimir_dot_symmetry(letter, rank, rng):
    rs = build_root_system(letter, rank)
    for _ in range(100):
        lam = rand_weight(rng, rank)
        mirror = tuple(-a - 2 for a in lam)
        assert casimir_eigenvalue(rs, lam) == casimir_eigenvalue(rs, mirror)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_forms_on_simple_roots_and_coroots(letter, rank):
    # (alpha_i, alpha_j) = A[i][j] halfsq[i] and kappa_b(acheck_i, acheck_j)
    # = A[i][j] / halfsq[j]: the Gram matrices on every type, entry by entry
    rs = build_root_system(letter, rank)
    for i in range(rank):
        for j in range(rank):
            assert rs.weight_form(rs.simple_roots[i], rs.simple_roots[j]) == \
                rs.cartan[i][j] * rs.halfsq[i]
            assert rs.coweight_form(rs.simple_coroots[i],
                                    rs.simple_coroots[j]) == \
                rs.cartan[i][j] / rs.halfsq[j]


def test_level_predicates(sl2):
    assert Level(F(-2)).is_critical(sl2)
    assert not Level(F(-1, 2)).is_critical(sl2)
    assert Level(F(-3)).is_negative(sl2)
    assert not Level(F(-1, 2)).is_negative(sl2)  # -1/2 + 2 > 0
    with pytest.raises(DomainError):
        Level(F(-2)).require_noncritical(sl2)


def test_serialization(sl3):
    d = sl3.to_json_dict()
    assert d == {"type": "A", "rank": 2, "exponents": [1, 2],
                 "coxeter_number": 3, "dual_coxeter_number": 3, "dim": 8}
