from fractions import Fraction as F

import pytest

from affchar.errors import DomainError
from affchar.qseries import eta_factor, equal_to_order
from affchar.wstruct import (_row_slots, generator_windows, ideal_jump,
                             vacuum_graded_character, vanishing_violations)
from conftest import rand_fraction


def test_jump_examples():
    assert ideal_jump(F(3, 10), 2) == F(1, 2)
    assert ideal_jump(1, 2) == 1
    assert ideal_jump(F(5, 6), 6) == F(5, 6)
    assert ideal_jump(0, 4) == 0


def test_jump_rejects_negative():
    with pytest.raises(DomainError):
        ideal_jump(F(-1, 3), 2)
    with pytest.raises(DomainError):
        ideal_jump(1, 0)


def test_jump_laws_random(rng):
    for _ in range(1000):
        h = rng.choice([2, 3, 4, 6, 12, 30])
        n = abs(rand_fraction(rng, -40, 40, 24))
        j = ideal_jump(n, h)
        # lands on the lattice, idempotent, dominates n
        assert (j * h).denominator == 1
        assert ideal_jump(j, h) == j
        assert j >= n
        # constant on ((m-1)/h, m/h]: the jump never moves past the next
        # lattice point
        assert j - n < F(1, h) or j == n
        # weakly monotone against a nearby smaller parameter
        n2 = max(F(0), n - F(rng.randint(0, 3), h * 2))
        assert ideal_jump(n2, h) <= j


def test_generator_windows(sl2, sl3):
    w = generator_windows(1, 2, sl2)
    assert w == {1: (1, 2), 2: (2, 4)}
    w = generator_windows(0, 1, sl3)
    assert w == {1: (0, 1), 2: (0, 2), 3: (0, 3)}
    assert generator_windows(2, 2, sl2) == {1: (2, 2), 2: (4, 4)}


def test_generator_windows_laws(sl3):
    n, m = 2, 5
    w = generator_windows(n, m, sl3)
    assert sorted(w) == list(range(1, sl3.coxeter_number + 1))
    for i, (lo, hi) in w.items():
        assert (lo, hi) == (i * n, i * m)
        assert hi - lo == i * (m - n)
    with pytest.raises(DomainError):
        generator_windows(3, 2, sl3)


def test_vacuum_character_virasoro_anchor(sl2):
    ch = vacuum_graded_character(sl2, 0, max_u=24, max_q=12)
    s = ch.u_one_series(12)
    assert equal_to_order(s, eta_factor(2, -1, 12), 12)


def test_vacuum_character_level_one_anchor(sl2, sl3):
    # at n = 1 every tower starts at energy 1 (pole order d_i - 1)
    ch = vacuum_graded_character(sl2, 1, max_u=24, max_q=12)
    assert ch.towers == [(2, 1)]
    assert equal_to_order(ch.u_one_series(12), eta_factor(1, -1, 12), 12)
    ch3 = vacuum_graded_character(sl3, 1, max_u=40, max_q=10)
    assert sorted(ch3.towers) == [(2, 1), (3, 1)]
    assert equal_to_order(ch3.u_one_series(10), eta_factor(1, -2, 10), 10)


def test_vacuum_character_u_zero_slice(sl2, sl3):
    for rs in (sl2, sl3):
        for n in range(3):
            ch = vacuum_graded_character(rs, n, max_u=6, max_q=10)
            slice0 = {m: c for (j, m), c in ch.coeffs.items() if j == 0}
            assert slice0 == {0: 1}


def test_vacuum_character_extra_mode_per_level(sl2):
    # raising n by one adds exactly d_i = 1 mode per tower below any cap
    ch0 = vacuum_graded_character(sl2, 0, max_u=2, max_q=10)
    ch1 = vacuum_graded_character(sl2, 1, max_u=2, max_q=10)
    modes0 = sorted(m for (j, m), c in ch0.coeffs.items() if j == 2)
    modes1 = sorted(m for (j, m), c in ch1.coeffs.items() if j == 2)
    assert len(modes1) == len(modes0) + 1
    assert modes1[0] == modes0[0] - 1


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_vanishing_law(sl2, sl3, n):
    for rs in (sl2, sl3):
        ch = vacuum_graded_character(rs, n, max_u=6, max_q=20,
                                     convention="kernel")
        assert vanishing_violations(ch, n) == []


def test_vanishing_check_requires_kernel_convention(sl2):
    ch = vacuum_graded_character(sl2, 1, max_u=4, max_q=8)
    with pytest.raises(DomainError):
        vanishing_violations(ch, 1)


@pytest.mark.parametrize("n,max_u,max_q,convention", [
    (-1, 4, 8, "appendix"), (1, -1, 8, "appendix"), (1, 4, -1, "appendix"),
    (1, 4, 8, "bogus"),
])
def test_vacuum_character_rejects_bad_input(sl2, n, max_u, max_q,
                                            convention):
    with pytest.raises(DomainError):
        vacuum_graded_character(sl2, n, max_u, max_q, convention=convention)


def test_kernel_convention_negates(sl2):
    app = vacuum_graded_character(sl2, 1, max_u=4, max_q=8)
    ker = vacuum_graded_character(sl2, 1, max_u=4, max_q=8,
                                  convention="kernel")
    assert ker.coeffs == {(j, -m): c for (j, m), c in app.coeffs.items()}


def test_u_one_rejects_divergent_windows(sl2):
    ch = vacuum_graded_character(sl2, 2, max_u=8, max_q=8)
    with pytest.raises(DomainError):
        ch.u_one_series(8)   # nonpositive mode energies at n = 2
    small = vacuum_graded_character(sl2, 0, max_u=4, max_q=8)
    with pytest.raises(DomainError):
        small.u_one_series(8)  # u-window too small for the slice


def test_bigraded_serialization(sl2):
    ch = vacuum_graded_character(sl2, 0, max_u=4, max_q=6)
    d = ch.to_json_dict()
    assert d["type"] == "A1" and d["convention"] == "appendix"
    assert d["coefficients"]["0,0"] == 1


def test_row_slots_closed_form():
    # the slot charge of vacuum_graded_character against the explicit sum
    # of the row widths limit(j) - lo + 1
    for max_u in range(40):
        for max_q in (0, 1, 7):
            for neg in (0, 1, 2, 5, 11):
                for kk_min in (1, 2, 3, 4, 7):
                    lo = -neg * (max_u // kk_min)
                    want = sum(max_q + neg * ((max_u - j) // kk_min) - lo + 1
                               for j in range(max_u + 1))
                    assert _row_slots(max_u, max_q, neg, kk_min) == want
