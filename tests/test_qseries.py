import random
from fractions import Fraction as F

import pytest

from affchar.errors import DomainError
from affchar.qseries import QSeries, eta_factor, equal_to_order


def partitions_with_parts_at_least(n, m_start):
    """Independent dynamic-programming partition counter."""
    table = [[0] * (n + 1) for _ in range(n + 2)]
    for j in range(n + 2):
        table[j][0] = 1
    for part in range(n, m_start - 1, -1):
        for total in range(n + 1):
            table[part][total] = table[part + 1][total]
            if total >= part:
                table[part][total] += table[part][total - part]
    return [table[m_start][t] for t in range(n + 1)]


def colored_partitions(n, colors):
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for _ in range(colors):
            for total in range(part, n + 1):
                counts[total] += counts[total - part]
    return counts


def test_eta_matches_partition_oracle():
    e = eta_factor(1, -1, 20)
    assert e.offset == 0
    assert list(e.coeffs) == partitions_with_parts_at_least(20, 1)


def test_eta_restricted_parts():
    e = eta_factor(2, -1, 12)
    assert list(e.coeffs) == partitions_with_parts_at_least(12, 2)
    assert list(eta_factor(2, -1, 4).coeffs) == [1, 0, 1, 1, 2]


def test_eta_negative_exponent_three_colors():
    e = eta_factor(1, -3, 10)
    assert list(e.coeffs) == colored_partitions(10, 3)


def test_eta_trivial_and_inverse_pair():
    assert eta_factor(1, 0, 7) == QSeries(0, [1], 7)
    with pytest.raises(DomainError):
        eta_factor(0, 1, 3)
    prod = eta_factor(1, -1, 15) * eta_factor(1, 1, 15)
    assert equal_to_order(prod, QSeries(0, [1], 15), 15)


def test_offsets_add():
    a = QSeries(F(-1, 4), [1, 2])
    b = QSeries(F(1, 4), [1])
    assert (a * b).offset == 0


def test_unit_and_zero():
    x = QSeries(F(3, 7), [2, 5, 1])
    assert x * QSeries(0, [1], 2) == x
    z = QSeries(0, [0, 0, 0])
    assert z.is_zero
    assert (x * z).is_zero
    assert x + z == x
    # truncation order -1 knows no coefficient; below that is refused
    assert QSeries(0, [1], -1).is_zero
    with pytest.raises(DomainError):
        QSeries(0, [1], trunc=-2)


def test_canonicalization_equality():
    a = QSeries(1, [0, 0, 4, 5], 3)
    b = QSeries(3, [4, 5], 1)
    assert a == b
    assert a.offset == 3 and a.coeffs == (4, 5)


def test_equal_zero_series_hash_alike():
    # zero series of different windows (and offsets) are equal, so they
    # must be one set element and one dict key
    zeros = [QSeries(0, [0], 3), QSeries(0, [0], 5), QSeries(F(7, 2), [0, 0]),
             QSeries(1, [5, 1]) - QSeries(1, [5, 1])]
    assert all(z == zeros[0] for z in zeros)
    assert len(set(zeros)) == 1
    assert len({QSeries(0, [1], 3), QSeries(0, [1], 5)}) == 2


def test_equal_to_order_window():
    a = QSeries(0, [1, 2, 3, 4])
    b = QSeries(0, [1, 2, 3, 9])
    assert equal_to_order(a, b, 2)
    assert not equal_to_order(a, b, 3)
    with pytest.raises(DomainError):
        equal_to_order(a, b, 5)
    # a zero operand equals only zero, whatever the offsets
    zero = QSeries(0, [0, 0, 0, 0])
    assert equal_to_order(zero, QSeries(F(1, 2), [0, 0, 0]), 2)
    assert not equal_to_order(zero, a, 2)
    assert not equal_to_order(a, zero, 2)


def test_add_requires_integer_offset_gap():
    a = QSeries(F(1, 2), [1, 1])
    b = QSeries(F(1, 3), [1, 1])
    with pytest.raises(DomainError):
        a + b
    wide = QSeries(F(1, 2), [1, 1, 0, 0, 0], 4)
    c = QSeries(F(5, 2), [7], 0)
    s = wide + c
    # window clipped to where both operands are known
    assert s.offset == F(1, 2) and list(s.coeffs) == [1, 1, 7]
    clipped = a + c
    assert clipped.offset == F(1, 2) and list(clipped.coeffs) == [1, 1]


@pytest.mark.parametrize("offset, coeffs", [
    (0, [F(1, 2), 2, 1]), (0, [1, 2.7]), (0, [True, 1]), (0, [1, None]),
    (0, ["1"]), (0.1, [1]), (True, [1]), ("1/2", [1]), (None, [1]),
])
def test_inexact_input_is_rejected(offset, coeffs):
    # a non-int coefficient or a non-exact offset is never truncated
    with pytest.raises(DomainError):
        QSeries(offset, coeffs)
    with pytest.raises(DomainError):
        QSeries(offset, coeffs, 5)


def test_shift_by_a_float_is_rejected():
    with pytest.raises(DomainError):
        QSeries(0, [1]).shift(0.5)


def test_subtraction_cancellation_renormalizes():
    a = QSeries(2, [5, 1, 1])
    b = QSeries(2, [5, 1, 0])
    d = a - b
    assert d.offset == 4 and list(d.coeffs) == [1]
    # unknown tail clips the window instead of inventing coefficients
    short = a - QSeries(2, [5, 1])
    assert short.is_zero and short.trunc >= 0


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_series():
        off = F(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        return QSeries(off, [rng.randint(-5, 5) for _ in range(21)], 20)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        left, right = (a * b) * c, a * (b * c)
        assert equal_to_order(left, right, min(left.trunc, right.trunc, 18))
        if (b.offset - c.offset).denominator == 1:
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert equal_to_order(lhs, rhs, min(lhs.trunc, rhs.trunc))
        ab, ba = a * b, b * a
        assert equal_to_order(ab, ba, min(ab.trunc, ba.trunc))


def test_geometric_and_text():
    txt = repr(QSeries(F(-3, 2), [1, 0, 2], 2))
    assert txt == "q^{-3/2} * (1 + 2 q^2 + O(q^3))"
    d = QSeries(F(-3, 2), [1, 0, 2], 2).to_json_dict()
    assert d == {"offset": "-3/2", "coeffs": [1, 0, 2], "truncation": 2}
