"""Exact formal q-series q^{e0} * sum a_n q^n with rational offset.

Coefficients are ints and offsets ints or Fractions; anything else, a
float or a bool, raises DomainError.  Truncation is explicit: a series
knows its coefficients a_0 .. a_N relative to the offset and refuses
comparisons past what it knows.  Arithmetic propagates truncation
pessimistically (min of the operands).

Series are normalized: a_0 != 0 unless the series is zero; leading
zeros are folded into the offset, which keeps equality a plain
componentwise check.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, check_step_budget
from .rootdata import exact

F = Fraction


class QSeries:
    __slots__ = ("offset", "coeffs", "trunc")

    def __init__(self, offset, coeffs, trunc=None):
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise DomainError("q-series coefficients must be ints, not %r"
                                  % (c,))
        if trunc is None:
            trunc = len(coeffs) - 1
        if trunc < -1:
            raise DomainError("negative truncation order")
        coeffs = coeffs[:trunc + 1]
        coeffs += [0] * (trunc + 1 - len(coeffs))
        offset = exact(offset, "q-series offset")
        # normalize: fold leading zeros into the offset
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            # zero to the known order; canonical zero keeps its window size
            self.offset = F(0)
            self.coeffs = tuple(coeffs)
            self.trunc = trunc
        else:
            self.offset = offset + lead
            self.coeffs = tuple(coeffs[lead:])
            self.trunc = trunc - lead

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    # -- ring operations -------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return QSeries(self.offset, [other * c for c in self.coeffs], self.trunc)
        n = min(self.trunc, other.trunc)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[:n + 1 - i]):
                out[i + j] += a * b
        return QSeries(self.offset + other.offset, out, n)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.is_zero:
            return QSeries(other.offset, other.coeffs, min(self.trunc, other.trunc))
        if other.is_zero:
            return QSeries(self.offset, self.coeffs, min(self.trunc, other.trunc))
        d = other.offset - self.offset
        if d.denominator != 1:
            raise DomainError(
                "cannot add series with offsets differing by the non-integer %s" % d)
        d = int(d)
        if d < 0:
            return other + self
        # other starts d slots later; known windows intersect
        n = min(self.trunc, d + other.trunc)
        out = list(self.coeffs[:n + 1]) + [0] * (n + 1 - len(self.coeffs))
        for j, b in enumerate(other.coeffs):
            if d + j > n:
                break
            out[d + j] += b
        return QSeries(self.offset, out, n)

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def shift(self, power):
        """Multiply by q^power."""
        return QSeries(self.offset + power, self.coeffs, self.trunc)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.is_zero and other.is_zero) or (
            self.offset == other.offset and self.coeffs == other.coeffs)

    def __hash__(self):
        # every zero series equals every other whatever its window, and
        # its offset is always 0
        return hash((self.offset, () if self.is_zero else self.coeffs))

    # -- presentation -------------------------------------------------------

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if n == 0:
                terms.append(str(c))
            elif c != 0:
                terms.append("%d q^%d" % (c, n) if n > 1 else "%d q" % c)
        body = " + ".join(terms).replace("+ -", "- ")
        return "q^{%s} * (%s + O(q^%d))" % (self.offset, body, self.trunc + 1)

    def to_json_dict(self):
        return {
            "offset": str(self.offset),
            "coeffs": list(self.coeffs),
            "truncation": self.trunc,
        }


@lru_cache(maxsize=None)
def eta_factor(m_start, exponent, trunc):
    """prod_{i >= m_start} (1 - q^i)^exponent, exact to order trunc.

    Only factors with i <= trunc contribute below the truncation order.
    Each factor is one in-place pass over the coefficient list a:
    times (1 - q^i) is a[m] -= a[m - i] for m going down from trunc to i,
    and times 1/(1 - q^i) is a[m] += a[m - i] for m going up from i to
    trunc (each a[m - i] read is already multiplied, so one pass applies
    the whole geometric series).  That is |exponent| * sum_i (trunc - i + 1)
    integer updates, checked against errors.STEP_BUDGET before any work.
    """
    if m_start < 1:
        raise DomainError("eta_factor requires m_start >= 1")
    factors = max(0, trunc - m_start + 1)
    check_step_budget("eta_factor(%d, %d, %d)" % (m_start, exponent, trunc),
                      abs(exponent) * factors * (factors + 1) // 2)
    a = [1] + [0] * trunc
    for i in range(m_start, trunc + 1):
        for _ in range(abs(exponent)):
            if exponent > 0:
                for m in range(trunc, i - 1, -1):
                    a[m] -= a[m - i]
            else:
                for m in range(i, trunc + 1):
                    a[m] += a[m - i]
    return QSeries(0, a, trunc)


def equal_to_order(a, b, order):
    """Exact equality of offsets and the first order+1 coefficients.

    Rejects the comparison if either operand is not known that far.
    """
    if order > a.trunc or order > b.trunc:
        raise DomainError(
            "comparison to order %d beyond truncation (%d, %d)"
            % (order, a.trunc, b.trunc))
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return a.offset == b.offset and a.coeffs[:order + 1] == b.coeffs[:order + 1]
