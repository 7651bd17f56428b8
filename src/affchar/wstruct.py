"""Exponent-driven structure of the W-algebra filtration: ideal jumps,
generator energy windows, and bigraded vacuum characters.

The bigraded character of the level-n vacuum quotient is the character of
a polynomial algebra with one tower of modes per exponent d_i of g.  The
tower attached to d_i sits in Kazhdan-Kostant degree d_i + 1 (the spin of
the generating field) and its mode energies form d_i + 1 - n d_i,
d_i + 2 - n d_i, ... under the energy-bounded-below orientation
("appendix" convention).  This calibration reproduces two anchors, both
asserted in the test suite rather than trusted:

* n = 0 and g = sl2 gives the Virasoro vacuum character
  prod_{m >= 2} (1 - q^m)^{-1};
* n = 1 starts every tower at energy 1 (pole order at most d_i - 1 on
  the factor with exponent d_i).

The "kernel" convention negates all energies (loop-rotation orientation
of the filtration kernels, where degrees are bounded above); in that
orientation the coefficient of u^j q^m vanishes whenever m > n j.
"""

from fractions import Fraction
from dataclasses import dataclass

from .errors import DomainError, check_step_budget
from .qseries import QSeries

F = Fraction

CONVENTIONS = ("appendix", "kernel")


def ideal_jump(n, h):
    """Canonical jump representative ceil(n h)/h; the filtration ideals
    change only at these values."""
    n = F(n)
    if n < 0:
        raise DomainError("jump parameter must be nonnegative")
    h = int(h)
    if h < 1:
        raise DomainError("Coxeter number must be positive")
    nh = n * h
    ceil = -((-nh.numerator) // nh.denominator)
    return F(ceil, h)


def generator_windows(n, m, rs):
    """Per-Kazhdan-Kostant-degree energy windows [i n, i m) for the
    generators of the kernel ideal, degrees 1 <= i <= h."""
    if m < n:
        raise DomainError("window requires m >= n")
    if n < 0:
        raise DomainError("window requires n >= 0")
    h = rs.coxeter_number
    return {i: (i * n, i * m) for i in range(1, h + 1)}


@dataclass
class BigradedCharacter:
    """Coefficients of the bigraded vacuum character, complete on the
    window u-degree <= max_u, energy <= max_q (and unbounded below)."""

    cartan_type: str
    n: int
    convention: str
    max_u: int
    max_q: int
    coeffs: dict  # (j, m) -> positive int
    towers: list  # (kk degree, first energy)

    def coefficient(self, j, m):
        if j > self.max_u:
            raise DomainError("u-degree %d beyond computed window" % j)
        if self.convention == "appendix" and m > self.max_q:
            raise DomainError("energy %s beyond computed window" % (m,))
        if self.convention == "kernel" and -m > self.max_q:
            raise DomainError("energy %s beyond computed window" % (m,))
        return self.coeffs.get((j, m), 0)

    def u_one_series(self, trunc):
        """The q-series at u = 1, exact to the requested order; only
        meaningful when every mode has positive energy and the u-window
        dominates it (e.g. the n = 0 vacuum anchor)."""
        if any(e0 <= 0 for _, e0 in self.towers):
            raise DomainError(
                "u = 1 specialization diverges with nonpositive mode energies")
        if self.convention != "appendix":
            raise DomainError("u = 1 specialization uses the appendix convention")
        need_u = max(kk for kk, _ in self.towers) * trunc
        if trunc > self.max_q or need_u > self.max_u:
            raise DomainError("u = 1 specialization needs a larger window")
        out = [0] * (trunc + 1)
        for (j, m), c in self.coeffs.items():
            if 0 <= m <= trunc:
                out[m] += c
        return QSeries(0, out, trunc)

    def to_json_dict(self):
        items = {"%d,%d" % jm: c for jm, c in sorted(self.coeffs.items())}
        return {
            "type": self.cartan_type,
            "n": self.n,
            "convention": self.convention,
            "max_u": self.max_u,
            "max_q": self.max_q,
            "towers": [{"kk_degree": kk, "first_energy": e} for kk, e in self.towers],
            "coefficients": items,
        }

    def to_csv(self):
        lines = ["j,m,coefficient"]
        for (j, m), c in sorted(self.coeffs.items()):
            lines.append("%d,%d,%d" % (j, m, c))
        return "\n".join(lines) + "\n"


def vacuum_graded_character(rs, n, max_u, max_q, convention="appendix"):
    """Bigraded character of the level-n vacuum quotient: u tracks the
    Kazhdan-Kostant degree, q the energy.

    The character is the product over modes (kk, e) of 1/(1 - u^kk q^e),
    computed in the appendix orientation as one dict per u-degree,
    rows[j]: m -> coefficient.  Multiplying by one mode is one pass with
    j ascending from kk to max_u, adding rows[j - kk] shifted by e into
    rows[j]; row j - kk already holds the mode's powers when row j reads
    it, so the pass applies the whole geometric series.

    Row j keeps energies m <= limit(j) = max_q + neg * ((max_u - j) //
    kk_min), where -neg is the lowest mode energy (or 0) and kk_min the
    lowest tower degree.  Truncating in place is exact: every mode has
    e >= -neg and kk >= kk_min, so limit(j + kk) <= limit(j) - neg, and a
    term dropped at (j, m) with m > limit(j) only feeds terms beyond the
    limits of the later rows, all above max_q.  The pass count is checked
    against errors.STEP_BUDGET before any row is built.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if max_u < 0:
        raise DomainError("max_u must be nonnegative")
    if convention not in CONVENTIONS:
        raise DomainError("convention must be one of %s" % (CONVENTIONS,))
    towers = [(d + 1, d + 1 - n * d) for d in rs.exponents]
    kk_min = min(kk for kk, _ in towers)
    neg = max(0, -min(e for _, e in towers))
    cap = max_q + neg * (max_u // kk_min)
    # one pass per mode over max_u + 1 rows, each holding energies between
    # -neg * (max_u // kk_min) and cap
    n_modes = sum(max(0, cap - e0 + 1) for _, e0 in towers)
    check_step_budget(
        "vacuum character of %s at n=%d, max_u=%d, max_q=%d"
        % (rs.cartan_type, n, max_u, max_q),
        n_modes * (max_u + 1) * (cap + neg * (max_u // kk_min) + 1))
    limits = [max_q + neg * ((max_u - j) // kk_min) for j in range(max_u + 1)]
    rows = [{} for _ in range(max_u + 1)]
    rows[0][0] = 1
    for kk, e0 in sorted(towers):
        for e in range(e0, cap + 1):
            for j in range(kk, max_u + 1):
                src, dst, lim = rows[j - kk], rows[j], limits[j] - e
                for m, c in src.items():
                    if m <= lim:
                        dst[m + e] = dst.get(m + e, 0) + c
    coeffs = {(j, m): c for j, row in enumerate(rows)
              for m, c in row.items() if m <= max_q}
    if convention == "kernel":
        coeffs = {(j, -m): c for (j, m), c in coeffs.items()}
        towers = [(kk, -e) for kk, e in towers]
    return BigradedCharacter(rs.cartan_type, n, convention, max_u, max_q,
                             coeffs, towers)


def vanishing_violations(char, n):
    """Nonzero coefficients of u^j q^m with m > n j under the kernel
    orientation; empty for a correct character."""
    if char.convention != "kernel":
        raise DomainError("the vanishing law is stated in the kernel convention")
    return sorted((j, m, c) for (j, m), c in char.coeffs.items() if m > n * j)
