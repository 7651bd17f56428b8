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
from itertools import accumulate
from operator import add

from .errors import DomainError, check_slot_budget, check_step_budget

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


class BigradedCharacter:
    """Coefficients of the bigraded vacuum character, complete on the
    window u-degree <= max_u, energy <= max_q (and unbounded below)."""

    def __init__(self, cartan_type, n, convention, max_u, max_q, coeffs,
                 towers):
        self.cartan_type = cartan_type
        self.n = n
        self.convention = convention
        self.max_u = max_u
        self.max_q = max_q
        self.coeffs = coeffs  # (j, m) -> positive int
        self.towers = towers  # (kk degree, first energy)

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
        from .qseries import QSeries
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


def _horner_levels(max_u, kk, depth):
    """sum(min(j // kk, depth) for j in range(max_u + 1)), in closed form:
    the Horner levels one tower of degree kk runs over all rows."""
    full = min(max_u + 1, kk * (depth + 1))  # rows with j // kk <= depth
    q, r = divmod(full, kk)
    return kk * q * (q - 1) // 2 + q * r + depth * (max_u + 1 - full)


def _row_slots(max_u, max_q, neg, kk_min):
    """sum(limit(j) - lo + 1 for j in range(max_u + 1)) with limit(j) =
    max_q + neg * ((max_u - j) // kk_min) and lo = -neg * (max_u //
    kk_min), in closed form: the entries rows 0..max_u can hold.  The
    sum of (max_u - j) // kk_min over the rows is that of i // kk_min
    over i <= max_u, which ``_horner_levels`` gives at full depth."""
    lo = -neg * (max_u // kk_min)
    return ((max_u + 1) * (max_q - lo + 1)
            + neg * _horner_levels(max_u, kk_min, max_u // kk_min))


def _divide(acc, a):
    """acc <- acc / (1 - q^a) in place: the ascending pass acc[m] +=
    acc[m - a], run as one running sum per residue class mod a or one
    block of a entries at a time, whichever takes fewer Python steps
    (a or len(acc) / a)."""
    size = len(acc)
    if a * a <= size:
        for r in range(a):
            acc[r::a] = accumulate(acc[r::a])
    else:
        for i in range(a, size, a):
            acc[i:i + a] = map(add, acc[i:i + a], acc[i - a:i])


def vacuum_graded_character(rs, n, max_u, max_q, convention="appendix"):
    """Bigraded character of the level-n vacuum quotient: u tracks the
    Kazhdan-Kostant degree, q the energy.

    The character is the product over modes (kk, e) of 1/(1 - u^kk q^e),
    computed in the appendix orientation as one dense list per u-degree:
    rows[j][m - lo] is the coefficient of u^j q^m, where lo = -neg *
    (max_u // kk_min) is the lowest energy any row can hold, -neg the
    lowest mode energy (or 0) and kk_min the lowest tower degree.

    A tower (kk, e0) has the modes e >= e0, and with z = u^kk Euler's
    identity (Andrews, The Theory of Partitions (1976), Cor. 2.2)

        prod_{e >= e0} 1/(1 - z q^e) = sum_{a >= 0} z^a q^{a e0} / (q;q)_a

    turns the tower into one sum per row,
    new rows[j] = rows[j] + sum_{a >= 1} q^{a e0}/(q;q)_a rows[j - a kk].
    Rows are updated with j descending, so every source row is still
    old.  The sum is a Horner chain from the deepest level a down to 1,
    acc <- (rows[j - a kk] + acc) q^{e0} / (1 - q^a); dividing by
    (1 - q^a) is the ascending pass acc[m] += acc[m - a].  A level whose
    source row and accumulator are both zero is skipped.  A tower with
    e0 = 0 first takes its mode e = 0 alone, 1/(1 - z) as one ascending
    pass rows[j] += rows[j - kk], and then chains from e0 = 1.

    Row j keeps energies m <= limit(j) = max_q + neg * ((max_u - j) //
    kk_min).  Truncating is exact: every mode has e >= -neg and kk >=
    kk_min, so limit(j + kk) <= limit(j) - neg, and a term dropped at
    (j, m) with m > limit(j) only feeds terms beyond the limits of the
    later rows, all above max_q.  Inside the chain, the factors left to
    apply after level a shift energy by exactly a e0 and otherwise only
    raise it, so level a keeps energies m <= limit(j) - a e0; as e0 >=
    -neg, that window fits in the source row's.  For the same reason a
    mode e above cap = limit(0) never reaches a window, so the infinite
    product and the modes e0..cap agree on every row.  From below, the
    accumulator after level a holds energies >= -neg * ((j - (a - 1) kk)
    // kk_min) >= lo, so the entries a shift by e0 < 0 moves below lo are
    zero.  When e0 > 0 the chain stops at depth (limit(j) - lo) // e0,
    past which the window is empty, and rows j beyond that depth times
    kk above the highest nonzero row are left alone.

    Each level touches at most cap - lo + 1 entries, and so does each row
    of a pass, so the job takes at most
    (levels + (zeros + 1) * (max_u + 1)) * (cap - lo + 1) steps: levels
    sums the chain depths over towers and rows (``_horner_levels``,
    with depth (cap - lo) // e0 when e0 > 0), zeros counts the towers
    from e0 = 0, and the last max_u + 1 rows are for building the rows.
    That count is checked against errors.STEP_BUDGET before any row is
    built, and the limit(j) - lo + 1 slots that each row j can hold,
    each of which may end as one output coefficient, summed over the rows
    (``_row_slots``), against errors.SLOT_BUDGET.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if max_u < 0:
        raise DomainError("max_u must be nonnegative")
    if max_q < 0:
        raise DomainError("max_q must be nonnegative")
    if convention not in CONVENTIONS:
        raise DomainError("convention must be one of %s" % (CONVENTIONS,))
    towers = [(d + 1, d + 1 - n * d) for d in rs.exponents]
    kk_min = min(kk for kk, _ in towers)
    neg = max(0, -min(e for _, e in towers))
    lo = -neg * (max_u // kk_min)
    cap = max_q + neg * (max_u // kk_min)
    # a tower from e0 = 0 takes its mode e = 0 alone, 1/(1 - z) as one
    # ascending pass, and then chains from e0 = 1, whose depth is bounded
    zero = [kk for kk, e0 in towers if e0 == 0]
    chains = sorted((kk, e0 or 1) for kk, e0 in towers)
    levels = sum(_horner_levels(max_u, kk, (cap - lo) // e0 if e0 > 0
                                else max_u // kk)
                 for kk, e0 in chains)
    what = ("vacuum character of %s at n=%d, max_u=%d, max_q=%d"
            % (rs.cartan_type, n, max_u, max_q))
    check_step_budget(
        what, (levels + (len(zero) + 1) * (max_u + 1)) * (cap - lo + 1))
    check_slot_budget(what, _row_slots(max_u, max_q, neg, kk_min))
    limits = [max_q + neg * ((max_u - j) // kk_min) for j in range(max_u + 1)]
    rows = [None] * (max_u + 1)  # None: the row is zero
    rows[0] = [0] * (limits[0] - lo + 1)
    rows[0][-lo] = 1
    for kk in zero:
        for j in range(kk, max_u + 1):
            src, dst = rows[j - kk], rows[j]
            if src is not None:
                rows[j] = (src[:limits[j] - lo + 1] if dst is None
                           else list(map(add, dst, src)))
    for kk, e0 in chains:
        # multiplying by q^e0 leaves the next level's window, which is e0
        # longer: prepend e0 zeros, or for e0 < 0 drop the -e0 entries
        # below lo, which are zero
        pad, cut = [0] * max(e0, 0), max(-e0, 0)
        top = max_u
        if e0 > 0:
            live = max(j for j, row in enumerate(rows) if row is not None)
            top = min(max_u, live + kk * ((cap - lo) // e0))
        for j in range(top, kk - 1, -1):
            lim = limits[j]
            depth = j // kk if e0 <= 0 else min(j // kk, (lim - lo) // e0)
            acc = None
            for a in range(depth, 0, -1):
                src = rows[j - a * kk]
                if src is not None:
                    acc = (src[:lim - a * e0 - lo + 1] if acc is None
                           else list(map(add, src, acc)))
                elif acc is None:
                    continue
                if len(acc) > a:
                    _divide(acc, a)
                acc[:cut] = pad  # times q^e0
            if acc is not None:
                dst = rows[j]
                rows[j] = acc if dst is None else list(map(add, dst, acc))
    coeffs = {(j, lo + i): c for j, row in enumerate(rows) if row is not None
              for i, c in enumerate(row[:max_q - lo + 1]) if c}
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
