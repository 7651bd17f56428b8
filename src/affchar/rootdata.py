"""Finite root-system data over exact rationals.

Conventions used throughout the package:

* Weights are row vectors of Fractions in the fundamental-weight basis
  (omega-coordinates), coweights in the fundamental-coweight basis.
  Roots are also kept in simple-root coordinates internally, coroots in
  simple-coroot coordinates; with these choices every canonical pairing
  ``<weight, coroot>`` and ``<root, coweight>`` is a plain dot product
  against integer data.
* Lattice data are int tuples: roots, coroots, the simple (co)roots,
  theta and theta_check, and the coroot tables.  Fractions enter only
  with weights, levels, the forms and ``halfsq``.
* The Cartan matrix is ``A[i][j] = <alpha_j, alphacheck_i>``.
* The invariant form on t* is normalized so the highest root has squared
  length 2; equivalently the basic form on t gives short coroots squared
  length 2.  ``halfsq[i]`` stores (alpha_i, alpha_i)/2 in that scale.

Everything is immutable after construction and safe to share.
"""

from fractions import Fraction

from .errors import DomainError, check_step_budget

F = Fraction


def _chain(n):
    """Tridiagonal simply-laced Cartan matrix of size n.

    Every classical type starts here, and only they have unbounded rank,
    so the rank is checked against the step budget first: the closure of
    the positive roots tests n reflections of each of at most n^2 roots,
    n steps each."""
    check_step_budget("a root system of rank %d" % n, n ** 4)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
        if i + 1 < n:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    return a


def _cartan_and_lengths(letter, rank):
    """Return (Cartan matrix, half squared lengths) for a simple type.

    Raises DomainError on an invalid (letter, rank) combination.
    """
    n = rank
    if letter == "A":
        if n < 1:
            raise DomainError("type A requires rank >= 1")
        return _chain(n), [F(1)] * n
    if letter == "B":
        if n < 2:
            raise DomainError("type B requires rank >= 2")
        a = _chain(n)
        a[n - 1][n - 2] = -2  # alpha_n short
        r = [F(1)] * (n - 1) + [F(1, 2)]
        return a, r
    if letter == "C":
        if n < 2:
            raise DomainError("type C requires rank >= 2")
        a = _chain(n)
        a[n - 2][n - 1] = -2  # alpha_n long
        r = [F(1, 2)] * (n - 1) + [F(1)]
        return a, r
    if letter == "D":
        if n < 3:
            raise DomainError("type D requires rank >= 3")
        a = _chain(n)
        # detach node n from the chain, fork it off node n-2
        a[n - 1][n - 2] = 0
        a[n - 2][n - 1] = 0
        a[n - 1][n - 3] = -1
        a[n - 3][n - 1] = -1
        return a, [F(1)] * n
    if letter == "E":
        if n not in (6, 7, 8):
            raise DomainError("type E requires rank in {6,7,8}")
        # Bourbaki numbering: chain 1-3-4-5-...-n, node 2 attached to 4.
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
        edges = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, n)]
        for i, j in edges:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
        return a, [F(1)] * n
    if letter == "F":
        if n != 4:
            raise DomainError("type F requires rank 4")
        a = [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
        return a, [F(1), F(1), F(1, 2), F(1, 2)]
    if letter == "G":
        if n != 2:
            raise DomainError("type G requires rank 2")
        # alpha_1 short, alpha_2 long
        return [[2, -3], [-1, 2]], [F(1, 3), F(1)]
    raise DomainError("unknown simple type %r" % (letter,))


def _mat_inv(a):
    """Exact inverse of a square Fraction matrix via Gauss-Jordan
    elimination.  A row operation touches only the nonzero entries of the
    pivot row: a Cartan matrix has at most four nonzeros per row, so the
    pivot rows stay sparse on the left half."""
    n = len(a)
    m = [[F(x) for x in row] + [F(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        d = m[col][col]
        prow = m[col] = [x / d if x else x for x in m[col]]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for r in range(n):
            f = m[r][col]
            if r != col and f != 0:
                row = m[r]
                for j, y in support:
                    row[j] -= f * y
    return [row[n:] for row in m]


def exact(x, what):
    """x as a Fraction: an int (not a bool) or a Fraction, kept as given.
    Anything else, a float, a bool or a string, raises DomainError, so no
    inexact number enters the arithmetic."""
    if isinstance(x, F):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return F(x)
    raise DomainError("%s must be an int or a Fraction, not %r" % (what, x))


class Value:
    """Base of the immutable value types (``Level``, ``affine.LevelWeight``,
    ``affine.AffineCoroot``).  Each sets its slots once in ``__init__``
    and compares and hashes field by field; assignment and deletion
    raise AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class Level(Value):
    """A level kappa = k * kappa_b, as the exact ratio k."""

    __slots__ = ("k",)

    def __init__(self, k):
        object.__setattr__(self, "k", exact(k, "level"))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.k == other.k

    def __hash__(self):
        return hash((self.k,))

    def is_critical(self, rs):
        return self.k == -rs.h_dual

    def is_negative(self, rs):
        # positive levels are kappa_c + Q>=0 * kappa_b
        return self.k + rs.h_dual < 0

    def require_noncritical(self, rs):
        if self.is_critical(rs):
            raise DomainError(
                "critical level k = -h_dual = %s is excluded" % (-rs.h_dual,))


class RootSystem:
    """Cartan data of one simple factor: lattice vectors over int, forms
    and ``halfsq`` over Fraction."""

    def __init__(self, letter, rank):
        cartan, halfsq = _cartan_and_lengths(letter, rank)
        self.letter = letter
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in cartan)
        # the nonzero (j, A[i][j]) of each Cartan row: at most four
        self._cartan_rows = tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in cartan)
        self.cartan_inv = tuple(tuple(row) for row in _mat_inv(cartan))
        self.halfsq = tuple(halfsq)

        halfsq_of = self._close_positive_roots()
        self.positive_roots = tuple(sorted(halfsq_of,
                                           key=lambda b: (sum(b), b)))
        nroots = 2 * len(self.positive_roots)
        self.dim = nroots + rank
        heights = [sum(b) for b in self.positive_roots]
        self.coxeter_number = max(heights) + 1
        # exponents: d occurs as often as the height profile stays >= its level
        profile = [0] * (max(heights) + 1)
        for ht in heights:
            profile[ht] += 1
        exps = []
        for m in range(1, len(profile)):
            exps.extend([m] * (profile[m] - (profile[m + 1] if m + 1 < len(profile) else 0)))
        self.exponents = tuple(sorted(exps))

        self.rho = tuple(F(1) for _ in range(rank))        # omega-basis
        self.rho_check = tuple(F(1) for _ in range(rank))  # omega-check basis

        # simple (co)roots in the weight / coweight bases: the Cartan
        # columns and rows
        self.simple_roots = tuple(zip(*self.cartan))
        self.simple_coroots = self.cartan

        # the coroot gamma_i = beta_i halfsq[i] / ((beta, beta)/2) of each
        # positive root beta; for gamma of either sign, coroot_roots holds
        # its root in omega-coordinates (<beta, gamma'> is a dot product
        # with gamma') and coroot_lacing kappa_b(gamma, gamma) /
        # kappa_b(theta_check, theta_check) = 1 / ((beta, beta)/2): 1 on
        # short coroots, the lacing number of the type on long ones
        # halfsq[i] / rb as (numerator, denominator) for each root length
        # rb, so that each integer gamma_i is one int division
        scale = {rb: [(h / rb).as_integer_ratio() for h in self.halfsq]
                 for rb in set(halfsq_of.values())}
        coroots = []
        self.coroot_roots, self.coroot_lacing = {}, {}
        for beta in self.positive_roots:
            rb = halfsq_of[beta]
            gamma = tuple(b * p // q for b, (p, q) in zip(beta, scale[rb]))
            root = self.root_to_weight_coords(beta)
            for sign in (1, -1):
                g = tuple(sign * x for x in gamma)
                self.coroot_roots[g] = tuple(sign * x for x in root)
                self.coroot_lacing[g] = int(1 / rb)
            coroots.append(gamma)
        self.positive_coroots = tuple(coroots)

        # the coroot of the highest root theta ends the height-sorted list
        self.theta_check = self.positive_coroots[-1]
        self.h_dual = 1 + sum(self.theta_check)

        # basic-form Gram matrices on the fundamental (co)weights, inverted
        # from (alpha_m, alpha_l) = A[m][l] halfsq[m] and
        # kappa_b(acheck_m, acheck_l) = A[m][l] / halfsq[l]
        ainv, hs = self.cartan_inv, self.halfsq
        self._gram_weight = tuple(
            tuple(ainv[j][i] * hs[j] for j in range(rank))
            for i in range(rank))
        self._gram_coweight = tuple(
            tuple(ainv[i][j] / hs[j] for j in range(rank))
            for i in range(rank))

    # -- construction helpers -------------------------------------------

    def _close_positive_roots(self):
        """The positive roots in simple-root coordinates, each mapped to
        its (beta, beta)/2: a reflection keeps length, so each new root
        takes its parent's."""
        seen = {tuple(int(i == j) for i in range(self.rank)): self.halfsq[j]
                for j in range(self.rank)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for b in frontier:
                for i, row in enumerate(self._cartan_rows):
                    p = sum(b[j] * a for j, a in row)
                    # p = 0 gives rb = b; only coordinate i changes, so rb
                    # is positive iff that coordinate is
                    if p == 0 or b[i] < p:
                        continue
                    rb = list(b)
                    rb[i] -= p
                    rb = tuple(rb)
                    if rb not in seen:
                        seen[rb] = seen[b]
                        nxt.append(rb)
            frontier = nxt
        return seen

    # -- coordinate changes and pairings ---------------------------------

    def root_to_weight_coords(self, beta):
        """Simple-root coordinates -> fundamental-weight coordinates."""
        return tuple(sum(beta[j] * a for j, a in row)
                     for row in self._cartan_rows)

    def pair_weight_coroot(self, lam, gamma):
        """<lam, gamma> with lam in omega-coordinates, gamma in
        simple-coroot coordinates."""
        return sum(a * b for a, b in zip(lam, gamma))

    def pair_weight_coweight(self, lam, x):
        """<lam, x> with lam in omega- and x in omega-check coordinates."""
        ainv = self.cartan_inv
        return sum(
            lam[i] * x[j] * ainv[j][i]
            for i in range(self.rank) for j in range(self.rank))

    # -- forms ------------------------------------------------------------

    def weight_form(self, lam, mu):
        """(lam, mu) in the (theta, theta) = 2 normalization, both in
        omega-coordinates."""
        return sum(
            lam[i] * mu[j] * self._gram_weight[i][j]
            for i in range(self.rank) for j in range(self.rank))

    def coweight_form(self, x, y):
        """kappa_b(x, y), both arguments in omega-check coordinates."""
        return sum(
            x[i] * y[j] * self._gram_coweight[i][j]
            for i in range(self.rank) for j in range(self.rank))

    def rho_check_normsq(self):
        """(rho_check, rho_check) under the basic form."""
        return self.coweight_form(self.rho_check, self.rho_check)

    def rho_pair_rho_check(self):
        """<rho, rho_check>."""
        return self.pair_weight_coweight(self.rho, self.rho_check)

    # -- presentation ------------------------------------------------------

    @property
    def cartan_type(self):
        return "%s%d" % (self.letter, self.rank)

    def __repr__(self):
        return "RootSystem(%s)" % self.cartan_type

    def to_json_dict(self):
        return {
            "type": self.letter,
            "rank": self.rank,
            "exponents": list(self.exponents),
            "coxeter_number": self.coxeter_number,
            "dual_coxeter_number": self.h_dual,
            "dim": self.dim,
        }


def build_root_system(type_label, rank):
    """Construct the root system of a simple type, e.g. ('A', 2)."""
    return RootSystem(type_label, int(rank))


def casimir_eigenvalue(rs, lam):
    """c1(Lam) = (Lam, Lam + 2 rho) under the basic-form normalization.

    The Casimir defined with respect to kappa = k * kappa_b acts on a
    highest-weight module of highest weight Lam by c1(Lam) / k.
    """
    lam = tuple(F(a) for a in lam)
    shifted = tuple(a + 2 * r for a, r in zip(lam, rs.rho))
    return rs.weight_form(lam, shifted)
