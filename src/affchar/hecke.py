"""Bruhat order, Kazhdan-Lusztig polynomials, and parabolic canonical bases.

Hecke algebra normalization: standard basis H_w over Z[v, v^{-1}] with

    (H_s - v^{-1}) (H_s + v) = 0,

so H_s^2 = (v^{-1} - v) H_s + 1 and bar(H_s) = H_s^{-1} = H_s + v - v^{-1}.
The canonical basis element b_w = sum_y h_{y,w}(v) H_y has h_{w,w} = 1 and
h_{y,w} in v Z[v] for y < w; classical polynomials are recovered by
h_{y,w}(v) = v^{l(w)-l(y)} P_{y,w}(v^{-2}), i.e. q = v^{-2}.

Coxeter groups are realized through the integer reflection representation
of a generalized Cartan matrix chosen per bond label (2, 3, 4, 6, or
infinity, encoded as 0).  An element w is keyed by the integer vector
w^{-1}(rho^v), with coordinates c_j = <alpha_j, w^{-1} rho^v>.  The key is
faithful because rho^v lies in the open fundamental chamber of the Tits
cone, whose points have trivial stabilizer (Humphreys, Reflection Groups
and Coxeter Groups, 5.13).  Right multiplication is O(n):
key(w s_i)_j = c_j - c_i gcm[i][j], and s_i is a right descent of w iff
c_i < 0.  Bruhat order is read off the lower interval [e, y], built by the
lifting property (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.2.7)
from right multiplication alone and memoized per y.

``ParabolicModule`` is the one canonical-basis engine: one right Hecke
action, one bar expansion of the standard basis.  With empty J it is
the regular module H itself, so its canonical basis is the Kazhdan-Lusztig
basis and ``kl_polynomial`` reads P_{x,y} off b_y.  Two independent routes
reach every canonical basis: the mu-correction recursion from the top
down (production) and a solve of the bar-invariance plus degree-bound
system by sparse integer elimination (oracle).  Tests require them to
agree.
"""

from math import gcd

from .errors import DomainError, BallExhausted

INFINITE_BOND = 0
# the one-dimensional inductions a ParabolicModule can be built on
PARABOLIC_PARAMS = ("q", "-1")
_BOND_TO_GCM = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3),
                INFINITE_BOND: (-2, -2)}


class LaurentPoly:
    """Laurent polynomial with integer coefficients, variable-agnostic."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for p, a in coeffs.items():
                if a:
                    self.c[int(p)] = int(a)

    @classmethod
    def term(cls, coeff, power=0):
        return cls({power: coeff})

    def __add__(self, other):
        out = dict(self.c)
        for p, a in other.c.items():
            out[p] = out.get(p, 0) + a
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({p: -a for p, a in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({p: a * other for p, a in self.c.items()})
        out = {}
        for p, a in self.c.items():
            for q, b in other.c.items():
                out[p + q] = out.get(p + q, 0) + a * b
        return LaurentPoly(out)

    __rmul__ = __mul__

    def bar(self):
        """v -> v^{-1}."""
        return LaurentPoly({-p: a for p, a in self.c.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    @property
    def is_zero(self):
        return not self.c

    def coeff(self, power):
        return self.c.get(power, 0)

    def eval_at_one(self):
        return sum(self.c.values())

    def min_power(self):
        return min(self.c) if self.c else 0

    def max_power(self):
        return max(self.c) if self.c else 0

    def coeff_list(self):
        """[lowest power, coefficients ascending]; [0] for the zero poly."""
        if not self.c:
            return [0]
        lo, hi = self.min_power(), self.max_power()
        return [lo] + [self.c.get(p, 0) for p in range(lo, hi + 1)]

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for p in sorted(self.c):
            a = self.c[p]
            if p == 0:
                bits.append(str(a))
            else:
                s = "" if a == 1 else ("-" if a == -1 else str(a))
                bits.append("%sx^%d" % (s, p) if p != 1 else "%sx" % s)
        return " + ".join(bits).replace("+ -", "- ")


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
_V = LaurentPoly({1: 1})
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


def _validate_coxeter_matrix(m):
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise DomainError("Coxeter matrix is not square")
        if m[i][i] != 1:
            raise DomainError("Coxeter matrix diagonal must be 1")
        for j in range(n):
            if i == j:
                continue
            e = m[i][j]
            if e in (None, float("inf")):
                e = INFINITE_BOND
            if e not in _BOND_TO_GCM:
                raise DomainError(
                    "unsupported bond label %r (want 2,3,4,6 or infinity)" % (e,))
            if (m[j][i] if m[j][i] not in (None, float("inf")) else INFINITE_BOND) != e:
                raise DomainError("Coxeter matrix must be symmetric")
    return [[1 if i == j else
             (INFINITE_BOND if m[i][j] in (None, float("inf")) else m[i][j])
             for j in range(n)] for i in range(n)]


class BallElement:
    __slots__ = ("word", "length", "key")

    def __init__(self, word, key):
        self.word = word
        self.length = len(word)
        self.key = key

    def __repr__(self):
        return "w[%s]" % ("".join(str(i) for i in self.word) or "e")


class BruhatBall:
    """All elements of a Coxeter group up to a length bound, in ShortLex
    order, with Bruhat order read off memoized lower intervals."""

    def __init__(self, coxeter_matrix, length_bound):
        m = _validate_coxeter_matrix(coxeter_matrix)
        self.coxeter_matrix = tuple(tuple(row) for row in m)
        self.n_gens = len(m)
        self.length_bound = length_bound
        # generalized Cartan matrix realizing the bonds
        n = self.n_gens
        gcm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = _BOND_TO_GCM[m[i][j]]
                gcm[i][j], gcm[j][i] = a, b
        self.gcm = tuple(tuple(row) for row in gcm)
        self._id = (1,) * n
        self.elements = {}
        self._below = {self._id: {self._id}}
        self._build()

    def _reflect(self, key, i):
        """key(w s_i) from key(w): c_j - c_i gcm[i][j]."""
        ci = key[i]
        return tuple(c - ci * a for c, a in zip(key, self.gcm[i]))

    def key_of(self, word, key=None):
        """Key of w s_{word[0]} ... s_{word[-1]}, where w is the element
        keyed by `key` (the identity by default).  The word need not be
        reduced, and the product need not lie in the ball."""
        key = self._id if key is None else key
        for i in word:
            if not 0 <= i < self.n_gens:
                raise DomainError("generator index %r out of range" % (i,))
            key = self._reflect(key, i)
        return key

    def _build(self):
        # breadth first through ascents (c_i > 0); a ShortLex-sorted layer
        # discovers the next layer in ShortLex order
        e = BallElement((), self._id)
        self.elements[self._id] = e
        layer, self._counts = [e], [1]
        for _ in range(self.length_bound):
            nxt = []
            for el in layer:
                for i, ci in enumerate(el.key):
                    if ci > 0:
                        key = self._reflect(el.key, i)
                        if key not in self.elements:
                            new = BallElement(el.word + (i,), key)
                            self.elements[key] = new
                            nxt.append(new)
            layer = nxt
            self._counts.append(len(nxt))

    # -- element access -------------------------------------------------------

    def element_by_word(self, word):
        el = self.elements.get(self.key_of(word))
        if el is None:
            raise BallExhausted(
                "element of word %r lies outside the length-%d ball"
                % (word, self.length_bound))
        return el

    def __len__(self):
        return len(self.elements)

    def all_elements(self):
        return list(self.elements.values())

    def counts_by_length(self):
        return list(self._counts)

    def right_mult(self, el, i):
        got = self.elements.get(self._reflect(el.key, i))
        if got is None:
            raise BallExhausted("right multiplication left the ball")
        return got

    def left_longer(self, i, el):
        """True iff l(s_i el) > l(el), i.e. s_i is not a right descent of
        el^{-1}, whose key reflects (1, ..., 1) through the reversed word.
        Exact also when s_i el lies outside the ball."""
        return self.key_of(reversed(el.word))[i] > 0

    # -- Bruhat order -------------------------------------------------------

    def _lower(self, y):
        """Keys of [e, y], memoized per y.  For a right descent s of y,
        [e, y] = [e, ys] u [e, ys] s (lifting property)."""
        got = self._below.get(y.key)
        if got is None:
            s = y.word[-1]
            got = self._lower(self.right_mult(y, s))
            got = self._below[y.key] = got | {self._reflect(k, s) for k in got}
        return got

    def leq(self, x, y):
        """Bruhat order: x lies in [e, y]."""
        return x.key in self._lower(y)

    def interval_below(self, y):
        """[e, y] in ShortLex order."""
        return sorted((self.elements[k] for k in self._lower(y)),
                      key=lambda e: (e.length, e.word))

    def covers(self):
        """All Bruhat covering pairs (x, y) with l(y) = l(x) + 1 inside
        the ball."""
        return [(x, y) for y in self.elements.values()
                for x in self.interval_below(y) if x.length == y.length - 1]


def build_ball(coxeter_matrix, length_bound):
    return BruhatBall(coxeter_matrix, length_bound)


# ---------------------------------------------------------------------------
# Exact linear solve behind the bar-invariance oracle
# ---------------------------------------------------------------------------

def _solve_int_system(rows, ncols):
    """The unique integer solution t of a sparse integer system.

    Each row is a dict {column: int} for the equation
    sum_c row[c] t_c = row[ncols]; absent entries are zero.  Columns are
    eliminated in ascending order, each on the shortest row holding it as
    its lowest column: another such row r becomes (a/g) r - (b/g) p, where
    a and b are the column's entries in the pivot p and in r, g = gcd(a, b),
    and every new row is divided by the gcd of its entries, so the
    arithmetic never leaves Z (fraction-free elimination; Bareiss, Math.
    Comp. 22 (1968)).  Back-substitution divides exactly or raises.  The
    system may be overdetermined but must have a unique integer solution.
    """
    by_lead = {}

    def file(row):
        by_lead.setdefault(min(row), []).append(row)

    for row in rows:
        row = {c: a for c, a in row.items() if a}
        if row:
            file(row)
    pivots = []
    for c in range(ncols):
        holders = by_lead.pop(c, None)
        if not holders:
            raise DomainError("bar-invariance system is underdetermined")
        holders.sort(key=len)
        p = holders[0]
        a = p[c]
        for r in holders[1:]:
            b = r[c]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = {k: fa * x for k, x in r.items()}
            for k, y in p.items():
                new[k] = new.get(k, 0) - fb * y
            new = {k: x for k, x in new.items() if x}
            if new:
                g = gcd(*new.values())
                if g != 1:
                    new = {k: x // g for k, x in new.items()}
                file(new)
        pivots.append(p)
    # every row left holds only the right-hand side: 0 = nonzero
    if by_lead:
        raise DomainError("bar-invariance system is inconsistent")
    sol = [0] * ncols
    for c in range(ncols - 1, -1, -1):
        p = pivots[c]
        rest = p.get(ncols, 0) - sum(x * sol[k] for k, x in p.items()
                                     if c < k < ncols)
        sol[c], rem = divmod(rest, p[c])
        if rem:
            raise DomainError("non-integer parabolic coefficient")
    return sol


# ---------------------------------------------------------------------------
# Antispherical / parabolic module
# ---------------------------------------------------------------------------

class ParabolicModule:
    """One-dimensionally induced right H-module on minimal coset
    representatives of W_J \\ W.

    ``param`` picks the one-dimensional H_J-representation through which
    the induction happens, named by the Deodhar specialization it
    computes:

    * ``"q"``:  H_s acts by v^{-1} on the inducing line,
    * ``"-1"``: H_s acts by -v.

    Both are implemented; callers pin the one their multiplicity
    convention requires.  With no parabolic generators the module is H
    itself and ``param`` plays no role.
    """

    def __init__(self, ball, parabolic_gens, param="q"):
        if param not in PARABOLIC_PARAMS:
            raise DomainError("parabolic parameter must be 'q' or '-1'")
        self.ball = ball
        self.parabolic = tuple(sorted(set(parabolic_gens)))
        for i in self.parabolic:
            if not 0 <= i < ball.n_gens:
                raise DomainError("parabolic generator %r out of range" % (i,))
        self.param = param
        self._eps = (LaurentPoly({-1: 1}) if param == "q"
                     else LaurentPoly({1: -1}))
        self._nbasis = {ball._id: {ball._id: _ONE}}
        self._solved = {}
        self._bars = {}

    def is_minimal(self, el):
        return all(self.ball.left_longer(i, el) for i in self.parabolic)

    def minimal_elements(self):
        return [el for el in self.ball.all_elements() if self.is_minimal(el)]

    def act_gen(self, vec, i, scalar=_ZERO):
        """vec (H_{s_i} + scalar) on {key: poly} over minimal reps, for a
        Laurent polynomial scalar: b_s = H_s + v is the scalar v, and
        bar(H_s) = H_s^{-1} = H_s + v - v^{-1}."""
        out = {}

        def bump(key, poly):
            if not poly.is_zero:
                out[key] = out.get(key, _ZERO) + poly

        for key, poly in vec.items():
            y = self.ball.elements[key]
            ys = self.ball.right_mult(y, i)
            if ys.length < y.length:
                bump(ys.key, poly)
                bump(key, poly * _VINV_MINUS_V)
            elif self.is_minimal(ys):
                bump(ys.key, poly)
            else:
                bump(key, poly * self._eps)
            bump(key, poly * scalar)
        return {k: p for k, p in out.items() if not p.is_zero}

    def bar_standard(self, y):
        """bar(N_y) expanded over the standard basis N_z; memoized per
        module, so the returned dict must not be mutated."""
        got = self._bars.get(y.key)
        if got is not None:
            return got
        vec = {self.ball._id: _ONE}
        for i in y.word:
            vec = self.act_gen(vec, i, -_VINV_MINUS_V)
        self._bars[y.key] = vec
        return vec

    # -- canonical basis: production recursion -----------------------------

    def canonical_basis(self, w):
        """n_w over the standard basis via the inductive mu-correction
        algorithm.  w must be a minimal coset representative."""
        if isinstance(w, tuple):
            w = self.ball.element_by_word(w)
        if not self.is_minimal(w):
            raise DomainError("w is not minimal in its coset")
        got = self._nbasis.get(w.key)
        if got is not None:
            return got
        # peel a right descent keeping minimality
        i = next(i for i in w.word[::-1]
                 if self.ball.right_mult(w, i).length < w.length
                 and self.is_minimal(self.ball.right_mult(w, i)))
        w1 = self.ball.right_mult(w, i)
        cand = self.act_gen(self.canonical_basis(w1), i, _V)
        # subtract constant terms from the top down
        for y in sorted((self.ball.elements[k] for k in cand),
                        key=lambda e: -e.length):
            if y.key == w.key:
                continue
            c0 = cand.get(y.key, _ZERO).coeff(0)
            if c0 != 0:
                lower = self.canonical_basis(y)
                for key, poly in lower.items():
                    cand[key] = cand.get(key, _ZERO) - poly * c0
        cand = {k: p for k, p in cand.items() if not p.is_zero}
        if cand.get(w.key, _ZERO) != _ONE:
            raise AssertionError("canonical basis recursion lost its head term")
        for key, poly in cand.items():
            if key != w.key and poly.min_power() < 1:
                raise AssertionError("canonical basis coefficient not in vZ[v]")
        self._nbasis[w.key] = cand
        return cand

    # -- canonical basis: direct bar-invariance solve (oracle) -------------

    def canonical_basis_via_solve(self, w):
        """n_w solved once per w, in a memo apart from the recursion's."""
        if isinstance(w, tuple):
            w = self.ball.element_by_word(w)
        if not self.is_minimal(w):
            raise DomainError("w is not minimal in its coset")
        got = self._solved.get(w.key)
        if got is None:
            got = self._solved[w.key] = self._solve(w)
        return got

    def _solve(self, w):
        below = [z for z in self.ball.interval_below(w)
                 if self.is_minimal(z) and z.key != w.key]
        bars = {z.key: self.bar_standard(z) for z in below + [w]}
        unknowns = [(y.key, d) for y in below
                    for d in range(1, w.length - y.length + 1)]
        ncol = len(unknowns)
        # one equation {column: int} per coefficient (standard basis
        # element, power of v) of bar(n_w) - n_w = 0; column ncol holds the
        # right-hand side, the terms of bar(N_w) - N_w moved across
        eq = {}

        def add(key, power, col, val):
            row = eq.setdefault((key, power), {})
            row[col] = row.get(col, 0) + val

        for key, poly in bars[w.key].items():
            for p, a in poly.c.items():
                add(key, p, ncol, -a)
        add(w.key, 0, ncol, 1)
        for col, (ykey, d) in enumerate(unknowns):
            for key, poly in bars[ykey].items():
                for p, a in poly.c.items():
                    add(key, p - d, col, a)
            add(ykey, d, col, -1)
        if not unknowns:
            if any(row.get(ncol, 0) for row in eq.values()):
                raise DomainError("inconsistent trivial system")
            return {w.key: _ONE}
        sol = _solve_int_system(list(eq.values()), ncol)
        coeffs = {}
        for (ykey, d), val in zip(unknowns, sol):
            if val:
                coeffs.setdefault(ykey, {})[d] = val
        out = {w.key: _ONE}
        for ykey, c in coeffs.items():
            out[ykey] = LaurentPoly(c)
        return out


def antispherical_basis(ball, parabolic_gens, w, param="q"):
    """Canonical-basis coefficients y -> n_{y,w} of the parabolic module.

    Returns a dict mapping BallElement y (minimal coset representatives
    y <= w) to LaurentPoly in v.
    """
    mod = ParabolicModule(ball, parabolic_gens, param)
    if isinstance(w, tuple):
        w = ball.element_by_word(w)
    n = mod.canonical_basis(w)
    return {ball.elements[key]: poly for key, poly in n.items()}


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials: the canonical basis of ParabolicModule(ball, ())
# ---------------------------------------------------------------------------

def _kl_module(ball):
    """H as ParabolicModule(ball, ()), kept on the ball so each route
    computes every canonical-basis element once per ball."""
    mod = getattr(ball, "_kl_module", None)
    if mod is None:
        mod = ParabolicModule(ball, ())
        ball._kl_module = mod
    return mod


def _p_from_h(h, x, y):
    """P_{x,y}(q) from h_{x,y}(v) = v^{l(y)-l(x)} P_{x,y}(v^{-2})."""
    out = {}
    base = y.length - x.length
    for p, a in h.c.items():
        rel = base - p
        if rel % 2 != 0 or rel < 0:
            raise DomainError("canonical basis coefficient violates parity")
        out[rel // 2] = a
    return LaurentPoly(out)


def kl_polynomial(ball, x, y):
    """P_{x,y} as a polynomial in q, from b_y built by the mu-correction
    recursion."""
    if isinstance(x, tuple):
        x = ball.element_by_word(x)
    if isinstance(y, tuple):
        y = ball.element_by_word(y)
    if not ball.leq(x, y):
        raise DomainError("kl_polynomial requires x <= y in Bruhat order")
    if x.key not in ball.elements or y.key not in ball.elements:
        raise BallExhausted("KL recursion requires both elements in the ball")
    basis = _kl_module(ball).canonical_basis(y)
    return _p_from_h(basis[x.key], x, y)


def kl_polynomial_via_solve(ball, x, y):
    """P_{x,y} in q, from b_y solved directly from bar-invariance.
    Independent of the mu-correction recursion."""
    if isinstance(x, tuple):
        x = ball.element_by_word(x)
    if isinstance(y, tuple):
        y = ball.element_by_word(y)
    basis = _kl_module(ball).canonical_basis_via_solve(y)
    return _p_from_h(basis.get(x.key, _ZERO), x, y)


# ---------------------------------------------------------------------------
# exact unitriangular inversion
# ---------------------------------------------------------------------------

def inverse_multiplicity_matrix(matrix):
    """Exact inverse of an integer unitriangular matrix (upper triangular
    with unit diagonal in the given ordering)."""
    n = len(matrix)
    for i in range(n):
        if len(matrix[i]) != n:
            raise DomainError("matrix is not square")
        if matrix[i][i] != 1:
            raise DomainError("matrix is not unitriangular: diagonal != 1")
        for j in range(i):
            if matrix[i][j] != 0:
                raise DomainError("matrix is not unitriangular: lower part != 0")
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            s = -sum(matrix[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = s
    return inv


def kl_table_tsv(ball, pairs, convention="q=v^-2,Hs:(Hs-v^-1)(Hs+v)=0"):
    """TSV dump of KL polynomials: y-word, w-word, coefficient list,
    convention tag."""
    lines = ["y\tw\tcoeffs\tconvention"]
    for x, y in pairs:
        p = kl_polynomial(ball, x, y)
        xw = "".join(str(i) for i in (x.word if isinstance(x, BallElement) else x)) or "e"
        yw = "".join(str(i) for i in (y.word if isinstance(y, BallElement) else y)) or "e"
        lines.append("%s\t%s\t%s\t%s" % (
            xw, yw, ",".join(str(c) for c in p.coeff_list()), convention))
    return "\n".join(lines) + "\n"
