"""Bruhat order, Kazhdan-Lusztig polynomials, and parabolic canonical bases.

Hecke algebra normalization: standard basis H_w over Z[v, v^{-1}] with

    (H_s - v^{-1}) (H_s + v) = 0,

so H_s^2 = (v^{-1} - v) H_s + 1 and bar(H_s) = H_s^{-1} = H_s + v - v^{-1}.
The canonical basis element b_w = sum_y h_{y,w}(v) H_y has h_{w,w} = 1 and
h_{y,w} in v Z[v] for y < w; classical polynomials are recovered by
h_{y,w}(v) = v^{l(w)-l(y)} P_{y,w}(v^{-2}), i.e. q = v^{-2}.

Coxeter groups are realized through the integer reflection representation
of a generalized Cartan matrix chosen per bond label (2, 3, 4, 6, or
infinity, encoded as 0).  A ``BruhatBall`` numbers its elements by their
ShortLex rank, the ``id``, as it builds them breadth first: w is reached
from the vector w^{-1}(rho^v) of its ShortLex predecessor, whose
coordinates c_j = <alpha_j, w^{-1} rho^v> change as c_j - c_i gcm[i][j]
under right multiplication by s_i, and s_i is a right descent iff
c_i < 0.  The vector is faithful, because rho^v lies in the open
fundamental chamber of the Tits cone, whose points have trivial
stabilizer (Humphreys, Reflection Groups and Coxeter Groups, 5.13); the
one dict from vectors to ids serves only to read words (``id_of``,
``element_by_word``), which may be non-reduced or leave the ball.
Everything else runs on ids: the build fills a right-multiplication
table, right[id][i] the id of w s_i or -1 outside the ball, so s_i is a
right descent iff right[id][i] < id.  Bruhat order is read off the lower
interval [e, y], a set of ids built by the lifting property
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.2.7) from the table
alone and memoized per y; left descents, which only parabolic modules
read, are a bitmask per id computed on first use.

``ParabolicModule`` is the one canonical-basis engine: one right Hecke
action, one bar expansion of the standard basis.  With empty J it is
the regular module H itself, so its canonical basis is the Kazhdan-Lusztig
basis and ``kl_polynomial`` reads P_{x,y} off b_y.  Two independent routes
reach every canonical basis: the mu-correction recursion from the top
down (production) and a solve of the bar-invariance plus degree-bound
system by sparse integer elimination (oracle).  Tests require them to
agree.

Module vectors are dicts keyed by id.  The recursion stores each
coefficient h in Z[v] of a column as one Python int, h(2^B), with
B = length_bound + 2 bits per power of v, fixed per module (Kronecker
substitution: Kronecker, 1882; Harvey, J. Symbolic Comput. 44 (2009)).
Multiplying by v is a shift by B bits, a sum of coefficients is one int
addition, the constant term is h & (2^B - 1) and dividing by v is h >> B.
Evaluation at 2^B is a ring map, so these steps are exact whatever the
digits; only reading a digit needs every digit inside (-2^(B-1),
2^(B-1)), where ``_unpack`` reads them back as balanced digits.  Each
column checks that before it reads a digit.  Let S(y) be the sum of the
absolute values of the digits of the finished column n_y.  At v = 1,
v H_s + v^2 acts as s + 1 or 0 on each N_y, so every digit of
v^{-1} n_{w1} (v H_s + v^2) is at most 2 S(w1) in absolute value, and a
correction c0 n_y moves a digit by at most |c0| S(y).  So the recursion
raises TruncationOverflow (exit 3) unless 2 S(w1) + sum |c0| S(y) <
2^(B-1); it never guesses a width.  Every finished coefficient is also
checked to have no negative digit, so S(w) is the digit sum n_w(1),
read off the sum of the packed column modulo 2^B - 1.

The check never trips where the canonical basis is positive.  Then
v^{-1} n_{w1} (v H_s + v^2) = n_w + sum c0 n_y has only nonnegative
terms, so sum c0 S(y) < 2 S(w1) and S(w) <= 2 S(w1) <= 2^{l(w)}, and the
bound is below 4 S(w1) <= 2^{l(w)+1} <= 2^{B-1}.  Positivity is a
theorem for J empty (Elias-Williamson, Ann. of Math. 180 (2014)), for
the "-1" module (Libedinsky-Williamson, The anti-spherical category) and
for "q" with W_J finite, whose n_{y,w} are the KL coefficients
h_{w_J y, w_J w} (Deodhar, J. Algebra 111 (1987)).  For "q" with W_J
infinite no theorem is cited, and there the checks carry the exactness:
a column either passes the bound and is exact, or the job stops.

The oracle keeps Z[v] as tuples of ints indexed by the power of v, with
no trailing zeros (() is 0).  Its one action, ``act_gen``, is right
multiplication by v H_s + c for c in Z[v].  The factor v keeps it in
Z[v]: v H_s sends N_y to v N_{ys} + (1 - v^2) N_y if ys < y, to v N_{ys}
if ys > y is minimal, and to v eps N_y if ys is not minimal, where
v eps is 1 for param "q" and -v^2 for "-1".  The recursion applies the
same action with c = v^2 on packed ints and divides by v, which is
exact: the head 1 of b_{w1} sits at w1 < w1 s = w with w minimal, so it
takes the ascent branch and gives v N_w + v^2 N_{w1}, and every other
coefficient t lies in vZ[v], so t (1 - v^2) + t v^2, t + t v^2 and v t
are all in vZ[v].  The corrections c0 b_y keep Z[v] too, so the
recursion never leaves it.  The oracle needs bar(N_y), which has powers
v^{-1}; ``bar_standard`` expands v^{l(y)} bar(N_y) = N_e prod_s
(v H_s + v^2 - 1) with ``act_gen``, and the solve shifts its exponents
by -l(y).  ``LaurentPoly`` appears only at the API edge:
``canonical_basis``, ``canonical_basis_via_solve``, ``kl_polynomial``
and ``kl_polynomial_via_solve`` convert once per call, and only
``canonical_basis`` and ``kl_polynomial`` unpack.
"""

from math import gcd

from .errors import DomainError, BallExhausted, TruncationOverflow

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

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    @property
    def is_zero(self):
        return not self.c

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


def validate_coxeter_matrix(m):
    """The Coxeter matrix with infinite bonds (None) as INFINITE_BOND; a
    DomainError if it is not square, symmetric, unit-diagonal or has a
    bond other than 2, 3, 4, 6 or infinity."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("Coxeter matrix is not square")
    out = [[INFINITE_BOND if e is None else e for e in row] for row in m]
    for i in range(n):
        if out[i][i] != 1:
            raise DomainError("Coxeter matrix diagonal must be 1")
        for j in range(n):
            e = out[i][j]
            if i != j and e not in _BOND_TO_GCM:
                raise DomainError(
                    "unsupported bond label %r (want 2,3,4,6 or infinity)" % (e,))
            if out[j][i] != e:
                raise DomainError("Coxeter matrix must be symmetric")
    return out


class BallElement:
    __slots__ = ("word", "length", "id")

    def __init__(self, word, id_):
        self.word = word
        self.length = len(word)
        self.id = id_

    def __repr__(self):
        return "w[%s]" % ("".join(str(i) for i in self.word) or "e")


class BruhatBall:
    """All elements of a Coxeter group up to a length bound, numbered in
    ShortLex order, with a right-multiplication table and Bruhat order
    read off memoized lower intervals."""

    def __init__(self, coxeter_matrix, length_bound):
        m = validate_coxeter_matrix(coxeter_matrix)
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
        # elements[id], right[id][i] = id of w s_i (-1 outside the ball)
        self.elements = []
        self.right = []
        self._ids = {}
        self._below = {0: {0}}
        self._left = {}
        # the regular module H, built on first use by the KL functions
        self.kl_module = None
        self._build()

    def __repr__(self):
        return "BruhatBall(%r, %d)" % ([list(r) for r in self.coxeter_matrix],
                                       self.length_bound)

    def key_of(self, word):
        """The faithful vector w^{-1}(rho^v) of the element w of a word; the
        word need not be reduced, and w need not lie in the ball."""
        key = (1,) * self.n_gens
        for i in word:
            if not 0 <= i < self.n_gens:
                raise DomainError("generator index %r out of range" % (i,))
            ci = key[i]
            key = tuple([c - ci * a for c, a in zip(key, self.gcm[i])])
        return key

    def _build(self):
        # breadth first through ascents (c_i > 0 on the key of w): a
        # ShortLex-sorted layer discovers the next layer in ShortLex
        # order, so ids are ShortLex ranks.  Each ascent w -> w s_i fills
        # right[w][i] and right[w s_i][i]; every descent of an element is
        # an ascent of an element one layer down, so the table is full
        # but for ascents out of the last layer
        n, gcm = self.n_gens, self.gcm
        els, right, ids = self.elements, self.right, self._ids
        keys = [(1,) * n]
        ids[keys[0]] = 0
        els.append(BallElement((), 0))
        right.append([-1] * n)
        self._counts = [1]
        start = 0
        for _ in range(self.length_bound):
            stop = len(els)
            for w in range(start, stop):
                key, row = keys[w], right[w]
                for i, ci in enumerate(key):
                    if ci > 0:
                        nkey = tuple([c - ci * a
                                      for c, a in zip(key, gcm[i])])
                        ws = ids.get(nkey)
                        if ws is None:
                            ws = ids[nkey] = len(els)
                            els.append(BallElement(els[w].word + (i,), ws))
                            keys.append(nkey)
                            right.append([-1] * n)
                        row[i] = ws
                        right[ws][i] = w
            start = stop
            self._counts.append(len(els) - stop)

    # -- element access -------------------------------------------------------

    def id_of(self, word):
        """The id of the element of a word, -1 outside the ball; the word
        need not be reduced."""
        return self._ids.get(self.key_of(word), -1)

    def element_by_word(self, word):
        k = self.id_of(word)
        if k < 0:
            raise BallExhausted(
                "element of word %r lies outside the length-%d ball"
                % (word, self.length_bound))
        return self.elements[k]

    def __len__(self):
        return len(self.elements)

    def all_elements(self):
        return list(self.elements)

    def counts_by_length(self):
        return list(self._counts)

    def left_descents(self, k):
        """Bitmask of the left descents of element k, memoized: the right
        descents of its inverse, whose key reflects (1, ..., 1) through
        the reversed word."""
        got = self._left.get(k)
        if got is None:
            inverse = self.key_of(reversed(self.elements[k].word))
            got = self._left[k] = sum(1 << i for i, c in enumerate(inverse)
                                      if c < 0)
        return got

    # -- Bruhat order -------------------------------------------------------

    def _lower(self, y):
        """Ids of [e, y], memoized per id y.  For the last letter s of the
        word of y, a right descent, [e, y] = [e, ys] u [e, ys] s (lifting
        property); every z s there has length at most l(y), so it lies in
        the ball."""
        got = self._below.get(y)
        if got is None:
            s = self.elements[y].word[-1]
            right = self.right
            got = self._lower(right[y][s])
            got = self._below[y] = got | {right[z][s] for z in got}
        return got

    def leq(self, x, y):
        """Bruhat order: x lies in [e, y]."""
        return x.id in self._lower(y.id)

    def interval_below(self, y):
        """[e, y] in ShortLex order, which is id order."""
        els = self.elements
        return [els[k] for k in sorted(self._lower(y.id))]


def build_ball(coxeter_matrix, length_bound):
    return BruhatBall(coxeter_matrix, length_bound)


def query_ball(coxeter_matrix, length_bound, words):
    """The ball for a query about the elements of `words`: radius the
    length of the longest word, capped by length_bound (0 with no word).

    An element has length at most that of any word for it, so a word lies
    in this ball iff it lies in the length_bound ball, with the same
    ShortLex word.  Everything the query needs of an element w stays in
    radius l(w): the lower interval [e, w] and, in the canonical-basis
    recursion, the products z s with z <= w s < w (lifting property)."""
    radius = max((len(word) for word in words), default=0)
    return BruhatBall(coxeter_matrix, min(length_bound, radius))


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
# Z[v] coefficients of the oracle: int tuples indexed by the power of v
# ---------------------------------------------------------------------------

_V2_MINUS_ONE = (-1, 0, 1)        # v bar(H_s) = v H_s + v^2 - 1
_ONE_MINUS_V2 = (1, 0, -1)        # what v H_s leaves on N_y when ys < y


def _add(a, b):
    """a + b in Z[v], trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for p, x in enumerate(b):
        out[p] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mul(a, b):
    """a b in Z[v]; the top coefficient a[-1] b[-1] is never zero."""
    if not a or not b:
        return ()
    if not any(b[:-1]):
        # a monomial c v^k: scale and shift
        c = b[-1]
        return (0,) * (len(b) - 1) + (a if c == 1 else tuple(c * x for x in a))
    out = [0] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        if x:
            for q, y in enumerate(b):
                out[p + q] += x * y
    return tuple(out)


def _laurent(coeffs):
    """A tuple of coefficients indexed by the power as a LaurentPoly."""
    return LaurentPoly({p: a for p, a in enumerate(coeffs) if a})


def _unpack(h, width):
    """The Z[v] tuple of a packed coefficient h = h(2^width), read as
    balanced digits in (-2^(width-1), 2^(width-1))."""
    base = 1 << width
    half = base >> 1
    out = []
    while h:
        d = (h + half) % base - half
        out.append(d)
        h = (h - d) >> width
    return tuple(out)


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

    Vectors are dicts over the standard basis N_y, keyed by the ball's
    element ids: the recursion's columns hold packed ints h(2^B), the
    oracle's vectors Z[v] tuples.
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
        self._jmask = sum(1 << i for i in self.parabolic)
        # v H_s on the inducing line: v v^{-1} = 1, or v (-v) = -v^2
        self._v_eps = (1,) if param == "q" else (0, 0, -1)
        # the packing width B of the recursion's coefficients, and the
        # digit sum S(w) of each finished column n_w
        self._width = ball.length_bound + 2
        self._nbasis = {0: {0: 1}}
        self._mass = {0: 1}
        self._coeffs = {}
        self._solved = {}
        self._bars = {}

    def _is_min(self, k):
        """Element k is minimal in W_J k: no left descent in J."""
        return not (self._jmask and self.ball.left_descents(k) & self._jmask)

    def is_minimal(self, el):
        return self._is_min(el.id)

    def minimal_elements(self):
        return [el for el in self.ball.elements if self._is_min(el.id)]

    def _as_minimal(self, w):
        if not self._is_min(w.id):
            raise DomainError("w is not minimal in its coset")
        return w

    def act_gen(self, vec, i, scalar=()):
        """vec (v H_{s_i} + scalar) for a Z[v] scalar.  v H_s maps N_y to
        v N_{ys} + (1 - v^2) N_y if ys < y (ys has the smaller id), to
        v N_{ys} if ys > y is minimal, and to v eps N_y otherwise, so the
        action never leaves Z[v]."""
        right = self.ball.right
        jmask = self._jmask
        down = _add(_ONE_MINUS_V2, scalar)
        stay = _add(self._v_eps, scalar)
        out = {}
        for y, t in vec.items():
            ys = right[y][i]
            if ys < 0:
                raise BallExhausted("right multiplication left the ball")
            if ys < y:
                moved, diag = True, down
            else:
                moved = not jmask or self._is_min(ys)
                diag = scalar if moved else stay
            if moved:
                got = out.get(ys)
                vt = (0,) + t
                out[ys] = vt if got is None else _add(got, vt)
            if diag:
                got = out.get(y)
                dt = _mul(t, diag)
                out[y] = dt if got is None else _add(got, dt)
        return {k: t for k, t in out.items() if t}

    def bar_standard(self, y):
        """v^{l(y)} bar(N_y) = N_e prod_s (v H_s + v^2 - 1) over the word
        of y, in Z[v]; memoized per module, so the returned dict must not
        be mutated."""
        got = self._bars.get(y.id)
        if got is not None:
            return got
        vec = {0: (1,)}
        for i in y.word:
            vec = self.act_gen(vec, i, _V2_MINUS_ONE)
        self._bars[y.id] = vec
        return vec

    # -- canonical basis: production recursion -----------------------------

    def canonical_basis(self, w):
        """n_w over the standard basis, {id: LaurentPoly in v}, via the
        inductive mu-correction algorithm.  w must be a minimal coset
        representative."""
        w = self._as_minimal(w)
        width = self._width
        return {k: _laurent(_unpack(h, width))
                for k, h in self._column(w.id).items()}

    def _column(self, w):
        """n_w for the element of id w, as {id: packed coefficient},
        memoized per module, so the returned dict must not be mutated.
        n_w = v^{-1} n_{w1} (v H_s + v^2) minus the mu-corrections, for a
        right descent s = s_i of w with w1 = w s minimal."""
        got = self._nbasis.get(w)
        if got is not None:
            return got
        ball = self.ball
        right = ball.right
        row = right[w]
        i = next(i for i in reversed(ball.elements[w].word)
                 if row[i] < w and self._is_min(row[i]))
        w1 = row[i]
        width = self._width
        mask = (1 << width) - 1
        jmask = self._jmask
        spherical = self.param == "q"
        # act_gen with scalar v^2, divided by v: each t of n_{w1} gives
        # t N_ys + t/v N_y on a descent ys < y, t N_ys + v t N_y on an
        # ascent to a minimal ys, and (t/v + v t) N_y ("q") or nothing
        # ("-1") on a non-minimal ys; t/v needs t in vZ[v]
        cand = {}
        get = cand.get
        for y, t in self._column(w1).items():
            ys = right[y][i]
            if ys < 0:
                raise BallExhausted("right multiplication left the ball")
            if ys < y:
                if t & mask:
                    raise AssertionError(
                        "canonical basis coefficient not in vZ[v]")
                cand[ys] = get(ys, 0) + t
                cand[y] = get(y, 0) + (t >> width)
            elif not jmask or self._is_min(ys):
                cand[ys] = get(ys, 0) + t
                cand[y] = get(y, 0) + (t << width)
            elif spherical:
                if t & mask:
                    raise AssertionError(
                        "canonical basis coefficient not in vZ[v]")
                cand[y] = get(y, 0) + (t >> width) + (t << width)
        # every entry of n_y below its head lies in vZ[v], so subtracting
        # c0 n_y clears the constant term at y and no other: the
        # corrections commute and read the constant terms of cand as
        # built, which are nonnegative since every finished column is.
        # No digit of cand or of any partial sum of the corrections
        # exceeds bound in absolute value (module docstring)
        mass = self._mass
        bound = 2 * mass[w1]
        fixes = []
        for y, t in cand.items():
            c0 = t & mask
            if c0 and y != w:
                fixes.append((c0, self._column(y)))
                bound += c0 * mass[y]
        if bound >= 1 << (width - 1):
            raise TruncationOverflow(
                "canonical basis column of %r may hold a digit up to %d, "
                "past its %d-bit packing width" % (ball.elements[w], bound,
                                                  width), witness=bound)
        try:
            for c0, col in fixes:
                for z, s in col.items():
                    cand[z] -= c0 * s
        except KeyError:
            # cand is 0 at z as built, and c0 s > 0 is taken away
            raise AssertionError(
                "canonical basis coefficient is negative") from None
        if cand.get(w) != 1:
            raise AssertionError("canonical basis recursion lost its head term")
        coeffs = self._coeffs
        intern = coeffs.get
        col = {}
        for y, t in cand.items():
            if t:
                h = intern(t)
                if h is None:
                    if min(_unpack(t, width)) < 0:
                        raise AssertionError(
                            "canonical basis coefficient is negative")
                    h = coeffs[t] = t
                if h & mask and y != w:
                    raise AssertionError(
                        "canonical basis coefficient not in vZ[v]")
                col[y] = h
        # the digit sum: 2^B = 1 modulo 2^B - 1, and S(w) < 2^(B-1)
        mass[w] = sum(col.values()) % mask
        self._nbasis[w] = col
        return col

    # -- canonical basis: direct bar-invariance solve (oracle) -------------

    def canonical_basis_via_solve(self, w):
        """n_w solved once per w, in a memo apart from the recursion's;
        {id: LaurentPoly in v}."""
        w = self._as_minimal(w)
        return {k: _laurent(t) for k, t in self._solved_column(w).items()}

    def _solved_column(self, w):
        got = self._solved.get(w.id)
        if got is None:
            got = self._solved[w.id] = self._solve(w)
        return got

    def _solve(self, w):
        below = [z for z in self.ball.interval_below(w)
                 if z.id != w.id and self._is_min(z.id)]
        unknowns = [(y, d) for y in below
                    for d in range(1, w.length - y.length + 1)]
        ncol = len(unknowns)
        # one equation {column: int} per coefficient (standard basis
        # element, power of v) of bar(n_w) - n_w = 0; column ncol holds the
        # right-hand side, the terms of bar(N_w) - N_w moved across.
        # bar(N_y) = v^{-l(y)} bar_standard(y), so its powers shift by -l(y)
        eq = {}

        def add(k, power, col, val):
            row = eq.setdefault((k, power), {})
            row[col] = row.get(col, 0) + val

        for k, t in self.bar_standard(w).items():
            for p, a in enumerate(t):
                if a:
                    add(k, p - w.length, ncol, -a)
        add(w.id, 0, ncol, 1)
        for col, (y, d) in enumerate(unknowns):
            shift = y.length + d
            for k, t in self.bar_standard(y).items():
                for p, a in enumerate(t):
                    if a:
                        add(k, p - shift, col, a)
            add(y.id, d, col, -1)
        sol = _solve_int_system(list(eq.values()), ncol)
        coeffs = {}
        for (y, d), val in zip(unknowns, sol):
            if val:
                coeffs.setdefault(y.id, {})[d] = val
        out = {w.id: (1,)}
        for y, c in coeffs.items():
            out[y] = tuple(c.get(d, 0) for d in range(max(c) + 1))
        return out


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials: the canonical basis of ParabolicModule(ball, ())
# ---------------------------------------------------------------------------

def _kl_module(ball):
    """H as ParabolicModule(ball, ()), kept on the ball so each route
    computes every canonical-basis element once per ball."""
    if ball.kl_module is None:
        ball.kl_module = ParabolicModule(ball, ())
    return ball.kl_module


def _p_from_h(h, base):
    """P_{x,y}(q) as a tuple indexed by the power of q, from the Z[v]
    tuple h = h_{x,y}(v) = v^base P_{x,y}(v^{-2}), base = l(y) - l(x)."""
    out = [0] * (base // 2 + 1) if base >= 0 else []
    for p, a in enumerate(h):
        if a:
            rel = base - p
            if rel % 2 != 0 or rel < 0:
                raise DomainError("canonical basis coefficient violates parity")
            out[rel // 2] = a
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _elements(ball, x, y):
    if isinstance(x, tuple):
        x = ball.element_by_word(x)
    if isinstance(y, tuple):
        y = ball.element_by_word(y)
    return x, y


def kl_polynomial(ball, x, y):
    """P_{x,y} as a polynomial in q, from b_y built by the mu-correction
    recursion.  x <= y iff x is an id of b_y, since P_{x,y}(0) = 1."""
    x, y = _elements(ball, x, y)
    mod = _kl_module(ball)
    h = mod._column(y.id).get(x.id)
    if h is None:
        raise DomainError("kl_polynomial requires x <= y in Bruhat order")
    return _laurent(_p_from_h(_unpack(h, mod._width), y.length - x.length))


def kl_polynomial_via_solve(ball, x, y):
    """P_{x,y} in q, from b_y solved directly from bar-invariance.
    Independent of the mu-correction recursion."""
    x, y = _elements(ball, x, y)
    h = _kl_module(ball)._solved_column(y).get(x.id, ())
    return _laurent(_p_from_h(h, y.length - x.length))


def kl_table_pairs(ball):
    """Every pair x <= y of the ball, y in ShortLex order and x in
    ShortLex order below it, read off the ids of b_y: x <= y iff
    P_{x,y}(0) = 1, and ShortLex order is id order."""
    mod = _kl_module(ball)
    els = ball.elements
    return [(els[x], y) for y in els for x in sorted(mod._column(y.id))]


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


# the normalization tag of every kl_table_tsv line
KL_CONVENTION = "q=v^-2,Hs:(Hs-v^-1)(Hs+v)=0"


def kl_table_tsv(ball, pairs):
    """TSV dump of KL polynomials: y-word, w-word, coefficient list,
    convention tag, one line per pair in the given order.  Every x is read
    off the one column b_y of its y.  The top digit of a packed h_{x,y} is
    the 1 at v^{l(y)-l(x)} (P_{x,y}(0) = 1), so the int fixes its own
    base, and the text of each distinct h is formatted once, keyed by the
    int."""
    mod = _kl_module(ball)
    lines = ["y\tw\tcoeffs\tconvention"]
    names = [None] * len(ball.elements)
    texts = {}
    last = col = tail = None
    for x, y in pairs:
        if y is not last:
            last, col = y, mod._column(y.id)
            tail = "\t%s\t" % ("".join(str(i) for i in y.word) or "e")
        h = col.get(x.id)
        if h is None:
            raise DomainError("kl_polynomial requires x <= y in Bruhat order")
        text = texts.get(h)
        if text is None:
            p = _p_from_h(_unpack(h, mod._width), y.length - x.length)
            lo = next(k for k, a in enumerate(p) if a)
            text = texts[h] = "%s\t%s" % (
                ",".join(str(c) for c in (lo,) + p[lo:]), KL_CONVENTION)
        xname = names[x.id]
        if xname is None:
            xname = names[x.id] = "".join(str(i) for i in x.word) or "e"
        lines.append(xname + tail + text)
    return "\n".join(lines) + "\n"
