"""Affine coroots, the level-k dot action, weight classification, integral
Weyl groups, orbits and block decompositions.

A weight at level k is a point of the affine subspace t* + c*; in
coordinates it is a tuple of Fractions in the fundamental-weight basis
plus the level.  Real affine coroots are pairs (gamma, m) standing for
gamma + m (kappa/kappa_b) c with gamma a finite coroot (an int tuple in
simple-coroot coordinates) and m an int multiple of the lacing number of
gamma.
All shifted pairings use the closed form

    <lam + rho_hat, (gamma, m)> = <lam + rho, gamma> + m (k + h_dual),

so the affine rho element is never materialized.

The affine Weyl group W and the integral Weyl group W_lambda are Coxeter
groups whose elements live in a ``hecke.BruhatBall`` (du Cloux,
Experiment. Math. 11, 2002): integer keys, ShortLex words, generator i
standing for the reflection in the i-th simple coroot.  A word reaches
weights only through the dot action, folded one reflection at a time.
"""

from fractions import Fraction

from .errors import DomainError
from .rootdata import Value, exact

F = Fraction


class LevelWeight(Value):
    """A weight lam at a level: omega-coordinates, each an int or a
    Fraction, kept as Fractions."""

    __slots__ = ("rs", "lam", "level")

    def __init__(self, rs, lam, level):
        lam = tuple(lam)
        if len(lam) != rs.rank:
            raise DomainError("weight has wrong number of coordinates")
        for a in lam:
            if a.__class__ is not F:
                lam = tuple(exact(a, "weight coordinate") for a in lam)
                break
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "level", level)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rs is other.rs and self.lam == other.lam
                and self.level == other.level)

    def __hash__(self):
        return hash((self.rs, self.lam, self.level))

    def with_lam(self, lam):
        return LevelWeight(self.rs, lam, self.level)

    @property
    def k(self):
        return self.level.k

    def shif(self):
        """lam + rho in omega-coordinates."""
        return tuple(a + 1 for a in self.lam)


class AffineCoroot(Value):
    """gamma + m (kappa/kappa_b) c: gamma an int tuple, m an int."""

    __slots__ = ("gamma", "m")

    def __init__(self, gamma, m):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "m", m)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.gamma == other.gamma and self.m == other.m

    def __hash__(self):
        return hash((self.gamma, self.m))

    def is_positive(self):
        if self.m != 0:
            return self.m > 0
        for g in self.gamma:
            if g != 0:
                return g > 0
        raise DomainError("zero coroot has no sign")


def simple_affine_coroots(rs):
    """alphacheck_i for i in {0} u I; index 0 is -theta_check + (k/kb) c."""
    out = {0: AffineCoroot(tuple(-t for t in rs.theta_check), 1)}
    for i in range(rs.rank):
        e = (0,) * i + (1,) + (0,) * (rs.rank - 1 - i)
        out[i + 1] = AffineCoroot(e, 0)
    return out


def is_real_coroot(rs, cr):
    """Closed-form membership test.  The coroot of the real root
    alpha + n delta is gamma + n (2/(alpha, alpha)) K, gamma the coroot of
    alpha (Kac, Infinite-dimensional Lie algebras, 6.3), so (gamma, m) is
    real iff m is a multiple of the lacing number r(gamma) =
    kappa_b(gamma, gamma) / kappa_b(theta_check, theta_check): 1 on short
    coroots, 2 or 3 on the long coroots of B, C, F and G.  Agrees with the
    reflection-orbit oracle (tested)."""
    r = rs.coroot_lacing.get(cr.gamma)
    return r is not None and cr.m % r == 0


def _root_pair(rs, gamma, other):
    """<beta, other> for beta the root of the finite coroot gamma."""
    return sum(b * g for b, g in zip(rs.coroot_roots[gamma], other))


def reflect_coroot(rs, refl, cr):
    """Linear action of the reflection in `refl` on the coroot `cr`:
    x -> x - <gamma_refl, x> * refl, where the pairing only sees the
    finite parts."""
    p = _root_pair(rs, refl.gamma, cr.gamma)
    return AffineCoroot(
        tuple(d - p * g for d, g in zip(cr.gamma, refl.gamma)),
        cr.m - p * refl.m)


# ---------------------------------------------------------------------------
# pairings and reflections on weights
# ---------------------------------------------------------------------------

def dot_pair(lw, cr):
    """<lam + rho_hat, cr>."""
    rs = lw.rs
    base = rs.pair_weight_coroot(lw.shif(), cr.gamma)
    return base + cr.m * (lw.k + rs.h_dual)


def dot_reflect(lw, cr):
    """Dot reflection of the weight in the real affine coroot cr."""
    rs = lw.rs
    if not is_real_coroot(rs, cr):
        raise DomainError("%r is not a real affine coroot" % (cr,))
    p = dot_pair(lw, cr)
    return lw.with_lam(tuple(a - p * b for a, b in
                             zip(lw.lam, rs.coroot_roots[cr.gamma])))


def dot_act_word(lw, coroots, word):
    """w . lw for w = s_{word[0]} ... s_{word[-1]}, where s_i is the dot
    reflection in coroots[i] (a list, or a dict keyed 0, 1, ...)."""
    for i in reversed(word):
        if i not in range(len(coroots)):
            raise DomainError("unknown simple reflection index %r" % (i,))
        lw = dot_reflect(lw, coroots[i])
    return lw


# ---------------------------------------------------------------------------
# the affine Weyl group as a Coxeter group
# ---------------------------------------------------------------------------

class AffineWeylGroup:
    """The affine Weyl group of rs, at a fixed noncritical level, as the
    Coxeter group on the simple affine coroots: generator i of its balls
    is the dot reflection in simple_coroots[i]."""

    def __init__(self, rs, level):
        level.require_noncritical(rs)
        self.rs = rs
        self.simple_coroots = simple_affine_coroots(rs)
        self.coxeter_matrix = _coxeter_matrix_of(
            rs, [self.simple_coroots[i] for i in range(rs.rank + 1)])

    def ball(self, length_bound):
        """All elements of length <= length_bound, in ShortLex order."""
        from .hecke import BruhatBall
        return BruhatBall(self.coxeter_matrix, length_bound)

    def reflection_word(self, cr):
        """A word for the reflection in the real positive coroot cr.  While
        cr is not simple, some simple i has <alpha_i, cr> > 0, s_i cr is a
        positive coroot of smaller height and s_cr = s_i s_{s_i cr} s_i."""
        rs = self.rs
        if not (is_real_coroot(rs, cr) and cr.is_positive()):
            raise DomainError("%r is not a real positive coroot" % (cr,))
        index = {s: i for i, s in self.simple_coroots.items()}
        outer = ()
        while cr not in index:
            i = next(i for s, i in index.items()
                     if _root_pair(rs, s.gamma, cr.gamma) > 0)
            outer += (i,)
            cr = reflect_coroot(rs, self.simple_coroots[i], cr)
        return outer + (index[cr],) + outer[::-1]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class Classification:
    def __init__(self, antidominant, dominant, regular, walls,
                 simple_pairings):
        self.antidominant = antidominant
        self.dominant = dominant
        self.regular = regular
        self.walls = walls                    # AffineCoroots
        self.simple_pairings = simple_pairings  # index -> Fraction

    def to_json_dict(self):
        return {
            "antidominant": self.antidominant,
            "dominant": self.dominant,
            "regular": self.regular,
            "walls": [{"gamma": [str(g) for g in cr.gamma], "m": cr.m}
                      for cr in self.walls],
            "simple_pairings": {str(i): str(v)
                                for i, v in sorted(self.simple_pairings.items())},
        }


def _is_positive_integer(x):
    return x.denominator == 1 and x > 0


def _is_negative_integer(x):
    return x.denominator == 1 and x < 0


def _first_integral_coroots(lw):
    """For each finite coroot g of either sign, the integral positive real
    coroot (g, m) with the least m: m >= 0 (m >= 1 for negative g), m in
    the integrality progression of <lam, g> and a multiple of the lacing
    number of g.  Coroots with no integral m are left out."""
    rs = lw.rs
    for gamma in rs.positive_coroots:
        for sign in (1, -1):
            g = tuple(sign * x for x in gamma)
            prog = integrality_progression(
                rs.pair_weight_coroot(lw.lam, g), lw.k)
            if prog is None:
                continue
            m0, step = prog
            lo = 1 if sign == -1 else 0
            first = m0 + step * ((lo - m0 + step - 1) // step)
            r = rs.coroot_lacing[g]
            # the admissible m repeat with period lcm(step, r), at most r steps
            m = next((m for m in range(first, first + r * step, step)
                      if m % r == 0), None)
            if m is not None:
                yield AffineCoroot(g, m)


def classify_weight(lw):
    """Antidominance on the integral coroots, dominance on the simple
    affine pairings; regularity through the per-coroot closed form
    (complete: each finite coroot vanishes for at most one central
    multiplicity).

    lam is antidominant iff no integral positive real coroot pairs with
    lam + rho_hat to a positive integer.  Along one finite coroot the
    pairing moves by m (k + h_dual), so at negative level the first
    integral m gives the largest pairing.  At positive level the first
    pairings of g and -g sum to a positive multiple of k + h_dual, so one
    of them is positive whenever g is integral at all."""
    rs = lw.rs
    lw.level.require_noncritical(rs)
    pairings = {}
    for i, cr in simple_affine_coroots(rs).items():
        pairings[i] = dot_pair(lw, cr)
    anti = not any(_is_positive_integer(dot_pair(lw, cr))
                   for cr in _first_integral_coroots(lw))
    dom = not any(_is_negative_integer(v) for v in pairings.values())
    walls = []
    denom = lw.k + rs.h_dual
    for gamma in rs.positive_coroots:
        p0 = rs.pair_weight_coroot(lw.shif(), gamma)
        mstar = -p0 / denom
        # (gamma, mstar) is a real coroot iff mstar is an integral
        # multiple of the lacing number
        if mstar % rs.coroot_lacing[gamma] == 0:
            walls.append(AffineCoroot(gamma, int(mstar)))
    walls.sort(key=lambda cr: (abs(cr.m), cr.m, cr.gamma))
    return Classification(
        antidominant=anti,
        dominant=dom,
        regular=not walls,
        walls=walls,
        simple_pairings=pairings,
    )


# ---------------------------------------------------------------------------
# integral Weyl group data
# ---------------------------------------------------------------------------

def integrality_progression(pair_value, k):
    """{m in Z : pair_value + m k in Z} as (residue, step), or None.

    Closed form behind the integral coroots of ``_first_integral_coroots``.
    """
    pv = F(pair_value)
    k = F(k)
    p, q = k.numerator, k.denominator
    b = pv.denominator
    if q % b != 0:
        return None
    a_mod = (-pv.numerator * (q // b)) % q
    # p and q are coprime: one residue m0 of m mod q makes it integral
    m0 = (a_mod * pow(p, -1, q)) % q if q > 1 else 0
    return (m0, q)


class IntegralSystem:
    def __init__(self, simples, coxeter_matrix):
        self.simples = simples
        self.coxeter_matrix = coxeter_matrix


def integral_system(lw):
    """The simple coroots of the integral Weyl group W_lambda, sorted by
    (m, gamma), and their Coxeter matrix, in closed form.

    A positive integral coroot is simple iff its reflection keeps every
    other one positive.  Along a finite coroot g they are (g, m1 + jP),
    j >= 0, with (g, m1) from ``_first_integral_coroots`` and P its period
    lcm(step, lacing number): 0 <= m1 < P for positive g and 0 < m1 <= P
    for negative g.  Only the first can be
    simple: for m > m1 the reflection in (g, m) sends (g, m1) to
    (-g, m1 - 2m) < 0.  The reflection in c = (g, m1) sends (g', m') to
    (g' - p g, m' - p m1) with p independent of m', so if it keeps
    (g', m') positive, it keeps every later coroot along g' positive; and
    it sends the later coroots along g to (-g, jP - m1) and those along -g
    to (g, m' + 2 m1), none negative.  So c is simple iff it keeps every
    other first coroot positive."""
    rs = lw.rs
    firsts = sorted(_first_integral_coroots(lw),
                    key=lambda cr: (cr.m, cr.gamma))
    simples = [cand for cand in firsts
               if all(reflect_coroot(rs, cand, other).is_positive()
                      for other in firsts if other != cand)]
    return IntegralSystem(simples, _coxeter_matrix_of(rs, simples))


def regular_antidominant_system(lw, what):
    """integral_system(lw) if lw is regular antidominant at negative
    level, the regime of `what`; else a DomainError naming `what`."""
    cls = classify_weight(lw)
    if not (cls.antidominant and cls.regular and lw.level.is_negative(lw.rs)):
        raise DomainError(
            "%s requires a regular antidominant weight at negative level; "
            "classification: %s" % (what, cls.to_json_dict()))
    return integral_system(lw)


def _coxeter_matrix_of(rs, coroots):
    """Bond orders between reflections from Cartan-pairing products."""
    order_of = {0: 2, 1: 3, 2: 4, 3: 6}
    n = len(coroots)
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gi, gj = coroots[i].gamma, coroots[j].gamma
            nij = _root_pair(rs, gi, gj) * _root_pair(rs, gj, gi)
            m[i][j] = m[j][i] = order_of.get(nij, 0)
    return m


# ---------------------------------------------------------------------------
# orbits and blocks
# ---------------------------------------------------------------------------

class OrbitResult:
    def __init__(self, points, representative, representative_kind,
                 distance, truncated, unique_in_ball, walls):
        self.points = points                    # LevelWeights, BFS order
        self.representative = representative    # a LevelWeight or None
        self.representative_kind = representative_kind
        self.distance = distance                # an int or None
        self.truncated = truncated
        self.unique_in_ball = unique_in_ball
        self.walls = walls

    def to_json_dict(self):
        return {
            "orbit_size_in_ball": len(self.points),
            "representative": None if self.representative is None
            else [str(a) for a in self.representative.lam],
            "representative_kind": self.representative_kind,
            "distance": self.distance,
            "truncated": self.truncated,
            "unique_in_ball": self.unique_in_ball,
            "walls": len(self.walls),
        }


def orbit_and_representative(lw, length_bound):
    """BFS of the dot orbit over simple reflections; returns the unique
    antidominant (negative level) or dominant (otherwise) element of the
    ball if one exists."""
    if length_bound < 1:
        raise DomainError("length_bound must be >= 1")
    rs = lw.rs
    negative = lw.level.is_negative(rs)
    kind = "antidominant" if negative else "dominant"
    simples = simple_affine_coroots(rs)
    seen = {lw.lam}
    order = [lw]
    frontier = [lw]
    found = []
    cls0 = classify_weight(lw)
    if getattr(cls0, kind):
        found.append((lw, 0))
    for dist in range(1, length_bound + 1):
        nxt = []
        for w in frontier:
            for i in sorted(simples):
                img = dot_reflect(w, simples[i])
                if img.lam not in seen:
                    seen.add(img.lam)
                    order.append(img)
                    nxt.append(img)
                    c = classify_weight(img)
                    if getattr(c, kind):
                        found.append((img, dist))
        frontier = nxt
    rep, d = (found[0][0], found[0][1]) if found else (None, None)
    return OrbitResult(
        points=order,
        representative=rep,
        representative_kind=kind,
        distance=d,
        truncated=rep is None,
        # each weight is found once, when it is new to ``seen``
        unique_in_ball=len(found) == 1,
        walls=cls0.walls,
    )


class Block:
    def __init__(self, representative_word, representative_weight,
                 simple_labels, truncated):
        self.representative_word = representative_word
        self.representative_weight = representative_weight
        self.simple_labels = simple_labels  # (word, weight) pairs
        self.truncated = truncated

    def to_json_dict(self):
        return {
            "representative_word": list(self.representative_word),
            "representative_weight": [str(a) for a in self.representative_weight],
            "simple_labels": [
                {"word": list(w), "weight": [str(a) for a in lam]}
                for w, lam in self.simple_labels],
            "truncated": self.truncated,
        }


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _chamber_walk(rs, lam, sign):
    """The element of the finite dot orbit of lam whose shifted
    coordinates lam_i + 1 all have the sign `sign` or vanish: unique, as
    the closed chamber is a fundamental domain of W_f (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12), and reached in at most
    l(w0) reflections in simple roots of wrongly signed coordinate."""
    lam = tuple(F(a) for a in lam)
    while True:
        i = next((i for i in range(rs.rank) if sign * (lam[i] + 1) < 0),
                 None)
        if i is None:
            return lam
        p = lam[i] + 1
        lam = tuple(a - p * b for a, b in zip(lam, rs.simple_roots[i]))


def finite_dominant_representative(rs, lam):
    """Canonical element of the finite dot orbit: the dominant one."""
    return _chamber_walk(rs, lam, 1)


def finite_antidominant_element(rs, lam):
    """The w0-dot translate of lam: its antidominant orbit element."""
    return _chamber_walk(rs, lam, -1)


def block_decomposition(lw, length_bound):
    """Double cosets W_f \\ W / W_lambda among ball elements, each with
    its minimal-length representative and simple-label coset list."""
    rs = lw.rs
    isys = regular_antidominant_system(lw, "block decomposition")
    group = AffineWeylGroup(rs, lw.level)
    ball = group.ball(length_bound)
    refl_words = [group.reflection_word(cr) for cr in isys.simples]

    uf = _UnionFind()
    truncated_roots = set()
    weight = []
    finite_idx = range(1, rs.rank + 1)
    for el in ball.elements:
        k = el.id
        uf.find(k)
        # ShortLex: el = s_i v with v = s_i el shorter, so already weighed
        if el.word:
            weight.append(dot_reflect(weight[ball.id_of(el.word[1:])],
                                      group.simple_coroots[el.word[0]]))
        else:
            weight.append(lw)
        for i in finite_idx:
            left = ball.id_of((i,) + el.word)
            if left >= 0:
                uf.union(k, left)
            else:
                truncated_roots.add(k)
        for word in refl_words:
            right = ball.id_of(el.word + word)
            if right >= 0:
                uf.union(k, right)
            else:
                truncated_roots.add(k)

    # ids are ShortLex ranks, so each component, its cosets and the
    # components themselves come out in ShortLex order of their first
    # member: the minimal-length representative
    comps = {}
    for el in ball.elements:
        comps.setdefault(uf.find(el.id), []).append(el)

    blocks = []
    for members in comps.values():
        rep = members[0]
        truncated = any(m.id in truncated_roots for m in members)
        by_coset = {}
        for m in members:
            by_coset.setdefault(
                finite_dominant_representative(rs, weight[m.id].lam), m)
        labels = [(m.word, ck) for ck, m in by_coset.items()]
        blocks.append(Block(rep.word, weight[rep.id].lam, labels, truncated))
    return blocks
