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
from dataclasses import dataclass
from math import gcd

from .errors import DomainError
from .hecke import BruhatBall
from .rootdata import Level

F = Fraction


@dataclass(frozen=True)
class LevelWeight:
    rs: object
    lam: tuple
    level: Level

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(F(a) for a in self.lam))
        if len(self.lam) != self.rs.rank:
            raise DomainError("weight has wrong number of coordinates")

    def with_lam(self, lam):
        return LevelWeight(self.rs, lam, self.level)

    @property
    def k(self):
        return self.level.k

    def shif(self):
        """lam + rho in omega-coordinates."""
        return tuple(a + 1 for a in self.lam)


@dataclass(frozen=True)
class AffineCoroot:
    gamma: tuple
    m: int

    def negate(self):
        return AffineCoroot(tuple(-g for g in self.gamma), -self.m)

    def is_positive(self):
        if self.m != 0:
            return self.m > 0
        for g in self.gamma:
            if g != 0:
                return g > 0
        raise DomainError("zero coroot has no sign")


def simple_affine_coroots(rs, index_set=None):
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


def real_coroot_orbit(rs, m_bound):
    """Orbit of the simple affine coroots under the linear reflections,
    truncated to |m| <= m_bound.  Reflection-closure oracle of record for
    the set of real coroots."""
    simples = list(simple_affine_coroots(rs).values())
    seen = set()
    frontier = []
    for cr in simples:
        key = (cr.gamma, cr.m)
        seen.add(key)
        seen.add((cr.negate().gamma, cr.negate().m))
        frontier.append(cr)
        frontier.append(cr.negate())
    while frontier:
        nxt = []
        for cr in frontier:
            for s in simples:
                img = reflect_coroot(rs, s, cr)
                if abs(img.m) > m_bound:
                    continue
                key = (img.gamma, img.m)
                if key not in seen:
                    seen.add(key)
                    nxt.append(img)
        frontier = nxt
    return {AffineCoroot(g, m) for g, m in seen}


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

def dot_pair(lw, cr, shifted=True):
    """<lam + rho_hat, cr> (shifted) or <lam, cr> (unshifted)."""
    rs = lw.rs
    if shifted:
        base = rs.pair_weight_coroot(lw.shif(), cr.gamma)
        return base + cr.m * (lw.k + rs.h_dual)
    base = rs.pair_weight_coroot(lw.lam, cr.gamma)
    return base + cr.m * lw.k


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

    def dot_act(self, word, lw):
        return dot_act_word(lw, self.simple_coroots, word)

    def ball(self, length_bound):
        """All elements of length <= length_bound, in ShortLex order."""
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

@dataclass
class Classification:
    antidominant: bool
    dominant: bool
    regular: bool
    walls: list
    simple_pairings: dict
    ball_radius: int
    search_complete: bool = True

    def to_json_dict(self):
        return {
            "antidominant": self.antidominant,
            "dominant": self.dominant,
            "regular": self.regular,
            "walls": [{"gamma": [str(g) for g in cr.gamma], "m": cr.m}
                      for cr in self.walls],
            "simple_pairings": {str(i): str(v)
                                for i, v in sorted(self.simple_pairings.items())},
            "ball_radius": self.ball_radius,
            "search_complete": self.search_complete,
        }


def _is_positive_integer(x):
    return x.denominator == 1 and x > 0


def _is_negative_integer(x):
    return x.denominator == 1 and x < 0


def classify_weight(lw, ball_radius=10):
    """Antidominance and dominance on the simple affine pairings;
    regularity through the per-coroot closed form (complete: each finite
    coroot vanishes for at most one central multiplicity)."""
    rs = lw.rs
    lw.level.require_noncritical(rs)
    pairings = {}
    for i, cr in simple_affine_coroots(rs).items():
        pairings[i] = dot_pair(lw, cr)
    anti = not any(_is_positive_integer(v) for v in pairings.values())
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
        ball_radius=ball_radius,
    )


# ---------------------------------------------------------------------------
# integral Weyl group data
# ---------------------------------------------------------------------------

def integrality_progression(pair_value, k):
    """{m in Z : pair_value + m k in Z} as (residue, step), or None.

    Closed form used to cross-check the ball enumeration.
    """
    pv = F(pair_value)
    k = F(k)
    if k == 0:
        return (0, 1) if pv.denominator == 1 else None
    p, q = k.numerator, k.denominator
    b = pv.denominator
    if q % b != 0:
        return None
    a_mod = (-pv.numerator * (q // b)) % q
    g = gcd(p, q)
    if a_mod % g != 0:
        return None
    pp, qq, aa = p // g, q // g, a_mod // g
    m0 = (aa * pow(pp, -1, qq)) % qq if qq > 1 else 0
    return (m0, qq)


@dataclass
class IntegralSystem:
    positive_coroots: list
    simples: list
    coxeter_matrix: list
    height_bound: int

    def to_json_dict(self):
        enc = lambda cr: {"gamma": [str(g) for g in cr.gamma], "m": cr.m}
        return {
            "positive_integral_coroots": [enc(c) for c in self.positive_coroots],
            "simples": [enc(c) for c in self.simples],
            "coxeter_matrix": self.coxeter_matrix,
            "height_bound": self.height_bound,
        }


def integral_system(lw, height_bound):
    """Integral positive real coroots within |m| <= height_bound and the
    subset acting as simple reflections of W_lambda in the ball."""
    rs = lw.rs
    positives = []
    for gamma in rs.positive_coroots:
        for sign in (1, -1):
            g = tuple(sign * x for x in gamma)
            pv = rs.pair_weight_coroot(lw.lam, g)
            prog = integrality_progression(pv, lw.k)
            if prog is None:
                continue
            m0, step = prog
            lo = 1 if sign == -1 else 0
            first = m0 + step * ((lo - m0 + step - 1) // step)
            positives += [AffineCoroot(g, m)
                          for m in range(first, height_bound + 1, step)
                          if m % rs.coroot_lacing[g] == 0]
    positives.sort(key=lambda cr: (cr.m, cr.gamma))

    simples = [cand for cand in positives
               if all(reflect_coroot(rs, cand, other).is_positive()
                      for other in positives if other != cand)]

    cox = _coxeter_matrix_of(rs, simples)
    return IntegralSystem(positives, simples, cox, height_bound)


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

@dataclass
class OrbitResult:
    points: list
    representative: object
    representative_kind: str
    distance: object
    truncated: bool
    unique_in_ball: bool
    walls: list

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
    seen = {lw.lam: 0}
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
                    seen[img.lam] = dist
                    order.append(img)
                    nxt.append(img)
                    c = classify_weight(img)
                    if getattr(c, kind):
                        found.append((img, dist))
        frontier = nxt
    rep, d = (found[0][0], found[0][1]) if found else (None, None)
    distinct = {w.lam for w, _ in found}
    return OrbitResult(
        points=order,
        representative=rep,
        representative_kind=kind,
        distance=d,
        truncated=rep is None,
        unique_in_ball=len(distinct) == 1 if found else False,
        walls=cls0.walls,
    )


@dataclass
class Block:
    representative_word: tuple
    representative_weight: tuple
    simple_labels: list
    truncated: bool

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


def finite_dot_orbit(rs, lam):
    """The W_f dot orbit of a finite weight (omega-coordinates)."""
    lam = tuple(F(a) for a in lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                p = w[i] + 1
                ai = rs.simple_roots[i]
                img = tuple(a - p * b for a, b in zip(w, ai))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


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


def block_decomposition(lw, length_bound, height_bound=None):
    """Double cosets W_f \\ W / W_lambda among ball elements, each with
    its minimal-length representative and simple-label coset list."""
    rs = lw.rs
    cls = classify_weight(lw)
    if not (cls.antidominant and cls.regular and lw.level.is_negative(rs)):
        raise DomainError(
            "block decomposition requires a regular antidominant weight at "
            "negative level; classification: %s" % (cls.to_json_dict(),))
    if height_bound is None:
        height_bound = length_bound
    isys = integral_system(lw, height_bound)
    group = AffineWeylGroup(rs, lw.level)
    ball = group.ball(length_bound)
    elements = ball.elements
    refl_words = [group.reflection_word(cr) for cr in isys.simples]

    uf = _UnionFind()
    truncated_roots = set()
    weight = {}
    finite_idx = range(1, rs.rank + 1)
    for key, el in elements.items():
        uf.find(key)
        # ShortLex: el = s_i v with v = s_i el shorter, so already weighed
        if el.word:
            v = ball.key_of(el.word[1:])
            weight[key] = dot_reflect(weight[v],
                                      group.simple_coroots[el.word[0]])
        else:
            weight[key] = lw
        for i in finite_idx:
            left = ball.key_of((i,) + el.word)
            if left in elements:
                uf.union(key, left)
            else:
                truncated_roots.add(key)
        for word in refl_words:
            right = ball.key_of(word, key)
            if right in elements:
                uf.union(key, right)
            else:
                truncated_roots.add(key)

    comps = {}
    for key, el in elements.items():
        comps.setdefault(uf.find(key), []).append(el)

    blocks = []
    for members in comps.values():
        members.sort(key=lambda e: (e.length, e.word))
        rep = members[0]
        truncated = any(m.key in truncated_roots for m in members)
        by_coset = {}
        for m in members:
            ckey = finite_dominant_representative(rs, weight[m.key].lam)
            cur = by_coset.get(ckey)
            if cur is None or (m.length, m.word) < (cur.length, cur.word):
                by_coset[ckey] = m
        labels = [(by_coset[ck].word, ck) for ck in sorted(by_coset)]
        labels.sort(key=lambda t: (len(t[0]), t[0]))
        blocks.append(Block(rep.word, weight[rep.key].lam, labels, truncated))
    blocks.sort(key=lambda b: (len(b.representative_word), b.representative_word))
    return blocks
