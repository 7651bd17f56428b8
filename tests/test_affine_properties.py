"""Property tests of AffineWeylGroup against exact affine maps, and of
the antidominance verdict and the integral Weyl group against brute-force
enumeration.

The reference is the representation the affine Weyl group had before its
balls became BruhatBalls: each element is the exact affine map
lam -> M lam + t of its dot action on omega-coordinates, and a
breadth-first search by right multiplication with the simple reflections,
keyed by the whole map, finds every element first by its ShortLex word.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from affchar.affine import (AffineCoroot, AffineWeylGroup, LevelWeight,
                            classify_weight, dot_act_word, dot_pair,
                            integral_system,
                            is_real_coroot, simple_affine_coroots)
from affchar.rootdata import Level, build_root_system
from conftest import (counts_by_length, integral_coroots, reflection_simples,
                      root_of_coroot)

SETTINGS = settings(max_examples=40)

ROOT_SYSTEMS = [build_root_system(letter, rank) for letter, rank in
                [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]]

fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def level_weights(draw):
    rs = draw(st.sampled_from(ROOT_SYSTEMS))
    k = draw(fractions.filter(lambda k: k != -rs.h_dual))
    lam = tuple(draw(fractions) for _ in range(rs.rank))
    return LevelWeight(rs, lam, Level(k))


def reflection_map(rs, k, cr):
    """(M, t) of the dot reflection in the real affine coroot cr."""
    n = rs.rank
    gw = rs.root_to_weight_coords(root_of_coroot(rs, cr.gamma))
    mat = tuple(tuple(F(int(r == c)) - gw[r] * cr.gamma[c] for c in range(n))
                for r in range(n))
    const = (rs.pair_weight_coroot(rs.rho, cr.gamma)
             + cr.m * (k + rs.h_dual))
    return mat, tuple(-const * g for g in gw)


def compose(a, b):
    """a o b: apply b first."""
    (ma, ta), (mb, tb) = a, b
    n = len(ta)
    mat = tuple(tuple(sum(ma[r][j] * mb[j][c] for j in range(n))
                      for c in range(n)) for r in range(n))
    trans = tuple(sum(ma[r][j] * tb[j] for j in range(n)) + ta[r]
                  for r in range(n))
    return mat, trans


def apply(a, lam):
    mat, trans = a
    return tuple(sum(m * x for m, x in zip(row, lam)) + t
                 for row, t in zip(mat, trans))


def identity(n):
    return (tuple(tuple(F(int(r == c)) for c in range(n)) for r in range(n)),
            (F(0),) * n)


def map_ball(rs, k, bound):
    """({affine map: ShortLex word}, layer counts) up to length bound."""
    simples = simple_affine_coroots(rs)
    gens = [reflection_map(rs, k, simples[i]) for i in sorted(simples)]
    e = identity(rs.rank)
    words, layer, counts = {e: ()}, [e], [1]
    for _ in range(bound):
        nxt = []
        for el in layer:
            for i, g in enumerate(gens):
                new = compose(el, g)
                if new not in words:
                    words[new] = words[el] + (i,)
                    nxt.append(new)
        layer = nxt
        counts.append(len(nxt))
    return words, counts


@SETTINGS
@given(level_weights(), st.integers(0, 5))
def test_ball_and_dot_action_match_affine_maps(lw, bound):
    rs, k = lw.rs, lw.k
    group = AffineWeylGroup(rs, lw.level)
    ball = group.ball(bound)
    words, counts = map_ball(rs, k, bound)
    assert [el.word for el in ball.all_elements()] == list(words.values())
    got = counts_by_length(ball)
    assert got + [0] * (bound + 1 - len(got)) == counts
    assert len(ball) == len(words)
    for a, word in words.items():
        assert (dot_act_word(lw, group.simple_coroots, word).lam
                == apply(a, lw.lam))


@SETTINGS
@given(level_weights(), st.integers(0, 4))
def test_reflection_word_is_the_reflection(lw, m):
    # every real positive coroot (gamma, m) and (-gamma, m + 1) up to the
    # lacing filter: its word multiplies out to its reflection map
    rs, k = lw.rs, lw.k
    group = AffineWeylGroup(rs, lw.level)
    gens = [reflection_map(rs, k, group.simple_coroots[i])
            for i in sorted(group.simple_coroots)]
    for g in rs.positive_coroots:
        neg = tuple(-x for x in g)
        for cr in (AffineCoroot(g, m), AffineCoroot(neg, m + 1)):
            if not is_real_coroot(rs, cr):
                continue
            word = group.reflection_word(cr)
            assert word == word[::-1] and len(word) % 2 == 1
            a = identity(rs.rank)
            for i in word:
                a = compose(a, gens[i])
            assert a == reflection_map(rs, k, cr)


@settings(max_examples=150)
@given(st.data())
def test_antidominance_is_checked_on_every_integral_coroot(data):
    # lam is antidominant iff no integral positive real coroot (g, m)
    # pairs with lam + rho_hat to a positive integer.  Below -h_dual the
    # pairing falls as m grows, and the first integral m along each
    # finite coroot is at most 1 + 3 * 2 here, so m <= 12 decides
    rs = data.draw(st.sampled_from([ROOT_SYSTEMS[0], ROOT_SYSTEMS[3]]),
                   label="A1 or B2")
    k = -rs.h_dual - F(data.draw(st.integers(1, 12), label="k numerator"),
                       data.draw(st.sampled_from([2, 3]), label="k denominator"))
    den = data.draw(st.sampled_from([2, 3]), label="weight denominator")
    lam = tuple(F(data.draw(st.integers(-24, 24)), den)
                for _ in range(rs.rank))
    lw = LevelWeight(rs, lam, Level(k))
    positive_integral = []
    for gamma in rs.positive_coroots:
        for g in (gamma, tuple(-x for x in gamma)):
            for m in range(0 if g == gamma else 1, 13):
                cr = AffineCoroot(g, m)
                if is_real_coroot(rs, cr):
                    p = dot_pair(lw, cr)
                    if p.denominator == 1 and p > 0:
                        positive_integral.append(cr)
    assert classify_weight(lw).antidominant == (not positive_integral)


@settings(max_examples=60)
@given(st.data())
def test_integral_system_matches_brute_force(data):
    # the closed-form simples of W_lambda are the coroots whose reflection
    # keeps every other positive integral coroot positive, found among all
    # of them up to twice the largest first m along a finite coroot plus
    # 3 d.  Integral m repeat with period dividing r d (r <= 3 the lacing
    # number, d the denominator of k), so every first m is at most 3 d,
    # and the window holds the first two along every direction
    rs = data.draw(st.sampled_from([ROOT_SYSTEMS[i] for i in (0, 1, 3, 5)]),
                   label="A1, A2, B2 or G2")
    # k has denominator exactly d, so the first m can reach r d
    d = data.draw(st.integers(1, 12), label="denominator")
    k = F(data.draw(st.integers(-12 * d, 12 * d).filter(
        lambda n: gcd(n, d) == 1 and n != -rs.h_dual * d), label="k * d"), d)
    lam = tuple(F(data.draw(st.integers(-6 * d, 6 * d)), d)
                for _ in range(rs.rank))
    lw = LevelWeight(rs, lam, Level(k))
    firsts = {}
    for cr in integral_coroots(lw, 3 * d):
        firsts.setdefault(cr.gamma, cr.m)
    window = integral_coroots(lw, 2 * max(firsts.values(), default=0) + 3 * d)
    assert integral_system(lw).simples == reflection_simples(rs, window)
