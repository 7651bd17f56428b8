from fractions import Fraction as F

import pytest

from affchar.errors import DomainError
from affchar.rootdata import Level, build_root_system
from affchar.affine import (AffineCoroot, AffineWeylGroup, LevelWeight,
                            block_decomposition, classify_weight, dot_pair,
                            dot_act_word, dot_reflect,
                            finite_dominant_representative, integral_system,
                            integrality_progression,
                            is_real_coroot, orbit_and_representative,
                            reflect_coroot, simple_affine_coroots)
from conftest import integral_coroots, negate, rand_fraction, rand_weight


def lw2(sl2, a, k):
    return LevelWeight(sl2, (F(a),), Level(F(k)))


def test_dot_pair_examples(sl2):
    a0 = simple_affine_coroots(sl2)[0]
    a1 = simple_affine_coroots(sl2)[1]
    assert dot_pair(lw2(sl2, 0, -3), a1) == 1
    assert dot_pair(lw2(sl2, 0, F(-1, 2)), a0) == F(1, 2)
    assert dot_pair(lw2(sl2, 0, -3), a0) == -2


def test_dot_reflect_examples(sl2):
    a0 = simple_affine_coroots(sl2)[0]
    a1 = simple_affine_coroots(sl2)[1]
    assert dot_reflect(lw2(sl2, 0, -3), a1).lam == (F(-2),)
    assert dot_reflect(lw2(sl2, 0, F(-1, 2)), a0).lam == (F(1),)
    # a wall weight is fixed
    wall = lw2(sl2, -1, -3)
    assert dot_pair(wall, a1) == 0
    assert dot_reflect(wall, a1).lam == wall.lam


def test_dot_reflect_rejects_non_coroot(sl2):
    with pytest.raises(DomainError):
        dot_reflect(lw2(sl2, 0, 1), AffineCoroot((F(2),), 0))


def test_involution_and_sign_flip(sl2, sl3, rng):
    for rs in (sl2, sl3):
        coroots = [AffineCoroot(g, m)
                   for g in list(rs.positive_coroots)
                   for m in (-2, -1, 0, 1, 3)]
        coroots += [negate(c) for c in coroots if c.m != 0]
        for _ in range(100):
            k = rand_fraction(rng)
            if k == -rs.h_dual:
                continue
            w = LevelWeight(rs, rand_weight(rng, rs.rank), Level(k))
            for cr in coroots[:6]:
                img = dot_reflect(w, cr)
                assert dot_reflect(img, cr).lam == w.lam
                assert dot_pair(img, cr) == -dot_pair(w, cr)


def test_dot_act_examples(sl2):
    g = AffineWeylGroup(sl2, Level(F(-3)))
    lw = lw2(sl2, 0, -3)
    assert dot_act_word(lw, g.simple_coroots, ()).lam == lw.lam
    assert dot_act_word(lw, g.simple_coroots, (1, 1)).lam == lw.lam
    assert dot_act_word(lw, g.simple_coroots, (0, 0)).lam == lw.lam
    assert dot_act_word(lw, g.simple_coroots, (0,)).lam == (F(-4),)
    with pytest.raises(DomainError):
        dot_act_word(lw, g.simple_coroots, (2,))


def test_dot_act_is_group_action(sl3, rng):
    g = AffineWeylGroup(sl3, Level(F(-7, 2)))
    words = [tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 6)))
             for _ in range(20)]
    for i in range(0, 20, 2):
        u, v = words[i], words[i + 1]
        lw = LevelWeight(sl3, rand_weight(rng, 2), Level(F(-7, 2)))
        cr = g.simple_coroots
        assert (dot_act_word(lw, cr, u + v).lam
                == dot_act_word(dot_act_word(lw, cr, v), cr, u).lam)


def test_braid_relations_affine_a2(sl3, rng):
    g = AffineWeylGroup(sl3, Level(F(-7, 2)))
    ball = g.ball(6)
    lw = LevelWeight(sl3, rand_weight(rng, 2), Level(F(-7, 2)))
    # all bonds of the affine A2 diagram have order 3, in the group and
    # in its dot action
    assert g.coxeter_matrix == [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert ball.key_of((i, j) * 3) == ball.key_of(())
        assert ball.key_of((i, j, i)) == ball.key_of((j, i, j))
        cr = g.simple_coroots
        assert dot_act_word(lw, cr, (i, j) * 3).lam == lw.lam
        assert (dot_act_word(lw, cr, (i, j, i)).lam
                == dot_act_word(lw, cr, (j, i, j)).lam)


def test_critical_level_rejected(sl2):
    with pytest.raises(DomainError):
        AffineWeylGroup(sl2, Level(F(-2)))


def test_classify_examples(sl2):
    c = classify_weight(lw2(sl2, 0, -3))
    assert not c.antidominant and not c.dominant and not c.regular
    c = classify_weight(lw2(sl2, -2, -3))
    assert c.antidominant and not c.regular
    c = classify_weight(lw2(sl2, 0, F(1, 3)))
    assert c.dominant and not c.antidominant and c.regular
    # regular antidominant integral weight at integral level
    c = classify_weight(lw2(sl2, -2, -4))
    assert c.antidominant and c.regular and not c.dominant


def test_classify_wall_is_automatic_integral(sl2, rng):
    # a vanishing shifted pairing forces an integral unshifted pairing
    for _ in range(40):
        k = rand_fraction(rng)
        if k == -2:
            continue
        w = LevelWeight(sl2, rand_weight(rng, 1), Level(k))
        for wall in classify_weight(w).walls:
            assert dot_pair(w, wall) == 0
            unshift = (sl2.pair_weight_coroot(w.lam, wall.gamma)
                       + wall.m * w.k)
            assert unshift.denominator == 1


def test_integral_system_examples(sl2):
    # integral level: everything integral, simples are the affine simples
    lw = lw2(sl2, 0, -3)
    isys = integral_system(lw)
    assert len(integral_coroots(lw, 4)) == 2 * 4 + 1
    simple_set = {(cr.gamma, cr.m) for cr in isys.simples}
    assert simple_set == {((F(1),), 0), ((F(-1),), 1)}
    assert isys.coxeter_matrix == [[1, 0], [0, 1]]

    # k = 1/2: integral coroots need even m
    lw = lw2(sl2, 0, F(1, 2))
    isys = integral_system(lw)
    assert all(cr.m % 2 == 0 for cr in integral_coroots(lw, 6))
    simple_set = {(cr.gamma, cr.m) for cr in isys.simples}
    assert simple_set == {((F(1),), 0), ((F(-1),), 2)}

    # non-integral weight at integral level: no m = 0 coroots survive
    lw = lw2(sl2, F(1, 2), -3)
    isys = integral_system(lw)
    assert all(cr.m != 0 for cr in integral_coroots(lw, 6))
    assert all(cr.m != 0 for cr in isys.simples)


def test_integrality_progression_at_level_zero():
    # pv + m 0 is pv for every m: all of Z or nothing
    assert integrality_progression(F(3), 0) == (0, 1)
    assert integrality_progression(F(-2), F(0)) == (0, 1)
    assert integrality_progression(F(1, 2), 0) is None
    assert integrality_progression(F(-5, 3), F(0)) is None


def test_integrality_progression_against_ball(sl2, sl3, rng):
    for rs in (sl2, sl3):
        for _ in range(20):
            k = rand_fraction(rng)
            lam = rand_weight(rng, rs.rank)
            w = LevelWeight(rs, lam, Level(k))
            bound = 8
            for gamma in rs.positive_coroots:
                pv = rs.pair_weight_coroot(lam, gamma)
                prog = integrality_progression(pv, k)
                brute = [m for m in range(-bound, bound + 1)
                         if (pv + m * k).denominator == 1]
                if prog is None:
                    assert brute == []
                else:
                    m0, step = prog
                    assert brute == [m for m in range(-bound, bound + 1)
                                     if (m - m0) % step == 0]


def test_integral_weyl_group_presentation_faithful(sl2, sl3):
    # the abstract Coxeter system on the detected simples must inject
    # into the affine group through its reflection assignment, and the
    # simple reflections must regenerate the ball's integral coroots
    from affchar.hecke import build_ball
    from affchar.affine import reflect_coroot
    cases = [
        (sl2, F(1, 2), (F(0),)),
        (sl2, F(-4), (F(-2),)),
        (sl3, F(-6), (F(-2), F(-2))),
    ]
    for rs, k, lam in cases:
        lw = LevelWeight(rs, lam, Level(k))
        isys = integral_system(lw)
        ball = build_ball(isys.coxeter_matrix, 4)
        group = AffineWeylGroup(rs, Level(k))
        # keys of W, faithful also outside the ball
        affine = group.ball(0)
        refl_words = [group.reflection_word(cr) for cr in isys.simples]
        seen = {}
        for el in ball.all_elements():
            img = affine.key_of(sum((refl_words[i] for i in el.word), ()))
            assert img not in seen, "presentation collapses two elements"
            seen[img] = el
        # orbit of the simples under simple reflections regenerates the
        # ball's positive integral coroots (up to sign)
        frontier = list(isys.simples)
        orbit = {(cr.gamma, cr.m) for cr in frontier}
        for _ in range(10):
            new = []
            for cr in frontier:
                for s in isys.simples:
                    img = reflect_coroot(rs, s, cr)
                    key = (img.gamma, img.m)
                    if key not in orbit:
                        orbit.add(key)
                        new.append(img)
            frontier = new
        for cr in integral_coroots(lw, 6):
            if cr.m <= 2:
                assert (cr.gamma, cr.m) in orbit


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
        neg = negate(cr)
        seen.add((neg.gamma, neg.m))
        frontier.append(cr)
        frontier.append(neg)
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


def test_real_coroot_orbit_matches_closed_form():
    # long coroots need m divisible by the lacing number (2 in B and C,
    # 3 in G), so B2 has 40 real coroots with |m| <= 3, not 56
    for letter, rank, size in [("A", 1, 14), ("A", 2, 42), ("B", 2, 40),
                               ("C", 2, 40), ("G", 2, 60), ("B", 3, 102)]:
        rs = build_root_system(letter, rank)
        orbit = real_coroot_orbit(rs, 3)
        closed = set()
        for g in rs.positive_coroots:
            for m in range(-3, 4):
                for gamma in (g, tuple(-x for x in g)):
                    if is_real_coroot(rs, AffineCoroot(gamma, m)):
                        closed.add((gamma, m))
        assert {(c.gamma, c.m) for c in orbit} == closed
        assert len(closed) == size


def test_orbit_representative_examples(sl2):
    r = orbit_and_representative(lw2(sl2, -2, -3), 4)
    assert r.representative.lam == (F(-2),) and r.distance == 0

    r = orbit_and_representative(lw2(sl2, 0, -3), 4)
    assert r.representative_kind == "antidominant"
    assert r.representative is not None and r.distance <= 2
    assert r.unique_in_ball

    r = orbit_and_representative(lw2(sl2, 0, 1), 6)
    assert r.representative_kind == "dominant"
    assert r.representative.lam == (F(0),) and r.distance == 0


def test_orbit_uniqueness_random_integral(sl2, rng):
    # at k = -3 the antidominant window is one alcove wide, so the walk
    # from a reaches it within length 8 exactly for -9 <= a <= 7
    for _ in range(20):
        a = rng.randint(-9, 7)
        r = orbit_and_representative(lw2(sl2, a, -3), 8)
        assert r.representative is not None
        assert r.unique_in_ball


def test_orbit_uniqueness_regular_integral(sl2, rng):
    # negative integral level with regular integral weights
    for _ in range(10):
        a = rng.randint(-6, 4)
        lw = lw2(sl2, a, -5)
        r = orbit_and_representative(lw, 8)
        assert r.representative is not None and r.unique_in_ball
        rep = r.representative
        c = classify_weight(rep)
        assert c.antidominant


def test_blocks_integral_level(sl2):
    blocks = block_decomposition(lw2(sl2, -2, -4), 6)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.representative_word == ()
    # one simple label per length class of minimal coset representatives
    lengths = sorted(len(w) for w, _ in b.simple_labels)
    assert lengths == list(range(len(lengths)))
    # labels carry distinct central characters
    weights = {lam for _, lam in b.simple_labels}
    assert len(weights) == len(b.simple_labels)


def test_blocks_partition_and_cover(sl2):
    lw = lw2(sl2, -2, -4)
    bound = 5
    blocks = block_decomposition(lw, bound)
    group = AffineWeylGroup(sl2, Level(F(-4)))
    ball = group.ball(bound)
    member_weights = set()
    total = 0
    for b in blocks:
        for _, lam in b.simple_labels:
            member_weights.add(lam)
    orbit_weights = {
        finite_dominant_representative(
            sl2, dot_act_word(lw, group.simple_coroots, el.word).lam)
        for el in ball.all_elements()}
    assert member_weights == orbit_weights


def test_blocks_proper_integral_weyl_group(sl2):
    # trivial integral Weyl group: every W_f coset is its own block
    lw = LevelWeight(sl2, (F(1, 3),), Level(F(-5, 2)))
    blocks = block_decomposition(lw, 4)
    assert len(blocks) >= 2
    sizes = [len(b.simple_labels) for b in blocks]
    assert all(s == 1 for s in sizes)


def test_blocks_reject_bad_weight(sl2):
    with pytest.raises(DomainError):
        block_decomposition(lw2(sl2, 0, -3), 4)   # irregular
    with pytest.raises(DomainError):
        block_decomposition(lw2(sl2, -2, 1), 4)   # positive level

