"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Every tolerance is exact (integer/rational equality); the stated
runtime budgets are asserted with time.monotonic.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction as F

import pytest

from affchar.rootdata import Level, build_root_system, casimir_eigenvalue
from affchar.affine import (AffineCoroot, AffineWeylGroup, LevelWeight,
                            block_decomposition, classify_weight,
                            dot_act_word, dot_pair, dot_reflect,
                            finite_dominant_representative,
                            orbit_and_representative)
from affchar.characters import (ch_simple_W, ch_verma_Oprime, ch_verma_W,
                                ds_transform, energy_offsets, hc_project,
                                psi_s)
from affchar.hecke import (ParabolicModule, build_ball,
                           inverse_multiplicity_matrix, kl_polynomial,
                           kl_polynomial_via_solve)
from affchar.qseries import equal_to_order, eta_factor
from affchar.sugawara import build_truncated_verma, check_dss, sugawara_mode
from affchar.wstruct import (generator_windows, ideal_jump,
                             vacuum_graded_character, vanishing_violations)

from conftest import is_bar_invariant

SL2 = build_root_system("A", 1)
SL3 = build_root_system("A", 2)


def _report(number, description, ok):
    print("criterion %02d: %s  [%s]" % (number, "PASS" if ok else "FAIL",
                                        description))
    assert ok, "criterion %02d failed: %s" % (number, description)


def _rand_fraction(rng, lo=-9, hi=9, max_den=6):
    return F(rng.randint(lo, hi), rng.randint(1, max_den))


def test_criterion_01_ds_character_identity():
    rng = random.Random(101)
    t0 = time.monotonic()
    ok = True
    for rs in (SL2, SL3):
        done = 0
        while done < 50:
            k = _rand_fraction(rng)
            if k == -rs.h_dual:
                continue
            lam = tuple(_rand_fraction(rng) for _ in range(rs.rank))
            chi = hc_project(rs, lam, Level(k))
            lhs = ds_transform(ch_verma_Oprime(chi, 30), rs)
            rhs = ch_verma_W(chi, 30)
            ok = ok and equal_to_order(lhs, rhs, 30)
            done += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(1, "DS transform of the O' Verma character equals the W Verma "
               "character exactly to order 30, 50 random (weight, level) per "
               "type, %.2fs < 5s" % elapsed, ok)


def test_criterion_02_spectral_flow():
    t0 = time.monotonic()
    ok = True
    for k in (F(1), F(-1, 2), F(-3)):
        module = build_truncated_verma(0, k, 5, 2)
        # rho^ = omega^, alpha^ = 2 omega^ and -rho^, by their x: three
        # distinct coweights (alpha^ = 2 rho^ for sl2)
        for lam in (1, 2, -1):
            for n in range(-2, 3):
                rep = check_dss(module, lam, n)
                ok = ok and rep.passed and rep.tested > 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(2, "spectral-flow identity for the Sugawara modes holds exactly "
               "on every untruncated depth-5 vector, lam in "
               "{rho^, alpha^, -rho^}, k in {1, -1/2, -3}, n in -2..2, "
               "%.1fs < 30s" % elapsed, ok)


def test_criterion_03_conformal_weight_anchor():
    rng = random.Random(103)
    ok = True
    done = 0
    while done < 10:
        a = _rand_fraction(rng)
        k = _rand_fraction(rng)
        if k == -2:
            continue
        module = build_truncated_verma(a, k, 0, 0)
        actual = sugawara_mode(module, 0)(()).get((), F(0))
        chi = hc_project(SL2, (a,), Level(k))
        ok = ok and actual == energy_offsets(chi).conformal_weight
        ok = ok and actual == casimir_eigenvalue(SL2, (a,)) / (2 * (k + 2))
        done += 1
    _report(3, "S_0 highest-weight eigenvalue equals c1/(2(k+h^)) exactly "
               "for 10 random (weight, level)", ok)


def test_criterion_04_kl_oracle_equivalence():
    t0 = time.monotonic()
    a1t = build_ball([[1, 0], [0, 1]], 8)
    s3 = build_ball([[1, 3], [3, 1]], 6)
    s4 = build_ball([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 8)
    b2 = build_ball([[1, 4], [4, 1]], 6)
    one = (1,)
    ok = True
    for ball, want_trivial in ((s3, True), (s4, False), (b2, False),
                               (a1t, True)):
        for y in ball.all_elements():
            for x in ball.all_elements():
                if not ball.leq(x, y):
                    continue
                rec = kl_polynomial(ball, x, y)
                ok = ok and rec == kl_polynomial_via_solve(ball, x, y)
                if want_trivial:
                    ok = ok and rec == one
    x = s4.element_by_word((1,))
    y = s4.element_by_word((1, 0, 2, 1))
    ok = ok and kl_polynomial(s4, x, y) == (1, 1)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(4, "mu-recursion equals the bar-involution linear solve on all "
               "of S3, S4, B2 and the length-8 affine A1 ball; S3 and "
               "affine A1 are trivial and P_{s2,s2s1s3s2} = 1+q, "
               "%.1fs < 60s" % elapsed, ok)


def test_criterion_05_antispherical_chain():
    ball = build_ball([[1, 0], [0, 1]], 9)
    mod = ParabolicModule(ball, [1], "q")
    chain = [(0, 1, 0, 1, 0, 1, 0)[:n] for n in range(8)]
    ok = True
    for word in chain:
        w = ball.element_by_word(word)
        basis = mod.canonical_basis(w)
        ok = ok and is_bar_invariant(mod, basis, w)
        for key, poly in basis.items():
            y = ball.elements[key]
            ok = ok and poly == (0,) * (w.length - y.length) + (1,)
    # consequent simple-character coefficients on the chain; the default
    # KL multiplicity rule and the parabolic route coincide there
    lw = LevelWeight(SL2, (F(-2),), Level(F(-4)))
    res = ch_simple_W(lw, (1, 0, 1, 0), 10, length_bound=7)
    res_par = ch_simple_W(lw, (1, 0, 1, 0), 10, length_bound=7,
                          multiplicities="parabolic:q")
    ok = ok and res.multiplicity_matrix == res_par.multiplicity_matrix
    ok = ok and equal_to_order(res.series, res_par.series, 10)
    n = len(res.minimal_words)
    inverse = inverse_multiplicity_matrix(res.multiplicity_matrix)
    for i in range(n):
        for j in range(n):
            mult = res.multiplicity_matrix[i][j]
            ok = ok and mult == (1 if i <= j else 0)
            inv = inverse[i][j]
            diff = j - i
            want = (-1) ** diff if 0 <= diff <= 1 else 0
            ok = ok and inv == want
    for word, coeff, _chi in res.contributions:
        ok = ok and coeff == (-1) ** (4 - len(word))
    _report(5, "affine A1 antispherical coefficients are bar-invariant and "
               "equal v^(l(w)-l(y)); the inverted chain multiplicities give "
               "simple-character coefficients (-1)^(l(w)-l(y)) on adjacent "
               "chain entries", ok)


def test_criterion_06_simple_character_positivity():
    ok = True
    for k, a in ((F(-4), F(-2)), (F(-6), F(-2)), (F(-6), F(-4))):
        lw = LevelWeight(SL2, (a,), Level(k))
        cls = classify_weight(lw)
        ok = ok and cls.antidominant and cls.regular
        for word in [(), (1,), (1, 0), (1, 0, 1)]:
            res = ch_simple_W(lw, word, 30, length_bound=7)
            ok = ok and all(c >= 0 for c in res.series.coeffs)
    _report(6, "every simple character computed in the regular antidominant "
               "regime has nonnegative coefficients to order 30", ok)


def test_criterion_07_weight_combinatorics():
    rng = random.Random(107)
    ok = True
    # dot reflection involution and sign flip on 200 random weights
    coroots = [AffineCoroot((F(1),), m) for m in range(-2, 3)]
    coroots += [AffineCoroot((F(-1),), m) for m in range(1, 3)]
    for _ in range(200):
        k = _rand_fraction(rng)
        if k == -2:
            continue
        w = LevelWeight(SL2, (_rand_fraction(rng),), Level(k))
        cr = rng.choice(coroots)
        img = dot_reflect(w, cr)
        ok = ok and dot_reflect(img, cr).lam == w.lam
        ok = ok and dot_pair(img, cr) == -dot_pair(w, cr)
    # antidominant representative in a length-8 ball at k = -3: exists and
    # is unique for 20 random integral weights within reach of the ball
    # (no integral weight is dot-regular at k = -3 since k + h^ = -1
    # divides every integer, so regularity is not imposed here)
    for _ in range(20):
        a = rng.randint(-9, 7)
        r = orbit_and_representative(LevelWeight(SL2, (F(a),), Level(F(-3))),
                                     8)
        ok = ok and r.representative is not None and r.unique_in_ball
    # block partition covers the enumerated orbit at a level admitting
    # regular integral antidominant weights (k = -3 admits none)
    for k, a in ((F(-4), F(-2)), (F(-5), F(-2)), (F(-5), F(-3)),
                 (F(-6), F(-4))):
        lw = LevelWeight(SL2, (a,), Level(k))
        cls = classify_weight(lw)
        ok = ok and cls.antidominant and cls.regular
        bound = 5
        blocks = block_decomposition(lw, bound)
        group = AffineWeylGroup(SL2, Level(k))
        ball = group.ball(bound)
        covered = set()
        label_count = 0
        for b in blocks:
            for _word, lam in b.simple_labels:
                covered.add(lam)
                label_count += 1
        orbit = {finite_dominant_representative(
                     SL2, dot_act_word(lw, group.simple_coroots, el.word).lam)
                 for el in ball.all_elements()}
        # disjoint (no label repeats across blocks) and covering
        ok = ok and label_count == len(covered) == len(orbit)
        ok = ok and covered == orbit
    _report(7, "dot-reflection involution and sign-flip laws on 200 random "
               "weights; unique antidominant representative in the length-8 "
               "ball for 20 random integral weights at k=-3; blocks cover "
               "the enumerated orbit (regular antidominant cases)", ok)


def test_criterion_08_psi_s_rules():
    rng = random.Random(108)
    ok = True
    lvl = Level(F(-3))
    for i in range(50):
        if i % 2 == 0:
            lam = (F(rng.randint(-8, 8)),)
        else:
            lam = (_rand_fraction(rng),)
        ok = ok and psi_s(SL2, "verma", lam, lvl) == hc_project(SL2, lam, lvl)
        simple = psi_s(SL2, "simple", lam, lvl)
        pairing = lam[0]
        dies = pairing.denominator == 1 and pairing >= 0
        ok = ok and (simple is None) == dies
        if simple is not None:
            ok = ok and simple == hc_project(SL2, lam, lvl)
    _report(8, "reduction label map sends Vermas to Vermas with matching "
               "projection and kills a simple exactly when some finite "
               "pairing is a nonnegative integer, 50 random weights", ok)


def test_criterion_09_jumps_and_windows():
    rng = random.Random(109)
    ok = True
    for _ in range(1000):
        h = rng.choice([2, 3, 6, 12, 30])
        n = abs(F(rng.randint(0, 400), rng.randint(1, 25)))
        j = ideal_jump(n, h)
        ok = ok and ideal_jump(j, h) == j
        ok = ok and (j * h).denominator == 1
        ok = ok and j >= n and (j == n or j - n < F(1, h))
        step_lo = (j * h - 1) / h
        if step_lo >= 0 and step_lo < n:
            probe = (step_lo + n) / 2
            if probe > step_lo:
                ok = ok and ideal_jump(probe, h) == j
    for rs in (SL2, SL3):
        h = rs.coxeter_number
        for n, m in ((0, 1), (1, 2), (2, 5)):
            w = generator_windows(n, m, rs)
            ok = ok and sorted(w) == list(range(1, h + 1))
            ok = ok and all(w[i] == (i * n, i * m) for i in w)
    _report(9, "ideal-jump idempotence, lattice membership and "
               "step-constancy on 1000 random rationals; generator windows "
               "are [i n, i m) for degrees up to the Coxeter number", ok)


def test_criterion_10_vacuum_character_vanishing():
    ok = True
    for rs in (SL2, SL3):
        for n in range(0, 4):
            ch = vacuum_graded_character(rs, n, max_u=6, max_q=20,
                                         convention="kernel")
            ok = ok and vanishing_violations(ch, n) == []
    anchor = vacuum_graded_character(SL2, 0, max_u=40, max_q=20)
    ok = ok and equal_to_order(anchor.u_one_series(20),
                               eta_factor(2, -1, 20), 20)
    _report(10, "bigraded vacuum character satisfies the kernel-orientation "
                "vanishing (u^j q^m zero for m > n j) for sl2 and sl3 up to "
                "n=3, j<=6, m<=20, and reproduces the Virasoro vacuum "
                "product at n=0", ok)
