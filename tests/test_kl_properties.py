"""Kazhdan-Lusztig polynomials and parabolic canonical bases, as properties.

Kazhdan-Lusztig, Invent. Math. 53 (1979), (3.1), with Q_{z,w} =
P_{w0 w, w0 z} in a finite group W with longest element w0:

    sum_{x <= z <= w} (-1)^{l(z) - l(x)} P_{x,z} P_{w0 w, w0 z} = delta_{x,w}.

The identity involves neither the mu-correction recursion's order nor the
bar-invariance solve, so it checks the production KL polynomials from
outside both routes.  Pairs x <= w are sampled: checking all 9,817 pairs
of D4 takes about 12 s, and B4 is left out for the same reason.

Over random Coxeter matrices (rank 2-4, bonds 2, 3, 4, 6 and infinity,
length bound at most 5, lowered until the ball has at most 60 or 80
elements) the mu-correction recursion must agree with the
bar-invariance solve on every minimal coset representative, for J empty
or one or two generators and both parabolic parameters, and every row of
the KL table must satisfy P_{x,y}(0) = 1 and the degree bound
deg P_{x,y} <= (l(y) - l(x) - 1) / 2 for x < y.  On the same matrices,
the ball of radius l(z) that a point query about z builds must give z the
KL polynomials and parabolic canonical bases of the whole ball.  Three
theorems close the file: positivity, monotonicity and Carrell-Peterson.
"""

from functools import lru_cache
from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from affchar.errors import DomainError
from affchar.hecke import (INFINITE_BOND, PARABOLIC_PARAMS, ParabolicModule,
                           build_ball, kl_polynomial, kl_table_tsv,
                           query_ball)

from conftest import counts_by_length, parse_tsv, zv_combine

# (Coxeter matrix, l(w0)): the ball of radius l(w0) is the whole group
FINITE = {
    "A3": ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 6),
    "B3": ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], 9),
    "A4": ([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], 10),
    "D4": ([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]], 12),
    "A1xB2": ([[1, 2, 2], [2, 1, 4], [2, 4, 1]], 5),
}


@lru_cache(maxsize=None)
def whole_group(name):
    matrix, top = FINITE[name]
    ball = build_ball(matrix, top)
    longest = [el for el in ball.all_elements() if el.length == top]
    assert len(longest) == 1 and counts_by_length(ball)[-1] == 1
    return ball, longest[0]


@settings(max_examples=200)
@given(st.data())
def test_kl_inversion_formula(data):
    name = data.draw(st.sampled_from(sorted(FINITE)), label="group")
    ball, w0 = whole_group(name)
    w = data.draw(st.sampled_from(ball.all_elements()), label="w")
    x = data.draw(st.sampled_from(ball.interval_below(w)), label="x")

    def times_w0(el):
        return ball.element_by_word(w0.word + el.word)

    # the products P_{x,z} P_{w0 w, w0 z}, summed by the parity of
    # l(z) - l(x); their difference is the sum of the formula
    w0w = times_w0(w)
    by_parity = zv_combine(*(
        (kl_polynomial(ball, x, z),
         {(z.length - x.length) % 2: kl_polynomial(ball, w0w, times_w0(z))})
        for z in ball.interval_below(w) if ball.leq(x, z)))
    total = zv_combine(((1,), {0: by_parity.get(0, ())}),
                       ((-1,), {0: by_parity.get(1, ())}))
    assert total == ({0: (1,)} if x is w else {})


@st.composite
def coxeter_matrices(draw):
    n = draw(st.integers(2, 4), label="rank")
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(
                st.sampled_from([2, 3, 4, 6, INFINITE_BOND]))
    return m


@st.composite
def coxeter_balls(draw, max_elements):
    """The ball of a drawn Coxeter matrix and length bound at most 5, the
    bound lowered until the ball has at most max_elements elements: the
    largest ball the strategy may draw.  The oracle's cost grows fast
    with the ball (4 s for the 485 elements of the universal rank-4 ball
    of radius 5), so the cap keeps these tests within a few seconds."""
    matrix = draw(coxeter_matrices())
    bound = draw(st.integers(1, 5), label="bound")
    ball = build_ball(matrix, bound)
    while len(ball) > max_elements:
        bound -= 1
        ball = build_ball(matrix, bound)
    return ball


@settings(max_examples=50)
@given(coxeter_balls(max_elements=60), st.data())
def test_recursion_equals_oracle_and_kl_table_bounds(ball, data):
    a, b = data.draw(st.lists(st.integers(0, ball.n_gens - 1), min_size=2,
                              max_size=2, unique=True), label="J generators")
    # with J empty the parameter plays no role: one module covers it
    cases = [((), "q")] + [(j, param) for j in ((a,), (a, b))
                           for param in PARABOLIC_PARAMS]
    for parabolic, param in cases:
        mod = ParabolicModule(ball, parabolic, param)
        for w in mod.minimal_elements():
            assert (mod.canonical_basis(w)
                    == mod.canonical_basis_via_solve(w))
    for y in ball.all_elements():
        below = ball.interval_below(y)
        rows = parse_tsv(kl_table_tsv(ball, [(x, y) for x in below]))
        del rows["y"]
        assert len(rows) == len(below)
        for xword, value in rows.items():
            yword, coeffs, _ = value.split("\t")
            assert yword == ("".join(str(i) for i in y.word) or "e")
            lo, *p = (int(c) for c in coeffs.split(","))
            assert lo == 0 and p[0] == 1
            gap = y.length - (0 if xword == "e" else len(xword))
            assert len(p) - 1 <= max((gap - 1) // 2, 0)


@settings(max_examples=30)
@given(coxeter_balls(max_elements=80), st.data())
def test_parabolic_bases_from_kl_polynomials(ball, data):
    # Soergel, Represent. Theory 1 (1997), section 3: with h_{x,w} the
    # coefficients of the KL basis b_w, the "-1" module has
    # n_{y,w} = sum_{z in W_J} (-v)^{l(z)} h_{zy,w}, and for J = {s} the
    # "q" module has m_{y,w} = h_{sy,sw}.  Neither route runs the
    # parabolic branch of act_gen.
    matrix, bound = ball.coxeter_matrix, ball.length_bound
    big = build_ball(matrix, bound + 1)
    a, b = data.draw(st.lists(st.integers(0, ball.n_gens - 1), min_size=2,
                              max_size=2, unique=True), label="J generators")
    kl, kl_big = ParabolicModule(ball, ()), ParabolicModule(big, ())

    for parabolic in ((a,), (a, b)):
        anti = ParabolicModule(ball, parabolic, "-1")
        # x = z y with z in W_J and y minimal: strip left descents in J
        split = {}
        for x in ball.all_elements():
            y, lz = x, 0
            while not anti.is_minimal(y):
                j = next(j for j in parabolic
                         if ball.left_descents(y.id) >> j & 1)
                y, lz = ball.element_by_word((j,) + y.word), lz + 1
            split[x.id] = (y.id, (0,) * lz + ((-1) ** lz,))
        for w in anti.minimal_elements():
            want = zv_combine(*((split[x][1], {split[x][0]: hx})
                                for x, hx in kl.canonical_basis(w).items()))
            assert anti.canonical_basis(w) == want
    # ball is the first layers of big, with the same ids
    sph = ParabolicModule(ball, (a,), "q")
    for w in sph.minimal_elements():
        sw = big.element_by_word((a,) + w.word)
        assert sph.canonical_basis(w) == {
            big.id_of((a,) + big.elements[x].word): hx
            for x, hx in kl_big.canonical_basis(sw).items()
            if big.left_descents(x) >> a & 1}
    # a point query about z builds the ball of radius l(z) only, and must
    # read the same polynomials off it as off the whole ball
    z = data.draw(st.sampled_from(ball.all_elements()), label="z")
    small = query_ball(matrix, bound, (z.word,))
    assert small.length_bound == z.length
    for x in ball.interval_below(z):
        assert kl_polynomial(small, x.word, z.word) == kl_polynomial(
            ball, x, z)
    for parabolic in ((), (a,), (a, b)):
        for param in PARABOLIC_PARAMS:
            mod = ParabolicModule(ball, parabolic, param)
            if mod.is_minimal(z):
                small_mod = ParabolicModule(small, parabolic, param)
                assert small_mod.canonical_basis(
                    small.element_by_word(z.word)) == mod.canonical_basis(z)


def test_kl_polynomial_is_defined_exactly_on_the_interval():
    # kl_polynomial reads x <= y off the keys of b_y (P_{x,y}(0) = 1), so
    # it must succeed exactly on the pairs the Bruhat order relates
    balls = [whole_group(name)[0] for name in sorted(FINITE)]
    balls.append(build_ball([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 6))
    for ball in balls:
        els = ball.all_elements()
        for y in els:
            for x in els:
                try:
                    poly = kl_polynomial(ball, x, y)
                except DomainError:
                    assert not ball.leq(x, y)
                else:
                    assert ball.leq(x, y) and poly[0] == 1


# Three theorems of Kazhdan-Lusztig theory, on every group that hecke
# accepts: its bonds 2, 3, 4, 6 and infinity each come from a generalized
# Cartan matrix, so every such group is a Kac-Moody Weyl group.  None of
# the three runs a second Hecke computation.  They are also the proof
# obligation behind the packing width of the recursion (see hecke): the
# width argument rests on positivity.

@settings(max_examples=60)
@given(coxeter_balls(max_elements=120), st.data())
def test_canonical_bases_are_positive(ball, data):
    # every h_{x,y} lies in N[v] (Elias-Williamson, Ann. of Math. 180
    # (2014)), and so does every antispherical n_{x,w} for any J
    # (Libedinsky-Williamson, The anti-spherical category); read through
    # canonical_basis, which unpacks the recursion's coefficients
    parabolic = data.draw(st.sets(st.integers(0, ball.n_gens - 1),
                                  min_size=1), label="J")
    for mod in (ParabolicModule(ball, ()),
                ParabolicModule(ball, parabolic, "-1")):
        for w in mod.minimal_elements():
            for poly in mod.canonical_basis(w).values():
                assert poly and min(poly) >= 0


@settings(max_examples=50)
@given(coxeter_balls(max_elements=100))
def test_kl_polynomials_are_monotone(ball):
    # x <= y <= w implies P_{x,w} - P_{y,w} in N[q] (Irving, Ann. Sci.
    # ENS 21 (1988), finite type; Braden-MacPherson, Math. Ann. 321
    # (2001)), with x <= y read off the lifting-property intervals
    els = ball.elements
    for w in els:
        p = {x: kl_polynomial(ball, els[x], w) for x in ball._lower(w.id)}
        for y, py in p.items():
            for x in ball._lower(y):
                assert all(a >= b for a, b in zip_longest(p[x], py,
                                                          fillvalue=0))


@settings(max_examples=60)
@given(coxeter_balls(max_elements=120))
def test_carrell_peterson(ball):
    # P_{x,w} = 1 for every x <= w iff the rank-generating function of
    # [e, w] is palindromic (Carrell, Proc. Symp. Pure Math. 56 (1994)).
    # [e, w] comes from BruhatBall._lower, which shares no code with the
    # mu-recursion
    els = ball.elements
    for w in els:
        below = ball._lower(w.id)
        ranks = [0] * (w.length + 1)
        for x in below:
            ranks[els[x].length] += 1
        smooth = all(kl_polynomial(ball, els[x], w) == (1,) for x in below)
        assert smooth == (ranks == ranks[::-1])
