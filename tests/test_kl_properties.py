"""Kazhdan-Lusztig inversion in finite Coxeter groups, as a property.

Kazhdan-Lusztig, Invent. Math. 53 (1979), (3.1), with Q_{z,w} =
P_{w0 w, w0 z} in a finite group W with longest element w0:

    sum_{x <= z <= w} (-1)^{l(z) - l(x)} P_{x,z} P_{w0 w, w0 z} = delta_{x,w}.

The identity involves neither the mu-correction recursion's order nor the
bar-invariance solve, so it checks the production KL polynomials from
outside both routes.  Pairs x <= w are sampled: checking all 9,817 pairs
of D4 takes about 12 s, and B4 is left out for the same reason.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from affchar.hecke import LaurentPoly, build_ball, kl_polynomial

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
    assert len(longest) == 1 and ball.counts_by_length()[-1] == 1
    return ball, longest[0]


@settings(max_examples=200)
@given(st.data())
def test_kl_inversion_formula(data):
    name = data.draw(st.sampled_from(sorted(FINITE)), label="group")
    ball, w0 = whole_group(name)
    w = data.draw(st.sampled_from(ball.all_elements()), label="w")
    x = data.draw(st.sampled_from(ball.interval_below(w)), label="x")

    def times_w0(el):
        return ball.elements[ball.key_of(w0.word + el.word)]

    w0w = times_w0(w)
    total = LaurentPoly()
    for z in ball.interval_below(w):
        if ball.leq(x, z):
            term = kl_polynomial(ball, x, z) * kl_polynomial(
                ball, w0w, times_w0(z))
            total += term if (z.length - x.length) % 2 == 0 else -term
    assert total == (1 if x.key == w.key else 0)
