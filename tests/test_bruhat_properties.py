"""Property tests of BruhatBall over random Coxeter matrices.

The reference is a small breadth-first search over the integer matrices
of the reflection representation, keyed by the whole matrix: it shares
nothing with the ball's w^{-1}(rho^v) vectors, ids or
right-multiplication table.
"""

from hypothesis import given, settings, strategies as st

from affchar.hecke import INFINITE_BOND, build_ball, kl_table_pairs
from conftest import counts_by_length

_GCM = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3),
        INFINITE_BOND: (-2, -2)}

SETTINGS = settings(max_examples=60)


@st.composite
def coxeter_balls(draw):
    n = draw(st.integers(2, 4))
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from(sorted(_GCM)))
    return m, draw(st.integers(1, 8 - n))


class MatrixBall:
    """Every element of length <= bound, keyed by its n x n matrix, with
    ShortLex words from a breadth-first search."""

    def __init__(self, m, bound):
        n = len(m)
        gcm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gcm[i][j], gcm[j][i] = _GCM[m[i][j]]
        self.ident = tuple(tuple(int(r == c) for c in range(n))
                           for r in range(n))
        self.gens = [tuple(tuple(int(r == c) - (gcm[i][c] if r == i else 0)
                                 for c in range(n)) for r in range(n))
                     for i in range(n)]
        self.word = {self.ident: ()}
        layer = [self.ident]
        self.counts = [1]
        for _ in range(bound):
            nxt = []
            for mat in layer:
                for i, g in enumerate(self.gens):
                    prod = self.mul(mat, g)
                    if prod not in self.word:
                        self.word[prod] = self.word[mat] + (i,)
                        nxt.append(prod)
            layer = nxt
            self.counts.append(len(nxt))

    @staticmethod
    def mul(a, b):
        n = len(a)
        return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n))
                           for c in range(n)) for r in range(n))

    def of_word(self, word):
        mat = self.ident
        for i in word:
            mat = self.mul(mat, self.gens[i])
        return mat


def _subwords(word):
    out = {()}
    for c in word:
        out |= {w + (c,) for w in out}
    return out


def _shortlex(el):
    return (el.length, el.word)


@SETTINGS
@given(coxeter_balls())
def test_words_and_counts_match_matrix_reference(case):
    m, bound = case
    ball, ref = build_ball(m, bound), MatrixBall(m, bound)
    assert [el.word for el in ball.all_elements()] == list(ref.word.values())
    counts = counts_by_length(ball)
    assert counts + [0] * (bound + 1 - len(counts)) == ref.counts
    for el in ball.all_elements():
        assert ball.element_by_word(el.word) is el
        # a non-reduced word whose prefixes leave the ball still resolves
        for i in range(ball.n_gens):
            assert ball.element_by_word(el.word + (i, i)) is el


@SETTINGS
@given(coxeter_balls())
def test_left_longer_matches_matrix_reference(case):
    m, bound = case
    ball, ref = build_ball(m, bound), MatrixBall(m, bound)
    for el in ball.all_elements():
        mat = ref.of_word(el.word)
        for i, g in enumerate(ref.gens):
            word = ref.word.get(ref.mul(g, mat))
            want = word is None or len(word) > el.length
            assert (not ball.left_descents(el.id) >> i & 1) == want


@SETTINGS
@given(coxeter_balls())
def test_bruhat_order_is_the_subword_order(case):
    m, bound = case
    ball, ref = build_ball(m, bound), MatrixBall(m, bound)
    els = ball.all_elements()
    for y in els:
        below = ball.interval_below(y)
        assert below == sorted(below, key=_shortlex)
        assert {x.id for x in below} == {x.id for x in els
                                        if ball.leq(x, y)}
        assert ({x.word for x in below}
                == {ref.word[ref.of_word(w)] for w in _subwords(y.word)})
        assert ball.leq(y, y)
        for x in below:
            # antisymmetric, and transitive through x
            assert x is y or x.length < y.length
            assert all(ball.leq(z, y) for z in ball.interval_below(x))


@SETTINGS
@given(coxeter_balls())
def test_ids_and_right_table_match_matrix_reference(case):
    m, bound = case
    ball, ref = build_ball(m, bound), MatrixBall(m, bound)
    els = ball.all_elements()
    assert [el.id for el in els] == list(range(len(ball)))
    assert els == sorted(els, key=_shortlex)
    for el in els:
        mat = ref.of_word(el.word)
        for i, g in enumerate(ref.gens):
            got = ball.right[el.id][i]
            assert got == ball.id_of(el.word + (i,))
            word = ref.word.get(ref.mul(mat, g))
            assert (got == -1) == (word is None)
            if word is not None:
                assert els[got].word == word
                # a right descent iff the product has the smaller id
                assert (got < el.id) == (len(word) < el.length)


@SETTINGS
@given(coxeter_balls())
def test_intervals_and_table_pairs_in_shortlex_order(case):
    m, bound = case
    ball = build_ball(m, bound)
    els = ball.all_elements()
    pairs = list(kl_table_pairs(ball))
    want = []
    for y in els:
        below = ball.interval_below(y)
        assert below == sorted((x for x in els if ball.leq(x, y)),
                               key=_shortlex)
        want += [(x, y) for x in below]
    assert pairs == want
