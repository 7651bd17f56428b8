import pytest

from affchar.errors import BallExhausted, DomainError, TruncationOverflow
from affchar.hecke import (INFINITE_BOND, ParabolicModule, _mul,
                           build_ball, inverse_multiplicity_matrix,
                           kl_polynomial, kl_polynomial_via_solve,
                           kl_table_tsv)

from conftest import counts_by_length, is_bar_invariant, zv_combine

A1_TILDE = [[1, 0], [0, 1]]
A2 = [[1, 3], [3, 1]]
A3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
B2 = [[1, 4], [4, 1]]
G2 = [[1, 6], [6, 1]]
A2_TILDE = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
G2_TILDE = [[1, 6, 2], [6, 1, 3], [2, 3, 1]]
UNIVERSAL_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def covers(ball):
    """All Bruhat covering pairs (x, y) with l(y) = l(x) + 1 inside the
    ball."""
    return [(x, y) for y in ball.all_elements()
            for x in ball.interval_below(y) if x.length == y.length - 1]


def _all_pairs(ball):
    els = ball.all_elements()
    return [(x, y) for y in els for x in els if ball.leq(x, y)]


def test_ball_counts():
    assert counts_by_length(build_ball(A1_TILDE, 3)) == [1, 2, 2, 2]
    s3 = build_ball(A2, 6)
    assert len(s3.elements) == 6
    assert counts_by_length(s3) == [1, 2, 2, 1]
    # a finite group's counts end at its longest element, however large
    # the bound
    assert counts_by_length(build_ball(A2, 10**4000)) == [1, 2, 2, 1]
    s4 = build_ball(A3, 8)
    assert len(s4.elements) == 24
    assert counts_by_length(s4)[:7] == [1, 3, 5, 6, 5, 3, 1]
    b2 = build_ball(B2, 8)
    assert len(b2.elements) == 8
    assert counts_by_length(b2)[:5] == [1, 2, 2, 2, 1]


def test_bad_matrices_rejected():
    with pytest.raises(DomainError):
        build_ball([[1, 5], [5, 1]], 2)
    with pytest.raises(DomainError):
        build_ball([[1, 3], [4, 1]], 2)
    with pytest.raises(DomainError):
        build_ball([[2, 3], [3, 1]], 2)
    # a short row is not square, wherever it sits
    with pytest.raises(DomainError):
        build_ball([[1, 3], []], 2)


def test_bruhat_subword_property():
    s4 = build_ball(A3, 8)
    y = s4.element_by_word((1, 0, 2, 1))

    def subwords(word):
        out = {()}
        for c in word:
            out |= {w + (c,) for w in out}
        return out

    below_by_subword = set()
    for w in subwords(y.word):
        el = s4.element_by_word(w)
        below_by_subword.add(el.id)
    below_by_leq = {x.id for x in s4.all_elements() if s4.leq(x, y)}
    assert below_by_subword == below_by_leq


def test_covers_height():
    s3 = build_ball(A2, 6)
    for x, y in covers(s3):
        assert y.length == x.length + 1 and s3.leq(x, y)


def test_kl_identity_and_s3():
    s3 = build_ball(A2, 6)
    for x, y in _all_pairs(s3):
        p = kl_polynomial(s3, x, y)
        assert p == (1,)


def test_kl_requires_order():
    s3 = build_ball(A2, 6)
    w0 = s3.element_by_word((0, 1, 0))
    s = s3.element_by_word((1,))
    with pytest.raises(DomainError):
        kl_polynomial(s3, w0, s)
    with pytest.raises(DomainError):
        kl_table_tsv(s3, [(w0, s)])


def test_kl_s4_classic_value():
    s4 = build_ball(A3, 8)
    x = s4.element_by_word((1,))
    y = s4.element_by_word((1, 0, 2, 1))
    assert kl_polynomial(s4, x, y) == (1, 1)
    assert kl_polynomial_via_solve(s4, x, y) == (1, 1)


@pytest.mark.parametrize("matrix,bound", [(A2, 6), (B2, 6), (A1_TILDE, 8)])
def test_recursion_equals_solve(matrix, bound):
    ball = build_ball(matrix, bound)
    for x, y in _all_pairs(ball):
        rec = kl_polynomial(ball, x, y)
        # deg P_{x,y} <= (l(y) - l(x) - 1) / 2 for x < y
        assert len(rec) - 1 <= max((y.length - x.length - 1) // 2, 0)
        assert rec == kl_polynomial_via_solve(ball, x, y)


def test_affine_a2_recursion_equals_solve():
    # contains the first nontrivial affine A2 value P_{e, 2012} = 1 + q
    ball = build_ball([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 4)
    for x, y in _all_pairs(ball):
        assert kl_polynomial(ball, x, y) == kl_polynomial_via_solve(ball, x, y)
    e = ball.element_by_word(())
    refl = ball.element_by_word((2, 0, 1, 2))
    assert kl_polynomial(ball, e, refl) == (1, 1)


def test_infinite_dihedral_kl_trivial():
    ball = build_ball(A1_TILDE, 8)
    for x, y in _all_pairs(ball):
        assert kl_polynomial(ball, x, y) == (1,)


def test_canonical_basis_bar_invariant():
    s4 = build_ball(A3, 8)
    mod = ParabolicModule(s4, ())
    checked = 0
    for y in s4.all_elements():
        if y.length > 4:
            continue
        assert is_bar_invariant(mod, mod.canonical_basis_via_solve(y), y)
        checked += 1
    assert checked > 10


def _act_word(mod, vec, word):
    for i in word:
        vec = mod.act_gen(vec, i)
    return vec


@pytest.mark.parametrize("matrix,parabolic,param,bonds", [
    (A3, (), "q", {2, 3}),
    (B2, (), "q", {4}),
    (G2, (), "q", {6}),
    (A2_TILDE, (), "q", {3}),
    (A2_TILDE, (0,), "q", {3}),
    (A2_TILDE, (0,), "-1", {3}),
    (G2_TILDE, (0,), "q", {2, 3, 6}),
    (G2_TILDE, (0,), "-1", {2, 3, 6}),
])
def test_act_gen_hecke_relations(matrix, parabolic, param, bonds):
    # act_gen is X = v H_s, so (H_s - v^{-1})(H_s + v) = 0 reads
    # X^2 + (v^2 - 1) X - v^2 = 0; the braid relations hold for X as for
    # H_s, and act_gen(vec, s, c) = X vec + c vec.  Checked on every
    # standard basis vector whose products stay inside the ball
    bound = 7
    ball = build_ball(matrix, bound)
    mod = ParabolicModule(ball, parabolic, param)
    checked = set()
    for y in mod.minimal_elements():
        if y.length + 2 > bound:
            continue
        vec = {y.id: (1,)}
        for s in range(ball.n_gens):
            hs = mod.act_gen(vec, s)
            assert zv_combine(((1,), mod.act_gen(hs, s)), ((-1, 0, 1), hs),
                              ((0, 0, -1), vec)) == {}
            for c in ((0, 0, 1), (-1, 0, 1)):
                assert mod.act_gen(vec, s, c) == zv_combine(((1,), hs),
                                                             (c, vec))
            for t in range(s + 1, ball.n_gens):
                m = ball.coxeter_matrix[s][t]
                if m == INFINITE_BOND or y.length + m > bound:
                    continue
                assert (_act_word(mod, vec, ((s, t) * m)[:m])
                        == _act_word(mod, vec, ((t, s) * m)[:m]))
                checked.add(m)
    assert checked == bonds


def test_mul_by_a_monomial_is_a_scaled_shift():
    for a in [(1,), (0, 2, -1), (3, 0, 0, 5), (-1, 1)]:
        for c in (1, -1, 3):
            for k in range(4):
                b = (0,) * k + (c,)
                assert _mul(a, b) == zv_combine((b, {0: a}))[0]
                assert _mul(b, a) == _mul(a, b)
    assert _mul((), (1,)) == _mul((0, 2), ()) == ()


def test_a_too_narrow_packing_width_stops_the_recursion():
    # the recursion bounds every digit before it reads one, so a width
    # cut below length_bound + 2 bits refuses (exit 3) instead of
    # returning wrong digits.  In the universal rank-3 group the column
    # of y = 01201 has digit sum 2^5 = 32 and P_{e,y} = 1 + 2q
    ball = build_ball(UNIVERSAL_3, 5)
    y = ball.element_by_word((0, 1, 2, 0, 1))
    assert kl_polynomial(ball, ball.elements[0], y) == (1, 2)
    narrow = ParabolicModule(ball, ())
    narrow._width = ball.length_bound + 1
    with pytest.raises(TruncationOverflow):
        narrow.canonical_basis(y)


def test_antispherical_degrees_and_normalization():
    ball = build_ball(A1_TILDE, 8)
    mod = ParabolicModule(ball, [1], "q")
    for wlen in range(0, 7):
        w = ball.element_by_word((0, 1, 0, 1, 0, 1, 0)[:wlen])
        n = mod.canonical_basis(w)
        assert n[w.id] == (1,)
        for k, poly in n.items():
            el = ball.elements[k]
            assert mod.is_minimal(el)
            assert ball.leq(el, w)
            if k != w.id:
                assert poly[0] == 0


@pytest.mark.parametrize("param,expected", [
    ("q", {"": "v4", "0": "v3", "01": "v2", "010": "v1", "0101": "1"}),
    ("-1", {"010": "v1", "0101": "1"}),
])
def test_antispherical_a1_tilde_both_params(param, expected):
    ball = build_ball(A1_TILDE, 8)
    w = ball.element_by_word((0, 1, 0, 1))
    n = ParabolicModule(ball, [1], param).canonical_basis(w)
    got = {}
    for k, poly in n.items():
        el = ball.elements[k]
        word = "".join(str(i) for i in el.word)
        if poly == (1,):
            got[word] = "1"
        else:
            p = len(poly) - 1
            assert poly == (0,) * p + (1,)
            got[word] = "v%d" % p
    assert got == expected
    # the q parameter realizes v^(l(w) - l(y)) on the whole chain
    if param == "q":
        for k, poly in n.items():
            el = ball.elements[k]
            assert poly == (0,) * (w.length - el.length) + (1,)


def test_antispherical_matches_solve_oracle():
    ball = build_ball(A1_TILDE, 8)
    a2ball = build_ball(A2, 6)
    cases = [
        (ball, [1], (0, 1, 0)),
        (ball, [1], (0, 1, 0, 1)),
        (a2ball, [0], (1, 0)),
        (a2ball, [0], (1,)),
    ]
    for b, parab, word in cases:
        for param in ("q", "-1"):
            mod = ParabolicModule(b, parab, param)
            w = b.element_by_word(word)
            assert mod.canonical_basis(w) == mod.canonical_basis_via_solve(w)


@pytest.mark.parametrize("word,delta", [
    # R_y gains the constant 1: not anti-bar-invariant
    ((0,), (0, 0, 1)),
    # R_y gains v^2 - v^-2: anti-bar-invariant, of degree 2 > l(w) - l(y)
    ((0,), (-1, 0, 0, 0, 1)),
    # r_{w,w} = 2
    ((0, 1), (0, 0, 1)),
    # an entry at 10, which is not below w = 01
    ((1, 0), (1,)),
], ids=["anti-invariance", "degree", "head", "outside-interval"])
def test_the_oracle_checks_every_equation(monkeypatch, word, delta):
    # delta added to the entry at N_y of v^{l(w)} bar(N_w) in A2, w = 01,
    # breaks exactly one check of the back-substitution
    ball = build_ball(A2, 3)
    w = ball.element_by_word((0, 1))
    extra = {ball.id_of(word): delta}
    bar_standard = ParabolicModule.bar_standard

    def corrupted(mod, z):
        got = bar_standard(mod, z)
        return zv_combine(((1,), got), ((1,), extra)) if z.id == w.id else got

    assert ParabolicModule(ball, ()).canonical_basis_via_solve(w)
    monkeypatch.setattr(ParabolicModule, "bar_standard", corrupted)
    with pytest.raises(DomainError, match="bar-invariance system is "
                       "inconsistent"):
        ParabolicModule(ball, ()).canonical_basis_via_solve(w)


def test_antispherical_a2_golden():
    ball = build_ball(A2, 6)
    w = ball.element_by_word((1, 0))
    n = ParabolicModule(ball, [0], "q").canonical_basis(w)
    got = {"".join(str(i) for i in ball.elements[k].word): poly
           for k, poly in n.items()}
    assert got == {"10": (1,), "1": (0, 1),
                   "": (0, 0, 1)}
    n2 = ParabolicModule(ball, [0], "-1").canonical_basis(w)
    got2 = {"".join(str(i) for i in ball.elements[k].word): poly
            for k, poly in n2.items()}
    assert got2 == {"10": (1,), "1": (0, 1)}


def test_antispherical_rejects_nonminimal():
    ball = build_ball(A1_TILDE, 6)
    with pytest.raises(DomainError):
        ParabolicModule(ball, [1], "q").canonical_basis(
            ball.element_by_word((1,)))
    with pytest.raises(DomainError):
        ParabolicModule(ball, [1], "bogus")
    with pytest.raises(DomainError, match="out of range"):
        ParabolicModule(ball, [7])


def test_ball_exhaustion_is_loud():
    ball = build_ball(A1_TILDE, 3)
    with pytest.raises(BallExhausted):
        ball.element_by_word((0, 1, 0, 1))


def test_inverse_multiplicity_matrix():
    assert inverse_multiplicity_matrix([[1]]) == [[1]]
    ident = [[1, 0], [0, 1]]
    assert inverse_multiplicity_matrix(ident) == ident
    chain = [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    inv = inverse_multiplicity_matrix(chain)
    assert inv == [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
    generic = [[1, 3, -2], [0, 1, 7], [0, 0, 1]]
    inv = inverse_multiplicity_matrix(generic)
    n = 3
    prod = [[sum(generic[i][k] * inv[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(DomainError):
        inverse_multiplicity_matrix([[1, 0], [2, 1]])
    with pytest.raises(DomainError):
        inverse_multiplicity_matrix([[2, 0], [0, 1]])


def test_kl_tsv_round_trip():
    s3 = build_ball(A2, 6)
    pairs = _all_pairs(s3)[:4]
    text = kl_table_tsv(s3, pairs)
    lines = text.strip().split("\n")
    assert lines[0] == "y\tw\tcoeffs\tconvention"
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split("\t")) == 4
    # one line per pair in the order given, whatever the order of the ys
    s4 = build_ball(A3, 8)
    pairs = _all_pairs(s4)
    rows = kl_table_tsv(s4, pairs).split("\n")[1:-1]
    assert kl_table_tsv(s4, pairs[::-1]).split("\n")[1:-1] == rows[::-1]
    assert "1\t1021\t0,1,1\t" in "\n".join(rows)
