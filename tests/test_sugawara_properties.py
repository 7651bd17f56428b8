"""Property tests for the integer (D-scaled) straightening of
`affchar.sugawara` against plain `Fraction` straightening.

The reference below straightens with `Fraction` coefficients and no
common denominator: a generator moves left past a creation operator by
g . head . rest = head . (g . rest) + [g, head] . rest, h_0 acts on the
highest-weight vector by a, and the central term of [x_m, y_{-m}] is
m k kappa_b(x, y).  S_n is summed over every mode pair whose first-acting
factor can reach the vector, with the 1/2 on the whole h-tower and the
prefactor 1/(2(k + 2)) applied at the end.  Spectral flow by p has its
own images here (`flow_images`): e_{m+p}, f_{m-p}, and h_0 plus the
scalar k p.  The weight a and the level k are drawn with coprime
denominators, so the module's common denominator D = lcm(den a, den k)
is a product and every scaled path is exercised.

`check_dss` is checked against a reference that straightens all three
sides of every vector, in the order Ad S_n, S_n, lam_check_n, with the
Sugawara terms rebuilt per vector: the reports must agree, whatever side
the production loop evaluates first and however it caches its terms.
The two routes `check_dss` takes instead of the explicit sums, S_n by
the commutator recursion and the flowed side as S_n plus the plan
difference, are checked against the explicit planned sum on every window
vector, and the relation [S_n, x_m] = -m x_{m+n} that the recursion
rests on is checked through the public `Fraction` edges.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from affchar.errors import DomainError, TruncationOverflow
from affchar.rootdata import build_root_system, casimir_eigenvalue
from affchar.sugawara import (_BRACKET, GradedModule, _flow_constants,
                              _flow_difference, _is_creation, _key, _plan,
                              _planned, _recursive_sugawara, _sugawara_terms,
                              check_dss, sugawara_mode)

_KAPPA_B = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}
LETTERS = ("e", "h", "f")
# the coweights x omega_check drawn: rho_check, minus rho_check, alpha_check
COWEIGHTS = [1, -1, 2]


def _integral(q):
    """A Fraction that the D-scaling makes integral, as an int."""
    assert q.denominator == 1, q
    return q.numerator


def flow_images(g, p, k):
    """The flow by <alpha, lam_check> = p on one generator mode, as
    [(coeff, gen or None)]: e_m -> e_{m+p}, f_m -> f_{m-p}, h_m -> h_m,
    and h_0 gains the scalar k p, marked by None."""
    letter, mode = g
    if letter == "e":
        return [(1, ("e", mode + p))]
    if letter == "f":
        return [(1, ("f", mode - p))]
    if mode == 0 and p != 0:
        return [(1, g), (k * p, None)]
    return [(1, g)]


class FractionStraightening:
    """Exact PBW straightening over `Fraction`, memoized per instance."""

    def __init__(self, module):
        self.module = module
        self.a = F(module.a)
        self.k = F(module.k)
        self._memo = {}

    def apply_gen(self, g, mono):
        key = (g, mono)
        if key not in self._memo:
            self._memo[key] = self._apply_gen(g, mono)
        return self._memo[key]

    def _apply_gen(self, g, mono):
        if not mono:
            if _is_creation(g):
                return {(g,): F(1)}
            if g == ("h", 0) and self.a != 0:
                return {(): self.a}
            return {}
        head = mono[0]
        if _is_creation(g) and _key(g) <= _key(head):
            return {(g,) + mono: F(1)}
        rest = mono[1:]
        out = {}
        for m, c in self.apply_gen(g, rest).items():
            for m2, c2 in self.apply_gen(head, m).items():
                out[m2] = out.get(m2, F(0)) + c * c2
        (l1, m1), (l2, m2) = g, head
        for coeff, letter in _BRACKET[(l1, l2)]:
            for m, c in self.apply_gen((letter, m1 + m2), rest).items():
                out[m] = out.get(m, F(0)) + coeff * c
        if m1 + m2 == 0 and (l1, l2) in _KAPPA_B:
            out[rest] = out.get(rest, F(0)) + m1 * self.k * _KAPPA_B[(l1, l2)]
        return {m: c for m, c in out.items() if c != 0}

    def check_window(self, vec):
        mod = self.module
        for mono in vec:
            if (mod.depth(mono) > mod.depth_bound
                    or mod.f0_count(mono) > mod.f0_bound):
                raise TruncationOverflow("reference leaves the window",
                                         witness=mono)
        return vec

    def apply_word(self, word, mono):
        vec = {mono: F(1)}
        for g in reversed(word):
            nxt = {}
            for m, c in vec.items():
                for m2, c2 in self.apply_gen(g, m).items():
                    nxt[m2] = nxt.get(m2, F(0)) + c * c2
            vec = nxt
        return self.check_window({m: c for m, c in vec.items() if c != 0})

    def sugawara(self, n, mono, p=0):
        """S_n mono, or Ad S_n mono for the flow by p != 0."""
        pad = abs(p)
        d = self.module.depth(mono)

        def images(g):
            return flow_images(g, p, self.k)

        terms = []
        for j in range(n - d - pad - 1, d + pad + 2):
            for l1, l2 in (("e", "f"), ("f", "e"), ("h", "h")):
                scale = F(1, 2) if l1 == "h" else F(1)
                # normal order: the larger mode acts first
                pair = sorted([(l1, j), (l2, n - j)], key=lambda g: g[1])
                terms.append((scale, pair[0], pair[1]))
        out = {}
        for scale, g1, g2 in terms:
            for c2, h2 in images(g2):
                inter = ({mono: F(1)} if h2 is None
                         else self.apply_gen(h2, mono))
                for c1, h1 in images(g1):
                    for m, c in inter.items():
                        w = scale * c1 * c2 * c
                        got = {m: F(1)} if h1 is None else self.apply_gen(h1, m)
                        for m2, c3 in got.items():
                            out[m2] = out.get(m2, F(0)) + w * c3
        pref = 1 / (2 * (self.k + 2))
        return self.check_window({m: pref * c for m, c in out.items()
                                  if c != 0})


def outcome(fn, *args):
    """The value of fn(*args), or the marker of a window overflow."""
    try:
        return fn(*args)
    except TruncationOverflow:
        return "overflow"


# coprime denominator pairs of (a, k); D is their product
DENOMINATORS = [(1, 1), (3, 2), (2, 3), (4, 3), (5, 2), (3, 4), (1, 5)]


@st.composite
def weight_and_level(draw):
    da, dk = draw(st.sampled_from(DENOMINATORS))
    a = F(draw(st.integers(-7, 7)), da)
    k = F(draw(st.integers(-7, 7)), dk)
    if k == -2:
        k = F(-1, 2)
    return a, k


gens = st.tuples(st.sampled_from(LETTERS), st.integers(-3, 3))


@settings(max_examples=80)
@given(weight_and_level(), st.data())
def test_apply_word_matches_fraction_reference(ak, data):
    a, k = ak
    module = GradedModule(a, k, 3, 1)
    ref = FractionStraightening(module)
    for _ in range(6):
        mono = data.draw(st.sampled_from(module.basis))
        word = tuple(data.draw(st.lists(gens, min_size=1, max_size=3)))
        got = outcome(module.apply_word, word, mono)
        assert got == outcome(ref.apply_word, word, mono)
        if got != "overflow":
            assert all(type(c) is F for c in got.values())


@settings(max_examples=60)
@given(weight_and_level(), st.integers(-2, 2),
       st.sampled_from([0] + COWEIGHTS), st.booleans(), st.data())
def test_sugawara_modes_match_fraction_reference(ak, n, x, flip, data):
    a, k = ak
    module = GradedModule(a, k, 3, 1)
    ref = FractionStraightening(module)
    p = -x if flip else x
    op = sugawara_mode(module, n, p)
    for _ in range(5):
        mono = data.draw(st.sampled_from(module.basis))
        got = outcome(op, mono)
        assert got == outcome(ref.sugawara, n, mono, p)
        if got != "overflow":
            assert all(type(c) is F for c in got.values())


def reference_scaled_sugawara(module, n, p):
    """The window-checked explicit sum of `_plan` for the flow by p, in
    its scaling: the terms, the first-acting mode filter and the flow
    images are rebuilt for every vector."""
    pad = abs(p)
    shift = {"e": p, "f": -p, "h": 0}

    def images(g):
        # the h_0 scalar stands where a generator would, with its D
        return [(c if h is not None else _integral(c * module.D), h)
                for c, h in flow_images(g, p, module.k)]

    def compute(mono):
        i = module.intern(mono)
        d = module.depth(mono)
        out = {}
        for scale, (g1, g2) in _sugawara_terms(n, n - d - pad, d + pad):
            if g2[1] + shift[g2[0]] > d:
                continue
            for c2, h2 in images(g2):
                inter = {i: 1} if h2 is None else module.apply_gen(h2, i)
                for c1, h1 in images(g1):
                    for m, c in inter.items():
                        w = scale * c1 * c2 * c
                        got = {m: 1} if h1 is None else module.apply_gen(h1, m)
                        for m2, c3 in got.items():
                            out[m2] = out.get(m2, 0) + w * c3
        out = module._check_window({m: c for m, c in out.items() if c != 0},
                                   "S_%d" % n)
        return {module.monos[m]: c for m, c in out.items()}

    return compute


def reference_check_dss(module, x, n, flip):
    """`check_dss` with every side of every vector straightened, in the
    order Ad S_n, S_n, lam_check_n; a vector is skipped iff one of them
    leaves the window.  Its constants are the `Fraction` values scaled:
    lam_check_n = (x/2) h_n and kappa(lam_check, lam_check)/2 = k x^2/4."""
    lhs_op = reference_scaled_sugawara(module, n, -x if flip else x)
    rhs_s = reference_scaled_sugawara(module, n, 0)
    lam_mult = _integral(F(x, 2) * module.four_kh)
    const = (_integral(module.k * x * x / 4 * module.four_kh * module.D)
             if n == 0 else 0)

    def h_n_side(mono):
        vec = module._check_window(
            module.apply_gen(("h", n), module.intern(mono)), "h_n")
        return {module.monos[m]: c for m, c in vec.items()}

    tested, skipped, mismatches = 0, 0, []
    for mono in module.basis:
        sides = [outcome(lhs_op, mono), outcome(rhs_s, mono),
                 outcome(h_n_side, mono)]
        if "overflow" in sides:
            skipped += 1
            continue
        lhs, rhs, lam_side = sides
        rhs = dict(rhs)
        for m, c in lam_side.items():
            rhs[m] = rhs.get(m, 0) + lam_mult * c
        if const:
            rhs[mono] = rhs.get(mono, 0) + const
        rhs = {m: c for m, c in rhs.items() if c != 0}
        if lhs != rhs:
            mismatches.append((mono, lhs, rhs))
        tested += 1
    vec = dict(reference_scaled_sugawara(module, 0, -x)(()))
    vec[()] = (vec.get((), 0)
               + lam_mult * _integral((module.a - module.k * x) * module.D))
    assert set(vec) <= {()}
    return tested, skipped, mismatches, F(vec[()], module.four_kh * module.D)


@settings(max_examples=24)
@given(weight_and_level(), st.sampled_from(COWEIGHTS),
       st.booleans(), st.integers(-2, 2), st.sampled_from((4, 3, 2, 1)),
       st.sampled_from((2, 1, 0)))
def test_check_dss_matches_every_side_reference(ak, x, flip, n, depth, f0):
    a, k = ak
    depth = max(depth, abs(n))
    tested, skipped, mismatches, hw = reference_check_dss(
        GradedModule(a, k, depth, f0), x, n, flip)
    rep = check_dss(GradedModule(a, k, depth, f0), x, n, flip_sign=flip)
    assert (rep.tested, rep.skipped) == (tested, skipped)
    assert rep.mismatches == mismatches
    assert rep.hw_actual == hw == rep.hw_expected


@settings(max_examples=30)
@given(weight_and_level(), st.sampled_from(COWEIGHTS),
       st.booleans(), st.integers(-2, 2), st.sampled_from((3, 2, 1)),
       st.sampled_from((2, 1, 0)))
@example((F(1), F(1)), 1, False, -1, 2, 1)
def test_monomial_ids_round_trip_with_their_gradings(ak, x, flip, n, depth,
                                                     f0):
    # every monomial a check interns keeps its tuple, and the depth and
    # window flag stored at interning are those of the tuple
    a, k = ak
    depth = max(depth, abs(n))
    module = GradedModule(a, k, depth, f0)
    check_dss(module, x, n, flip_sign=flip)
    assert module.monos[0] == ()
    assert [module.monos[i] for i in module.basis_ids] == module.basis
    assert len(set(module.monos)) == len(module.monos)
    for i, mono in enumerate(module.monos):
        assert module.intern(mono) == i
        if mono:
            assert mono == (module.heads[i],) + module.monos[module.rests[i]]
        assert module.depths[i] == module.depth(mono)
        assert module.inside[i] == (module.depth(mono) <= depth
                                    and module.f0_count(mono) <= f0)
    assert len(module.monos) == len(module._ids)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@settings(max_examples=200)
@given(rationals, rationals.filter(lambda k: k != -2), rationals)
def test_closed_forms_match_the_root_data_route(x, k, a):
    # the integer constants of the flow by lam_check = x omega_check and
    # the hw line, against the general root-data route they replaced
    rs = build_root_system("A", 1)
    module = GradedModule(a, k, 0, 0)
    # the e/f shift is <alpha, lam_check> = x, so x must be an integer
    alpha = rs.root_to_weight_coords((F(1),))
    assert rs.pair_weight_coweight(alpha, (x,)) == x
    if x.denominator != 1:
        with pytest.raises(DomainError, match="not a cocharacter"):
            check_dss(module, x, 0)
    n = x.numerator
    lam = (F(n),)
    # K x, lam_mult and const are kappa(alphacheck, lam_check), the
    # alphacheck coefficient of lam_check and kappa(lam_check,
    # lam_check)/2, each in its D-scaling
    kappa_self = k * rs.coweight_form(lam, lam)
    closed = _flow_constants(module, n)
    assert all(type(c) is int for c in closed)
    assert closed == (
        k * rs.coweight_form(rs.simple_coroots[0], lam) * module.D,
        lam[0] * rs.cartan_inv[0][0] * module.four_kh,
        kappa_self / 2 * module.four_kh * module.D)
    # the expected hw shift of an integral coweight, through c1(a)
    rep = check_dss(module, n, 0)
    c1 = casimir_eigenvalue(rs, (a,))
    assert rep.hw_expected == c1 / (2 * (k + rs.h_dual)) - kappa_self / 2
    assert rep.hw_expected == rep.hw_actual


# the routes of check_dss: depth 0-5, f0 bound 0-2 and |n| <= depth, with
# examples at D > 1 and A != 0, and at f0 bound 0, where S_n |Lam> for
# n < 0 leaves the window though S_n v for deeper v may not
windows = st.tuples(st.integers(0, 5), st.integers(0, 2)).flatmap(
    lambda w: st.tuples(st.just(w[0]), st.just(w[1]),
                        st.integers(-w[0], w[0])))


@settings(max_examples=40, deadline=None)
@given(weight_and_level(), windows)
@example((F(1, 3), F(-1, 2)), (4, 0, -2))
@example((F(3, 4), F(2, 3)), (5, 1, -1))
@example((F(-5, 2), F(7, 3)), (3, 2, 0))
def test_recursive_sugawara_matches_the_explicit_sum(ak, window):
    a, k = ak
    depth, f0, n = window
    module = GradedModule(a, k, depth, f0)
    recursive = _recursive_sugawara(module, n)
    exact = _planned(module, lambda d: _plan(module, n, 0, d))
    for i in module.basis_ids:
        # the recursion is exact: equal to the explicit sum also where it
        # leaves the window
        assert recursive(i) == exact(i)


@pytest.mark.parametrize("a, k", [(F(1, 3), F(-1, 2)), (F(3, 4), F(2, 3)),
                                  (F(-5, 2), F(7, 3)), (F(-2), F(1, 3))])
def test_recursion_base_is_s_n_on_the_highest_weight_line(a, k):
    # S_n |Lam> is 0 for n > 0 and a (a + 2) / (4 (k + 2)) |Lam> for n = 0,
    # kept times four_kh D (id 0 is |Lam>)
    module = GradedModule(a, k, 2, 1)
    assert module.D > 1
    for n in (1, 2):
        assert _recursive_sugawara(module, n)(0) == {}
    s_0 = {m: F(c, module.four_kh * module.D)
           for m, c in _recursive_sugawara(module, 0)(0).items()}
    want = a * (a + 2) / (4 * (k + 2))
    assert s_0 == ({0: want} if want else {})


@settings(max_examples=30, deadline=None)
@given(weight_and_level(), windows, st.integers(-3, 3))
@example((F(1, 3), F(-1, 2)), (4, 1, 0), 2)
@example((F(3, 4), F(2, 3)), (3, 2, 2), -3)
def test_flowed_side_is_s_n_plus_the_plan_difference(ak, window, p):
    a, k = ak
    depth, f0, n = window
    module = GradedModule(a, k, depth, f0)
    s_n = _recursive_sugawara(module, n)
    delta = _flow_difference(module, n, p)
    flowed = _planned(module, lambda d: _plan(module, n, p, d))
    for i in module.basis_ids:
        want = outcome(module._check_window, flowed(i), "S")
        if want == "overflow":
            continue
        got = dict(s_n(i))
        for m, c in delta(i).items():
            got[m] = got.get(m, 0) + c
        assert {m: c for m, c in got.items() if c != 0} == want


# (basis index, letter, mode) triples; an index wraps around the basis
generator_actions = st.lists(
    st.tuples(st.integers(0, 999), st.sampled_from(LETTERS),
              st.integers(-2, 2)), min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(weight_and_level(), windows, generator_actions)
@example((F(1, 3), F(-1, 2)), (3, 1, -1),
         [(5, "e", 1), (9, "f", -1), (2, "h", 2), (11, "h", 0)])
def test_sugawara_modes_act_as_the_virasoro_derivation(ak, window, actions):
    # [S_n, x_m] v = -m x_{m+n} v, on window vectors where every side
    # acts inside the window
    a, k = ak
    depth, f0, n = window
    module = GradedModule(a, k, depth, f0)
    s_n = sugawara_mode(module, n)

    def on_vector(op, vec):
        out = {}
        for mono, c in vec.items():
            for m2, c2 in op(mono).items():
                out[m2] = out.get(m2, F(0)) + c * c2
        return out

    for index, letter, m in actions:
        mono = module.basis[index % len(module.basis)]

        def x(mode):
            return lambda v: module.apply_word(((letter, mode),), v)

        try:
            lhs = on_vector(s_n, x(m)(mono))
            for v, c in on_vector(x(m), s_n(mono)).items():
                lhs[v] = lhs.get(v, F(0)) - c
            rhs = {v: -m * c for v, c in x(m + n)(mono).items()}
        except TruncationOverflow:
            continue
        assert ({v: c for v, c in lhs.items() if c != 0}
                == {v: c for v, c in rhs.items() if c != 0})
