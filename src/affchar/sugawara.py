"""Desk-scale oracle: truncated affine sl2 Verma modules with exact
normal-ordered Sugawara operators and spectral flow.

The module tracks PBW monomials

    f_0^j * prod e_{-n}^{a_n} h_{-n}^{b_n} f_{-n}^{c_n} |Lam>

with total depth sum n (a_n + b_n + c_n) <= depth_bound and j <= f0_bound,
both bounds at most 8.  Operator applications are straightened
symbolically in the enveloping algebra first and truncated only on the
final PBW expression, so a result is either exact or raises
TruncationOverflow; no silent loss.

The Sugawara field is S(z) = sum S_n z^{-n-2} with

    S_n = 1/(2(k + h_dual)) * sum_j ( :e_j f_{n-j}: + :f_j e_{n-j}:
                                      + 1/2 :h_j h_{n-j}: ),

positive modes to the right; on any tracked vector only finitely many
terms act.

The module is affine sl2's only: the structure constants are tabulated
per letter, and the root data are in closed form.  h_dual = 2, and a
coweight of the adjoint torus is lam_check = x omega_check with
omega_check = alphacheck/2 and x an integer, so <alpha, lam_check> = x,
kappa(alphacheck, lam_check) = k x and kappa(lam_check, lam_check) =
k x^2 / 2.  Spectral flow by lam_check is therefore fixed by the one
integer p = x: it sends e_m -> e_{m+p}, f_m -> f_{m-p} and
h_0 -> h_0 + k p, and every function here takes the flow as that
integer.  The sign convention matches the adolescent-Whittaker one
(`check_dss(..., flip_sign=True)` flows by -x, the Arakawa-style flow).

Every PBW monomial the module reaches is interned once and numbered, the
way `hecke.BruhatBall` numbers its elements: id 0 is |Lam>, and
`monos[id]` is the tuple.  Interning fills in, once per monomial, its head
generator `heads[id]`, the id `rests[id]` of the monomial without its
head, its depth `depths[id]` and the flag `inside[id]` (depth and f_0
count within the window).  Straightening, the Sugawara modes and
`check_dss` work on ids only: a vector is an {id: int} dict, its depth is
one array lookup and the window check one flag lookup per entry, which
raises TruncationOverflow with the monomial tuple as witness.  Tuples are
built only at the public edges: `basis` (the window's monomials, sorted
by depth), `apply_word`, the functions that `sugawara_mode` returns,
and the mismatches of a `DssReport`.

Every coefficient inside the module is a Python int.  With
D = lcm(den a, den k), A = a D and K = k D, the straightened expansion
``apply_gen(g, id)``, memoized per module by (generator, id), stores
c * D**(1 + len(mono) - len(m)) for the true coefficient c of each result
monomial m, where mono = monos[id].  The power depends only on
lengths, so expansions compose: a word of w generators applied to mono
carries D**(w + len(mono) - len(m)), and a coefficient is zero, or two
coefficients of the same monomial are equal, exactly when their true
values are.  The Sugawara modes keep S_n mono times
4 (k + h_dual) D**(2 + len(mono) - len(m)) (that is, with the prefactor
1/(2(k + h_dual)) and the 1/2 of the h-tower cleared).  One routine,
`_plan(module, n, p, d)`, lists the flowed normal-ordered terms that can
act at depth d as {(left gen, right gen): int coeff}, the h_0 flow scalar
as a None generator, and one loop sums a plan on a vector; the explicit
sum `sugawara_mode(module, n, p)` defines every Sugawara mode (S_n is
its flow p = 0).  `check_dss` gets S_n v by the commutator recursion
S_n (x_q rest) = x_q S_n rest - q x_{q+n} rest, memoized per call, from
the explicit sum S_n |Lam>, and the flowed side as S_n v + Delta v, Delta
the key-wise difference of the flowed and unflowed plans.  All their
other terms are the same ordered products with the same coefficients:
they cancel identically and could never mismatch.  So the identity
reduces to Delta v = lam_check_n v + const v, where Delta holds only the
few pairs the flow reorders and the h_0 scalar.  A vector is skipped iff
any of its three sides (lam_check_n, S_n, Ad S_n) leaves the window,
whatever the order of evaluation.  Before any straightening `check_dss`
charges the basis size times the planned terms per vector, which grow
with |x|, against `errors.STEP_BUDGET` and `errors.SLOT_BUDGET`.

Values are turned back into `Fraction` only at the public edges:
`GradedModule.apply_word` and `sugawara_mode` unscale each output entry
once.  `check_dss` compares its vectors as scaled ints and reads its
highest-weight line through `sugawara_mode`, so it unscales only there.
"""

from collections import defaultdict
from itertools import chain, product
from fractions import Fraction
from math import lcm

from .errors import (DomainError, TruncationOverflow, check_slot_budget,
                     check_step_budget)

F = Fraction

# the dual Coxeter number of sl2
_H_DUAL = 2

# finite sl2 structure: [x, y] = sum coeff * letter, plus kappa_b(x, y)
_BRACKET = {
    ("e", "f"): ((1, "h"),),
    ("f", "e"): ((-1, "h"),),
    ("h", "e"): ((2, "e"),),
    ("e", "h"): ((-2, "e"),),
    ("h", "f"): ((-2, "f"),),
    ("f", "h"): ((2, "f"),),
    ("e", "e"): (),
    ("f", "f"): (),
    ("h", "h"): (),
}
_KAPPA_B = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}
_RANK = {"e": 0, "h": 1, "f": 2}

# the largest depth bound and f0 bound of a window; interning and
# straightening recurse once per letter of a monomial, so every window
# stays far inside the interpreter's recursion limit
_MAX_BOUND = 8


def _key(gen):
    letter, mode = gen
    return (-mode, _RANK[letter])


def _bracket(g1, g2):
    """[g1, g2] as (list of (int coeff, gen), c) with central term c * k."""
    (l1, m1), (l2, m2) = g1, g2
    terms = [(c, (l, m1 + m2)) for c, l in _BRACKET[(l1, l2)]]
    central = m1 * _KAPPA_B.get((l1, l2), 0) if m1 + m2 == 0 else 0
    return terms, central


def _is_creation(gen):
    letter, mode = gen
    return mode < 0 or (letter == "f" and mode == 0)


class GradedModule:
    """Truncated Verma module for affine sl2 at level k with highest
    weight Lam = a * omega."""

    def __init__(self, a, k, depth_bound, f0_bound):
        if depth_bound > _MAX_BOUND or f0_bound > _MAX_BOUND:
            raise DomainError(
                "window of depth %d and f0 bound %d exceeds the supported "
                "bounds of %d each" % (depth_bound, f0_bound, _MAX_BOUND))
        self.a = F(a)
        self.k = F(k)
        if self.k == -2:
            raise DomainError("critical level k = -2 is excluded")
        # the common denominator of the module's coefficients, and
        # A = a D and K = k D as ints
        self.D = lcm(self.a.denominator, self.k.denominator)
        self.A = self.a.numerator * (self.D // self.a.denominator)
        self.K = self.k.numerator * (self.D // self.k.denominator)
        # 4 (k + h_dual) D as an int; the Sugawara scaling of an entry m of
        # S_n mono is four_kh * D**(1 + len(mono) - len(m))
        self.four_kh = 4 * (self.K + _H_DUAL * self.D)
        self.depth_bound = depth_bound
        self.f0_bound = f0_bound
        # every monomial reached so far, numbered when first interned; per
        # id its tuple, head generator, rest id, depth and window flag
        self.monos = []
        self.heads = []
        self.rests = []
        self.depths = []
        self.inside = []
        self._ids = {}
        # the straightening memo, (generator, id) -> {id: int}, stored as
        # generator -> {id: {id: int}} so that a lookup hashes one int
        self._memo = defaultdict(dict)
        # (generator, head) -> (already in PBW order, bracket terms, central
        # term) in the scaling of `_straighten`, filled on first use
        self._rules = {}
        self.intern(())
        self.basis = self._enumerate_basis()
        self.basis_ids = [self.intern(m) for m in self.basis]

    def _enumerate_basis(self):
        gens = [("e", -n) for n in range(1, self.depth_bound + 1)]
        gens += [("h", -n) for n in range(1, self.depth_bound + 1)]
        gens += [("f", -n) for n in range(1, self.depth_bound + 1)]
        gens.sort(key=_key)

        def extend(prefix, start, depth_left):
            out = [tuple(prefix)]
            for gi in range(start, len(gens)):
                g = gens[gi]
                if -g[1] <= depth_left:
                    prefix.append(g)
                    out.extend(extend(prefix, gi, depth_left + g[1]))
                    prefix.pop()
            return out

        monos = extend([], 0, self.depth_bound)
        basis = []
        for j in range(self.f0_bound + 1):
            head = (("f", 0),) * j
            for m in monos:
                basis.append(head + m)
        basis.sort(key=lambda m: (self.depth(m), m))
        return basis

    # -- gradings ---------------------------------------------------------

    @staticmethod
    def depth(mono):
        return -sum(mode for _, mode in mono)

    def f0_count(self, mono):
        return sum(1 for g in mono if g == ("f", 0))

    # -- monomial ids -------------------------------------------------------

    def intern(self, mono):
        """The id of the monomial `mono`, numbering it (and its rests)
        on first sight."""
        i = self._ids.get(mono)
        if i is None:
            if mono:
                head, rest = mono[0], self.intern(mono[1:])
                depth = self.depths[rest] - head[1]
            else:
                head, rest, depth = None, -1, 0
            i = self._ids[mono] = len(self.monos)
            self.monos.append(mono)
            self.heads.append(head)
            self.rests.append(rest)
            self.depths.append(depth)
            self.inside.append(depth <= self.depth_bound
                               and self.f0_count(mono) <= self.f0_bound)
        return i

    # -- exact straightening ------------------------------------------------

    def apply_gen(self, g, i):
        """Exact PBW expansion of g . monos[i] in the untruncated Verma
        module as {id: int}, D-scaled (module docstring); memoized, no
        window check."""
        memo = self._memo[g]
        out = memo.get(i)
        if out is None:
            out = memo[i] = self._straighten(g, i)
        return out

    def _straighten(self, g, i):
        if i == 0:
            if _is_creation(g):
                return {self.intern((g,)): 1}
            # on |Lam> only h_0 survives, acting by a; the length stays
            # 0, so it carries D^1.  Positive modes and e_0 kill |Lam>
            return {0: self.A} if g == ("h", 0) and self.A else {}
        head = self.heads[i]
        rule = self._rules.get((g, head))
        if rule is None:
            # the bracket terms act on the shorter rest, so they gain one
            # D, and the central term, a length drop of two, gains D^2
            terms, central = _bracket(g, head)
            rule = self._rules[g, head] = (
                _is_creation(g) and _key(g) <= _key(head),
                [(coeff * self.D, t) for coeff, t in terms],
                central * self.K * self.D)
        ordered, terms, central = rule
        if ordered:
            return {self.intern((g,) + self.monos[i]): 1}
        rest = self.rests[i]
        out = {}
        # g . head . rest = head . (g . rest) + [g, head] . rest
        for m, c in self.apply_gen(g, rest).items():
            for m2, c2 in self.apply_gen(head, m).items():
                out[m2] = out.get(m2, 0) + c * c2
        for coeff, t in terms:
            for m, c in self.apply_gen(t, rest).items():
                out[m] = out.get(m, 0) + coeff * c
        if central:
            out[rest] = out.get(rest, 0) + central
        return {m: c for m, c in out.items() if c != 0}

    def _check_window(self, vec, context):
        """vec, an {id: int} dict of nonzero entries, if all its
        monomials lie in the window; else TruncationOverflow with the
        first one outside as witness."""
        inside = self.inside
        for m in vec:
            if not inside[m]:
                mono = self.monos[m]
                raise TruncationOverflow(
                    "result of %s leaves the tracked window at %r"
                    % (context, mono), witness=mono)
        return vec

    def _word(self, word, i):
        """Exact action of a product of generator modes on monos[i] as
        {id: int}, D-scaled; no window check."""
        vec = {i: 1}
        for g in reversed(word):
            nxt = {}
            for m, c in vec.items():
                for m2, c2 in self.apply_gen(g, m).items():
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            vec = nxt
        return {m: c for m, c in vec.items() if c != 0}

    def apply_word(self, word, mono):
        """Exact action of a product of generator modes on a basis
        monomial; raises TruncationOverflow if the exact result has
        support outside the window.  Intermediate states are exact PBW
        vectors of the full Verma module, so the check cannot fire
        spuriously."""
        word = tuple(word)
        mono = tuple(mono)
        vec = self._check_window(self._word(word, self.intern(mono)), word)
        top = len(word) + len(mono)
        monos = self.monos
        return {monos[m]: F(c, self.D ** (top - len(monos[m])))
                for m, c in vec.items()}

    # -- sampled bracket verification ----------------------------------------

    def verify_brackets(self, modes=(-1, 0, 1), letters=("e", "h", "f")):
        """Check [X_m, Y_n] v = (bracket) v on sample vectors; returns the
        number of identities checked, raising on any mismatch.  Both
        sides are compared as D-scaled ints: a word of two generators
        carries D**(2 + len(v) - len(m)), so each bracket term, one
        generator, gains one D and the central term c k v is c K D."""
        samples = [i for i, m in zip(self.basis_ids, self.basis)
                   if self.depth(m) <= max(1, self.depth_bound - 2)
                   and self.f0_count(m) < self.f0_bound][:12]
        D, inside = self.D, self.inside
        checked = 0
        for l1, l2, m1, m2 in product(letters, letters, modes, modes):
            g1, g2 = (l1, m1), (l2, m2)
            terms, central = _bracket(g1, g2)
            central *= self.K * D
            for v in samples:
                lhs, rhs = self._word((g1, g2), v), self._word((g2, g1), v)
                # a word whose result leaves the window is skipped, as
                # apply_word would raise on it
                if not all(inside[m] for m in chain(lhs, rhs)):
                    continue
                for m, c in rhs.items():
                    lhs[m] = lhs.get(m, 0) - c
                expect = {v: central} if central else {}
                for coeff, g in terms:
                    for m, c in self.apply_gen(g, v).items():
                        expect[m] = expect.get(m, 0) + coeff * D * c
                if ({m: c for m, c in lhs.items() if c}
                        != {m: c for m, c in expect.items() if c}):
                    raise AssertionError("bracket mismatch for %s,%s on %r"
                                         % (g1, g2, self.monos[v]))
                checked += 1
        return checked


def build_truncated_verma(a, k, depth_bound, f0_bound):
    """Verma module oracle with explicit truncation window; build-time
    sampled bracket verification."""
    m = GradedModule(a, k, depth_bound, f0_bound)
    m.verify_brackets(modes=(-1, 1), letters=("e", "f"))
    return m


# ---------------------------------------------------------------------------
# Sugawara modes
# ---------------------------------------------------------------------------

def _sugawara_terms(n, lo, hi):
    """The normal-ordered quadratic terms of 2 S_n / pref with
    first-acting mode in [lo, hi]: list of (int scale, (gen_left,
    gen_right)).  The h-tower is folded over j <-> n-j so each unordered
    pair appears once; its 1/2 on h_{n/2}^2 is cleared by the factor 2."""
    out = []
    for j in range(lo, hi + 1):
        for l1, l2 in (("e", "f"), ("f", "e")):
            g1, g2 = (l1, j), (l2, n - j)
            if j <= n - j:
                out.append((2, (g1, g2)))
            else:
                out.append((2, (g2, g1)))
        if 2 * j <= n and n - j <= hi:
            scale = 1 if 2 * j == n else 2
            out.append((scale, (("h", j), ("h", n - j))))
    return out


def _check_mode(module, n):
    if abs(n) > module.depth_bound:
        raise DomainError("|n| exceeds the depth window")


def _plan(module, n, p, d):
    """The terms of Ad_{t^{lam_check}} S_n, for the integral coweight with
    <alpha, lam_check> = p (S_n itself for p = 0), that can act on a
    vector of depth d: {(left gen or None, right gen or None): int coeff}
    in the Sugawara scaling, None marking the h_0 flow scalar."""
    # the flow sends e_m -> e_{m+p}, f_m -> f_{m-p} and h_0 -> h_0 + k p;
    # a term is nonzero only if its first-acting flowed mode is at most
    # the depth, and flowing shifts e/f indices by at most |p|
    pad = abs(p)
    shift = {"e": p, "f": -p, "h": 0}
    # the flow scalar on h_0 stands where a generator would, so it
    # carries that generator's D
    h_d = _flow_constants(module, p)[0]

    def flowed(g):
        out = [(1, (g[0], g[1] + shift[g[0]]))]
        return out + [(h_d, None)] if g == ("h", 0) and h_d else out

    out = {}
    for scale, (g1, g2) in _sugawara_terms(n, n - d - pad, d + pad):
        # the rightmost factor acts first; if its (flowed) mode exceeds
        # the depth it annihilates the vector exactly
        if g2[1] + shift[g2[0]] > d:
            continue
        for c2, h2 in flowed(g2):
            for c1, h1 in flowed(g1):
                # the scalar commutes, so it always stands on the left
                key = (h1, h2) if h2 is not None else (None, h1)
                out[key] = out.get(key, 0) + scale * c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def _planned(module, plan_of):
    """id -> the terms of plan_of(depth of id) summed on monos[id], as an
    exact {id: int} of the untruncated Verma module with no window check;
    each depth is planned once."""
    plans, apply_gen = {}, module.apply_gen

    def compute(i):
        d = module.depths[i]
        plan = plans.get(d)
        if plan is None:
            plan = plans[d] = plan_of(d)
        out = {}
        for (h1, h2), cc in plan.items():
            for m, c in ({i: 1} if h2 is None else apply_gen(h2, i)).items():
                for m2, c2 in ({m: 1} if h1 is None
                               else apply_gen(h1, m)).items():
                    out[m2] = out.get(m2, 0) + cc * c * c2
        return {m: c for m, c in out.items() if c != 0}

    return compute


def _recursive_sugawara(module, n):
    """id -> S_n monos[id] in the Sugawara scaling, exact and with no
    window check, memoized per returned function.  At a noncritical
    level [S_n, x_q] = -q x_{q+n}, so S_n (x_q rest) = x_q S_n rest
    - q x_{q+n} rest, from the explicit sum S_n |Lam> planned at depth 0."""
    D, apply_gen = module.D, module.apply_gen
    done = {0: _planned(module, lambda d: _plan(module, n, 0, d))(0)}

    def compute(i):
        out = done.get(i)
        if out is None:
            head, rest = module.heads[i], module.rests[i]
            out = {}
            for m, c in compute(rest).items():
                for m2, c2 in apply_gen(head, m).items():
                    out[m2] = out.get(m2, 0) + c * c2
            # x_{q+n} on the rest carries D**(len(mono) - len(m)): one D
            # and four_kh short of the scaling of S_n mono
            w = -head[1] * module.four_kh * D
            if w:
                for m, c in apply_gen((head[0], head[1] + n), rest).items():
                    out[m] = out.get(m, 0) + w * c
            out = done[i] = {m: c for m, c in out.items() if c != 0}
        return out

    return compute


def _flow_difference(module, n, p):
    """id -> (Ad_{t^{lam_check}} S_n - S_n) monos[id] for <alpha,
    lam_check> = p, exact and with no window check.  The terms the flowed
    and unflowed plans share cancel key by key; what is left are the
    pairs the flow reorders and the h_0 flow scalar."""
    def plan_of(d):
        plan = _plan(module, n, p, d)
        for key, c in _plan(module, n, 0, d).items():
            plan[key] = plan.get(key, 0) - c
        return {key: c for key, c in plan.items() if c != 0}

    return _planned(module, plan_of)


def sugawara_mode(module, n, p=0):
    """S_n as an exact function mono -> {mono: Fraction} by the explicit
    normal-ordered sum; with p != 0, the flowed operator
    Ad_{t^{lam_check}} S_n for <alpha, lam_check> = p (each factor
    flowed, same index set).  Raises TruncationOverflow when the exact
    result leaves the window."""
    _check_mode(module, n)
    exact = _planned(module, lambda d: _plan(module, n, p, d))
    D, four_kh, monos = module.D, module.four_kh, module.monos

    def apply(mono):
        top = 2 + len(mono)
        vec = module._check_window(exact(module.intern(tuple(mono))),
                                   "S_%d" % n)
        return {monos[m]: F(c * D, four_kh * D ** (top - len(monos[m])))
                for m, c in vec.items()}

    return apply


# ---------------------------------------------------------------------------
# the spectral-flow identity check
# ---------------------------------------------------------------------------

class DssReport:
    """The outcome of one `check_dss` run for lam_check = x omega_check;
    `mismatches` holds (mono, lhs, rhs) with monomial tuples as keys."""

    def __init__(self, x, n, k, depth_bound):
        self.x = x
        self.n = n
        self.k = k
        self.depth_bound = depth_bound
        self.tested = 0
        self.skipped = 0
        self.mismatches = []
        self.hw_expected = None
        self.hw_actual = None

    @property
    def passed(self):
        return (not self.mismatches and self.tested > 0
                and self.hw_expected == self.hw_actual)

    def to_json_dict(self):
        return {
            "lam_check": [str(self.x)],
            "n": self.n,
            "k": str(self.k),
            "depth": self.depth_bound,
            "tested": self.tested,
            "skipped": self.skipped,
            "mismatches": len(self.mismatches),
            "hw_shift_expected": str(self.hw_expected),
            "hw_shift_actual": str(self.hw_actual),
            "passed": self.passed,
        }


def _flow_constants(module, x):
    """The integer constants of the flow by lam_check = x omega_check:
    (K x, lam_mult, const) with K = k D and (k + h_dual) D = K + 2 D.
    K x is k x, the h_0 flow scalar kappa(alphacheck, lam_check), with
    the D of the generator it stands for.  lam_check_n = (x/2) h_n, and
    apply_gen carries one D fewer than the Sugawara scaling
    4 (k + h_dual) D, hence lam_mult = 2 x (K + 2 D).  The n = 0 constant
    kappa(lam_check, lam_check)/2 = k x^2 / 4 sits on mono itself, two
    powers of D: const = K x^2 (K + 2 D)."""
    K = module.K
    kh = K + _H_DUAL * module.D
    return K * x, 2 * x * kh, K * x * x * kh


def check_dss(module, x, n, flip_sign=False):
    """Assert Ad_{t^{lam_check}} S_n = S_n + lam_check_n
    + delta_{n,0} kappa(lam_check, lam_check)/2, lam_check = x omega_check,
    on every window vector where both sides act exactly, and pin the
    flowed energy of the highest-weight line.  ``flip_sign`` flows by
    -lam_check instead (the Arakawa and Frenkel-Kac-Wakimoto convention)
    while the identity stays stated for lam_check.  Both sides are
    compared in the Sugawara scaling."""
    x = F(x)
    if x.denominator != 1:
        raise DomainError(
            "coweight %s omega_check is not a cocharacter of the adjoint "
            "torus: x must be an integer" % x)
    x = x.numerator
    _check_mode(module, n)
    # each vector meets at most 3 (2 d + 2 |x| + |n| + 1) planned terms of
    # the flowed side, each one straightening step that may intern one
    # monomial with its memo entry; charged before any straightening
    cost = (len(module.basis_ids) * 3
            * (2 * module.depth_bound + 2 * abs(x) + abs(n) + 1))
    what = "the spectral-flow check at x = %d, n = %d" % (x, n)
    check_step_budget(what, cost)
    check_slot_budget(what, cost)
    h_n = ("h", n)
    _, lam_mult, const = _flow_constants(module, x)
    if n != 0:
        const = 0   # the constant is delta_{n,0}
    s_n = _recursive_sugawara(module, n)
    delta = _flow_difference(module, n, -x if flip_sign else x)
    check_window, context = module._check_window, "S_%d" % n

    report = DssReport(x, n, module.k, module.depth_bound)
    for i in module.basis_ids:
        try:
            lam = check_window(module.apply_gen(h_n, i), (h_n,))
            s = check_window(s_n(i), context)
            # Ad S_n v = S_n v + delta v leaves the window iff delta v
            # does, S_n v being inside; so a vector is skipped iff some
            # side leaves the window, as when each side is straightened
            diff = check_window(delta(i), context)
        except TruncationOverflow:
            report.skipped += 1
            continue
        # both sides hold S_n v, so they agree iff delta v is
        # lam_check_n v + const v
        expect = {m: lam_mult * c for m, c in lam.items()}
        if const:
            expect[i] = expect.get(i, 0) + const
        expect = {m: c for m, c in expect.items() if c != 0}
        if diff != expect:
            monos = module.monos
            lhs, rhs = dict(s), dict(s)
            for side, extra in ((lhs, diff), (rhs, expect)):
                for m, c in extra.items():
                    side[m] = side.get(m, 0) + c
            report.mismatches.append((monos[i], *(
                {monos[m]: c for m, c in side.items() if c != 0}
                for side in (lhs, rhs))))
        report.tested += 1

    # Flowed conformal weight of the unit line: flow by -lam_check and
    # apply S_0 + lam_check_0; the eigenvalue drops by kappa(l,l)/2.
    vec = sugawara_mode(module, 0, -x)(())
    if set(vec) - {()}:
        raise AssertionError("flowed energy operator does not fix the unit line")
    # lam_check_0 = (x/2) h_0 flowed by -lam_check acts on the unit line
    # by (x/2) (a - k x)
    actual = vec.get((), F(0)) + F(x, 2) * (module.a - module.k * x)
    # the Casimir eigenvalue of Lam = a omega is c1 = a (a + 2) / 2
    c1 = module.a * (module.a + 2) / 2
    expected = c1 / (2 * (module.k + _H_DUAL)) - module.k * x * x / 4
    report.hw_expected = expected
    report.hw_actual = actual
    return report
