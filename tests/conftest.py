import random
import re
from fractions import Fraction

import pytest
from hypothesis import settings

from affchar.affine import AffineCoroot, is_real_coroot, reflect_coroot
from affchar.rootdata import build_root_system

# One profile for every property test: the same examples on every run, no
# deadline (exact arithmetic has no fixed cost per example) and no example
# database on disk.  Each test sets only its own max_examples.
settings.register_profile("affchar", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("affchar")


def rand_fraction(rng, lo=-9, hi=9, max_den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_weight(rng, rank, lo=-9, hi=9, max_den=6):
    return tuple(rand_fraction(rng, lo, hi, max_den) for _ in range(rank))


def coweight_form_on_coroots(rs, x, y):
    """kappa_b(x, y) for x, y in simple-coroot coordinates."""
    return sum(
        x[i] * y[j] * rs.cartan[i][j] / rs.halfsq[j]
        for i in range(rs.rank) for j in range(rs.rank))


def root_of_coroot(rs, gamma):
    """Root whose coroot has the given simple-coroot coordinates, in
    simple-root coordinates: the Fraction reference of `coroot_roots`."""
    nu = [g / rs.halfsq[i] for i, g in enumerate(gamma)]
    sq = coweight_form_on_coroots(rs, gamma, gamma)
    return tuple(2 * x / sq for x in nu)


def finite_dot_orbit(rs, lam):
    """The W_f dot orbit of a finite weight (omega-coordinates), by
    breadth-first search over the simple reflections: the reference the
    chamber walk and the central-character labels are checked against."""
    lam = tuple(Fraction(a) for a in lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                p = w[i] + 1
                img = tuple(a - p * b for a, b in zip(w, rs.simple_roots[i]))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def negate(cr):
    """The affine coroot -cr."""
    return AffineCoroot(tuple(-g for g in cr.gamma), -cr.m)


def counts_by_length(ball):
    """The number of elements of each length of a Bruhat ball, up to its
    longest element: the length bound, or less once a finite group runs
    out."""
    counts = [0] * (1 + max(el.length for el in ball.elements))
    for el in ball.elements:
        counts[el.length] += 1
    return counts


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n"}


def parse_tsv(text):
    """Inverse of the tsv emitter ``cli.emit_report(..., "tsv")``:
    {flattened key: string value}."""
    out = {}
    for line in text.split("\n"):
        if not line:
            continue
        key, _, value = line.partition("\t")
        out[key] = re.sub(r"\\([\\tn])", lambda m: _UNESCAPES[m.group(1)],
                          value)
    return out


def integral_coroots(lw, m_max):
    """The integral positive real coroots (g, m) of lw with m <= m_max,
    sorted by (m, g), by a direct check of each one: (g, m) is real and
    <lam, g> + m k is an integer.  The brute-force reference of
    ``affine.integral_system``."""
    rs = lw.rs
    out = []
    for gamma in rs.positive_coroots:
        for g in (gamma, tuple(-x for x in gamma)):
            for m in range(0 if g == gamma else 1, m_max + 1):
                cr = AffineCoroot(g, m)
                pv = rs.pair_weight_coroot(lw.lam, g) + m * lw.k
                if is_real_coroot(rs, cr) and pv.denominator == 1:
                    out.append(cr)
    return sorted(out, key=lambda cr: (cr.m, cr.gamma))


def reflection_simples(rs, coroots):
    """The coroots whose reflection keeps every other one of `coroots`
    positive: the simples of W_lambda when `coroots` holds enough of its
    positive integral coroots."""
    return [c for c in coroots
            if all(reflect_coroot(rs, c, other).is_positive()
                   for other in coroots if other != c)]


@pytest.fixture(scope="session")
def sl2():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def sl3():
    return build_root_system("A", 2)


@pytest.fixture()
def rng():
    return random.Random(20240811)


def zv(coeffs):
    """{power: int}, powers >= 0, as a Z[v] tuple: index = power of v, no
    trailing zeros (the coefficient type of ``hecke.ParabolicModule``)."""
    top = max((p for p, a in coeffs.items() if a), default=-1)
    return tuple(coeffs.get(p, 0) for p in range(top + 1))


def zv_combine(*terms):
    """sum of coeff * vec over (coeff, vec) pairs, coefficients and vector
    entries Z[v] tuples; zero entries dropped."""
    out = {}
    for coeff, vec in terms:
        for key, t in vec.items():
            acc = out.setdefault(key, {})
            for p, a in enumerate(coeff):
                for q, b in enumerate(t):
                    acc[p + q] = acc.get(p + q, 0) + a * b
    return {key: zv(acc) for key, acc in out.items() if any(acc.values())}


def is_bar_invariant(mod, basis, w):
    """bar(n_w) = n_w for n_w = basis, {id: Z[v] tuple}, checked in
    Z[v] after multiplying by v^{l(w)}: bar_standard(y) is v^{l(y)}
    bar(N_y), so v^{l(w)} bar(n_w) = sum_y v^{l(w)-l(y)} h_y(v^{-1})
    bar_standard(y), and every h_y has degree at most l(w) - l(y)."""
    els = mod.ball.elements
    terms = []
    for key, poly in basis.items():
        d = w.length - els[key].length
        if len(poly) > d + 1:
            return False
        terms.append((zv({d - p: a for p, a in enumerate(poly)}),
                      mod.bar_standard(els[key])))
    return zv_combine(*terms) == {key: (0,) * w.length + poly
                                  for key, poly in basis.items()}
