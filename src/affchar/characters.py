"""Character-level content: Harish-Chandra projection, Verma characters on
both sides of the Drinfeld-Sokolov transform, simple characters from
parabolic canonical bases, and the label map of the reduction functor.

Energy offsets, with c1 = casimir_eigenvalue(Lam) and k the level ratio:

    E_Delta = c1 / (2(k + h_dual)) - (k/2) (rho_check, rho_check)
    E_M     = c1 / (2(k + h_dual)) - ((k + h_dual)/2) (rho_check, rho_check)
              + <rho, rho_check>

E_Delta is the lowest energy of the large-side Verma (offset against the
eta power -dim g), E_M of the W-algebra Verma (offset against -rank g).
The transform multiplies by q^{E_M - E_Delta} * prod (1-q^i)^{dim-rank},
whose exponent depends on the root system only.  These forms are
equivalent to the kappa/(2(kappa-kappa_c)) expressions because
kappa = k kappa_b and kappa_c = -h_dual kappa_b; the truncated-module
oracle in affchar.sugawara pins the conformal-weight summand.
"""

from fractions import Fraction

from .errors import DomainError
from .rootdata import casimir_eigenvalue
from .qseries import eta_factor
from .affine import (dot_act_word, finite_antidominant_element,
                     finite_dominant_representative,
                     regular_antidominant_system)

F = Fraction

# the rules `ch_simple_W` can take its multiplicities [M_y : L_w] from
MULTIPLICITY_RULES = ("kl", "parabolic:q", "parabolic:-1")


class CentralCharLabel:
    """A central character as the canonical (finite-dot-dominant) orbit
    representative of a weight, at a fixed level."""

    __slots__ = ("rs", "level", "rep")

    def __init__(self, rs, level, rep):
        self.rs = rs
        self.level = level
        self.rep = tuple(F(a) for a in rep)

    def __eq__(self, other):
        return (isinstance(other, CentralCharLabel)
                and self.rep == other.rep
                and self.level.k == other.level.k
                and self.rs.cartan_type == other.rs.cartan_type)

    def __hash__(self):
        return hash((self.rep, self.level.k, self.rs.cartan_type))

    def __repr__(self):
        return "chi[%s @ k=%s]" % (",".join(str(a) for a in self.rep),
                                   self.level.k)

    def to_json_dict(self):
        return {"representative": [str(a) for a in self.rep],
                "level": str(self.level.k)}


def hc_project(rs, lam, level):
    """pi(Lam): the finite dot orbit, labeled by its canonical element."""
    return CentralCharLabel(rs, level, finite_dominant_representative(rs, lam))


class EnergyOffsets:
    def __init__(self, conformal_weight, e_delta, e_m):
        self.conformal_weight = conformal_weight  # c1 / (2(k + h_dual))
        self.e_delta = e_delta
        self.e_m = e_m


def energy_offsets(chi):
    rs, level = chi.rs, chi.level
    level.require_noncritical(rs)
    c1 = casimir_eigenvalue(rs, chi.rep)
    denom = 2 * (level.k + rs.h_dual)
    conf = c1 / denom
    rr = rs.rho_check_normsq()
    e_delta = conf - level.k / 2 * rr
    e_m = conf - (level.k + rs.h_dual) / 2 * rr + rs.rho_pair_rho_check()
    return EnergyOffsets(conf, e_delta, e_m)


def ds_exponent(rs):
    """Level-independent prefactor exponent of the character transform."""
    return (-F(rs.h_dual, 2) * rs.rho_check_normsq()
            + rs.rho_pair_rho_check())


def ch_verma_Oprime(chi, trunc):
    """q^{E_Delta} * prod_{i>=1} (1 - q^i)^{-dim g}."""
    off = energy_offsets(chi)
    return eta_factor(1, -chi.rs.dim, trunc).shift(off.e_delta)


def ch_verma_W(chi, trunc):
    """q^{E_M} * prod_{i>=1} (1 - q^i)^{-rank g}."""
    off = energy_offsets(chi)
    return eta_factor(1, -chi.rs.rank, trunc).shift(off.e_m)


def ds_transform(series, rs):
    """Multiply a character by the Drinfeld-Sokolov prefactor
    q^{ds_exponent} * prod (1 - q^i)^{dim - rank}."""
    pref = eta_factor(1, rs.dim - rs.rank, series.trunc).shift(ds_exponent(rs))
    return series * pref


# ---------------------------------------------------------------------------
# the reduction functor on labels
# ---------------------------------------------------------------------------

MODULE_KINDS = ("verma", "simple", "dual_verma")


def psi_s(rs, kind, lam, level, w0_twist=False):
    """The central character of the image, under the reduction functor, of
    the Kac-Moody module of kind ``kind`` and highest weight lam, or None
    when the image is zero.  The image has the same kind as its input.

    Vermas go to Vermas and dual Vermas to dual Vermas with the projected
    central character.  A simple of highest weight Lam survives exactly
    when no finite simple pairing <Lam, alphacheck_i> is a nonnegative
    integer; otherwise it dies.  With ``w0_twist`` the survival condition
    is read off the antidominant orbit translate of Lam, the convention
    for the non-abstract Cartan.  The critical level is excluded.
    """
    if kind not in MODULE_KINDS:
        raise DomainError("unknown module kind %r" % (kind,))
    level.require_noncritical(rs)
    lam = tuple(F(a) for a in lam)
    if kind == "simple":
        test = finite_antidominant_element(rs, lam) if w0_twist else lam
        if any(v.denominator == 1 and v >= 0 for v in test):
            return None
    return hc_project(rs, lam, level)


# ---------------------------------------------------------------------------
# simple characters from the parabolic canonical basis
# ---------------------------------------------------------------------------

class SimpleCharacter:
    def __init__(self, series, w_word, contributions, minimal_words,
                 multiplicity_matrix, multiplicity_rule):
        self.series = series
        self.w_word = w_word
        # (y word, integer coefficient, CentralCharLabel)
        self.contributions = contributions
        self.minimal_words = minimal_words
        self.multiplicity_matrix = multiplicity_matrix
        self.multiplicity_rule = multiplicity_rule

    def to_json_dict(self):
        return {
            "w": list(self.w_word),
            "series": self.series.to_json_dict(),
            "contributions": [
                {"y": list(w), "coefficient": c, "chi": chi.to_json_dict()}
                for w, c, chi in self.contributions],
            "multiplicity_rule": self.multiplicity_rule,
        }


def ch_simple_W(lw, w_word, trunc, length_bound=8, multiplicities="kl"):
    """ch L_w = sum_y c_{y,w} ch M_{pi(y . lam)} in the regular
    antidominant negative-level regime, where [c] inverts the
    Verma-to-simple multiplicity matrix at v = 1.  w is the longest
    element of its ideal, so c_{., w} is the last column of the inverse,
    found by back-substitution.

    ``multiplicities`` selects the rule producing [M_y : L_w]:

    * ``"kl"`` (default): P_{y,w}(1) on minimal coset representatives,
      read off the Kazhdan-Lusztig basis element b_w.  Inverting these
      gives inverse-KL coefficients, which is not the negative-level
      Kashiwara-Tanisaki sum: on A2 at k = -6, lam = (-2, -2) and
      w = 2012 the character has 43 at q^5 where the signed "-1"
      antispherical column gives 44.  ROADMAP item 11 replaces the
      rules by that column.
    * ``"parabolic:q"`` / ``"parabolic:-1"``: the parabolic canonical
      basis of the corresponding one-dimensional induction, specialized
      at v = 1.  On the rank-one chain all three rules coincide; they
      differ in general and are kept for cross-convention comparison.

    ``length_bound`` caps the Bruhat ball, whose radius is the length of
    ``w_word`` (``hecke.query_ball``).  The integral Weyl group is exact
    (``affine.integral_system``).
    """
    from .hecke import ParabolicModule, query_ball
    rs = lw.rs
    if multiplicities not in MULTIPLICITY_RULES:
        raise DomainError("unknown multiplicity rule %r" % (multiplicities,))
    isys = regular_antidominant_system(lw, "a simple character")
    ball = query_ball(isys.coxeter_matrix, length_bound, (tuple(w_word),))
    parabolic = [i for i, cr in enumerate(isys.simples) if cr.m == 0]
    param = "q" if multiplicities == "kl" else multiplicities.split(":")[1]
    jmod = ParabolicModule(ball, parabolic, param)
    w_el = ball.element_by_word(tuple(w_word))
    if not jmod.is_minimal(w_el):
        raise DomainError("w is not minimal in its finite coset")

    ideal = [y for y in ball.interval_below(w_el) if jmod.is_minimal(y)]
    pos = {y.id: i for i, y in enumerate(ideal)}
    n = len(ideal)
    # the KL rule reads the regular module's canonical basis on the ideal;
    # a parabolic one lies in the ideal already
    mod = ParabolicModule(ball, ()) if multiplicities == "kl" else jmod
    # column j of [M_y : L_w] at v = 1, as {row: entry}
    cols = []
    for w in ideal:
        basis = mod.canonical_basis(w)
        if mod is jmod and not basis.keys() <= pos.keys():
            raise AssertionError("canonical basis outside the ideal")
        col = {pos[k]: sum(poly)
               for k, poly in basis.items() if k in pos}
        if col.get(len(cols)) != 1 or max(col) != len(cols):
            raise AssertionError("multiplicity matrix is not unitriangular")
        cols.append(col)
    mult = [[col.get(i, 0) for col in cols] for i in range(n)]
    # solve the unitriangular M c = e_w from the bottom up: once c_k is
    # known, column k of M moves to the right-hand side
    coeffs = [0] * (n - 1) + [1]
    for k in range(n - 1, 0, -1):
        if coeffs[k]:
            for i, m in cols[k].items():
                if i < k:
                    coeffs[i] -= m * coeffs[k]

    series = None
    contributions = []
    for y, coeff in zip(ideal, coeffs):
        if coeff == 0:
            continue
        mu = dot_act_word(lw, isys.simples, y.word)
        chi = hc_project(rs, mu.lam, lw.level)
        term = coeff * ch_verma_W(chi, trunc)
        series = term if series is None else series + term
        contributions.append((y.word, coeff, chi))
    return SimpleCharacter(series, tuple(w_word), contributions,
                           [y.word for y in ideal], mult, multiplicities)
