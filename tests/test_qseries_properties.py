"""Property tests of the two one-pass series kernels.

Each kernel is compared with the algorithm it replaced, kept here as the
reference: eta_factor with the dense product of one truncated series per
factor, and vacuum_graded_character with the repeated shifted copies that
multiply by a mode's geometric series one power at a time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from affchar.errors import STEP_BUDGET, TruncationOverflow, check_step_budget
from affchar.qseries import QSeries, eta_factor, geometric, one
from affchar.rootdata import build_root_system
from affchar.wstruct import vacuum_graded_character

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)]
ROOTS = {t: build_root_system(*t) for t in TYPES}


def dense_eta(m_start, exponent, trunc):
    """prod_{i >= m_start} (1 - q^i)^exponent by one dense series product
    per factor."""
    acc = one(trunc)
    for i in range(m_start, trunc + 1):
        if exponent > 0:
            f = QSeries(0, [1] + [0] * (i - 1) + [-1], trunc)
        else:
            f = geometric(i, trunc)
        for _ in range(abs(exponent)):
            acc = acc * f
    return acc


def shifted_copies_vacuum(rs, n, max_u, max_q):
    """Appendix-orientation coefficients and towers of the vacuum
    character, multiplying by each power of each mode with a shifted copy
    of the whole state."""
    towers = [(d + 1, d + 1 - n * d) for d in rs.exponents]
    kk_min = min(kk for kk, _ in towers)
    neg = max(0, -min(e for _, e in towers))

    def slack(j):
        return neg * ((max_u - j) // kk_min)

    cap = max_q + neg * (max_u // kk_min)
    state = {(0, 0): 1}
    for kk, e0 in sorted(towers):
        e = e0
        while e <= cap:
            out = dict(state)
            src = state
            while True:
                nxt = {}
                for (j, m), c in src.items():
                    j2, m2 = j + kk, m + e
                    if j2 > max_u or m2 > max_q + slack(j2):
                        continue
                    nxt[(j2, m2)] = nxt.get((j2, m2), 0) + c
                if not nxt:
                    break
                for jm, c in nxt.items():
                    out[jm] = out.get(jm, 0) + c
                src = nxt
            state = out
            e += 1
    coeffs = {jm: c for jm, c in state.items() if jm[1] <= max_q and c != 0}
    return coeffs, towers


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(-6, 6), st.integers(0, 40))
def test_eta_factor_equals_dense_product(m_start, exponent, trunc):
    got = eta_factor.__wrapped__(m_start, exponent, trunc)
    want = dense_eta(m_start, exponent, trunc)
    assert got == want
    assert (got.offset, got.coeffs, got.trunc) == \
        (want.offset, want.coeffs, want.trunc)


@settings(max_examples=150)
@given(st.sampled_from(TYPES), st.integers(0, 3), st.integers(0, 12),
       st.integers(0, 30), st.sampled_from(["appendix", "kernel"]))
def test_vacuum_character_equals_shifted_copies(cartan, n, max_u, max_q,
                                                convention):
    rs = ROOTS[cartan]
    got = vacuum_graded_character(rs, n, max_u, max_q, convention=convention)
    coeffs, towers = shifted_copies_vacuum(rs, n, max_u, max_q)
    if convention == "kernel":
        coeffs = {(j, -m): c for (j, m), c in coeffs.items()}
        towers = [(kk, -e) for kk, e in towers]
    assert got.coeffs == coeffs
    assert got.towers == towers
    assert got.to_json_dict()["coefficients"] == \
        {"%d,%d" % jm: c for jm, c in sorted(coeffs.items())}


@pytest.mark.parametrize("cartan,n,max_u,max_q", [
    pytest.param(("A", 1), 0, 200, 6, id="A1-n0-u200-q6"),
    pytest.param(("A", 1), 2, 200, 6, id="A1-n2-u200-q6"),
    pytest.param(("A", 2), 2, 60, 4, id="A2-n2-u60-q4"),
    pytest.param(("G", 2), 3, 40, 3, id="G2-n3-u40-q3"),
])
def test_vacuum_character_on_long_thin_windows(cartan, n, max_u, max_q):
    # u-windows far deeper than the energy window: the Horner chain stops
    # at its depth bound (positive energies, and A1 n=2 after its mode of
    # energy 0) or runs through every row (negative energies), truncating
    # at each level
    rs = ROOTS[cartan]
    coeffs, towers = shifted_copies_vacuum(rs, n, max_u, max_q)
    assert vacuum_graded_character(rs, n, max_u, max_q).coeffs == coeffs
    kernel = vacuum_graded_character(rs, n, max_u, max_q, convention="kernel")
    assert kernel.coeffs == {(j, -m): c for (j, m), c in coeffs.items()}
    assert kernel.towers == [(kk, -e) for kk, e in towers]


def test_step_budget_is_inclusive():
    check_step_budget("a job at the budget", STEP_BUDGET)
    with pytest.raises(TruncationOverflow) as exc:
        check_step_budget("a job past the budget", STEP_BUDGET + 1)
    assert exc.value.witness == STEP_BUDGET + 1


def test_oversized_windows_refused_before_work():
    # about 1.5 * 10^10 and 10^15 steps: refused at once, nothing allocated
    with pytest.raises(TruncationOverflow):
        eta_factor(1, -3, 10 ** 5)
    with pytest.raises(TruncationOverflow):
        vacuum_graded_character(ROOTS[("A", 1)], 0, 10 ** 5, 10 ** 5)
