"""The bar-invariance oracle's sparse integer solver against dense
Gauss-Jordan over Fraction.

``_solve_int_system`` eliminates fraction-free on dict rows.  The reference
below shares no code with it: on every system both must return the same
solution or raise the same DomainError (underdetermined, inconsistent,
non-integer).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affchar.errors import DomainError
from affchar.hecke import _solve_int_system


def dense_reference(rows, ncols):
    """Dense Gauss-Jordan over Fraction on the same {column: int} rows."""
    m = [[Fraction(r.get(c, 0)) for c in range(ncols + 1)] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [x / d for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != ncols:
        raise DomainError("bar-invariance system is underdetermined")
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            raise DomainError("bar-invariance system is inconsistent")
    sol = [m[i][ncols] for i in range(ncols)]
    if any(x.denominator != 1 for x in sol):
        raise DomainError("non-integer parabolic coefficient")
    return [int(x) for x in sol]


def outcome(solve, rows, ncols):
    """The solution, or the DomainError message; rows are copied so
    neither solver sees the other's edits."""
    try:
        return solve([dict(r) for r in rows], ncols)
    except DomainError as exc:
        return str(exc)


# -- one system per error ----------------------------------------------------

def test_unique_integer_solution():
    # x + y = 3, x - y = 1, plus a redundant row and an empty one
    rows = [{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}, {0: 2, 2: 4}, {}]
    assert _solve_int_system(rows, 2) == [2, 1]


def test_underdetermined_raises():
    # rank 1 with two unknowns: x + y = 3, 2x + 2y = 6
    rows = [{0: 1, 1: 1, 2: 3}, {0: 2, 1: 2, 2: 6}]
    with pytest.raises(DomainError, match="underdetermined"):
        _solve_int_system(rows, 2)


def test_overdetermined_inconsistent_raises():
    # x + y = 3, x - y = 1, x = 3: the third row is left over as 0 = 1
    rows = [{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}, {0: 1, 2: 3}]
    with pytest.raises(DomainError, match="inconsistent"):
        _solve_int_system(rows, 2)


def test_unique_rational_solution_raises():
    # x + y = 2, x - y = 1: x = 3/2
    rows = [{0: 1, 1: 1, 2: 2}, {0: 1, 1: -1, 2: 1}]
    with pytest.raises(DomainError, match="non-integer"):
        _solve_int_system(rows, 2)


def test_errors_keep_their_order():
    # underdetermined before inconsistent: column 1 is missing and 0 = 1
    with pytest.raises(DomainError, match="underdetermined"):
        _solve_int_system([{0: 1, 2: 1}, {2: 1}], 2)
    # inconsistent before non-integer: 2x = 1 and 0 = 1
    with pytest.raises(DomainError, match="inconsistent"):
        _solve_int_system([{0: 2, 1: 1}, {1: 1}], 1)


# -- random systems ------------------------------------------------------------

@st.composite
def integral_systems(draw):
    """A sparse nonsingular n x n integer matrix A = L U (L unit lower,
    U upper with nonzero diagonal, both sparse) with columns permuted,
    a random integer solution x and b = A x, plus redundant rows (integer
    combinations of the others) and all-zero rows, shuffled."""
    n = draw(st.integers(1, 9))
    small = st.integers(-3, 3)
    sparse = st.one_of(st.just(0), st.just(0), small)
    lower = [[1 if i == j else (draw(sparse) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[draw(st.sampled_from([-2, -1, 1, 2, 3])) if i == j
              else (draw(sparse) if j > i else 0)
              for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    x = [draw(st.integers(-6, 6)) for _ in range(n)]
    rows = []
    for i in range(n):
        a = [sum(lower[i][k] * upper[k][j] for k in range(n))
             for j in range(n)]
        row = {perm[j]: a[j] for j in range(n)}
        row[n] = sum(a[j] * x[perm[j]] for j in range(n))
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(sparse) for _ in rows]
        combo = {}
        for f, row in zip(coeffs, rows):
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + f * v
        rows.append(combo)
    rows += [{}] * draw(st.integers(0, 2)) + [{0: 0, n: 0}]
    rows = draw(st.permutations(rows))
    return rows, n, x


@settings(max_examples=150)
@given(integral_systems())
def test_unique_integral_solution_matches_dense_reference(system):
    rows, n, x = system
    assert outcome(dense_reference, rows, n) == x
    assert outcome(_solve_int_system, rows, n) == x


@st.composite
def arbitrary_systems(draw):
    """Any sparse integer system: mostly singular, inconsistent or with a
    rational solution, sometimes uniquely solvable."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    nrows = draw(st.integers(0, ncols + 3))
    rows = []
    for _ in range(nrows):
        row = {c: draw(entry) for c in range(ncols + 1)}
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


@settings(max_examples=300)
@given(arbitrary_systems())
def test_any_system_matches_dense_reference(system):
    rows, ncols = system
    assert (outcome(_solve_int_system, rows, ncols)
            == outcome(dense_reference, rows, ncols))
