"""The sparse column echelon of `ess.coeffs` against the dense oracle.

`kernel`, `Echelon.add`/`reduce` and `solve_mod` must give what
`linalg_oracle`'s `kernel_basis`, `in_span` and `solve_mod_subspace` give: the
same kernel basis vector for vector, the same span tests, the same
coordinates, and a CoefficientError in the same two cases.  The echelon works
on raw payload columns, the oracle on `linalg_oracle.Scalar` vectors.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as linalg
from ess.coeffs import Echelon, FieldDescriptor
from ess.errors import CoefficientError
from ess.pages import kernel, solve_mod
from linalg_oracle import Scalar

FIELDS = [FieldDescriptor.rationals(), FieldDescriptor.prime_field(2),
          FieldDescriptor.prime_field(3)]

_SMALL = st.tuples(st.integers(-2, 2), st.integers(1, 3))


def _entry(field, a, b):
    """a/b over Q, a mod p over F_p."""
    return Scalar.of(field, Fraction(a, b) if field.kind == "Q" else a)


@st.composite
def matrices(draw):
    """(field, m x n matrix): random, or a product B*C through an inner
    dimension k < min(m, n), so that columns depend on each other."""
    field = draw(st.sampled_from(FIELDS))

    def matrix(rows, cols):
        return [[_entry(field, *draw(_SMALL)) for _ in range(cols)] for _ in range(rows)]

    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.booleans()) or min(m, n) == 1:
        return field, matrix(m, n)
    k = draw(st.integers(1, min(m, n) - 1))
    B, C = matrix(m, k), matrix(k, n)
    return field, [[sum((B[i][l] * C[l][j] for l in range(k)), Scalar.of(field, 0))
                    for j in range(n)] for i in range(m)]


def _raw(vec):
    """A Scalar vector as a sparse column of raw payloads."""
    return {i: x.v for i, x in enumerate(vec) if x}


def _columns(mat):
    """Dense column vectors and the same columns as sparse raw dicts."""
    dense = linalg.transpose(mat)
    return dense, [_raw(v) for v in dense]


def _dense(field, vec, n):
    """A sparse raw column as a dense Scalar vector."""
    out = linalg.zeros(field, n)
    for i, x in vec.items():
        out[i] = Scalar.of(field, x)
    return out


@settings(max_examples=150, deadline=None)
@given(case=matrices())
def test_kernel_is_the_rref_free_column_basis(case):
    field, mat = case
    n = len(mat[0])
    _, cols = _columns(mat)
    got = [_dense(field, rel, n) for rel in kernel(field, cols)]
    assert got == linalg.kernel_basis(field, mat, ncols=n)


@settings(max_examples=150, deadline=None)
@given(case=matrices(), coeffs=st.lists(_SMALL, min_size=6, max_size=6))
def test_echelon_add_and_reduce_match_in_span(case, coeffs):
    field, mat = case
    dense, cols = _columns(mat)
    ech, seen = Echelon(field), []
    for vec, col in zip(dense, cols):
        inside = linalg.in_span(field, seen, vec)
        rest = dict(col)
        assert (ech.reduce(rest) is None) == inside == (not rest)
        low = ech.add(dict(col))
        assert (low is None) == inside
        if low is not None:
            stored = ech.owner[low]
            assert low == max(stored) and stored[low]
        seen.append(vec)
    # coordinates over labelled columns rebuild the target from the remainder
    labelled = Echelon(field)
    for j, col in enumerate(cols):
        labelled.add(dict(col), j)
    target = [sum((_entry(field, *c) * v[i] for c, v in zip(coeffs, dense)), Scalar.of(field, 0))
              for i in range(len(mat))]
    target[0] = target[0] + _entry(field, *coeffs[-1])  # sometimes leaves the span
    rest, coords = _raw(target), {}
    assert (labelled.reduce(rest, coords) is None) == linalg.in_span(field, dense, target)
    rebuilt = _dense(field, rest, len(mat))
    for j, c in coords.items():
        rebuilt = [a + Scalar.of(field, c) * b for a, b in zip(rebuilt, dense[j])]
    assert rebuilt == target


def _solve_both(field, dense, cols, split, target):
    """solve_mod and solve_mod_subspace with the first `split` columns as the
    subspace: the coordinates, or the CoefficientError message."""
    answers = []
    for solve in (lambda: linalg.solve_mod_subspace(field, dense[split:], dense[:split], target),
                  lambda: solve_mod(field, cols[split:], cols[:split], [_raw(target)])[0]):
        try:
            answers.append(solve())
        except CoefficientError as exc:
            answers.append(str(exc))
    return answers


@settings(max_examples=150, deadline=None)
@given(case=matrices(), split=st.integers(0, 6),
       coeffs=st.lists(_SMALL, min_size=6, max_size=6), outside=st.booleans())
def test_solve_mod_matches_oracle(case, split, coeffs, outside):
    field, mat = case
    dense, cols = _columns(mat)
    target = [sum((_entry(field, *c) * v[i] for c, v in zip(coeffs, dense)), Scalar.of(field, 0))
              for i in range(len(mat))]
    if outside:
        target[-1] = target[-1] + 1
    expected, got = _solve_both(field, dense, cols, min(split, len(dense)), target)
    assert got == expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_mod_raises_in_both_cases(field):
    one, zero = Scalar.of(field, 1), Scalar.of(field, 0)
    e0, e1, e2 = ([one if i == j else zero for i in range(3)] for j in range(3))
    dense = [e0, e1, [one, one, zero]]  # the third generator is e0 + e1
    cols = [_raw(v) for v in dense]
    dependent = _solve_both(field, dense, cols, 0, e0)
    assert dependent == ["generators dependent modulo subspace"] * 2
    outside = _solve_both(field, dense[:2], cols[:2], 1, e2)
    assert outside == ["target not in span of generators + subspace"] * 2
    assert _solve_both(field, dense[:2], cols[:2], 1, [one, one + one, zero]) == [[one + one]] * 2


# ---------------------------------------------------------------------------
# The integer echelon over Q against sympy
# ---------------------------------------------------------------------------

QQ_FIELD = FieldDescriptor.rationals()


def _payload_type_is_exact(x):
    """An integral payload over Q is an int, and only a non-integral one a
    Fraction."""
    return type(x) is (int if Fraction(x).denominator == 1 else Fraction)


@st.composite
def sparse_rational_columns(draw):
    """(m, columns) over Q: sparse columns with int entries, or with some
    non-integral ones, and now and then a column that is a rational
    combination of earlier ones."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rational = draw(st.booleans())
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4) if rational else st.just(1))
    cols = []
    for _ in range(n):
        if cols and draw(st.integers(0, 3)) == 0:
            coeffs = [draw(entry) for _ in cols]
            col = {i: sum(c * v.get(i, 0) for c, v in zip(coeffs, cols)) for i in range(m)}
        else:
            col = {i: draw(entry) if draw(st.integers(0, 2)) else 0 for i in range(m)}
        cols.append({i: QQ_FIELD.from_fraction(x) for i, x in col.items() if x})
    return m, cols


def _sympy_value(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_matrix(m, cols):
    return sympy.Matrix(m, len(cols), lambda i, j: _sympy_value(cols[j].get(i, 0)))


@settings(max_examples=120, deadline=None)
@given(case=sparse_rational_columns())
def test_integer_echelon_pivots_and_rank_match_sympy(case):
    """Column j's pivot is the largest row i with rank A[i:, :j+1] >
    rank A[i:, :j]; a stored column is its input, or, once a step reduced it,
    a primitive integer column, and every stored column a step uses is
    integral."""
    m, cols = case
    A = _sympy_matrix(m, cols)
    ech, lows = Echelon(QQ_FIELD), []
    for j, col in enumerate(cols):
        lows.append(low := ech.add(dict(col)))
        grows = [i for i in range(m) if A[i:, :j + 1].rank() > A[i:, :j].rank()]
        assert low == (max(grows) if grows else None)
        if low is not None:
            stored = ech.owner[low]
            assert low == max(stored)
            assert stored == col or (all(type(x) is int for x in stored.values())
                                     and math.gcd(*stored.values()) == 1)
    assert sum(low is not None for low in lows) == A.rank()
    assert all(ech.reduce(dict(col)) is None for col in cols)
    for low in ech.ninv:  # the stored columns the second pass reduced with
        assert all(type(x) is int for x in ech.owner[low].values())


@settings(max_examples=120, deadline=None)
@given(case=sparse_rational_columns())
def test_integer_echelon_kernel_is_sympys_nullspace(case):
    """Each relation has coefficient 1 at its label, kills the matrix
    exactly, and is sympy's free-column nullspace vector."""
    m, cols = case
    A = _sympy_matrix(m, cols)
    rels = kernel(QQ_FIELD, cols)
    null = A.nullspace()
    assert len(rels) == len(null)
    for rel, vec in zip(rels, null):
        assert rel[max(rel)] == 1 and all(_payload_type_is_exact(x) for x in rel.values())
        dense = sympy.Matrix([_sympy_value(rel.get(j, 0)) for j in range(len(cols))])
        assert A * dense == sympy.zeros(m, 1)
        assert dense == vec


@settings(max_examples=120, deadline=None)
@given(case=sparse_rational_columns(), split=st.integers(0, 7),
       coeffs=st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                       min_size=7, max_size=7))
def test_integer_echelon_solve_mod_matches_sympy(case, split, coeffs):
    """The coordinates of a combination of gens + subspace are its
    coefficients on the gens, whenever the gens are independent modulo the
    subspace (sympy's ranks), and CoefficientError otherwise."""
    m, cols = case
    k = min(split, len(cols))
    A = _sympy_matrix(m, cols)
    target = {i: sum(c * Fraction(v.get(i, 0)) for c, v in zip(coeffs, cols)) for i in range(m)}
    target = {i: QQ_FIELD.from_fraction(x) for i, x in target.items() if x}
    if A.rank() != A[:, :k].rank() + len(cols) - k:
        with pytest.raises(CoefficientError):
            solve_mod(QQ_FIELD, cols[k:], cols[:k], [target])
        return
    (got,) = solve_mod(QQ_FIELD, cols[k:], cols[:k], [target])
    assert got == coeffs[k:len(cols)]
    assert all(_payload_type_is_exact(x) for x in got)
