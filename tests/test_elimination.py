"""The sparse column echelon of `ess.coeffs` against the dense oracle.

`kernel`, `Echelon.add`/`reduce` and `solve_mod` must give what
`linalg_oracle`'s `kernel_basis`, `in_span` and `solve_mod_subspace` give: the
same kernel basis vector for vector, the same span tests, the same
coordinates, and a CoefficientError in the same two cases.  The echelon works
on raw payload columns, the oracle on `linalg_oracle.Scalar` vectors.
"""

from fractions import Fraction

import pytest
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
