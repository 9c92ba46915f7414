"""`smith_normal_form` against sympy's invariant factors, over Z, Q[t],
F_2[t] and F_3[t].

Over Lambda = k[t^{+-1}] the invariant factors are those over k[t] with the
powers of t (units of Lambda) removed, so each side is normalised to a monic
polynomial with nonzero constant term before the comparison.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from ess.coeffs import FieldDescriptor  # noqa: E402
from ess.groupring import GroupDescriptor, GroupRingElem  # noqa: E402
from ess.modz import _LaurentCtx, smith_normal_form  # noqa: E402
from linalg_oracle import Scalar  # noqa: E402

Q = FieldDescriptor.rationals()
GZ = GroupDescriptor.free_abelian(1)
X = sympy.Symbol("x")


def random_matrices(rng, count, entry, factor):
    """Small products L D R of sympy matrices with D diagonal of random size
    r <= min(rows, cols): rank-deficient when r is smaller (the zero matrix
    included), and with invariant factors built from the entries of D."""
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(n, m))
        left = sympy.Matrix(n, r, lambda i, j: entry())
        right = sympy.Matrix(r, m, lambda i, j: entry())
        middle = sympy.diag(*[factor() for _ in range(r)]) if r else sympy.zeros(0, 0)
        yield (left * middle * right).applyfunc(sympy.expand)


def test_integer_invariant_factors_match_sympy():
    rng = random.Random(31)
    factors = (1, 1, 2, 3, 4, 6)
    for A in random_matrices(rng, 120, lambda: rng.randint(-3, 3),
                             lambda: rng.choice(factors)):
        ours = smith_normal_form([[int(x) for x in A.row(i)] for i in range(A.rows)])
        theirs = [abs(int(d)) for d in invariant_factors(A, domain=sympy.ZZ) if d != 0]
        assert [abs(d) for d in ours if d] == theirs, A


def canonical(d):
    """The monic associate of d with nonzero constant term, as {degree:
    coefficient}: the normal form of a class of associates in Lambda."""
    lo, hi = min(d.terms)[0], max(d.terms)[0]
    inv = Scalar.of(d.field, d.terms[(hi,)]).inverse()
    return {k - lo: inv * c for (k,), c in d.terms.items()}


def to_laurent(f, field):
    """The polynomial f in x as an element of field[t^{+-1}]."""
    if field.kind == "Q":
        poly = sympy.Poly(f, X, domain=sympy.QQ)
        coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]
    else:
        coeffs = [int(c) for c in sympy.Poly(f, X, modulus=field.p).all_coeffs()]
    out = GroupRingElem.zero(GZ, field)
    for k, c in enumerate(reversed(coeffs)):
        out = out + GroupRingElem.monomial(GZ, field, (k,), c)
    return out


def assert_polynomial_factors_match(field, domain, seed, count, scalars):
    rng = random.Random(seed)

    def entry():
        # polynomials in t of degree <= 2 with small coefficients
        return sum(rng.choice(scalars) * X ** k for k in range(3) if rng.random() < 0.6)

    factors = (1, 1, X - 1, X + 1, (X - 1) ** 2, X ** 2 + X + 1, 2 * X)

    ctx = _LaurentCtx(field)
    for A in random_matrices(rng, count, entry, lambda: rng.choice(factors)):
        ours = smith_normal_form([[to_laurent(x, field).terms for x in A.row(i)]
                                  for i in range(A.rows)], field)
        theirs = [to_laurent(d, field) for d in invariant_factors(A, domain=domain[X])]
        assert [canonical(ctx.lift(d)) for d in ours if not ctx.is_zero(d)] == \
            [canonical(d) for d in theirs if not d.is_zero()], A


def test_polynomial_invariant_factors_match_sympy():
    halves = [sympy.Rational(a, b) for a in range(-3, 4) for b in (1, 2)]
    assert_polynomial_factors_match(Q, sympy.QQ, 32, 60, halves)


@pytest.mark.parametrize("p", [2, 3])
def test_polynomial_invariant_factors_match_sympy_mod_p(p):
    # over F_p[t]; the sympy domain GF(p)[x] reduces the integer entries
    assert_polynomial_factors_match(FieldDescriptor.prime_field(p), sympy.GF(p), 40 + p, 60,
                                    list(range(-2, 3)))
