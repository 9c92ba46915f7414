"""`smith_normal_form` against sympy's invariant factors, over Z and Q[t].

Over Lambda = Q[t^{+-1}] the invariant factors are those over Q[t] with the
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
from ess.modz import smith_normal_form  # noqa: E402

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
        assert [abs(d) for d in ours.nonzero()] == theirs, A


def canonical(coeffs):
    """Coefficients (lowest degree first) of the monic associate with nonzero
    constant term: the normal form of a class of associates in Lambda."""
    lo = next(k for k, c in enumerate(coeffs) if c)
    return [c / coeffs[-1] for c in coeffs[lo:]]


def poly_coeffs(f):
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(f, X, domain=sympy.QQ).all_coeffs())]


def to_laurent(f):
    out = GroupRingElem.zero(GZ, Q)
    for k, c in enumerate(poly_coeffs(f)):
        if c:
            out = out + GroupRingElem.monomial(GZ, Q, (k,), Q.from_fraction(c))
    return out


def test_polynomial_invariant_factors_match_sympy():
    rng = random.Random(32)

    def entry():
        # polynomials in t of degree <= 2 with small rational coefficients
        return sum(sympy.Rational(rng.randint(-3, 3), rng.choice((1, 2))) * X ** k
                   for k in range(3) if rng.random() < 0.6)

    factors = (1, 1, X - 1, X + 1, (X - 1) ** 2, X ** 2 + X + 1, 2 * X)

    for A in random_matrices(rng, 60, entry, lambda: rng.choice(factors)):
        ours = smith_normal_form([[to_laurent(x) for x in A.row(i)] for i in range(A.rows)])
        ours = [canonical([d.terms[(k,)].value if (k,) in d.terms else Fraction(0)
                           for k in range(max(e for e, in d.terms) + 1)])
                for d in ours.nonzero()]
        theirs = [canonical(poly_coeffs(d))
                  for d in invariant_factors(A, domain=sympy.QQ[X]) if d != 0]
        assert ours == theirs, A
