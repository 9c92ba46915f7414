import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linalg_oracle as linalg
from ess.coeffs import (FieldDescriptor, FieldElem, LaurentRing, _modulus,
                        cyclotomic_polynomial, divisors, prime_power, rank_exact)
from ess.errors import CoefficientError, DescriptorMismatch

Q = FieldDescriptor.rationals()
RING = LaurentRing(Q)
T = sympy.Symbol("t")


def poly_div_oracle(num, den):
    # independent long division (sympy) used to freeze expected cyclotomic values
    quo, rem = sympy.div(sympy.Poly(list(reversed(num)), T), sympy.Poly(list(reversed(den)), T))
    assert rem.is_zero
    return tuple(int(c) for c in reversed(quo.all_coeffs()))


def _raw(coeffs):
    """A polynomial with integer coefficients, lowest degree first, as an
    element of Q[t^+-1]."""
    return RING._make(0, list(coeffs))


def test_phi_1_is_t_minus_1():
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_phi_prime_power_at_1():
    for d, p in [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (27, 3), (5, 5), (49, 7)]:
        assert sum(cyclotomic_polynomial(d)) == p


def test_phi_6_by_division_oracle():
    t6 = (-1, 0, 0, 0, 0, 0, 1)
    den = RING.one
    for e in (1, 2, 3):
        den = RING.mul(den, _raw(cyclotomic_polynomial(e)))
    assert cyclotomic_polynomial(6) == poly_div_oracle(t6, den[1]) == (1, -1, 1)


def test_phi_product_identity_sample():
    for d in (12, 30, 60):
        prod = RING.one
        for e in divisors(d):
            prod = RING.mul(prod, _raw(cyclotomic_polynomial(e)))
        assert prod == RING.sub((d, (1,), 1), RING.one)


def test_phi_1_at_nonprime_power():
    for d in (6, 10, 12, 15, 30):
        assert prime_power(d) is None
        assert sum(cyclotomic_polynomial(d)) == 1


def test_phi_matches_sympy():
    for d in range(1, 251):
        want = sympy.Poly(sympy.cyclotomic_poly(d, T), T).all_coeffs()
        assert cyclotomic_polynomial(d) == tuple(int(c) for c in reversed(want)), d


def test_lemma_cyclo_property():
    # Q = Phi_{p^r} * R vanishes at zeta_{p^r}; then Q(1) = 0 mod p
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 2)
        R = _raw([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        Qpoly = RING.mul(_raw(cyclotomic_polynomial(p**r)), R)
        assert sum(Qpoly[1]) % p == 0


def test_field_descriptor_parse_roundtrip():
    for text in ("Q", "Z", "Fp:5", "cyclotomic:6"):
        assert str(FieldDescriptor.parse(text)) == text


def test_prime_field_rejects_composite():
    with pytest.raises(CoefficientError):
        FieldDescriptor.prime_field(6)


def test_zeta_order_and_inverse():
    for d in (1, 2, 3, 4, 5, 6, 12):
        F = FieldDescriptor.cyclotomic(d)
        z = F.zeta()
        assert z**d == F.one()
        for k in range(1, d):
            assert z**k != F.one(), (d, k)
        assert z.inverse() * z == F.one()


def test_degenerate_cyclotomic_orders():
    assert FieldDescriptor.cyclotomic(1).zeta() == FieldDescriptor.cyclotomic(1).one()
    F2c = FieldDescriptor.cyclotomic(2)
    assert F2c.zeta() == -F2c.one()


def test_inverse_in_f5():
    F5 = FieldDescriptor.prime_field(5)
    assert F5.from_int(2).inverse() == F5.from_int(3)
    with pytest.raises(CoefficientError):
        F5.zero().inverse()


def test_cyclotomic_inverse_via_product():
    F = FieldDescriptor.cyclotomic(6)
    rng = random.Random(11)
    for _ in range(20):
        a = F.zeta() * rng.randint(1, 5) + rng.randint(-3, 3)
        if a.is_zero():
            continue
        assert a * a.inverse() == F.one()


@st.composite
def cyclotomic_elements(draw):
    """A nonzero element of Q(zeta_d): a few coordinates set (sparse, often
    with constant term 0) or every coordinate drawn."""
    F = FieldDescriptor.cyclotomic(draw(st.sampled_from((1, 2, 3, 4, 5, 12, 15, 30, 210))))
    frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    if draw(st.booleans()):
        pay = [Fraction(0)] * F.degree
        for i, c in draw(st.lists(st.tuples(st.integers(0, F.degree - 1), frac), min_size=1,
                                  max_size=3)):
            pay[i] = c
    else:
        pay = draw(st.lists(frac, min_size=F.degree, max_size=F.degree))
    a = FieldElem(F, tuple(pay))
    assume(not a.is_zero())
    return a


@settings(max_examples=150, deadline=None)
@given(a=cyclotomic_elements())
def test_cyclotomic_inverse_property(a):
    assert a * a.inverse() == a.field.one()


def test_rank_identity_over_fields():
    for F in (Q, FieldDescriptor.prime_field(7), FieldDescriptor.cyclotomic(5)):
        n = 4
        I = [[F.from_int(1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert rank_exact(I) == n


def test_rank_zeta_column():
    # circle boundary evaluated at a root of unity: rank 1
    for d in (2, 3, 6):
        F = FieldDescriptor.cyclotomic(d)
        col = [[F.zeta() - F.one()], [F.zeta() - F.one()]]
        assert rank_exact(col) == 1


def test_rank_transpose_property():
    rng = random.Random(3)
    for _ in range(30):
        F = rng.choice([Q, FieldDescriptor.prime_field(5)])
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[F.from_int(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        tr = [[mat[i][j] for i in range(n)] for j in range(m)]
        assert rank_exact(mat) == rank_exact(tr)


def test_rank_descriptor_mismatch():
    F5 = FieldDescriptor.prime_field(5)
    with pytest.raises(DescriptorMismatch):
        rank_exact([[Q.one(), F5.one()]])


def test_rank_rational_entries():
    mat = [
        [Q.from_fraction(Fraction(1, 2)), Q.from_fraction(Fraction(1, 3))],
        [Q.from_fraction(Fraction(3, 2)), Q.from_fraction(Fraction(1, 1))],
    ]
    assert rank_exact(mat) == 1


def test_minor_congruence_property():
    # rank over Q(zeta_{p^r}) at zeta >= rank over F_p at 1, random matrices
    rng = random.Random(17)
    for trial in range(25):
        p, r = rng.choice([(2, 1), (2, 2), (3, 1), (5, 1)])
        d = p**r
        F = FieldDescriptor.cyclotomic(d)
        Fp = FieldDescriptor.prime_field(p)
        z = F.zeta()
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        zmat, pmat = [], []
        for i in range(n):
            zrow, prow = [], []
            for j in range(m):
                terms = [(rng.randint(-2, 2), rng.randint(-3, 3)) for _ in range(3)]
                zval = F.zero()
                ival = 0
                for e, c in terms:
                    zval = zval + z ** (e % d) * c
                    ival += c
                zrow.append(zval)
                prow.append(Fp.from_int(ival))
            zmat.append(zrow)
            pmat.append(prow)
        assert rank_exact(zmat) >= rank_exact(pmat), trial


# An entry of Q(zeta_d): terms (exponent, numerator, denominator).
_ENTRY = st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 3), st.integers(1, 3)),
                  max_size=3)


@st.composite
def cyclotomic_matrices(draw):
    """Random matrices over Q(zeta_d), d <= 30, and products B*C through an
    inner dimension k, whose rank is at most k < min(m, n) when min(m, n) > 1."""
    F = FieldDescriptor.cyclotomic(draw(st.integers(1, 30)))
    z = F.zeta()

    def matrix(rows, cols):
        spec = draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return [[sum((z**e * Fraction(c, den) for e, c, den in entry), F.zero())
                 for entry in row] for row in spec]

    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return matrix(m, n)
    k = draw(st.integers(1, max(1, min(m, n) - 1)))
    B, C = matrix(m, k), matrix(k, n)
    return [[sum((B[i][l] * C[l][j] for l in range(k)), F.zero()) for j in range(n)]
            for i in range(m)]


@settings(max_examples=80, deadline=None)
@given(mat=cyclotomic_matrices())
def test_cyclotomic_rank_matches_rref(mat):
    assert rank_exact(mat) == linalg.rank_of(mat[0][0].field, mat)


def test_cyclotomic_rank_survives_unlucky_primes():
    # Each matrix has full rank over Q(zeta_d) but loses rank modulo the
    # first prime(s) of the stream, so one prime alone would certify too little.
    for d in (1, 2, 3, 4, 6, 7, 30):
        F = FieldDescriptor.cyclotomic(d)
        (l1, w1), (l2, _) = _modulus(d, 0), _modulus(d, 1)
        assert (l1 - 1) % d == 0 and pow(w1, d, l1) == 1
        unlucky = [
            [[F.from_int(l1)]],
            [[F.from_int(l1 * l2), F.zero()], [F.zero(), F.one()]],
            [[F.one(), F.one()], [F.one(), F.from_int(1 + l1)]],
        ]
        if F.degree > 1:  # zeta - omega_1 lies in the prime (l1, s - omega_1)
            unlucky.append([[F.zeta() - w1]])
        for mat in unlucky:
            assert rank_exact(mat) == len(mat), (d, mat)


def test_rank_over_fp_matches_rref():
    rng = random.Random(23)
    for _ in range(40):
        F = FieldDescriptor.prime_field(rng.choice([2, 3, 5, 7, 2**61 - 1]))
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[F.from_int(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
        assert rank_exact(mat) == linalg.rank_of(F, mat)
