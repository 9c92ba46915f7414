import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

import linalg_oracle as linalg
from ess.coeffs import (_MR_BASES, FieldDescriptor, LaurentRing, _modulus,
                        cyclotomic_polynomial, cyclotomic_rank, divisors, is_prime, prime_power,
                        rank_exact)
from ess.errors import CoefficientError

Q = FieldDescriptor.rationals()
RING = LaurentRing(Q)
T = sympy.Symbol("t")


def poly_div_oracle(num, den):
    # independent long division (sympy) used to freeze expected cyclotomic values
    quo, rem = sympy.div(sympy.Poly(list(reversed(num)), T), sympy.Poly(list(reversed(den)), T))
    assert rem.is_zero
    return tuple(int(c) for c in reversed(quo.all_coeffs()))


@lru_cache(maxsize=None)
def _phi(d):
    return sympy.Poly(sympy.cyclotomic_poly(d, T), T, domain=QQ)


def _phi_degree(d):
    return _phi(d).degree()


def _payload(d, poly):
    """sympy's remainder of a polynomial in t by Phi_d, as the phi(d)
    coefficients (Fractions, lowest degree first) of an element of Q(zeta_d)
    in the power basis."""
    rem = sympy.rem(sympy.Poly(poly, T, domain=QQ), _phi(d))
    pay = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(rem.all_coeffs())]
    return tuple(pay) + (Fraction(0),) * (_phi_degree(d) - len(pay))


def _entry(terms):
    """The entry {k: c} of `cyclotomic_rank` standing for sum c zeta^k over
    the (exponent, coefficient) pairs, repeated exponents summed."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return out


def _block_rank(d, rows):
    """phi(d) * rank over Q(zeta_d), independently of ess: each entry {k: c}
    is reduced to the power basis (t^(k mod d), then sympy.rem by Phi_d), and
    a = sum a_i zeta^i becomes a(Comp(Phi_d)) = sum a_i Comp(Phi_d)^i, Comp
    the companion matrix; the rank is taken over Q of the block matrix.
    Column j of a(Comp) holds the coefficients of a * t^j mod Phi_d."""
    deg = _phi_degree(d)
    blocks = []
    for row in rows:
        block_row = [[] for _ in range(deg)]
        for a in row:
            poly = sum((sympy.Rational(c.numerator, c.denominator) * T**(k % d)
                        for k, c in a.items()), sympy.Integer(0))
            cols = [_payload(d, poly * T**j) for j in range(deg)]
            for i in range(deg):
                block_row[i].extend(QQ(cols[j][i].numerator, cols[j][i].denominator)
                                    for j in range(deg))
        blocks.extend(block_row)
    return DomainMatrix(blocks, (len(blocks), len(blocks[0])), QQ).rank()


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


def _is_prime_12_bases(n):
    """Miller-Rabin on the first 12 primes, exact below 3.18e23."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, odd, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def test_is_prime_below_two_to_64_matches_twelve_bases():
    """Sinclair's seven bases below 2^64 against the 12 prime bases: every
    n < 10^6, the strong pseudoprimes to the first few prime bases, and
    odd numbers near 2^62 (where _modulus searches) and 2^64."""
    N = 10**6
    sieve = bytearray([1]) * N
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(N) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, N, k)))
    assert [n for n in range(N) if is_prime(n)] == [n for n in range(N) if sieve[n]]
    assert all(map(_is_prime_12_bases, (2, 3, 37, 41, 999983))) and not _is_prime_12_bases(25)
    pseudo = [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051]
    rng = random.Random(64)
    for n in pseudo + [rng.randrange(2**b - 2**20, 2**b) | 1 for b in (62, 64) for _ in range(300)]:
        assert is_prime(n) == _is_prime_12_bases(n), n
    assert not any(map(is_prime, pseudo))
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and not is_prime(2**64 + 1)


def _prime_power_by_trial_division(m):
    factors, n, f = [], m, 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    factors += [n] if n > 1 else []
    return (factors[0], len(factors)) if len(set(factors)) == 1 else None


def test_prime_power_from_exact_roots_matches_trial_division():
    """Every m < 3 * 10^4 and seeded m below 10^10, then prime powers and
    their multiples of every size up to the exact bound: the answer of
    trial division, from r-th roots and is_prime alone."""
    rng = random.Random(27)
    for m in list(range(2, 30000)) + [rng.randrange(2, 10**10) for _ in range(300)]:
        assert prime_power(m) == _prime_power_by_trial_division(m), m
    for p in (2, 3, 5, 7, 101, 65537, 1000003, 999999999989):
        for r in range(1, 80):
            if p ** r < 318665857834031151167461:
                assert prime_power(p ** r) == (p, r), (p, r)
                assert prime_power(p ** r * 6) is None, (p, r)
    # past the exact bound: a small or witnessed factor still decides, and 2^89 - 1,
    # a prime no base proves composite, is refused
    assert prime_power(2 ** 200) == (2, 200) and prime_power(41 ** 20) == (41, 20)
    assert prime_power(6 ** 40) is None and prime_power(41 * 43 ** 15) is None
    with pytest.raises(CoefficientError, match="too large for an exact primality test"):
        prime_power(2 ** 89 - 1)
    with pytest.raises(CoefficientError, match="too large for an exact primality test"):
        prime_power((2 ** 89 - 1) ** 2)


def _prime_power_over_all_exponents(m):
    """prime_power as it was before small primes and prime exponents: one
    Newton root from 2^ceil(log2(m) / r) for every r < log2 m."""
    for r in range(1, m.bit_length()):
        p = 1 << -(-m.bit_length() // r)
        while (y := ((r - 1) * p + m // p ** (r - 1)) // r) < p:
            p = y
        if p ** r == m and is_prime(p):
            return p, r
    return None


def test_prime_power_from_small_primes_and_prime_exponents_matches_all_exponents():
    """Every m < 5000, and powers of primes near 2^61 (2^61 - 1 and the next
    two) with r up to 7, (p^2)^3 and products of two of them: the same
    answer as a root for every exponent."""
    for m in range(1, 5000):
        assert prime_power(m) == _prime_power_over_all_exponents(m), m
    near = [2 ** 61 - 1] + [n for n in range(2 ** 61, 2 ** 61 + 200) if is_prime(n)][:2]
    assert len(near) == 3
    for p in near:
        cases = [p ** r for r in range(1, 8)] + [(p ** 2) ** 3] + \
            [p * q for q in near if q != p] + [p ** 3 * q ** 2 for q in near if q != p]
        for m in cases:
            assert prime_power(m) == _prime_power_over_all_exponents(m), (p, m)
        assert prime_power((p ** 2) ** 3) == (p, 6)
    # a prime of _MR_BASES dividing m decides at once: 17 | 10^1000 + 1
    assert prime_power(10 ** 1000 + 1) is None and prime_power(7 ** 1000) == (7, 1000)


def test_is_prime_proves_compositeness_past_the_exact_bound():
    """A witness is a proof at any size; a number no base witnesses is
    refused past the bound, prime (2^127 - 1) or not (the bound itself is a
    strong pseudoprime to all 12 bases)."""
    big = 318665857834031151167461
    assert not is_prime(2 ** 100) and not is_prime(3 * (2 ** 89 - 1))
    assert not is_prime(big * 1000003) and not is_prime(big + 2)
    for n in (2 ** 127 - 1, big):
        with pytest.raises(CoefficientError, match="too large for an exact primality test"):
            is_prime(n)


def test_prime_field_rejects_composite():
    with pytest.raises(CoefficientError):
        FieldDescriptor.prime_field(6)


def test_inverse_in_f5():
    F5 = FieldDescriptor.prime_field(5)
    assert F5.from_fraction(Fraction(1, 2)) == 3
    assert F5.from_fraction(Fraction(-7, 3)) == 1
    with pytest.raises(CoefficientError):
        F5.from_fraction(Fraction(1, 5))


def test_from_fraction_returns_payloads():
    F7 = FieldDescriptor.prime_field(7)
    assert F7.from_fraction(-1) == 6 and type(F7.from_fraction(-1)) is int
    # over Q an integral value is an int, and only a non-integral one a Fraction
    assert Q.from_fraction(3) == 3 and type(Q.from_fraction(3)) is int
    assert type(Q.from_fraction(Fraction(-6, 3))) is int
    assert Q.from_fraction(Fraction(2, 4)) == Fraction(1, 2)
    assert type(Q.from_fraction(Fraction(2, 4))) is Fraction
    assert type(Q._of_int(5)) is int and Q._inv(-1) == -1 and type(Q._inv(-1)) is int
    assert Q._inv(4) == Fraction(1, 4) and type(Q._inv(4)) is Fraction
    cyc = FieldDescriptor.cyclotomic(5)
    assert cyc.from_fraction(Fraction(2, 4)) == Fraction(1, 2)
    assert type(cyc.from_fraction(Fraction(2, 4))) is Fraction
    assert type(cyc.from_fraction(Fraction(4, 2))) is int
    ZZ = FieldDescriptor.integers()
    assert ZZ.from_fraction(Fraction(-6, 3)) == -2 and type(ZZ.from_fraction(Fraction(4))) is int


def test_from_fraction_refuses_what_the_descriptor_cannot_hold():
    # over Z a non-integral rational is refused, never truncated; over F_3 a
    # denominator divisible by 3 has no inverse
    with pytest.raises(CoefficientError):
        FieldDescriptor.integers().from_fraction(Fraction(1, 2))
    with pytest.raises(CoefficientError):
        FieldDescriptor.prime_field(3).from_fraction(Fraction(1, 3))


def test_rank_identity_over_fields():
    for F in (Q, FieldDescriptor.prime_field(7), FieldDescriptor.cyclotomic(5)):
        n = 4
        I = [[F.from_fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert rank_exact(F, I) == n


def test_rank_zeta_column():
    # circle boundary evaluated at a root of unity: rank 1
    for d in (2, 3, 6):
        col = [[{1: 1, 0: -1}], [{1: 1, 0: -1}]]
        assert cyclotomic_rank(d, col) == 1
        assert _phi_degree(d) == _block_rank(d, col)


def test_rank_transpose_property():
    rng = random.Random(3)
    for _ in range(30):
        F = rng.choice([Q, FieldDescriptor.prime_field(5)])
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[F.from_fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        tr = [[mat[i][j] for i in range(n)] for j in range(m)]
        assert rank_exact(F, mat) == rank_exact(F, tr)


_PRIMES = (2, 3, 5, 7, 2**61 - 1)


@st.composite
def raw_matrices(draw):
    """(characteristic, rows of ints or Fractions): random matrices, some of
    them products B*C through a small inner dimension, so rank-deficient."""
    p = draw(st.sampled_from((0,) + _PRIMES))
    entry = (st.integers(-4, 4) if p else
             st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()) or min(m, n) < 2:
        return p, matrix(m, n)
    k = draw(st.integers(1, min(m, n) - 1))
    B, C = matrix(m, k), matrix(k, n)
    return p, [[sum(B[i][l] * C[l][j] for l in range(k)) for j in range(n)] for i in range(m)]


@settings(max_examples=150, deadline=None)
@given(case=raw_matrices())
def test_rank_exact_matches_sympy(case):
    """rank_exact on raw payload rows against sympy: Matrix.rank() over Q, a
    DomainMatrix over GF(p).  Over Z it gets the rational matrix times the
    lcm of its denominators, integer-valued and of the same rank."""
    p, mat = case
    if p:
        F = FieldDescriptor.prime_field(p)
        rows = [[F.from_fraction(x) for x in row] for row in mat]
        want = (DomainMatrix([[GF(p)(x) for x in row] for row in mat],
                             (len(mat), len(mat[0])), GF(p)).rank()
                if mat and mat[0] else 0)
        assert rank_exact(F, rows) == want
    else:
        want = sympy.Matrix(mat).rank() if mat and mat[0] else 0
        for F in (Q, FieldDescriptor.cyclotomic(6)):
            assert rank_exact(F, [[F.from_fraction(x) for x in row] for row in mat]) == want
        Z, den = FieldDescriptor.integers(), math.lcm(*(x.denominator for row in mat for x in row))
        assert rank_exact(Z, [[Z.from_fraction(x * den) for x in row] for row in mat]) == want


def test_rank_exact_on_dense_matrices_matches_sympy():
    """rank_exact at the sizes of a dense elimination, 15-40 rows and
    columns, against sympy's DomainMatrix over QQ: seeded full-rank and
    rank-deficient products B*C, with int or Fraction entries, over Q,
    Q(zeta_6) and (times the lcm of the denominators) Z."""
    rng = random.Random(29)
    Z, cyc6 = FieldDescriptor.integers(), FieldDescriptor.cyclotomic(6)
    deficient = 0
    for trial in range(24):
        m, n = rng.randint(15, 40), rng.randint(15, 40)
        frac = trial % 2

        def entry():
            x = rng.randint(-9, 9)
            return Fraction(x, rng.randint(1, 4)) if frac else x

        def matrix(rows, cols):
            return [[entry() for _ in range(cols)] for _ in range(rows)]

        if trial % 3:
            k = rng.randint(1, min(m, n) - 1)
            B, C = matrix(m, k), matrix(k, n)
            mat = [[sum(B[i][l] * C[l][j] for l in range(k)) for j in range(n)] for i in range(m)]
        else:
            mat = matrix(m, n)
        want = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in mat],
                            (m, n), QQ).rank()
        deficient += want < min(m, n)
        for F in (Q, cyc6):
            assert rank_exact(F, [[F.from_fraction(x) for x in row] for row in mat]) == want
        den = math.lcm(*(x.denominator for row in mat for x in row))
        assert rank_exact(Z, [[Z.from_fraction(x * den) for x in row] for row in mat]) == want
    assert deficient >= 16  # every product B*C


def test_rank_rational_entries():
    mat = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rank_exact(Q, mat) == 1


def test_minor_congruence_property():
    # rank over Q(zeta_{p^r}) at zeta >= rank over F_p at 1, random matrices
    rng = random.Random(17)
    for trial in range(25):
        p, r = rng.choice([(2, 1), (2, 2), (3, 1), (5, 1)])
        d = p**r
        Fp = FieldDescriptor.prime_field(p)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        zmat, pmat = [], []
        for i in range(n):
            zrow, prow = [], []
            for j in range(m):
                terms = [(rng.randint(-2, 2), rng.randint(-3, 3)) for _ in range(3)]
                zrow.append(_entry(terms))
                prow.append(Fp.from_fraction(sum(c for _, c in terms)))
            zmat.append(zrow)
            pmat.append(prow)
        rank = cyclotomic_rank(d, zmat)
        assert rank * _phi_degree(d) == _block_rank(d, zmat), trial
        assert rank >= rank_exact(Fp, pmat), trial


# An entry of Q(zeta_d): terms (exponent, numerator, denominator).
_ENTRY = st.lists(st.tuples(st.integers(-40, 40), st.integers(-3, 3), st.integers(1, 3)),
                  max_size=3)


@st.composite
def cyclotomic_matrices(draw):
    """(d, rows of entries {k: c}): random matrices over Q(zeta_d), d <= 30,
    with the exponents of each entry multiplied by a power prime to d (so
    negative and >= d), and products B*C through an inner dimension k, whose
    rank is at most k < min(m, n) when min(m, n) > 1.  Products are taken in
    Q[t^+-1], before zeta^d = 1 is used."""
    d = draw(st.integers(1, 30))
    power = draw(st.sampled_from([a for a in range(1, d + 1) if math.gcd(a, d) == 1]))

    def matrix(rows, cols):
        spec = draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return [[_entry((e * power, Fraction(c, den)) for e, c, den in entry)
                 for entry in row] for row in spec]

    def product(a, b):
        return _entry((k + l, x * y) for k, x in a.items() for l, y in b.items())

    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return d, matrix(m, n)
    k = draw(st.integers(1, max(1, min(m, n) - 1)))
    B, C = matrix(m, k), matrix(k, n)
    return d, [[_entry((e, c) for l in range(k) for e, c in product(B[i][l], C[l][j]).items())
                for j in range(n)] for i in range(m)]


@settings(max_examples=80, deadline=None)
@given(case=cyclotomic_matrices())
def test_cyclotomic_rank_matches_rref(case):
    d, mat = case
    assert cyclotomic_rank(d, mat) * _phi_degree(d) == _block_rank(d, mat)


def test_cyclotomic_rank_survives_unlucky_primes():
    # Each matrix has full rank over Q(zeta_d) but loses rank modulo the
    # first prime(s) of the stream, so one prime alone would certify too little.
    for d in (1, 2, 3, 4, 6, 7, 30):
        deg = _phi_degree(d)
        (l1, w1), (l2, _) = _modulus(d, 0), _modulus(d, 1)
        assert (l1 - 1) % d == 0 and pow(w1, d, l1) == 1

        def c(v):
            return {0: v}

        unlucky = [
            [[c(l1)]],
            [[c(l1 * l2), c(0)], [c(0), c(1)]],
            [[c(1), c(1)], [c(1), c(1 + l1)]],
        ]
        if deg > 1:  # zeta - omega_1 lies in the prime (l1, zeta - omega_1)
            unlucky.append([[{0: -w1, 1: 1}]])
        for mat in unlucky:
            assert cyclotomic_rank(d, mat) == len(mat), (d, mat)


def test_rank_over_fp_matches_rref():
    rng = random.Random(23)
    for _ in range(40):
        F = FieldDescriptor.prime_field(rng.choice([2, 3, 5, 7, 2**61 - 1]))
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[F.from_fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
        assert rank_exact(F, mat) == linalg.rank_of(F, mat)
