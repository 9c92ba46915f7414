"""Exact coefficient arithmetic over Q, F_p, cyclotomic fields Q(zeta_d), and Z.

Cyclotomic fields are realized as Q[s]/(Phi_d(s)), so all ranks computed at
roots of unity are exact and Galois-invariant.  `rank_exact` never computes
with FieldElem: over Q it runs fraction-free Bareiss on integer rows, over
F_p it eliminates residues, and over Q(zeta_d) it takes ranks at a d-th root
of unity modulo primes ell = 1 (mod d) until a norm bound certifies the
largest one.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import CoefficientError, DescriptorMismatch, InputError


# Miller-Rabin on the first 12 primes as bases is exact for every n below
# this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below _MR_EXACT_BELOW,
    trial division above it."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        return all(n % f for f in range(41, math.isqrt(n) + 1, 2))
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def prime_power(m: int):
    """Return (p, r) if m = p^r with p prime and r >= 1, else None."""
    if m < 2:
        return None
    p = m
    for f in range(2, m + 1):
        if f * f > m:
            break
        if m % f == 0:
            p = f
            break
    r = 0
    while m % p == 0:
        m //= p
        r += 1
    return (p, r) if m == 1 else None


class IntPoly:
    """Dense integer polynomial, coefficients lowest degree first.

    Canonical form: no trailing zero coefficients (the zero polynomial is ()).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(int(x) for x in c)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, deg, coeff=1):
        return cls((0,) * deg + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * x for x in self.coeffs))
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def divmod_monic(self, d: "IntPoly"):
        """Division by a monic divisor; quotient and remainder stay integral."""
        if d.is_zero() or d.coeffs[-1] != 1:
            raise CoefficientError("divisor must be monic")
        rem = list(self.coeffs)
        dd = d.degree
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q[i - dd] = c
            for j, y in enumerate(d.coeffs):
                rem[i - dd + j] -= c * y
        return IntPoly(q), IntPoly(rem)

    def exact_div(self, d: "IntPoly") -> "IntPoly":
        q, r = self.divmod_monic(d)
        if not r.is_zero():
            raise CoefficientError("division not exact")
        return q

    def eval_int(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def content(self) -> int:
        from math import gcd

        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def __str__(self):
        return format_poly(self.coeffs, "t")

    __repr__ = __str__


def format_poly(coeffs, var: str) -> str:
    """Human form of a dense coefficient list, highest degree first."""
    if not any(coeffs):
        return "0"
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        if deg == 0:
            mono = str(abs(c))
        else:
            head = var if deg == 1 else f"{var}^{deg}"
            mono = head if abs(c) == 1 else f"{abs(c)}*{head}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by exact division of t^d - 1 by the
    product of Phi_e over proper divisors e of d.  Monic of degree phi(d)."""
    if d < 1:
        raise CoefficientError("d must be positive")
    if d == 1:
        return IntPoly((-1, 1))
    num = IntPoly.monomial(d, 1) - IntPoly.one()
    den = IntPoly.one()
    for e in divisors(d):
        if e < d:
            den = den * cyclotomic_polynomial(e)
    return num.exact_div(den)


# ---------------------------------------------------------------------------
# Field descriptors and elements
# ---------------------------------------------------------------------------

_Q, _FP, _CYC, _Z = "Q", "Fp", "cyclotomic", "Z"


class FieldDescriptor:
    """One of: the rationals, a prime field F_p, a cyclotomic field Q(zeta_d)
    realized as Q[s]/(Phi_d), or the ring Z (not a field; accepted where SNF
    over Z is needed).

    Instances are immutable; payloads are Fraction (Q), int in [0,p) (F_p),
    tuple of Fraction of length phi(d) (cyclotomic), or int (Z).
    """

    __slots__ = ("kind", "p", "d", "modulus", "degree")

    def __init__(self, kind, p=None, d=None):
        self.kind = kind
        self.p = p
        self.d = d
        if kind == _CYC:
            phi = cyclotomic_polynomial(d)
            self.modulus = tuple(Fraction(c) for c in phi.coeffs)
            self.degree = phi.degree
        else:
            self.modulus = None
            self.degree = 1

    @classmethod
    def rationals(cls):
        return _RATIONALS

    @classmethod
    def integers(cls):
        return _INTEGERS

    @classmethod
    def prime_field(cls, p: int):
        if not is_prime(p):
            raise CoefficientError(f"{p} is not prime")
        return cls(_FP, p=p)

    @classmethod
    def cyclotomic(cls, d: int):
        if d < 1:
            raise CoefficientError("cyclotomic order must be >= 1")
        return cls(_CYC, d=d)

    @classmethod
    def parse(cls, text: str) -> "FieldDescriptor":
        if text == "Q":
            return _RATIONALS
        if text == "Z":
            return _INTEGERS
        for prefix, make in (("Fp:", cls.prime_field), ("cyclotomic:", cls.cyclotomic)):
            if isinstance(text, str) and text.startswith(prefix):
                try:
                    n = int(text[len(prefix):])
                except ValueError:
                    raise InputError(f"{prefix}<n> needs an integer, got {text!r}") from None
                return make(n)
        raise InputError(f"unknown field descriptor {text!r}")

    def __str__(self):
        if self.kind == _FP:
            return f"Fp:{self.p}"
        if self.kind == _CYC:
            return f"cyclotomic:{self.d}"
        return self.kind

    __repr__ = __str__

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and (self.kind, self.p, self.d) == (other.kind, other.p, other.d)
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.d))

    @property
    def is_field(self) -> bool:
        return self.kind != _Z

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == _FP else 0

    # -- payload arithmetic --------------------------------------------------

    def from_int(self, v: int) -> "FieldElem":
        if self.kind == _Q:
            return FieldElem(self, Fraction(v))
        if self.kind == _FP:
            return FieldElem(self, v % self.p)
        if self.kind == _Z:
            return FieldElem(self, int(v))
        pay = (Fraction(v),) + (Fraction(0),) * (self.degree - 1)
        return FieldElem(self, pay)

    def from_fraction(self, v: Fraction) -> "FieldElem":
        if self.kind == _Q:
            return FieldElem(self, Fraction(v))
        if self.kind == _CYC:
            pay = (Fraction(v),) + (Fraction(0),) * (self.degree - 1)
            return FieldElem(self, pay)
        if v.denominator == 1:
            return self.from_int(v.numerator)
        if self.kind == _FP:
            inv = pow(v.denominator % self.p, -1, self.p)
            return FieldElem(self, v.numerator * inv % self.p)
        raise CoefficientError(f"cannot coerce {v} into {self}")

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def zeta(self) -> "FieldElem":
        """The distinguished primitive d-th root of unity (class of s)."""
        if self.kind != _CYC:
            raise CoefficientError("zeta only defined for cyclotomic fields")
        if self.degree == 1:
            # Phi_1 = s - 1 or Phi_2 = s + 1: s is a rational constant.
            root = 1 if self.d == 1 else -1
            return self.from_int(root)
        pay = [Fraction(0)] * self.degree
        pay[1] = Fraction(1)
        return FieldElem(self, tuple(pay))

    def _reduce_poly(self, coeffs):
        """Reduce a Fraction coefficient list mod Phi_d (monic)."""
        rem = list(coeffs)
        dd = self.degree
        mod = self.modulus
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            for j in range(dd + 1):
                rem[i - dd + j] -= c * mod[j]
        rem = rem[:dd]
        rem += [Fraction(0)] * (dd - len(rem))
        return tuple(rem)

    def _add(self, a, b):
        if self.kind == _FP:
            return (a + b) % self.p
        if self.kind == _CYC:
            return tuple(x + y for x, y in zip(a, b))
        return a + b

    def _neg(self, a):
        if self.kind == _FP:
            return (-a) % self.p
        if self.kind == _CYC:
            return tuple(-x for x in a)
        return -a

    def _mul(self, a, b):
        if self.kind == _FP:
            return a * b % self.p
        if self.kind != _CYC:
            return a * b
        out = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self._reduce_poly(out)

    def _is_zero(self, a) -> bool:
        if self.kind == _CYC:
            return all(x == 0 for x in a)
        return a == 0

    def _inv(self, a):
        if self._is_zero(a):
            raise CoefficientError("division by zero")
        if self.kind == _Q:
            return 1 / a
        if self.kind == _FP:
            return pow(a, -1, self.p)
        if self.kind == _Z:
            if a in (1, -1):
                return a
            raise CoefficientError(f"{a} is not a unit in Z")
        # extended Euclid in Q[s] against Phi_d
        r0, r1 = list(self.modulus), list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = next(c for c in reversed(r0) if c != 0)
        if sum(1 for c in r0 if c != 0) != 1 or r0.index(lead) != 0:
            raise CoefficientError("element not invertible mod Phi_d")
        return self._reduce_poly([c / lead for c in s0])


def _poly_divmod(a, b):
    a = list(a)
    db = max(i for i, c in enumerate(b) if c != 0)
    lead = b[db]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        f = a[i] / lead
        q[i - db] = f
        for j in range(db + 1):
            a[i - db + j] -= f * b[j]
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


_RATIONALS = FieldDescriptor(_Q)
_INTEGERS = FieldDescriptor(_Z)


class FieldElem:
    """An element of Q, F_p, Q(zeta_d), or Z, tied to its descriptor."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise DescriptorMismatch(
                    f"mixed coefficient domains {self.field} and {other.field}"
                )
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field._mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field._inv(self.value))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        if self.field.kind == _CYC:
            return format_poly(self.value, "z")
        return str(self.value)

    def __repr__(self):
        return f"{self} in {self.field}"

    def as_fraction(self) -> Fraction:
        if self.field.kind == _Q:
            return self.value
        if self.field.kind == _Z:
            return Fraction(self.value)
        raise CoefficientError(f"no canonical rational value in {self.field}")

    def as_int(self) -> int:
        if self.field.kind == _Z:
            return self.value
        if self.field.kind == _Q and self.value.denominator == 1:
            return self.value.numerator
        raise CoefficientError(f"{self} is not an integer")


def field_inverse(a: FieldElem) -> FieldElem:
    """Multiplicative inverse; cyclotomic case via extended Euclid mod Phi_d."""
    return a.inverse()


# ---------------------------------------------------------------------------
# Exact rank
# ---------------------------------------------------------------------------


def _rank_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination on an integer matrix."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    pr = 0
    for pc in range(ncols):
        piv = None
        for i in range(pr, nrows):
            if m[i][pc] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        for i in range(pr + 1, nrows):
            for j in range(pc + 1, ncols):
                m[i][j] = (m[pr][pc] * m[i][j] - m[i][pc] * m[pr][j]) // prev
            m[i][pc] = 0
        prev = m[pr][pc]
        pr += 1
        rank += 1
        if pr == nrows:
            break
    return rank


def _rank_mod(rows: list[list[int]], ell: int) -> int:
    """Rank over F_ell of a matrix of residues mod the prime ell."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for pc in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][pc]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        inv = pow(top[pc], -1, ell)
        for i in range(rank + 1, len(m)):
            f = m[i][pc] * inv % ell
            if f:
                m[i] = [(x - f * y) % ell for x, y in zip(m[i], top)]
        rank += 1
        if rank == len(m):
            break
    return rank


def _root_of_unity(d: int, ell: int) -> int:
    """A primitive d-th root of unity mod the prime ell = 1 (mod d)."""
    factors = [q for q in divisors(d) if q > 1 and is_prime(q)]
    for g in itertools.count(2):
        w = pow(g, (ell - 1) // d, ell)
        if all(pow(w, d // q, ell) != 1 for q in factors):
            return w


@lru_cache(maxsize=None)
def _modulus(d: int, i: int) -> tuple[int, int]:
    """(ell, omega): the i-th prime ell = 1 (mod d) below 2^62, counting down,
    and a primitive d-th root of unity omega mod ell."""
    ell = _modulus(d, i - 1)[0] - d if i else (2**62 - 2) // d * d + 1
    while not is_prime(ell):
        ell -= d
    return ell, _root_of_unity(d, ell)


def _cyclotomic_rank(field: FieldDescriptor, rows) -> int:
    """Rank over Q(zeta_d), certified from ranks at omega modulo primes ell.

    Each row is scaled to integer coefficient tuples, i.e. into Z[zeta].
    Reduction modulo the degree-one prime ideal (ell, s - omega) is a ring
    map, so the rank over F_ell is at most the true rank r.  If it is lower,
    a fixed nonzero r-minor M lies in that ideal, and ell divides the norm
    N(M).  Hadamard's bound in each complex embedding, with
    |sigma(a)| <= ||a||_1, gives 0 < |N(M)| <= H^phi(d), where H is the
    product of the min(m, n) largest row bounds
    ceil((sum_j ||a_ij||_1^2)^(1/2)).  So once the product of the primes used
    exceeds H^phi(d), some prime gave rank r, and the largest rank seen is r.
    """
    ints = []
    for r in rows:
        den = math.lcm(*(c.denominator for x in r for c in x.value))
        ints.append([tuple(c.numerator * (den // c.denominator) for c in x.value) for x in r])
    full = min(len(ints), len(ints[0]))
    squares = sorted((sum(sum(map(abs, a)) ** 2 for a in r) for r in ints), reverse=True)
    # Every factor is at least 1, so H also bounds the smaller minors.
    H = math.prod(math.isqrt(n - 1) + 1 if n else 1 for n in squares[:full])
    bound = H**field.degree
    best, covered = 0, 1
    for i in itertools.count():
        ell, omega = _modulus(field.d, i)
        powers = [pow(omega, k, ell) for k in range(field.degree)]
        residues = [[sum(map(operator.mul, a, powers)) % ell for a in r] for r in ints]
        best = max(best, _rank_mod(residues, ell))
        covered *= ell
        if best == full or covered > bound:
            return best


def rank_exact(matrix) -> int:
    """Exact rank of a matrix of FieldElem sharing one descriptor.

    Over Q (and Z, via the fraction field) rows are scaled to integers and
    eliminated fraction-free; over F_p the residues are eliminated directly;
    over Q(zeta_d) the rank is the certified multimodular rank of
    `_cyclotomic_rank`.  No branch computes with FieldElem arithmetic.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    field = rows[0][0].field
    for r in rows:
        for x in r:
            if x.field != field:
                raise DescriptorMismatch("matrix entries over mixed descriptors")
    if field.kind in (_Q, _Z):
        int_rows = []
        for r in rows:
            fr = [x.as_fraction() for x in r]
            den = 1
            for x in fr:
                den = den * x.denominator // math.gcd(den, x.denominator)
            int_rows.append([int(x * den) for x in fr])
        return _rank_bareiss_int(int_rows)
    if field.kind == _FP:
        return _rank_mod([[x.value for x in r] for r in rows], field.p)
    return _cyclotomic_rank(field, rows)
