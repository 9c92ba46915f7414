"""Exact coefficient arithmetic over Q, F_p and Z, the one univariate
polynomial type, the one sparse elimination, and certified ranks over
cyclotomic fields Q(zeta_d).

Every matrix built from an input has rational entries, and Q(zeta_d) is flat
over Q, so each invariant over Q(zeta_d) (ranks, pages E^r, Laurent invariant
factors, which are quotients of gcds of minors) is Q(zeta_d) (x) the same
invariant over Q.  The descriptor `cyclotomic:<d>` is therefore computed over
Q and kept as a label.  The only arithmetic in Q(zeta_d) is
`cyclotomic_rank`, the rank of a matrix whose entries are power sums
sum_k c_k zeta_d^k, taken modulo primes ell = 1 (mod d) by sending zeta_d to
a primitive d-th root of unity omega mod ell, until a norm bound certifies
the largest rank seen; the twisted Betti numbers evaluate t at zeta_d into
it, and Phi_d (`cyclotomic_polynomial`) is never formed there.  `LaurentRing`
is k[t^{+-1}] on raw tuples (shift, coefficients, denominator): the SNF runs
on it, the Alexander polynomial takes its minors and gcds in it, and
`cyclotomic_polynomial` divides t^d - 1 in it.

Every scalar is a raw payload of its descriptor (see `FieldDescriptor`).
`Echelon`, the sparse column echelon, is the one elimination behind every
rank over a field: `rank_exact` over Q, Q(zeta_d), Z and F_p, the rank at
each prime of `cyclotomic_rank` and the page engine all reduce in it.  No
floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import CoefficientError, InputError, UnsupportedCoefficients


# Miller-Rabin on the first 12 primes as bases is exact for every n below
# this bound (Sorenson and Webster, 2015); below 2^64 so are Sinclair's seven
# bases, by the Feitsma-Galway enumeration of base-2 pseudoprimes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.  A witness proves n
    composite at any size; CoefficientError for n >= _MR_EXACT_BELOW that no
    base witnesses, where those bases are not known to be exact."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for b in _MR_BASES if n >> 64 else _MR_BASES_64:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1 or not b % n:  # a base that is 0 mod n says nothing
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise CoefficientError(f"{n} is too large for an exact primality test "
                               f"(the bound is {_MR_EXACT_BELOW})")
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


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, increasing, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    return tuple(out + [n] if n > 1 else out)


def prime_power(m: int):
    """(p, r) if m = p^r with p prime and r >= 1, else None.  A prime of
    _MR_BASES dividing m decides at once.  Otherwise p > 37 > 2^5, and
    m = p^r with r > 1 iff m = y^r for a prime r < log2(m) / 5 and y is a
    prime power, and else iff m is prime (is_prime refuses past its exact
    bound)."""
    for b in _MR_BASES:
        if m % b == 0:  # then m is a prime power iff it is a power of b
            r = 0
            while m % b == 0:
                m, r = m // b, r + 1
            return (b, r) if m == 1 else None
    for r in filter(is_prime, range(2, m.bit_length() // 5 + 1)):
        y = 1 << -(-m.bit_length() // r)  # Newton's r-th root from above
        while (z := ((r - 1) * y + m // y ** (r - 1)) // r) < y:
            y = z
        if y ** r == m:  # m is a prime power iff y is
            root = prime_power(y)
            return root and (root[0], root[1] * r)
    return (m, 1) if is_prime(m) else None


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
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial, integer coefficients lowest degree
    first: t^d - 1 divided exactly in `LaurentRing` over Q by each Phi_e,
    e | d, e < d."""
    if d < 1:
        raise CoefficientError("d must be positive")
    ring = LaurentRing(FieldDescriptor.rationals())
    num = (0, (-1,) + (0,) * (d - 1) + (1,), 1)
    for e in divisors(d)[:-1]:
        num = ring.exact_div(num, (0, cyclotomic_polynomial(e), 1))
    return num[1]


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------


def read_int(digits: str, lead: str) -> int:
    """The integer written by `digits`, a run of Unicode decimal digits (re's
    \\d+, str.isdecimal): the one conversion of input text to an integer.
    More digits than int(str) converts (4300 by default) is an InputError
    that shows `lead`, the text just before the run, and 12 of the digits."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"{lead}{digits[:12]}... has {len(digits)} digits, "
                         "too many for an integer") from None


def read_prefixed(text, makers, what: str, hint: str = ""):
    """make(n) for the (prefix, make) of makers with text = prefix + the
    Unicode decimal digits of n and nothing else (no sign or space); else
    InputError "unknown <what> <text>", text cut to 50 characters, + hint."""
    for prefix, make in makers:
        digits = text[len(prefix):] if isinstance(text, str) and text.startswith(prefix) else ""
        if digits.isdecimal():  # "²" is a digit, not a decimal
            return make(read_int(digits, f"{what} {prefix}"))
    raise InputError(f"unknown {what} {text!r:.50}{hint}")


_Q, _FP, _CYC, _Z = "Q", "Fp", "cyclotomic", "Z"


class FieldDescriptor:
    """One of: the rationals, a prime field F_p, a cyclotomic field Q(zeta_d),
    or the ring Z (not a field; accepted where SNF over Z is needed).

    Instances are immutable; payloads are ints (in [0,p) over F_p), and over
    Q and Q(zeta_d) only a division (`ratio`) makes a Fraction.  Every entry
    an input yields is rational, and Q(zeta_d) is flat over Q, so
    `cyclotomic:<d>` binds Q's payload table and differs from Q only in its
    label.  The payload table _add, _neg, _mul, _inv and _of_int (the payload
    of an int) is bound once per kind: operator.* over Q and Z, residues mod p
    over F_p.  GroupRingElem and the page engine compute through it
    (LaurentRing reduces int coefficients itself); every payload is a number,
    zero exactly when it is falsy, and `from_fraction` is the one coercion.
    """

    __slots__ = ("kind", "p", "d", "_add", "_neg", "_mul", "_inv", "_of_int")

    def __init__(self, kind, p=None, d=None):
        self.kind = kind
        self.p = p
        self.d = d
        self._add, self._neg, self._mul = operator.add, operator.neg, operator.mul
        self._inv, self._of_int = _z_inv, int
        if kind in (_Q, _CYC):
            self._inv = lambda a: ratio(1, a)
        elif kind == _FP:
            self._add = lambda a, b: (a + b) % p
            self._neg = lambda a: -a % p
            self._mul = lambda a, b: a * b % p
            self._inv = lambda a: pow(_nonzero(a), -1, p)
            self._of_int = lambda v: v % p

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
        """Q, Z, Fp:<p> or cyclotomic:<d>, the argument read by read_prefixed:
        "Fp:٧" is Fp:7, and "Fp: 7" and "Fp:+7" are unknown descriptors."""
        if text == "Q":
            return _RATIONALS
        if text == "Z":
            return _INTEGERS
        return read_prefixed(text, (("Fp:", cls.prime_field), ("cyclotomic:", cls.cyclotomic)),
                             "field descriptor")

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

    def from_fraction(self, v):
        """The payload of the rational v (an int or a Fraction): the one
        coercion into this descriptor.  Over Z a non-integral v, and over F_p
        a denominator divisible by p, raise CoefficientError."""
        if v.denominator == 1:
            return self._of_int(v.numerator)
        if self.kind == _Z:
            raise CoefficientError(f"cannot coerce {v} into {self}")
        return self._mul(self._of_int(v.numerator), self._inv(self._of_int(v.denominator)))


def _nonzero(a):
    if not a:
        raise CoefficientError("division by zero")
    return a


def _z_inv(a):
    if _nonzero(a) in (1, -1):
        return a
    raise CoefficientError(f"{a} is not a unit in Z")


_RATIONALS = FieldDescriptor(_Q)
_INTEGERS = FieldDescriptor(_Z)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentRing:
    """Lambda = k[t^{+-1}] on raw Laurent polynomials, with the degree span as
    Euclidean norm.

    An element is a tuple (shift, coeffs, den) standing for
    t^shift (coeffs[0] + coeffs[1] t + ...) / den.  It is canonical: coeffs
    has no zero at either end (0 is (0, (), 1)), den > 0, and over Q the
    coefficients are ints with gcd(coeffs, den) = 1, so equal elements are
    equal tuples.  Over F_p the coefficients are ints in [0, p) and den is
    1.  Q(zeta_d) takes the Q branch: the invariant factors over it are those
    over Q (gcds of minors, by flat base change).  Every operation loops over
    plain int coefficients in every characteristic, and `_make` applies the
    one reduction per result: the content step over Q, residues mod p over
    F_p.
    """

    def __init__(self, field: FieldDescriptor):
        if not field.is_field:
            raise UnsupportedCoefficients("Laurent SNF needs field coefficients")
        self.field = field
        self.name = f"{field}[t^+-1]"
        self._p = field.characteristic
        self._q = not self._p
        self.zero = (0, (), 1)
        self.one = (0, (1,), 1)

    def _make(self, shift, cs, den=1):
        """The canonical element t^shift * cs / den for int coefficients cs:
        residues mod p over F_p (where den is 1); over Q the content shared
        with den cancelled.  Zeros are trimmed at both ends."""
        p = self._p
        if p:
            cs = [c % p for c in cs]
        elif den != 1:
            g = math.gcd(den, *cs)
            if g != 1:
                cs = [c // g for c in cs]
                den //= g
        lo, hi = 0, len(cs)
        while hi and not cs[hi - 1]:
            hi -= 1
        while lo < hi and not cs[lo]:
            lo += 1
        return (shift + lo, tuple(cs[lo:hi]), den) if hi else self.zero

    @staticmethod
    def is_zero(a):
        return not a[1]

    @staticmethod
    def norm(a):
        return len(a[1]) - 1

    @staticmethod
    def is_unit(a):
        return len(a[1]) == 1

    def _sum(self, sa, ca, da, sb, cb, db):
        """t^sa ca/da + t^sb cb/db for nonempty int sequences, reduced once."""
        den = da
        if da != db:
            den = da // math.gcd(da, db) * db
            ca = [c * (den // da) for c in ca]
            cb = [c * (den // db) for c in cb]
        if sa > sb:
            sa, ca, sb, cb = sb, cb, sa, ca
        out = list(ca)
        out += [0] * (sb + len(cb) - sa - len(out))
        for j, y in enumerate(cb, sb - sa):
            out[j] += y
        return self._make(sa, out, den)

    @staticmethod
    def _product(a, b):
        """a*b for nonzero a and b as (shift, int list, den), unreduced.  A
        monomial operand scales the other's coefficients."""
        (sa, ca, da), (sb, cb, db) = a, b
        if len(ca) > len(cb):
            ca, cb = cb, ca
        if len(ca) == 1:
            x = ca[0]
            out = [x * y for y in cb]
        else:
            out = [0] * (len(ca) + len(cb) - 1)
            for i, x in enumerate(ca):
                if x:
                    for j, y in enumerate(cb, i):
                        out[j] += x * y
        return sa + sb, out, da * db

    def add(self, a, b):
        if not a[1]:
            return b
        if not b[1]:
            return a
        return self._sum(*a, *b)

    def neg(self, a):
        s, cs, den = a
        p = self._p
        return (s, tuple([-c % p for c in cs] if p else [-c for c in cs]), den)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a[1] or not b[1]:
            return self.zero
        if a[1] == (1,) and a[2] == 1:
            return (a[0] + b[0], b[1], b[2])
        if b[1] == (1,) and b[2] == 1:
            return (a[0] + b[0], a[1], a[2])
        return self._make(*self._product(a, b))

    def submul(self, y, q, x):
        """y - q*x, reduced once."""
        if not q[1] or not x[1]:
            return y
        s, cs, den = self._product((q[0], [-c for c in q[1]], q[2]), x)
        return self._sum(*y, s, cs, den) if y[1] else self._make(s, cs, den)

    def divstep(self, pivot, entry):
        """Pseudo-division: (scale, q) with scale*entry - q*pivot of norm
        < norm(pivot), where scale is a power of the pivot's leading
        coefficient (a unit scalar).  No coefficient division happens."""
        pd = len(pivot[1]) - 1
        top = pivot[0] + pd
        lead = self._make(0, [pivot[1][-1]], pivot[2])
        q, rem, scale = self.zero, entry, self.one
        while len(rem[1]) > pd:
            rs, rc, rden = rem
            mono = self._make(rs + len(rc) - 1 - top, [rc[-1]], rden)
            q = self.add(self.mul(q, lead), mono)
            rem = self.sub(self.mul(rem, lead), self.mul(mono, pivot))
            scale = self.mul(scale, lead)
        return scale, q

    def exact_div(self, a, b):
        """a/b, or CoefficientError if b does not divide a: one pass of long
        division, over F_p by the inverse of b's leading coefficient, over Q
        in Z[t] by the primitive part of b, where an exact quotient is
        integral (Gauss's lemma) and an inexact step ends the division."""
        (sa, ca, da), (sb, cb, db) = a, b
        if not cb:
            raise CoefficientError("division by zero")
        if len(cb) == 1:
            return self.mul(a, self.unit_inverse(b))
        if not ca:
            return self.zero
        m = len(cb) - 1
        if len(ca) <= m:
            raise CoefficientError("not divisible in Lambda")
        p = self._p
        g = 1 if p else math.gcd(*cb)
        if g != 1:
            cb = [y // g for y in cb]
        lead = pow(cb[-1], -1, p) if p else cb[-1]
        rem = list(ca)
        quo = [0] * (len(ca) - m)
        for k in range(len(quo) - 1, -1, -1):
            if p:
                c = rem[k + m] * lead % p
            else:
                c, r = divmod(rem[k + m], lead)
                if r:
                    raise CoefficientError("not divisible in Lambda")
            if c:
                quo[k] = c
                for j, y in enumerate(cb, k):
                    rem[j] -= c * y
        if any(r % p if p else r for r in rem[:m]):
            raise CoefficientError("not divisible in Lambda")
        return self._make(sa - sb, [c * db for c in quo] if db != 1 else quo, da * g)

    def _strip(self, a):
        """Unit making a canonical (monomial part, sign/lead, content)."""
        if self.is_zero(a):
            return None
        unit, canon = self.unit_normalize(a)
        total = self.unit_inverse(unit)
        c = self.content_unit([canon])
        return total if c is None else self.mul(c, total)

    def gcd_bezout(self, a, b):
        """(g, sigma, tau, alpha, beta) with sigma a + tau b = g, a = alpha g,
        b = beta g, and sigma alpha + tau beta = 1.

        Primitive pseudo-Euclid: every remainder is stripped to a primitive
        canonical polynomial (a unit rescaling), which is what keeps the
        coefficient growth of the chain polynomial.  When a divides b, tau is
        guaranteed to be 0 so the pivot row/column is only unit-rescaled."""
        mul, one, zero = self.mul, self.one, self.zero
        try:
            beta = self.exact_div(b, a)
        except CoefficientError:
            beta = None
        if beta is not None:
            unit = self._strip(a) or one
            inv = self.unit_inverse(unit)
            return mul(unit, a), unit, zero, inv, mul(inv, beta)

        def strip(r, s, t):
            u = self._strip(r)
            return (r, s, t) if u is None else (mul(u, r), mul(u, s), mul(u, t))

        (r0, s0, t0), (r1, s1, t1) = strip(a, one, zero), strip(b, zero, one)
        while not self.is_zero(r1):
            scale, q = self.divstep(r1, r0)
            r2, s2, t2 = (self.sub(mul(scale, x), mul(q, y))
                          for x, y in ((r0, r1), (s0, s1), (t0, t1)))
            (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), strip(r2, s2, t2)
        return r0, s0, t0, self.exact_div(a, r0), self.exact_div(b, r0)

    def unit_normalize(self, a):
        """(unit, canonical) with a = unit * canonical; canonical is a monic
        polynomial with nonzero constant term (lowest exponent 0)."""
        if self.is_zero(a):
            return self.one, a
        unit = self._make(a[0], [a[1][-1]], a[2])
        return unit, self.mul(self.unit_inverse(unit), a)

    def unit_inverse(self, u):
        s, (c,), den = u
        if self._q:
            return (-s, (den if c > 0 else -den,), abs(c))
        return (-s, (pow(c, -1, self._p),), 1)

    def content_unit(self, entries):
        """Scalar unit making the coefficient content of a row/column 1.

        Over Q this is lcm(denominators)/gcd(integer contents): content
        extraction is what keeps coefficient growth in check during
        elimination.  Over other coefficient fields there is nothing to gain."""
        if not self._q:
            return None
        g = math.gcd(*(c for e in entries for c in e[1]))
        den = math.lcm(*(e[2] for e in entries))
        return None if g in (0, den) else self._make(0, [den], g)


# ---------------------------------------------------------------------------
# Exact elimination and rank
# ---------------------------------------------------------------------------


class Echelon:
    """Sparse column echelon over a field: the one elimination (every rank,
    see `rank_exact`, and the page engine).

    Columns are {row >= 0: nonzero raw payload} dicts, reduced in place; a
    column's pivot is its largest row.  Over F_p a stored column keeps the
    negated inverse of its pivot entry from its first use.  In characteristic
    0 (Q, Q(zeta_d), and Z through its fraction field) columns are made
    integral at their first step and reduced fraction-free (Bareiss 1968),
    col <- a*col - b*other, a/b the pivot entries in lowest terms, then made
    primitive; scaling moves no pivot.  A column added with a label l >= 0
    carries a 1 in row -2 - l: its negative rows are its scale times its
    combination of the labelled inputs (modulo the unlabelled columns added
    first), and if the rest reduces to zero, e_l - (that combination) goes to
    `relations`.  An int in `owner` stands for a column whose pivot its caller
    knew; `build` makes it when needed.
    """

    def __init__(self, field: FieldDescriptor, build=None):
        self.field = field
        self.build = build   # handle -> its column
        self.owner = {}      # pivot row -> stored column, or a handle
        self.ninv = {}       # pivot row -> F_p: -1 / (its pivot entry); char 0: True, once used
        self.relations = []  # {label: coefficient}, one per dependent labelled column
        self._int = field.characteristic == 0

    def reduce(self, col, coords=None, low=None):
        """Clear the pivots of col that stored columns own.  coords (an empty
        dict, if given) gets the multiples taken of their combinations, and col
        is left as the input minus that combination (without coords, over Q, a
        multiple of it).  low, if given, is max(col).  Returns the pivot left,
        or None if col lay in the span."""
        owner, ninv, field, integral = self.owner, self.ninv, self.field, self._int
        p = 0 if integral else field.p
        if coords is not None:
            col[-1] = 1  # row -1 keeps the scale
        stepped = False
        low = (max(col) if col else -1) if low is None else low
        while (other := owner.get(low)) is not None:
            if type(other) is int:
                other = owner[low] = self.build(other)
            if integral:  # col and other integral from their first step on
                stepped = stepped or self._integral(col)
                if low not in ninv:
                    ninv[low] = self._integral(other)
                a, b = other[low], col[low]
                g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
                a, nf = a // g, -b // g  # a > 0, and a*col + nf*other clears low
                for k, x in col.items() if a != 1 else ():
                    col[k] = a * x
            else:
                inv = ninv.get(low)
                if inv is None:
                    inv = ninv[low] = field._neg(field._inv(other[low]))
                nf = col[low] * inv % p
            for k, y in other.items():
                z = col.get(k, 0) + nf * y  # nf * y != 0, so z = 0 only if k in col
                if p:
                    z %= p
                if z:
                    col[k] = z
                else:
                    del col[k]
            low = max(col) if col else -1
        g = math.gcd(*col.values()) if stepped else 1  # over Q: primitive
        for k, x in col.items() if g != 1 else ():
            col[k] = x // g
        if coords is not None:
            scale = col.pop(-1)
            for k in [k for k in col if k < 0]:
                coords[-2 - k] = ratio(field._neg(col.pop(k)), scale)
            for k, x in col.items() if scale != 1 else ():
                col[k] = ratio(x, scale)
        return low if low >= 0 else None

    def add(self, col, label=None, low=None):
        """Store col reduced (low, if given, is max(col)); return its pivot,
        or None if it was dependent."""
        if label is not None:
            col[-2 - label] = 1
        low = self.reduce(col, low=low)
        if low is not None:
            self.owner[low] = col
        elif label is not None:
            self.relations.append({-2 - k: ratio(x, col[-2 - label]) for k, x in col.items()})
        return low

    @staticmethod
    def _integral(vec):
        """True, once vec is scaled in place to integers (if a Fraction is in it)."""
        if type(sum(vec.values())) is not int:
            den = math.lcm(*[x.denominator for x in vec.values()])
            for k, x in vec.items():
                vec[k] = x.numerator * (den // x.denominator)
        return True


def ratio(n, d):
    """n/d over Q for rationals n and d != 0: an int when d divides n, else a
    Fraction.  The one place in the package that makes a Fraction."""
    q, r = divmod(n, _nonzero(d))
    return Fraction(n, d) if r else q


# The largest character order: d factors by trial division up to 2^20, and
# at least 2^22 candidates ell = 1 (mod d) lie below 2^62 for `_modulus`.
MAX_ORDER_BITS = 40


@lru_cache(maxsize=None)
def _modulus(d: int, i: int) -> tuple[int, int]:
    """(ell, omega): the i-th prime ell = 1 (mod d) below 2^62, counting down,
    and a primitive d-th root of unity omega mod ell."""
    ell = _modulus(d, i - 1)[0] - d if i else (2**62 - 2) // d * d + 1
    while not is_prime(ell):
        ell -= d
    for g in itertools.count(2):
        w = pow(g, (ell - 1) // d, ell)
        if all(pow(w, d // q, ell) != 1 for q in prime_factors(d)):
            return ell, w


def cyclotomic_rank(d: int, rows, cap: int | None = None) -> int:
    """Rank over Q(zeta_d) of a matrix whose entries are dicts {k: c}, each
    standing for sum_k c zeta_d^k (c an int or a Fraction, k any int), for
    d <= 2^MAX_ORDER_BITS.  Certified from ranks modulo primes ell.  A cap
    the caller has certified, rank <= cap, lets it stop at the first prime
    whose rank reaches min(rows, cols, cap).

    Each row is scaled to integer coefficients, i.e. into Z[zeta].  Reduction
    modulo the degree-one prime (ell, zeta - omega) sends zeta^k to
    omega^(k mod d): a ring map, so the rank over F_ell is at most the true
    rank r.  If it is lower, a fixed nonzero r-minor M lies in that ideal, and
    ell divides the norm N(M).  Hadamard's bound in each of the phi(d) complex
    embeddings, with |sigma(a)| <= sum_k |c_k|, gives 0 < |N(M)| <= H^phi(d),
    where H is the product of the min(m, n) largest row bounds
    ceil((sum_j (sum_k |c_jk|)^2)^(1/2)).  H <= 2^b for b = (H - 1).bit_length(),
    so once the product of the (odd) primes used has more than phi(d) * b bits
    it exceeds H^phi(d) without forming it: some prime gave rank r, and the
    largest rank seen is r.  Each modular rank is at most r, so one that
    reaches the cap is r too.
    """
    if not rows or not rows[0]:
        return 0
    ints = []
    for r in rows:
        den = math.lcm(*(c.denominator for x in r for c in x.values()))
        ints.append([{k: c.numerator * (den // c.denominator) for k, c in x.items()} for x in r])
    full = min(len(ints), len(ints[0]))
    squares = sorted((sum(sum(map(abs, a.values())) ** 2 for a in r) for r in ints), reverse=True)
    # Every factor is at least 1, so H also bounds the smaller minors.
    H = math.prod(math.isqrt(n - 1) + 1 if n else 1 for n in squares[:full])
    phi = d // math.prod(prime_factors(d)) * math.prod(q - 1 for q in prime_factors(d))
    bits = phi * (H - 1).bit_length()
    keys = {k for r in ints for a in r for k in a}
    most = full if cap is None else min(full, cap)
    best, covered = 0, 1
    for i in itertools.count():
        ell, omega = _modulus(d, i)
        powers = {k: pow(omega, k % d, ell) for k in keys}
        residues = [[sum(c * powers[k] for k, c in a.items()) % ell for a in r] for r in ints]
        best = max(best, rank_exact(FieldDescriptor(_FP, p=ell), residues))
        covered *= ell
        if best == most or covered.bit_length() > bits:
            return best


def rank_exact(field: FieldDescriptor, rows) -> int:
    """Exact rank of dense rows of Q, Q(zeta_d), Z or F_p payloads: each row
    goes into one `Echelon` as a sparse dict, and the pivots are counted.  Z
    is ranked over its fraction field, fraction-free like Q."""
    ech = Echelon(field)
    return sum(ech.add({j: x for j, x in enumerate(r) if x}) is not None for r in rows)
