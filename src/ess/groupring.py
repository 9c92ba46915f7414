"""Group-ring arithmetic for G = Z^n (Laurent polynomials) and G = Z_m.

Elements are sparse maps from exponent keys to nonzero coefficients; keys are
length-n integer tuples for Z^n and residues in [0, m) for Z_m, and
coefficients are the raw payloads of the field descriptor (int or Fraction
over Q and Q(zeta_d), a residue in [0, p) over F_p, int over Z).  Iteration
is always over sorted keys so every downstream matrix is reproducible.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .coeffs import FieldDescriptor, prime_power
from .errors import DescriptorMismatch, InputError

INFINITY = math.inf


class GroupDescriptor:
    """Either FreeAbelian(n), n >= 0, or Cyclic(m), m >= 2.

    Cyclic descriptors record whether m is a prime power, which with char
    k = p marks the Reznikov case G = Z_{p^r} of the spectral sequence.
    """

    __slots__ = ("kind", "n", "m", "prime_power")

    def __init__(self, kind, n=None, m=None):
        self.kind = kind
        self.n = n
        self.m = m
        self.prime_power = prime_power(m) if kind == "cyclic" else None

    @classmethod
    def free_abelian(cls, n: int):
        if n < 0:
            raise InputError("rank must be >= 0")
        return cls("free_abelian", n=n)

    @classmethod
    def cyclic(cls, m: int):
        if m < 2:
            raise InputError("cyclic order must be >= 2")
        return cls("cyclic", m=m)

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        if text == "Z":
            return cls.free_abelian(1)
        for prefix, make in (("Z^", cls.free_abelian), ("Zmod:", cls.cyclic)):
            # isdecimal is the \d+ of re (Unicode Nd); isdigit would pass "²"
            rest = text[len(prefix):] if isinstance(text, str) and text.startswith(prefix) else ""
            if rest.isdecimal():
                try:
                    n = int(rest)
                except ValueError:  # past the digit limit of int(str)
                    raise InputError(f"group descriptor {prefix}{rest[:12]}... has "
                                     f"{len(rest)} digits, too many for an integer") from None
                return make(n)
        raise InputError(f"unknown group descriptor {text!r}")

    def __str__(self):
        if self.kind == "cyclic":
            return f"Zmod:{self.m}"
        return "Z" if self.n == 1 else f"Z^{self.n}"

    __repr__ = __str__

    def __eq__(self, other):
        return (
            isinstance(other, GroupDescriptor)
            and (self.kind, self.n, self.m) == (other.kind, other.n, other.m)
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.m))

    @property
    def num_generators(self) -> int:
        return self.n if self.kind == "free_abelian" else 1

    def identity_key(self):
        return (0,) * self.n if self.kind == "free_abelian" else 0

    def reduce_key(self, key):
        if self.kind == "cyclic":
            return key % self.m
        return tuple(key)

    def add_keys(self, a, b):
        if self.kind == "cyclic":
            return (a + b) % self.m
        return tuple(x + y for x, y in zip(a, b))

    def variable_names(self) -> list[str]:
        if self.kind == "cyclic" or self.n == 1:
            return ["t"]
        return [f"t{i + 1}" for i in range(self.n)]


class GroupRingElem:
    """Element of kG in canonical sparse form: {key: raw payload of k}, no
    zero coefficient stored, arithmetic through the descriptor's payload
    table.  A scalar operand (an int or Fraction) is coerced through
    `FieldDescriptor.from_fraction`.  With canonical=True the terms are taken
    as they are (reduced keys, no zero payload): neither copied nor checked."""

    __slots__ = ("group", "field", "terms")

    def __init__(self, group, field, terms, canonical=False):
        self.group = group
        self.field = field
        if canonical:
            self.terms = terms
            return
        add = field._add
        clean = {}
        for key, coeff in terms.items():
            key = group.reduce_key(key)
            if key in clean:
                coeff = add(clean[key], coeff)
            if coeff:
                clean[key] = coeff
            else:
                clean.pop(key, None)
        self.terms = clean

    @classmethod
    def zero(cls, group, field):
        return cls(group, field, {})

    @classmethod
    def one(cls, group, field):
        return cls(group, field, {group.identity_key(): field._of_int(1)})

    @classmethod
    def monomial(cls, group, field, key, coeff=1):
        return cls(group, field, {group.reduce_key(key): field.from_fraction(coeff)})

    @classmethod
    def from_ints(cls, group, field, ints):
        """The element with integer coefficients given as a {key: int} map."""
        return cls(group, field, {k: field._of_int(c) for k, c in ints.items()})

    def _check(self, other):
        if self.group != other.group or self.field != other.field:
            raise DescriptorMismatch("group-ring operands over different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = GroupRingElem.monomial(self.group, self.field, self.group.identity_key(), other)
        self._check(other)
        add = self.field._add
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = add(out[key], coeff) if key in out else coeff
        return GroupRingElem(self.group, self.field, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._neg
        return GroupRingElem(self.group, self.field, {k: neg(v) for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = GroupRingElem.monomial(self.group, self.field, self.group.identity_key(), other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        add, mul, add_keys = self.field._add, self.field._mul, self.group.add_keys
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = add_keys(k1, k2)
                out[key] = add(out[key], mul(c1, c2)) if key in out else mul(c1, c2)
        return GroupRingElem(self.group, self.field, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c, mul = self.field.from_fraction(c), self.field._mul
        return GroupRingElem(self.group, self.field, {k: mul(v, c) for k, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.is_zero()
            other = GroupRingElem.monomial(self.group, self.field, self.group.identity_key(), other)
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return (
            self.group == other.group
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, self.field, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def augmentation(self):
        """Sum of coefficients, a payload: the ring map kG -> k killing every
        g - 1."""
        return functools.reduce(self.field._add, self.terms.values(), self.field._of_int(0))

    def map_exponents(self, fn, new_group):
        add = self.field._add
        out = {}
        for key, coeff in self.terms.items():
            key = fn(key)
            out[key] = add(out[key], coeff) if key in out else coeff
        return GroupRingElem(new_group, self.field, out)

    def __str__(self):
        return format_element(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Monomial text syntax
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([+-]|\d+|[A-Za-z]\w*|\^|\*)")


def parse_element(text: str, group: GroupDescriptor, field: FieldDescriptor) -> GroupRingElem:
    """Parse "t1^-2*t2^3" style syntax (coefficient prefixes allowed); the
    integer coefficients are summed per monomial, then mapped into k."""
    names = group.variable_names()
    name_index = {name: i for i, name in enumerate(names)}
    pos = 0
    tokens = []
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt:
            raise InputError(f"bad character in element {text!r} at {pos}")
        tokens.append(mt.group(1))
        pos = mt.end()
    result = {}
    i = 0
    nvars = group.num_generators

    def parse_exponent(i):
        if i < len(tokens) and tokens[i] == "^":
            i += 1
            sign = 1
            if i < len(tokens) and tokens[i] == "-":
                sign = -1
                i += 1
            if i >= len(tokens) or not tokens[i].isdigit():
                raise InputError(f"missing exponent in {text!r}")
            return sign * int(tokens[i]), i + 1
        return 1, i

    while i < len(tokens):
        sign = 1
        saw_sign = False
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if i >= len(tokens):
            if saw_sign:
                raise InputError(f"dangling sign in {text!r}")
            break
        coeff = sign
        exps = [0] * nvars
        expect_factor = True
        while i < len(tokens) and (expect_factor or tokens[i] == "*"):
            if tokens[i] == "*":
                i += 1
                continue
            tok = tokens[i]
            if tok.isdigit():
                num = int(tok)
                i += 1
                if i < len(tokens) and tokens[i] == "*" and i + 1 < len(tokens) and tokens[i + 1] == "*":
                    raise InputError(f"bad token sequence in {text!r}")
                coeff *= num
            elif tok in name_index:
                i += 1
                e, i = parse_exponent(i)
                exps[name_index[tok]] += e
            else:
                raise InputError(f"unknown variable {tok!r} in {text!r}")
            expect_factor = False
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                expect_factor = True
        key = exps[0] if group.kind == "cyclic" else tuple(exps)
        result[key] = result.get(key, 0) + coeff
    return GroupRingElem.from_ints(group, field, result)


def format_element(a: GroupRingElem) -> str:
    if a.is_zero():
        return "0"
    names = a.group.variable_names()
    parts = []
    for key, coeff in a.sorted_terms():
        exps = (key,) if a.group.kind == "cyclic" else key
        monos = []
        for name, e in zip(names, exps):
            if e == 0:
                continue
            monos.append(name if e == 1 else f"{name}^{e}")
        cs = str(coeff)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if monos and mag == "1":
            body = "*".join(monos)
        elif monos:
            body = "*".join([mag] + monos)
        else:
            body = mag
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# J-adic valuation and graded pieces
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def monomials_of_degree(n: int, s: int) -> tuple[tuple, ...]:
    """Exponent tuples of total degree s in n variables, lexicographically
    increasing: the first exponent counts up, each followed by the tuples of
    the rest in order."""
    if n == 1:  # the base case, O(1): the recursion below would be O(s)
        return ((s,),)
    if n == 0:
        return ((),) if s == 0 else ()
    return tuple((first,) + rest for first in range(s + 1)
                 for rest in monomials_of_degree(n - 1, s - first))


@functools.lru_cache(maxsize=None)
def pascal_row(k: int, M: int) -> tuple[int, ...]:
    """(C(k, 0), ..., C(k, M - 1)): the coefficients of (1 + x)^k cut at
    degree M, exact generalized binomials for k < 0."""
    row = [1]
    for b in range(1, M):
        row.append(row[-1] * (k - b + 1) // b)
    return tuple(row)


def expansion_coords(a: GroupRingElem, M: int) -> dict:
    """The image of a under t_i -> 1 + x_i, cut at total degree M, as
    {beta: nonzero raw payload}, beta an exponent tuple.  Per term, a product
    of Pascal rows over the box where they are nonzero: b_i <= k_i where
    k_i >= 0, and b_i < M where k_i < 0.  A Z_m key is the one exponent k in
    [0, m), so with M = m nothing is cut: these are the Taylor coefficients at
    t = 1, the coordinates in the basis u^b = (t - 1)^b, b < m."""
    field = a.field
    add, mul, of_int = field._add, field._mul, field._of_int
    out = {}
    for key, coeff in a.terms.items():
        box = [((), 1)]
        for k in (key,) if a.group.kind == "cyclic" else key:
            row = pascal_row(k, M if k < 0 else min(k + 1, M))
            box = [(beta + (b,), n * x) for beta, n in box
                   for b, x in enumerate(row[:M - sum(beta)])]
        for beta, n in box:
            x = mul(coeff, of_int(n))
            out[beta] = add(out[beta], x) if beta in out else x
    return {beta: x for beta, x in out.items() if x}


class _CyclicFiltration:
    """The J-adic filtration of kZ_m = k[t]/(t^m - 1), in closed form.

    With u = t - 1, J^s = (u^min(s, e)), where e is the multiplicity of u in
    t^m - 1: e = p^a when char k = p and p^a exactly divides m, else e = 1.
    So J^e is idempotent, kZ_m = kZ_m/J^e x J^e as filtered rings, and the
    factor J^e adds nothing to gr: kZ_m/J^e = k[u]/u^e, the ring of Z cut at
    degree e, with coordinates expansion_coords(a, e), carries all of it.
    """

    def __init__(self, m: int, field: FieldDescriptor):
        p, e = field.characteristic, 1
        while p and m % (e * p) == 0:
            e *= p
        self.e = e


@functools.lru_cache(maxsize=None)
def cyclic_filtration(m: int, field: FieldDescriptor) -> _CyclicFiltration:
    return _CyclicFiltration(m, field)


def j_valuation(a: GroupRingElem):
    """Largest s with a in J^s (INFINITY for 0 and for the elements of the
    stable J^e of a non-nilpotent cyclic group ring)."""
    if a.is_zero():
        return INFINITY
    if a.group.kind == "free_abelian":
        # substitute t_i = x_i + 1; the valuation is the lowest total degree.
        # Shift by a unit monomial first so all exponents are nonnegative.
        shift = [min(k[i] for k in a.terms) for i in range(a.group.n)]
        shifted = a.map_exponents(lambda k: tuple(x - s for x, s in zip(k, shift)), a.group)
        bound = max(sum(k) for k in shifted.terms)
        return min(map(sum, expansion_coords(shifted, bound + 1)), default=INFINITY)
    if not a.field.is_field:
        raise DescriptorMismatch("cyclic j_valuation needs field coefficients")
    e = cyclic_filtration(a.group.m, a.field).e
    return min((b for (b,) in expansion_coords(a, e)), default=INFINITY)


def gr_dimension(group: GroupDescriptor, field: FieldDescriptor, s: int) -> int:
    """dim_k J^s / J^{s+1} for kG."""
    if s < 0:
        return 0
    if group.kind == "free_abelian":
        n = group.n
        if n == 0:
            return 1 if s == 0 else 0
        return math.comb(s + n - 1, n - 1)
    return int(s < cyclic_filtration(group.m, field).e)

