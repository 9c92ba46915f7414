"""Exact Gaussian elimination helpers over Q and F_p, and the oracles' scalar.

Vectors are lists of `Scalar`; matrices are lists of row lists.  All routines
use the deterministic first-nonzero pivot rule so downstream bases are
reproducible bit-for-bit.

This dense Gauss-Jordan stack is what `ess` eliminated with before the sparse
column echelon of `ess.pages` took over; the tests keep it as the oracle.
`Scalar` computes with Fraction and with % p directly, never through the
payload table of `ess.coeffs`, so the oracles share no scalar arithmetic
with the engine.  A Scalar equals the raw payload of the same value, so
oracle results compare directly with the engine's.
"""

from __future__ import annotations

from fractions import Fraction

from ess.errors import CoefficientError


class Scalar:
    """An element of Q (p = 0) or F_p: a Fraction, or an int in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v):
        self.p = p
        self.v = v % p if p else Fraction(v)

    @classmethod
    def of(cls, field, v) -> "Scalar":
        """v (an int, a Fraction, a payload or a Scalar) over the field of a
        descriptor."""
        return v if isinstance(v, Scalar) else cls(field.characteristic, v)

    def _value(self, other):
        if isinstance(other, Scalar):
            assert other.p == self.p, "scalars over different fields"
            return other.v
        if isinstance(other, (int, Fraction)):
            return Scalar(self.p, other).v
        return NotImplemented

    def __add__(self, other):
        w = self._value(other)
        return NotImplemented if w is NotImplemented else Scalar(self.p, self.v + w)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.p, -self.v)

    def __sub__(self, other):
        w = self._value(other)
        return NotImplemented if w is NotImplemented else Scalar(self.p, self.v - w)

    def __mul__(self, other):
        w = self._value(other)
        return NotImplemented if w is NotImplemented else Scalar(self.p, self.v * w)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.v:
            raise CoefficientError("division by zero")
        return Scalar(self.p, pow(self.v, -1, self.p) if self.p else 1 / self.v)

    def is_zero(self) -> bool:
        return not self.v

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self.p, self.v) == (other.p, other.v)
        if isinstance(other, (int, Fraction)):
            return self.v == other  # a payload over F_p is already a residue in [0, p)
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return str(self.v)


def vector(field, payloads):
    """A list of payloads (or ints) as Scalars."""
    return [Scalar.of(field, x) for x in payloads]


def zeros(field, n):
    return [Scalar.of(field, 0)] * n  # Scalar is immutable, so one zero can be shared


def transpose(matrix):
    return [list(col) for col in zip(*matrix)] if matrix else []


def rref(field, rows):
    """Reduced row echelon form of rows of Scalars or payloads.  Returns
    (new_rows, pivot_columns), in Scalars."""
    m = [vector(field, r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    pr = 0
    for pc in range(ncols):
        piv = None
        for i in range(pr, nrows):
            if not m[i][pc].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        # the pivot row is zero left of pc; only its nonzero columns change
        pivot_row = m[pr]
        support = [j for j in range(pc, ncols) if not pivot_row[j].is_zero()]
        inv = pivot_row[pc].inverse()
        for j in support:
            pivot_row[j] = pivot_row[j] * inv
        for i in range(nrows):
            if i != pr and not m[i][pc].is_zero():
                row, f = m[i], m[i][pc]
                for j in support:
                    row[j] = row[j] - f * pivot_row[j]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return m, pivots


def rank_of(field, rows) -> int:
    if not rows or not rows[0]:
        return 0
    _, pivots = rref(field, rows)
    return len(pivots)


def kernel_basis(field, matrix, ncols=None):
    """Basis of the right kernel of `matrix` (vectors of length ncols)."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    if ncols == 0:
        return []
    if not matrix:
        return [unit_vector(field, ncols, j) for j in range(ncols)]
    r, pivots = rref(field, matrix)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = zeros(field, ncols)
        v[j] = Scalar.of(field, 1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][j]
        basis.append(v)
    return basis


def unit_vector(field, n, j):
    v = zeros(field, n)
    v[j] = Scalar.of(field, 1)
    return v


def span_rank(field, vectors) -> int:
    return rank_of(field, vectors)


def in_span(field, vectors, target) -> bool:
    if not any(target):
        return True
    if not vectors:
        return False
    base = rank_of(field, vectors)
    return rank_of(field, vectors + [target]) == base


def solve_coords(field, vectors, target):
    """Coordinates of `target` in the span of `vectors`, or None.

    Solves sum_i c_i vectors[i] = target by eliminating the matrix whose
    columns are the vectors, augmented with the target.
    """
    n = len(target)
    k = len(vectors)
    if k == 0:
        return [] if not any(target) else None
    aug = [[vectors[i][row] for i in range(k)] + [target[row]] for row in range(n)]
    m, pivots = rref(field, aug)
    coords = zeros(field, k)
    for i, pc in enumerate(pivots):
        if pc == k:
            return None  # target column has a pivot: inconsistent
        coords[pc] = m[i][k]
    return coords


def solve_mod_subspace(field, gens, subspace, target):
    """Write target = sum c_i gens[i] modulo span(subspace); return the c_i.

    Requires the gens to be independent modulo the subspace, so the
    coordinates are unique.  Raises CoefficientError otherwise.
    """
    k = len(gens)
    if span_rank(field, subspace + gens) != span_rank(field, subspace) + k:
        raise CoefficientError("generators dependent modulo subspace")
    coords = solve_coords(field, gens + subspace, target)
    if coords is None:
        raise CoefficientError("target not in span of generators + subspace")
    return coords[:k]
