"""Reference homology decomposition for the tests: the presentation-matrix route.

This is how `ess.modz` decomposed H_q(X, kZ_nu) before it read the module
off the SNFs of the boundaries: a basis of ker d_q from the SNF transforms of
d_q, every image column of d_{q+1} solved in that basis (one more SNF per
column), and the SNF of the resulting presentation matrix.  It is slow but
builds ker d_q explicitly, so the two routes are compared on small inputs.

`_LaurentCtx` is the Euclidean context the SNF engine used before it ran on
raw Laurent polynomials: the same pseudo-division, Bezout step, content
step and normalisation, computed with `GroupRingElem`, whose leading
coefficients are divided and multiplied as `linalg_oracle.Scalar`.  Run
through `ess.modz._snf_engine`, it must give the same diagonal and
transforms as `smith_normal_form`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ess.coeffs import FieldDescriptor
from ess.errors import CoefficientError, UnsupportedCoefficients, ValidationError
from ess.groupring import GroupRingElem
from ess.modz import _Z1, LaurentModuleDecomp, _snf_engine, smith_normal_form
from linalg_oracle import Scalar


class _LaurentCtx:
    """Lambda = k[t^{+-1}] with degree span as Euclidean norm after stripping
    the unit part t^{lowest exponent}."""

    def __init__(self, field: FieldDescriptor):
        if not field.is_field:
            raise UnsupportedCoefficients("Laurent SNF needs field coefficients")
        self.field = field
        self.name = f"{field}[t^+-1]"
        self.zero = GroupRingElem.zero(_Z1, field)
        self.one = GroupRingElem.one(_Z1, field)

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def span(a):
        exps = [k[0] for k in a.terms]
        return min(exps), max(exps)

    def norm(self, a):
        lo, hi = self.span(a)
        return hi - lo

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def submul(y, q, x):
        return y - q * x

    def divstep(self, pivot, entry):
        """Pseudo-division: (scale, q) with scale*entry - q*pivot of norm
        < norm(pivot), where scale is a power of the pivot's leading
        coefficient (a unit scalar).  No coefficient division happens."""
        if entry.is_zero():
            return self.one, self.zero
        plo, phi = self.span(pivot)
        pd = phi - plo
        plead = Scalar.of(self.field, pivot.terms[(phi,)])
        q = self.zero
        rem = entry
        scale = Scalar.of(self.field, 1)
        while not rem.is_zero():
            rlo, rhi = self.span(rem)
            if rhi - rlo < pd:
                break
            c = rem.terms[(rhi,)]
            mono = GroupRingElem.monomial(_Z1, self.field, (rhi - phi,), c)
            q = q.scale(plead.v) + mono
            rem = rem.scale(plead.v) - mono * pivot
            scale = scale * plead
        return GroupRingElem.monomial(_Z1, self.field, (0,), scale.v), q

    def exact_div(self, a, b):
        scale, q = self.divstep(b, a)
        if not (a * scale - q * b).is_zero():
            raise CoefficientError("not divisible in Lambda")
        inv = self.unit_inverse(scale)
        return inv * q

    def _strip(self, a):
        """Unit making a canonical (monomial part, sign/lead, content)."""
        if a.is_zero():
            return None
        unit, canon = self.unit_normalize(a)
        total = self.unit_inverse(unit)
        c = self.content_unit([canon])
        if c is not None:
            total = c * total
        return total

    def gcd_bezout(self, a, b):
        """(g, sigma, tau, alpha, beta) with sigma a + tau b = g, a = alpha g,
        b = beta g, and sigma alpha + tau beta = 1.

        Primitive pseudo-Euclid: every remainder is stripped to a primitive
        canonical polynomial (a unit rescaling), which is what keeps the
        coefficient growth of the chain polynomial.  When a divides b, tau is
        guaranteed to be 0 so the pivot row/column is only unit-rescaled."""
        one = self.one
        try:
            beta = self.exact_div(b, a)
        except CoefficientError:
            beta = None
        if beta is not None:
            unit = self._strip(a) or one
            g = unit * a
            inv = self.unit_inverse(unit)
            return g, unit, self.zero, inv, inv * beta
        r0, s0, t0 = a, one, self.zero
        r1, s1, t1 = b, self.zero, one
        u = self._strip(r0)
        if u is not None:
            r0, s0, t0 = u * r0, u * s0, u * t0
        u = self._strip(r1)
        if u is not None:
            r1, s1, t1 = u * r1, u * s1, u * t1
        while not r1.is_zero():
            scale, q = self.divstep(r1, r0)
            r2 = scale * r0 - q * r1
            s2 = scale * s0 - q * s1
            t2 = scale * t0 - q * t1
            u = self._strip(r2)
            if u is not None:
                r2, s2, t2 = u * r2, u * s2, u * t2
            r0, s0, t0 = r1, s1, t1
            r1, s1, t1 = r2, s2, t2
        g, sigma, tau = r0, s0, t0
        alpha = self.exact_div(a, g)
        beta = self.exact_div(b, g)
        return g, sigma, tau, alpha, beta

    def unit_normalize(self, a):
        """(unit, canonical) with a = unit * canonical; canonical is a monic
        polynomial with nonzero constant term (lowest exponent 0)."""
        if a.is_zero():
            return self.one, a
        lo, hi = self.span(a)
        lead = a.terms[(hi,)]
        unit = GroupRingElem.monomial(_Z1, self.field, (lo,), lead)
        return unit, self.unit_inverse(unit) * a

    def unit_inverse(self, u):
        lo = next(iter(u.terms))[0]
        inv = Scalar.of(self.field, u.terms[(lo,)]).inverse()
        return GroupRingElem.monomial(_Z1, self.field, (-lo,), inv.v)

    def is_unit(self, a):
        return len(a.terms) == 1

    def content_unit(self, entries):
        """Scalar unit making the coefficient content of a row/column 1.

        Over Q this is lcm(denominators)/gcd(numerators): content extraction
        is what keeps coefficient growth in check during elimination.  Over
        other coefficient fields there is nothing to gain."""
        if self.field.kind != "Q":
            return None
        num_gcd, den_lcm = 0, 1
        for e in entries:
            for v in e.terms.values():
                num_gcd = math.gcd(num_gcd, v.numerator)
                den_lcm = den_lcm * v.denominator // math.gcd(den_lcm, v.denominator)
        if num_gcd == 0:
            return None
        scale = Fraction(den_lcm, num_gcd)
        if scale == 1:
            return None
        return GroupRingElem.monomial(_Z1, self.field, (0,), scale)


def _kernel_basis_pid(matrix, ctx, ncols: int) -> list[list]:
    """Basis of the kernel of `matrix` over the PID, via the SNF transforms:
    the columns of V matching zero diagonal entries."""
    nrows = len(matrix)
    if ncols == 0:
        return []
    if nrows == 0:
        return [[ctx.one if i == j else ctx.zero for i in range(ncols)] for j in range(ncols)]
    diag, U, V, _ = _snf_engine(ctx, matrix)
    kernel_cols = [j for j in range(ncols) if j >= len(diag) or ctx.is_zero(diag[j])]
    return [[V[i][j] for i in range(ncols)] for j in kernel_cols]


def _solve_in_column_span(K_cols, target, ctx):
    """Solve K y = target where the columns K_cols are independent; exact
    divisions must succeed (target must lie in the span)."""
    n = len(target)
    k = len(K_cols)
    if k == 0:
        if any(not ctx.is_zero(x) for x in target):
            raise CoefficientError("target outside zero span")
        return []
    matrix = [[K_cols[j][i] for j in range(k)] for i in range(n)]
    diag, U, V, _ = _snf_engine(ctx, matrix)
    rhs = [_dot(ctx, U[i], target) for i in range(n)]
    z = []
    for i in range(n):
        if i < len(diag) and not ctx.is_zero(diag[i]):
            z.append(ctx.exact_div(rhs[i], diag[i]))
        elif not ctx.is_zero(rhs[i]):
            raise CoefficientError("target outside column span")
    z += [ctx.zero] * (k - len(z))
    return [_dot(ctx, V[i], z) for i in range(k)]


def _dot(ctx, row, vec):
    acc = ctx.zero
    for a, b in zip(row, vec):
        if not ctx.is_zero(a) and not ctx.is_zero(b):
            acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def presentation_matrix(C, q: int):
    """Presentation matrix of H_q = ker d_q / im d_{q+1} over Lambda: kernel
    basis via SNF transforms, then the image expressed in that basis."""
    if C.group != _Z1:
        raise ValidationError("homology decomposition requires group Z")
    if not C.field.is_field:
        raise UnsupportedCoefficients("field coefficients required")
    ctx = _LaurentCtx(C.field)
    dq = C.boundary(q)
    K = _kernel_basis_pid(dq, ctx, C.dims[q] if q <= C.top else 0)
    if q >= C.top:
        image_cols = []
    else:
        dq1 = C.boundary(q + 1)
        image_cols = [[dq1[i][j] for i in range(len(dq1))] for j in range(C.dims[q + 1])]
    Y = [
        _solve_in_column_span(K, col, ctx) for col in image_cols
    ]  # rows of Y = coordinates of each image column
    # presentation matrix: len(K) x #image-columns
    return [[Y[j][i] for j in range(len(Y))] for i in range(len(K))], len(K)


def homology_decomposition(C, q: int) -> LaurentModuleDecomp:
    """Eq-style structure data of H_q(X, kZ_nu): run SNF on a presentation
    matrix, strip units, and split each invariant factor into its (t-1)-adic
    part and an f(1) != 0 cofactor."""
    P, k = presentation_matrix(C, q)
    ctx = _LaurentCtx(C.field)
    field = C.field
    if not P or not P[0]:
        diag = []
    else:
        diag = smith_normal_form(P).diagonal
    tm1 = GroupRingElem.monomial(_Z1, field, (1,)) - GroupRingElem.one(_Z1, field)
    invariant_factors = []
    blocks = []
    others = {}
    nonzero = 0
    for d in diag:
        if ctx.is_zero(d):
            continue
        nonzero += 1
        _, canon = ctx.unit_normalize(d)
        if ctx.is_unit(canon):
            continue
        invariant_factors.append(canon)
        e = 0
        rem = canon
        while True:
            if not rem.augmentation():  # (t-1) | rem  iff  rem(1) = 0
                rem = ctx.exact_div(rem, tm1)
                e += 1
            else:
                break
        if e:
            blocks.append(e)
        _, rem = ctx.unit_normalize(rem)
        if not ctx.is_unit(rem):
            key = str(rem)
            if key in others:
                f, exp, mult = others[key]
                others[key] = (f, exp, mult + 1)
            else:
                others[key] = (rem, 1, 1)
    free_rank = k - nonzero
    return LaurentModuleDecomp(
        free_rank, invariant_factors, blocks, sorted(others.values(), key=lambda t: str(t[0])), field
    )
