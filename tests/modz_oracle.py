"""Reference homology decomposition for the tests: the presentation-matrix route.

This is how `ess.modz` decomposed H_q(X, kZ_nu) before it read the module
off the SNFs of the boundaries: a basis of ker d_q from the SNF transforms of
d_q, every image column of d_{q+1} solved in that basis (one more SNF per
column), and the SNF of the resulting presentation matrix.  It is slow but
builds ker d_q explicitly, so the two routes are compared on small inputs.

Its SNF is `snf_uv`, the Euclidean elimination `ess.modz` ran before it
recorded inverse transforms: dense U and V with U A V = D, every row and
column operation applied to them.  The kernel bases and the solves read U
and V, so this route shares no elimination code with `ess`.

`_LaurentCtx` is the Euclidean context the SNF engine used before it ran on
raw Laurent polynomials: the same pseudo-division, Bezout step, content
step and normalisation, computed with `GroupRingElem`, whose leading
coefficients are divided and multiplied as `linalg_oracle.Scalar`.  Run
through `ess.modz._snf_engine`, it must give the same diagonal and
transforms P and Q as the raw context.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ess.coeffs import FieldDescriptor
from ess.errors import CoefficientError, UnsupportedCoefficients, ValidationError
from ess.groupring import GroupRingElem
from ess.modz import _Z1, LaurentModuleDecomp
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


def _identity(ctx, n):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def snf_uv(ctx, matrix):
    """The Euclidean SNF with its transforms: (diagonal, U, V, D), U A V = D.
    U and V are dense and every row or column operation is applied to them.
    Pivot = entry of minimal norm, ties broken by lowest row then column
    index.  A unit pivot clears its column and row with one
    `ctx.submul(y, q, x) = y - q*x` per entry, q = entry/pivot; any other
    pivot meets each entry in a determinant-1 Bezout block."""
    A = [list(row) for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    U = _identity(ctx, nrows)
    V = _identity(ctx, ncols)

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def content_fix_row(i):
        c = ctx.content_unit(A[i])
        if c is not None:
            A[i] = [ctx.mul(c, x) for x in A[i]]
            U[i] = [ctx.mul(c, x) for x in U[i]]

    def content_fix_col(j):
        c = ctx.content_unit([row[j] for row in A])
        if c is not None:
            for row in A:
                row[j] = ctx.mul(c, row[j])
            for row in V:
                row[j] = ctx.mul(c, row[j])

    def row_block(i):
        # determinant-1 transform on rows (t, i) putting gcd(A[t][t], A[i][t])
        # in the pivot and 0 below it
        g, sg, tu, al, be = ctx.gcd_bezout(A[t][t], A[i][t])
        new_t = [ctx.add(ctx.mul(sg, x), ctx.mul(tu, y)) for x, y in zip(A[t], A[i])]
        new_i = [ctx.submul(ctx.mul(al, y), be, x) for x, y in zip(A[t], A[i])]
        A[t], A[i] = new_t, new_i
        new_tu = [ctx.add(ctx.mul(sg, x), ctx.mul(tu, y)) for x, y in zip(U[t], U[i])]
        new_iu = [ctx.submul(ctx.mul(al, y), be, x) for x, y in zip(U[t], U[i])]
        U[t], U[i] = new_tu, new_iu
        content_fix_row(t)
        content_fix_row(i)

    def col_block(j):
        g, sg, tu, al, be = ctx.gcd_bezout(A[t][t], A[t][j])
        for row in A + V:
            x, y = row[t], row[j]
            if not (ctx.is_zero(x) and ctx.is_zero(y)):
                row[t] = ctx.add(ctx.mul(sg, x), ctx.mul(tu, y))
                row[j] = ctx.submul(ctx.mul(al, y), be, x)
        content_fix_col(t)
        content_fix_col(j)

    def clear_unit_pivot():
        inv = ctx.unit_inverse(A[t][t])
        for i in range(t + 1, nrows):
            if not ctx.is_zero(A[i][t]):
                q = ctx.mul(A[i][t], inv)
                A[i] = [ctx.submul(y, q, x) for y, x in zip(A[i], A[t])]
                U[i] = [ctx.submul(y, q, x) for y, x in zip(U[i], U[t])]
        for j in range(t + 1, ncols):
            if not ctx.is_zero(A[t][j]):
                q = ctx.mul(A[t][j], inv)
                A[t][j] = ctx.zero  # column t is clear below the pivot
                for row in V:
                    row[j] = ctx.submul(row[j], q, row[t])

    t = 0
    while t < min(nrows, ncols):
        # find minimal-norm nonzero entry in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if not ctx.is_zero(A[i][j]):
                    nm = ctx.norm(A[i][j])
                    if best is None or nm < best[0]:
                        best = (nm, i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        if ctx.is_unit(A[t][t]):
            clear_unit_pivot()
            t += 1
            continue
        # alternate clearing column t and row t; each col_block may disturb
        # the column, so iterate until both are clear
        while True:
            for i in range(t + 1, nrows):
                if not ctx.is_zero(A[i][t]):
                    row_block(i)
            row_dirty = False
            for j in range(t + 1, ncols):
                if not ctx.is_zero(A[t][j]):
                    col_block(j)
                    row_dirty = True
            if not row_dirty:
                break
        if ctx.is_unit(A[t][t]):
            t += 1  # a unit pivot divides every remaining entry
            continue
        # enforce divisibility: pivot must divide every remaining entry
        fixed = False
        for i in range(t + 1, nrows):
            if fixed:
                break
            for j in range(t + 1, ncols):
                if ctx.is_zero(A[i][j]):
                    continue
                try:
                    ctx.exact_div(A[i][j], A[t][t])
                except CoefficientError:
                    # add offending row to row t and restart this pivot
                    A[t] = [ctx.add(a, b) for a, b in zip(A[t], A[i])]
                    U[t] = [ctx.add(a, b) for a, b in zip(U[t], U[i])]
                    fixed = True
                    break
        if fixed:
            continue
        t += 1

    # normalize diagonal entries; absorb units into U rows
    for i in range(min(nrows, ncols)):
        if ctx.is_zero(A[i][i]):
            continue
        unit, canon = ctx.unit_normalize(A[i][i])
        if not ctx.is_zero(ctx.sub(A[i][i], canon)):
            inv = ctx.unit_inverse(unit)
            A[i] = [ctx.mul(inv, x) for x in A[i]]
            U[i] = [ctx.mul(inv, x) for x in U[i]]
    diag = [A[i][i] for i in range(min(nrows, ncols))]
    return diag, U, V, A


def _kernel_basis_pid(matrix, ctx, ncols: int) -> list[list]:
    """Basis of the kernel of `matrix` over the PID, via the SNF transforms:
    the columns of V matching zero diagonal entries."""
    nrows = len(matrix)
    if ncols == 0:
        return []
    if nrows == 0:
        return [[ctx.one if i == j else ctx.zero for i in range(ncols)] for j in range(ncols)]
    diag, U, V, _ = snf_uv(ctx, matrix)
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
    diag, U, V, _ = snf_uv(ctx, matrix)
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
    diag = snf_uv(ctx, P)[0] if P and P[0] else []
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
        free_rank, invariant_factors, blocks, sorted(others.values(), key=lambda t: str(t[0]))
    )


# ---------------------------------------------------------------------------
# Seeded inputs for the row rule of `ess.modz._redundant_row`
# ---------------------------------------------------------------------------


def spell_in_kernel(word, nu, gens):
    """A relator in the kernel of the character nu (images of `gens` in
    order) from a word of letters +-(index + 1) with as many positive as
    negative letters: its k-th positive letter x and k-th negative letter y
    are spelt x^nu(y) and y^-nu(x), so the image is
    sum_k nu(x) nu(y) - nu(y) nu(x) = 0."""
    partners = {1: [-x - 1 for x in word if x < 0], -1: [x - 1 for x in word if x > 0]}
    letters = []
    for x in word:
        sign = 1 if x > 0 else -1
        e = sign * nu[partners[sign].pop(0)]
        letter = gens[abs(x) - 1]
        letters.append((letter if e > 0 else letter.upper()) * abs(e))
    return "".join(letters)


def undivided_row(ring, prev, integral=False):
    """A mutant of `ess.modz._redundant_row` without the divisibility test:
    the first entry of least norm in the first nonzero row."""
    for w in prev:
        nz = [(ring.norm(x), j) for j, x in enumerate(map(ring.raw, w)) if not ring.is_zero(x)]
        if nz:
            return min(nz)[1]
    return None
