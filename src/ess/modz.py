"""Module theory over the PID Lambda = k[t^{+-1}] and over Z: Smith normal
form, decomposition of H_q(X, kZ_nu) into free and primary parts, the
associated-graded module of the (t-1)-adic filtration, and the
monodromy-triviality report.

The decomposition needs no presentation of ker d_q.  Over a PID the image
of d_q is free, so ker d_q is a direct summand of C_q, and

    H_q = Lambda^{n_q - rk d_q - rk d_{q+1}} + sum Lambda/(e_i)

with e_i the non-unit invariant factors of d_{q+1}.  Both ranks and the e_i
come from one verified SNF per boundary, and d_q serves H_{q-1} and H_q.

The SNF over Lambda runs on the raw Laurent polynomials of
`coeffs.LaurentRing`; `_LaurentCtx` adds the conversions from and to
GroupRingElem (both hold raw coefficient payloads), and only the diagonal is
converted back.  A unit pivot clears its row and column with one fused
y - q*x per entry; other pivots go through Bezout blocks.  Every SNF carries
U and V and is verified (U A V = D and the divisibility chain) before it is
returned.
"""

from __future__ import annotations

import math
import operator

from .coeffs import LaurentRing, ratio
from .errors import (CoefficientError, CrossCheckError, UnsupportedCoefficients,
                     ValidationError)
from .groupring import GroupDescriptor, GroupRingElem

_Z1 = GroupDescriptor.free_abelian(1)


# ---------------------------------------------------------------------------
# Euclidean contexts: Z with |.|, Lambda with degree span
# ---------------------------------------------------------------------------


class _IntCtx:
    """Z as a Euclidean domain for the SNF engine (plain Python ints)."""

    name = "Z"
    one = 1
    zero = 0
    is_zero = staticmethod(operator.not_)
    norm = staticmethod(abs)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    raw = lift = staticmethod(operator.pos)  # ints are their own raw form

    @staticmethod
    def submul(y, q, x):
        return y - q * x

    @staticmethod
    def exact_div(a, b):
        q, r = divmod(a, b)
        if r != 0:
            raise CoefficientError("not divisible")
        return q

    @staticmethod
    def gcd_bezout(a, b):
        """(g, sigma, tau, alpha, beta): sigma a + tau b = g = gcd >= 0,
        alpha = a/g, beta = b/g, sigma alpha + tau beta = 1.

        When a divides b, tau is guaranteed to be 0 (the pivot row/column is
        only unit-rescaled), which is what makes the block-clearing loop
        terminate."""
        if b % a == 0:
            g = abs(a)
            sigma = 1 if a > 0 else -1
            return g, sigma, 0, a // g, b // g
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        g, sigma, tau = old_r, old_s, old_t
        if g < 0:
            g, sigma, tau = -g, -sigma, -tau
        return g, sigma, tau, a // g, b // g

    @staticmethod
    def unit_normalize(a):
        """(unit u, canonical a') with a = u * a'; canonical is nonnegative."""
        return (-1, -a) if a < 0 else (1, a)

    @staticmethod
    def unit_inverse(u):
        return u

    @staticmethod
    def is_unit(a):
        return a in (1, -1)

    @staticmethod
    def content_unit(entries):
        # content is not a unit in Z, so no rescaling is allowed
        return None


class _LaurentCtx(LaurentRing):
    """The Laurent ring as the SNF engine's Euclidean context, with the
    conversions between its raw elements and GroupRingElem over kZ."""

    def raw(self, a: GroupRingElem):
        """The raw form of an element of kZ."""
        if a.is_zero():
            return self.zero
        lo = min(k for k, in a.terms)
        cs = [0] * (max(k for k, in a.terms) - lo + 1)
        for (k,), c in a.terms.items():
            cs[k - lo] = c
        den = math.lcm(*(c.denominator for c in cs))
        return (lo, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def lift(self, a) -> GroupRingElem:
        s, cs, den = a
        return GroupRingElem(_Z1, self.field, {(s + i,): ratio(c, den)
                                               for i, c in enumerate(cs) if c})


class SNFResult:
    """The diagonal of a Smith normal form, each entry dividing the next, and
    the shape of the reduced matrix."""

    def __init__(self, diagonal, shape):
        self.diagonal = diagonal
        self.shape = shape

    def nonzero(self):
        return [d for d in self.diagonal if d]  # ints and GroupRingElem: falsy iff 0

    def __repr__(self):
        return f"SNF(diagonal={self.diagonal})"


def _identity(ctx, n):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def _mat_mul_ctx(ctx, a, b):
    if not a or not b:
        return []
    out = [[ctx.zero] * len(b[0]) for _ in a]
    is_zero, add, mul = ctx.is_zero, ctx.add, ctx.mul
    for row, a_row in zip(out, a):
        for x, b_row in zip(a_row, b):
            if not is_zero(x):
                for j, y in enumerate(b_row):
                    if not is_zero(y):
                        row[j] = add(row[j], mul(x, y))
    return out


def _snf_engine(ctx, matrix):
    """Generic SNF over a Euclidean domain: (diagonal, U, V, D), U A V = D.
    Deterministic: pivot = entry of minimal norm, ties broken by lowest row
    then column index.  A unit pivot clears its column and row with one
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


def smith_normal_form(matrix) -> SNFResult:
    """SNF of a matrix over Z (int entries) or Lambda (GroupRingElem over kZ).

    A Laurent matrix is converted once to the raw form of `_LaurentCtx` and
    reduced; only the diagonal is converted back.  Postconditions U.A.V = D
    and the divisibility chain are verified by multiplication on the raw
    matrices before returning.
    """
    rows = [list(r) for r in matrix]
    shape = (len(rows), len(rows[0]) if rows else 0)
    if all(shape) and isinstance(rows[0][0], GroupRingElem):
        ctx = _LaurentCtx(rows[0][0].field)
    else:
        ctx = _IntCtx()
    A = [[ctx.raw(x) for x in r] for r in rows]
    diag, U, V, _ = _snf_engine(ctx, A)
    _verify_snf(ctx, A, diag, U, V)
    return SNFResult([ctx.lift(d) for d in diag], shape)


def _verify_snf(ctx, A, diagonal, U, V):
    prod = _mat_mul_ctx(ctx, _mat_mul_ctx(ctx, U, A), V)
    nrows, ncols = len(A), len(A[0]) if A else 0
    where = f"over {ctx.name} on a {nrows}x{ncols} matrix"
    for i in range(nrows):
        for j in range(ncols):
            expect = diagonal[i] if i == j and i < len(diagonal) else ctx.zero
            if not ctx.is_zero(ctx.sub(prod[i][j], expect)):
                raise CrossCheckError(
                    f"SNF verification failed {where}: (U A V)[{i}][{j}] = "
                    f"{ctx.lift(prod[i][j])}, expected D[{i}][{j}] = {ctx.lift(expect)}"
                )
    nz = [d for d in diagonal if not ctx.is_zero(d)]
    for k, (a, b) in enumerate(zip(nz, nz[1:])):
        try:
            ctx.exact_div(b, a)
        except CoefficientError:
            raise CrossCheckError(
                f"SNF divisibility chain violated {where}: diagonal entry {k} "
                f"({ctx.lift(a)}) does not divide entry {k + 1} ({ctx.lift(b)})"
            ) from None


# ---------------------------------------------------------------------------
# Homology decomposition
# ---------------------------------------------------------------------------


class LaurentModuleDecomp:
    """Free rank plus primary-part data of a f.g. k[t^{+-1}]-module.

    tminus1_blocks lists the sizes of (t-1)-primary Jordan blocks; the
    other_primary entries (f, exponent, multiplicity) all satisfy f(1) != 0
    and are left unfactored beyond separating the (t-1) part.
    """

    def __init__(self, free_rank, invariant_factors, tminus1_blocks, other_primary, field):
        self.free_rank = free_rank
        self.invariant_factors = invariant_factors
        self.tminus1_blocks = sorted(tminus1_blocks)
        self.other_primary = other_primary
        self.field = field

    @property
    def separated(self) -> bool:
        """The J-adic filtration is separated iff there is no f(1) != 0 part."""
        return not self.other_primary

    def to_json(self, q=None):
        doc = {
            "free_rank": self.free_rank,
            "t_minus_1_blocks": list(self.tminus1_blocks),
            "other_primary": [
                {"poly": str(f), "exp": e, "mult": m} for f, e, m in self.other_primary
            ],
            "separated": self.separated,
        }
        if q is not None:
            doc["q"] = q
        return doc

    def __repr__(self):
        return (
            f"LaurentModuleDecomp(free={self.free_rank}, "
            f"blocks={self.tminus1_blocks}, other={self.other_primary})"
        )


def _boundary_invariants(C, q: int, ctx, memo: dict):
    """(rank, canonical non-unit invariant factors in raw form) of d_q over
    Lambda, from one verified SNF kept in `memo`; (0, []) for a boundary
    without rows or columns."""
    if q not in memo:
        rank, factors = 0, []
        if 1 <= q <= C.top and C.dims[q - 1] and C.dims[q]:
            for d in smith_normal_form(C.boundary(q)).nonzero():
                rank += 1
                _, canon = ctx.unit_normalize(ctx.raw(d))
                if not ctx.is_unit(canon):
                    factors.append(canon)
        memo[q] = rank, factors
    return memo[q]


def homology_decomposition(C, q: int, snfs: dict | None = None) -> LaurentModuleDecomp:
    """Structure data of H_q(X, kZ_nu) from the SNFs of the boundaries: the
    free rank and the invariant factors, each split into its (t-1)-adic part
    and an f(1) != 0 cofactor.

    Over the PID Lambda, C_q / ker d_q = im d_q is a submodule of the free
    C_{q-1}, hence free of rank rk d_q, so ker d_q is a direct summand:
    C_q = ker d_q + K' with K' free of rank rk d_q.  Since im d_{q+1} lies in
    ker d_q, coker d_{q+1} = H_q + K'.  The SNF of d_{q+1} gives
    coker d_{q+1} = Lambda^{n_q - rk d_{q+1}} + sum Lambda/(e_i), so

        H_q = Lambda^{n_q - rk d_q - rk d_{q+1}} + sum Lambda/(e_i)

    with e_i the non-unit invariant factors of d_{q+1}.  No presentation of
    ker d_q is built; H_q = 0 outside degrees 0..top.

    `snfs` maps a degree to the data read off the SNF of that boundary;
    callers that decompose several degrees of C pass one dict to all of
    them, so d_q is reduced once for H_{q-1} and H_q.
    """
    if C.group != _Z1:
        raise ValidationError("homology decomposition requires group Z")
    if not C.field.is_field:
        raise UnsupportedCoefficients("field coefficients required")
    ctx = _LaurentCtx(C.field)
    snfs = {} if snfs is None else snfs
    rank_q, _ = _boundary_invariants(C, q, ctx, snfs)
    rank_q1, invariant_factors = _boundary_invariants(C, q + 1, ctx, snfs)
    tm1 = ctx.sub((1,) + ctx.one[1:], ctx.one)
    blocks = []
    others = {}
    for rem in invariant_factors:
        e = 0
        while not ctx._make(0, [sum(rem[1])])[1]:  # (t-1) | rem iff rem(1) = 0
            rem = ctx.exact_div(rem, tm1)
            e += 1
        if e:
            blocks.append(e)
        _, rem = ctx.unit_normalize(rem)
        if not ctx.is_unit(rem):
            others[rem] = others.get(rem, 0) + 1
    n_q = C.dims[q] if 0 <= q <= C.top else 0
    free_rank = n_q - rank_q - rank_q1
    other_primary = sorted(((ctx.lift(f), 1, m) for f, m in others.items()),
                           key=lambda t: str(t[0]))
    return LaurentModuleDecomp(free_rank, [ctx.lift(f) for f in invariant_factors], blocks,
                               other_primary, C.field)


class GrModule:
    """The k[x]-module k[x]^r + sum (k[x]/x^i)^{e_i} (Einfinity shape)."""

    def __init__(self, free_rank: int, block_sizes: list[int]):
        self.free_rank = free_rank
        self.block_sizes = sorted(block_sizes)

    def dims(self, s_max: int) -> list[int]:
        return [
            self.free_rank + sum(1 for b in self.block_sizes if b > s)
            for s in range(s_max + 1)
        ]

    def __repr__(self):
        return f"GrModule(free={self.free_rank}, blocks={self.block_sizes})"


def einf_gr_module(decomp: LaurentModuleDecomp) -> GrModule:
    """gr_J H_q as a k[x]-module: the free rank survives in every degree and
    each (t-1)-block of size i contributes k[x]/x^i."""
    return GrModule(decomp.free_rank, decomp.tminus1_blocks)


def integral_torsion_check(C) -> list[bool]:
    """Torsion-freeness of H_q(X, Z) per degree, from SNF over Z of the
    epsilon-specialized shadow boundaries: torsion-free iff all invariant
    factors of d_{q+1} are 0 or +-1."""
    if C.raw_integral is None:
        raise UnsupportedCoefficients("integral shadow required for torsion check")
    flags = []
    for q in range(C.top + 1):
        mat = C.epsilon_boundary_int(q + 1)
        if not mat or not mat[0]:
            flags.append(True)
            continue
        diag = smith_normal_form(mat).diagonal
        flags.append(all(d in (0, 1) for d in diag))
    return flags


class MonodromyReport:
    """Per-degree decomposition data plus the three equivalent
    trivial-monodromy conditions, cross-checked against each other."""

    def __init__(self, rows, verdicts):
        self.rows = rows          # q -> dict
        self.verdicts = verdicts  # k -> bool (cumulative through degree k)

    def to_json(self):
        return {
            "degrees": self.rows,
            "trivial_through_degree": self.verdicts,
        }


def monodromy_report(C, k_max: int) -> MonodromyReport:
    """Report free/(t-1)-primary structure, Aomoto Betti numbers, and the
    equivalence of the three trivial-monodromy conditions; any disagreement
    between the SNF pipeline and the spectral-sequence pipeline is fatal."""
    from .aomoto import aomoto_betti

    if C.group != _Z1:
        raise ValidationError("monodromy report requires group Z")
    betti = aomoto_betti(C).beta
    snfs = {}
    rows = []
    cond1_all = True
    cond2_all = True
    verdicts = []
    for q in range(k_max + 1):
        if q <= C.top:
            decomp = homology_decomposition(C, q, snfs)
            gr = einf_gr_module(decomp)
            cond1 = decomp.free_rank == 0 and all(b <= 1 for b in decomp.tminus1_blocks)
            cond2 = gr.dims(1)[1] == 0  # J-action trivial iff gr^1 vanishes
        else:
            decomp = LaurentModuleDecomp(0, [], [], [], C.field)
            cond1 = cond2 = True
        row = decomp.to_json(q)
        del row["separated"]
        row.update(beta=betti[q] if q < len(betti) else 0,
                   condition_no_large_blocks=cond1, condition_trivial_action=cond2)
        rows.append(row)
        cond1_all = cond1_all and cond1
        cond2_all = cond2_all and cond2
        cond3_all = all(r["beta"] == 0 for r in rows)
        if not (cond1_all == cond2_all == cond3_all):
            raise CrossCheckError(
                f"trivial-monodromy conditions disagree through degree {q}: "
                f"(1)={cond1_all} (2)={cond2_all} (3)={cond3_all}"
            )
        verdicts.append(cond1_all)
    return MonodromyReport(rows, verdicts)
