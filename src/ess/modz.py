"""Module theory over the PID Lambda = k[t^{+-1}] and over Z: Smith normal
form, decomposition of H_q(X, kZ_nu) into free and primary parts, the
associated-graded module of the (t-1)-adic filtration, and the
monodromy-triviality report.

The decomposition needs no presentation of ker d_q.  Over a PID the image
of d_q is free, so ker d_q is a direct summand of C_q, and

    H_q = Lambda^{n_q - rk d_q - rk d_{q+1}} + sum Lambda/(e_i)

with e_i the non-unit invariant factors of d_{q+1}.  Both ranks and the e_i
come from one verified SNF per boundary, and d_q serves H_{q-1} and H_q.
Since d_{q-1} d_q = 0, an entry w_j of d_{q-1} that divides its row makes
row j of d_q redundant, and it is dropped before the SNF.

The SNF over Lambda runs on the raw Laurent polynomials of
`coeffs.LaurentRing`; `_LaurentCtx` converts a boundary's payload maps (or
GroupRingElem entries) once.  A pivot that divides its row and column (a
unit does) clears them with one fused y - q*x per entry; other pivots go
through Bezout blocks.  Every SNF carries P and Q, the inverses of its row
and column operations, as sparse columns and rows, and is verified
(A = P D Q and the divisibility chain) before it is returned.
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
    neg = staticmethod(operator.neg)
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

    def raw(self, a):
        """The raw form of an element of kZ: a GroupRingElem or its terms."""
        terms = getattr(a, "terms", a)
        if not terms:
            return self.zero
        lo = min(k for k, in terms)
        cs = [0] * (max(k for k, in terms) - lo + 1)
        for (k,), c in terms.items():
            cs[k - lo] = c
        den = math.lcm(*(c.denominator for c in cs))
        return (lo, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def lift(self, a) -> GroupRingElem:
        s, cs, den = a
        return GroupRingElem(_Z1, self.field, {(s + i,): ratio(c, den)
                                               for i, c in enumerate(cs) if c})


class SNFResult:
    """The diagonal of a Smith normal form, each entry dividing the next."""

    def __init__(self, diagonal):
        self.diagonal = diagonal

    def nonzero(self):
        # ints and GroupRingElem are falsy iff 0, raw tuples iff no coefficient
        return [d for d in self.diagonal if (d[1] if isinstance(d, tuple) else d)]

    def __repr__(self):
        return f"SNF(diagonal={self.diagonal})"


def _snf_engine(ctx, matrix):
    """Generic SNF over a Euclidean domain: (diagonal, P, Q) with A = P D Q.

    P = U^-1 and Q = V^-1 for the operations U A V = D, kept as sparse
    columns and rows {index: entry}: row operation E is recorded as
    P <- P E^-1, column operation F as Q <- F^-1 Q.  Pivot: least norm, then
    least Markowitz count (r-1)(c-1) (nonzeros of its row and column in the
    remaining block), then lowest row and column.  A pivot that divides its
    column and row (a unit does) clears them with one `ctx.submul(y, q, x) =
    y - q*x` per entry, recording the exact quotient q = entry/pivot; any
    other pivot meets each entry in a Bezout block [[sigma, tau],
    [-beta, alpha]], recorded as [[alpha, -tau], [beta, sigma]]."""
    A = [list(row) for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    one, zero, is_zero, add, mul, neg = ctx.one, ctx.zero, ctx.is_zero, ctx.add, ctx.mul, ctx.neg
    P = [{i: one} for i in range(nrows)]
    Q = [{j: one} for j in range(ncols)]

    def axpy(x, q, y):
        # x += q*y on sparse vectors, in place
        minus_q = neg(q)
        for k, v in y.items():
            s = ctx.submul(x.get(k, zero), minus_q, v)
            if is_zero(s):
                x.pop(k, None)
            else:
                x[k] = s

    def scaled(c, x):
        return {k: mul(c, v) for k, v in x.items()} if not is_zero(c) else {}

    def content_fix_row(i):
        c = ctx.content_unit(A[i])
        if c is not None:
            A[i] = [mul(c, x) for x in A[i]]
            P[i] = scaled(ctx.unit_inverse(c), P[i])

    def content_fix_col(j):
        c = ctx.content_unit([row[j] for row in A])
        if c is not None:
            for row in A:
                row[j] = mul(c, row[j])
            Q[j] = scaled(ctx.unit_inverse(c), Q[j])

    def record_block(X, i, sg, tu, al, be):
        # X[t], X[i] <- al X[t] + be X[i], sg X[i] - tu X[t]
        old_t, X[t] = X[t], scaled(al, X[t])
        axpy(X[t], be, X[i])
        X[i] = scaled(sg, X[i])
        axpy(X[i], neg(tu), old_t)

    def row_block(i):
        # determinant-1 transform on rows (t, i) putting gcd(A[t][t], A[i][t])
        # in the pivot and 0 below it
        g, sg, tu, al, be = ctx.gcd_bezout(A[t][t], A[i][t])
        new_t = [add(mul(sg, x), mul(tu, y)) for x, y in zip(A[t], A[i])]
        A[i] = [ctx.submul(mul(al, y), be, x) for x, y in zip(A[t], A[i])]
        A[t] = new_t
        record_block(P, i, sg, tu, al, be)
        content_fix_row(t)
        content_fix_row(i)

    def col_block(j):
        g, sg, tu, al, be = ctx.gcd_bezout(A[t][t], A[t][j])
        for row in A:
            x, y = row[t], row[j]
            if not (is_zero(x) and is_zero(y)):
                row[t] = add(mul(sg, x), mul(tu, y))
                row[j] = ctx.submul(mul(al, y), be, x)
        record_block(Q, j, sg, tu, al, be)
        content_fix_col(t)
        content_fix_col(j)

    def divides(a, b):
        try:
            ctx.exact_div(b, a)
        except CoefficientError:
            return False
        return True

    def clear_dividing_pivot():
        # False, changing nothing, unless the pivot divides every entry of
        # its column and row; then one y - q*x per entry, q = entry/pivot
        pivot, pivot_row = A[t][t], A[t]
        try:
            col_q = {i: ctx.exact_div(A[i][t], pivot) for i in range(t + 1, nrows)
                     if not is_zero(A[i][t])}
            row_q = {j: ctx.exact_div(x, pivot) for j, x in enumerate(pivot_row[t + 1:], t + 1)
                     if not is_zero(x)}
        except CoefficientError:
            return False
        for i, q in col_q.items():
            A[i][t] = zero
            for j in row_q:
                A[i][j] = ctx.submul(A[i][j], q, pivot_row[j])
            axpy(P[t], q, P[i])
        for j, q in row_q.items():  # column t is clear below the pivot
            axpy(Q[t], q, Q[j])
            pivot_row[j] = zero
        return True

    t = 0
    while t < min(nrows, ncols):
        nz = [(ctx.norm(A[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols)
              if not is_zero(A[i][j])]
        if not nz:
            break
        in_row, in_col = [0] * nrows, [0] * ncols
        for _, i, j in nz:
            in_row[i] += 1
            in_col[j] += 1
        _, bi, bj = min(nz, key=lambda e: (e[0], (in_row[e[1]] - 1) * (in_col[e[2]] - 1)))
        A[t], A[bi], P[t], P[bi] = A[bi], A[t], P[bi], P[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        Q[t], Q[bj] = Q[bj], Q[t]
        row_dirty = not clear_dividing_pivot()
        # otherwise alternate clearing column t and row t; each col_block may
        # disturb the column, so iterate until both are clear
        while row_dirty:
            for i in range(t + 1, nrows):
                if not is_zero(A[i][t]):
                    row_block(i)
            row_dirty = False
            for j in range(t + 1, ncols):
                if not is_zero(A[t][j]):
                    col_block(j)
                    row_dirty = True
        if ctx.is_unit(A[t][t]):
            t += 1  # a unit pivot divides every remaining entry
            continue
        # enforce divisibility: a row with an entry the pivot does not divide
        # is added to row t (P: column i minus column t) and the pivot restarts
        i = next((i for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                  if not is_zero(A[i][j]) and not divides(A[t][t], A[i][j])), None)
        if i is None:
            t += 1
        else:
            A[t] = [add(a, b) for a, b in zip(A[t], A[i])]
            axpy(P[i], neg(one), P[t])

    # normalize the diagonal: D[i][i] = unit * canonical, the unit goes to P
    diag = [A[i][i] for i in range(min(nrows, ncols))]
    for i, d in enumerate(diag):
        if not is_zero(d):
            unit, diag[i] = ctx.unit_normalize(d)
            P[i] = scaled(unit, P[i])
    return diag, P, Q


def smith_normal_form(matrix, field=None) -> SNFResult:
    """SNF of a matrix over Z (int entries) or Lambda = k[t^{+-1}]:
    GroupRingElem entries over kZ, or, given the field k, the raw payload
    maps {(e,): c} of a boundary (`EquivariantComplex.raw`).

    Each Laurent entry is converted once to the raw form of `_LaurentCtx`;
    the diagonal comes back raw for payload maps and as GroupRingElem for
    GroupRingElem entries.  The certificate A = P D Q and the divisibility
    chain are verified on the raw matrices before returning.
    """
    rows = [list(r) for r in matrix]
    lift = bool(rows and rows[0]) and isinstance(rows[0][0], GroupRingElem)
    if lift:
        field = rows[0][0].field
    ctx = _IntCtx() if field is None else _LaurentCtx(field)
    A = [[ctx.raw(x) for x in r] for r in rows]
    diag, P, Q = _snf_engine(ctx, A)
    _verify_snf(ctx, A, diag, P, Q)
    return SNFResult([ctx.lift(d) for d in diag] if lift else diag)


def _verify_snf(ctx, A, diagonal, P, Q):
    """CrossCheckError unless A = P D Q entry by entry and each nonzero
    diagonal entry divides the next.  P and Q are products of elementary
    matrices of unit determinant by construction, so this certifies D."""
    nrows, ncols = len(A), len(A[0]) if A else 0
    where = f"over {ctx.name} on a {nrows}x{ncols} matrix"
    zero, submul = ctx.zero, ctx.submul
    prod = [{} for _ in range(nrows)]  # the rows of P D Q
    for d, col, row in zip(diagonal, P, Q):
        if not ctx.is_zero(d):
            for i, p in col.items():
                minus_pd, out = ctx.neg(ctx.mul(p, d)), prod[i]
                for j, q in row.items():
                    out[j] = submul(out.get(j, zero), minus_pd, q)
    for i in range(nrows):
        for j in range(ncols):
            got = prod[i].get(j, zero)
            if got != A[i][j]:  # canonical forms: equal elements are equal
                raise CrossCheckError(
                    f"SNF verification failed {where}: (P D Q)[{i}][{j}] = "
                    f"{ctx.lift(got)}, expected A[{i}][{j}] = {ctx.lift(A[i][j])}"
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


def _redundant_row(ring, prev, integral=False):
    """An index j such that row j of d_q lies in the span of its other rows,
    read off the payload maps prev of d_{q-1}, or None.  It rests on
    d_{q-1} d_q = 0, which `parse_document` checks on every input: if an
    entry w_j != 0 of a row w of d_{q-1} divides every w_i (in Z[t^{+-1}]
    with `integral`), row_j(d_q) = -sum_{i != j} (w_i / w_j) row_i(d_q)."""
    for w in prev:
        w = [ring.raw(x) for x in w]
        for j, d in enumerate(w):
            try:  # exact_div raises unless d divides x; [2] is the denominator
                if not ring.is_zero(d) and all(ring.exact_div(x, d)[2] == 1 or not integral
                                               for x in w):
                    return j
            except CoefficientError:
                pass
    return None


def _boundary_invariants(C, q: int, ctx, memo: dict):
    """(rank, canonical non-unit invariant factors in raw form) of d_q over
    Lambda, from one verified SNF kept in `memo`; (0, []) for a boundary
    without rows or columns.  A row that `_redundant_row` finds is deleted
    first, a unimodular row operation: rank and nonzero diagonal stay."""
    if q not in memo:
        rank, factors = 0, []
        if 1 <= q <= C.top and C.dims[q - 1] and C.dims[q]:
            rows, j = C.raw[q - 1], _redundant_row(ctx, C.raw[q - 2] if q > 1 else [])
            for d in smith_normal_form(rows if j is None else rows[:j] + rows[j + 1:],
                                       C.field).nonzero():
                rank += 1
                if not ctx.is_unit(d):
                    factors.append(d)
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
