"""Reference homology decomposition for the tests: the presentation-matrix route.

This is how `ess.modz` decomposed H_q(X, kZ_nu) before it read the module
off the SNFs of the boundaries: a basis of ker d_q from the SNF transforms of
d_q, every image column of d_{q+1} solved in that basis (one more SNF per
column), and the SNF of the resulting presentation matrix.  It is slow but
builds ker d_q explicitly, so the two routes are compared on small inputs.
"""

from __future__ import annotations

from ess.errors import CoefficientError, UnsupportedCoefficients, ValidationError
from ess.groupring import GroupRingElem
from ess.modz import (_Z1, LaurentModuleDecomp, _LaurentCtx, _snf_engine,
                      smith_normal_form)


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
            if rem.augmentation().is_zero():  # (t-1) | rem  iff  rem(1) = 0
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
