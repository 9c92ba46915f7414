"""Reference page engine for the tests: kernel/sum/quotient dimension arithmetic.

This is the engine `ess.pages` used before the persistence-pair engine: for
every (r, s, q) it builds a basis of

    Z^r_{-s}[q] = {z in F^s V_q : dz in F^{s+r} V_{q-1}}

and the denominator Z^{r-1}_{-(s+1)} + d Z^{r-1}_{-(s+1-r)}, and reads
dim E^r and rank d^r off ranks of spanning sets.  It is slow but shares no
logic with the pair reading, so the two are compared on small windows.

The oracle also keeps its own dense assembly of the truncated boundary: the
dense multiplication matrix `mult_matrix` and `boundary_matrix` are the ones
`ess.pages` used before it built sparse columns.

The model coordinates come from here too, on `linalg_oracle.Scalar`: the
expansion coefficients of Z^n one binomial at a time
(`expansion_coefficient`), and on Z_m the Taylor coefficients at 1 in closed
form (`cyclic_coords`), in the basis of powers of t - 1 that the oracle
builds itself (`adapted_basis`) and multiplies in monomial coordinates of
kZ_m, t^m = 1.  `ess` reads the same coordinates off Pascal rows and raw
payloads, and multiplies by a shift in k[u]/u^e.  The oracle also keeps the
model of all of kZ_m (`CyclicModel`, `CyclicComputation`), where u^k has
valuation infinity from e on, so that `OraclePages` can compute the pages of
C (x) kZ_m with the factor J^e that `ess` drops.

`uncleared_pairs` is the persistence reduction of one degree as `ess.pages`
ran it before clearing and apparent pairs: every column of the dense d_q is
reduced, none is skipped.

Last come the dense routes to the canonical d^1: `homology_data`,
`d1_matrix` and `d1_closed_form` as `ess.pages` computed them on the dense
`linalg_oracle` elimination, before they moved onto the sparse column
echelon.  They must give the same bases and the same matrices entry for
entry; their Scalars equal the engine's payloads.
"""

from __future__ import annotations

import math

import linalg_oracle as linalg
from ess.coeffs import Echelon
from ess.errors import CrossCheckError
from ess.groupring import GroupRingElem
from ess.pages import FiltrationModel
from linalg_oracle import Scalar


def _binomial(a: int, k: int) -> int:
    """Generalized binomial C(a, k) for any integer a, k >= 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= a - j
    return num // math.factorial(k)


def expansion_coefficient(a: GroupRingElem, beta: tuple):
    """Coefficient of x^beta in the image of a under t_i -> 1 + x_i."""
    acc = Scalar.of(a.field, 0)
    for key, coeff in a.terms.items():
        c = 1
        for ai, bi in zip(key, beta):
            c *= _binomial(ai, bi)
            if c == 0:
                break
        if c:
            acc = acc + Scalar.of(a.field, coeff) * c
    return acc


def adapted_basis(field, m: int):
    """Monomial coordinates of (t - 1)^s, s < m."""
    def power(s):
        v = linalg.zeros(field, m)
        for k in range(s + 1):
            v[k] = Scalar.of(field, (-1) ** (s - k) * math.comb(s, k))
        return v
    return [power(s) for s in range(m)]


def cyclic_coords(field, vec):
    """Coordinates in the basis (t - 1)^k of a vector of monomial
    coordinates (Scalars or payloads): the Taylor coefficients at 1,
    coordinate k of sum a_j t^j being sum a_j C(j, k)."""
    vec = linalg.vector(field, vec)
    return [sum((a * math.comb(j, k) for j, a in enumerate(vec)), Scalar.of(field, 0))
            for k in range(len(vec))]


def reduce(model, elem):
    """Scalar coordinates of the image of elem in a FiltrationModel."""
    if model.group.kind == "free_abelian":
        return [expansion_coefficient(elem, beta) for beta in model.monomials]
    return cyclic_coords(model.field, [elem.terms.get(j, 0)
                                       for j in range(model.group.m)])[:model.dim]


def mult_matrix(model, elem):
    """Dense matrix of v -> v * elem in the adapted coordinates of a
    FiltrationModel (columns = images of basis vectors)."""
    field = model.field
    n = model.dim
    out = [linalg.zeros(field, n) for _ in range(n)]
    if model.group.kind == "free_abelian":
        red = reduce(model, elem)
        index = {alpha: i for i, alpha in enumerate(model.monomials)}
        for col, alpha in enumerate(model.monomials):
            da = sum(alpha)
            for i, beta in enumerate(model.monomials):
                if model.vals[i] + da >= model.M:
                    continue
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                out[index[gamma]][col] = red[i]
        return out
    # cyclic: multiply in monomial coordinates, read adapted coordinates
    m = model.group.m
    basis = adapted_basis(field, m)
    for col in range(n):
        vec_mono = basis[col]
        prod = linalg.zeros(field, m)
        for key, coeff in elem.terms.items():
            for j in range(m):
                if not vec_mono[j].is_zero():
                    prod[(j + key) % m] = prod[(j + key) % m] + vec_mono[j] * coeff
        img = cyclic_coords(field, prod)
        for i in range(n):
            out[i][col] = img[i]
    return out


class CyclicModel:
    """All of kZ_m in the basis u^k = (t - 1)^k, k < m: u^k has valuation k
    below e and infinity from e on, where e is the multiplicity of u in
    t^m - 1 = (1 + u)^m - 1, the least k >= 1 with C(m, k) nonzero in the
    field.  It has what mult_matrix and OraclePages read of a model."""

    def __init__(self, group, field):
        m = group.m
        e = next(k for k in range(1, m + 1) if Scalar.of(field, math.comb(m, k)))
        self.group, self.field, self.M, self.dim = group, field, m, m
        self.vals = list(range(e)) + [math.inf] * (m - e)

    def offset(self, s: int) -> int:
        return next((b for b, v in enumerate(self.vals) if v >= s), self.dim)


class CyclicComputation:
    """The complex and window of a PageComputation on G = Z_m, over all of
    kZ_m (CyclicModel): what boundary_matrix and OraclePages read of a
    computation."""

    def __init__(self, comp):
        self.C, self.field, self.Q, self.S_max = comp.C, comp.field, comp.Q, comp.S_max
        self.model = CyclicModel(comp.C.group, comp.field)

    def vdim(self, q: int) -> int:
        return self.model.dim * self.C.dims[q] if 0 <= q <= self.Q else 0

    def _suffix_indices(self, q: int, s: int):
        return range(self.model.offset(s) * self.vdim(q) // self.model.dim, self.vdim(q))


def boundary_matrix(comp, q: int):
    """Dense truncated boundary V_q -> V_{q-1} of a PageComputation; global
    index b * ncells + c."""
    field = comp.field
    rows, cols = comp.vdim(q - 1), comp.vdim(q)
    mat = [linalg.zeros(field, cols) for _ in range(rows)]
    if rows and cols:
        nsrc = comp.C.dims[q]
        ndst = comp.C.dims[q - 1]
        bd = comp.C.boundary(q)
        for i in range(ndst):
            for j in range(nsrc):
                a = bd[i][j]
                if a.is_zero():
                    continue
                mult = mult_matrix(comp.model, a)
                for bp in range(comp.model.dim):
                    for b in range(comp.model.dim):
                        x = mult[bp][b]
                        if not x.is_zero():
                            mat[bp * ndst + i][b * nsrc + j] = x
    return mat


def uncleared_pairs(comp, q: int):
    """Persistence pairs (i, j) of d_q of a PageComputation with every column
    reduced: column j reduces to pivot row i, in the order of _pairs.  The
    columns are those of the dense boundary_matrix above, and the order is
    a sort, so no column or position code is shared with the engine."""
    vals = comp.model.vals
    nsrc, ndst = comp.C.dims[q], comp.C.dims[q - 1]
    rows, cols = comp.vdim(q - 1), comp.vdim(q)
    if not rows or not cols:
        return []
    row_order = sorted(range(rows), key=lambda g: (-vals[g // ndst], g))
    col_order = sorted(range(cols), key=lambda g: (-vals[g // nsrc], g))
    pos = {i: k for k, i in enumerate(row_order)}
    dense = boundary_matrix(comp, q)
    ech = Echelon(comp.field)
    pairs = []
    for j in col_order:
        low = ech.add({pos[i]: row[j].v for i, row in enumerate(dense) if row[j]})
        if low is not None:
            pairs.append((row_order[low], j))
    return pairs


class OraclePages:
    """Pages of one PageComputation's truncated complex, recomputed by
    kernel/quotient arithmetic."""

    def __init__(self, comp):
        self.comp = comp
        self.field = comp.field
        self._z = {}
        self._dz = {}
        self._bt = {}
        self._cols = {}

    def boundary(self, q: int):
        if q not in self._bt:
            self._bt[q] = boundary_matrix(self.comp, q)
        return self._bt[q]

    def apply_boundary(self, q: int, vec):
        n = self.comp.vdim(q - 1)
        if n == 0:
            return []
        if q not in self._cols:
            # the nonzero entries of each column of the dense boundary
            self._cols[q] = [[(i, a) for i, a in enumerate(col) if not a.is_zero()]
                             for col in linalg.transpose(self.boundary(q))]
        out = linalg.zeros(self.field, n)
        for x, col in zip(vec, self._cols[q]):
            if not x.is_zero():
                for i, a in col:
                    out[i] = out[i] + a * x
        return out

    def z_images(self, q: int, s: int, r: int):
        """The boundaries of the basis vectors of z_space(q, s, r)."""
        key = (q, max(s, 0), s + r)
        if key not in self._dz:
            self._dz[key] = [self.apply_boundary(q, z) for z in self.z_space(q, s, r)]
        return self._dz[key]

    def z_space(self, q: int, s: int, r: int):
        """Basis of Z^r_{-s}[q] = {z in F^s V_q : dz in F^{s+r} V_{q-1}}.

        The filtration is bounded above by F^0 = C, so a negative index s
        means F^0 while the target index s + r stays absolute.
        """
        comp = self.comp
        src = max(s, 0)
        tgt = s + r
        key = (q, src, tgt)
        if key in self._z:
            return self._z[key]
        field = self.field
        n = comp.vdim(q)
        if n == 0:
            basis = []
        elif tgt <= src:
            # d preserves the filtration, so the condition is vacuous
            basis = [linalg.unit_vector(field, n, g) for g in comp._suffix_indices(q, src)]
        else:
            cols = list(comp._suffix_indices(q, src))
            if not cols:
                basis = []
            else:
                constraint = []
                if comp.vdim(q - 1):
                    bt = self.boundary(q)
                    row_stop = comp.model.offset(tgt) * comp.C.dims[q - 1]
                    constraint = [[bt[i][g] for g in cols] for i in range(row_stop)]
                small = linalg.kernel_basis(field, constraint, ncols=len(cols))
                basis = []
                for sv in small:
                    v = linalg.zeros(field, n)
                    for g, x in zip(cols, sv):
                        v[g] = x
                    basis.append(v)
        self._z[key] = basis
        return basis

    def _denominator(self, q: int, s: int, r: int):
        """Spanning set of Z^{r-1}_{-(s+1)}[q] + d Z^{r-1}_{-(s+1-r)}[q+1]."""
        return self.z_space(q, s + 1, r - 1) + self.z_images(q + 1, s + 1 - r, r - 1)

    def entry_dim(self, r: int, s: int, q: int) -> int:
        if q < 0 or q > self.comp.Q or s < 0:
            return 0
        num = self.z_space(q, s, r)
        if not num:
            return 0
        den = self._denominator(q, s, r)
        return len(num) - linalg.span_rank(self.field, den)

    def d_rank(self, r: int, s: int, q: int) -> int:
        """Rank of d^r out of position (-s, s+q)."""
        if q <= 0 or q > self.comp.Q or s < 0:
            return 0
        src = self.z_space(q, s, r)
        if not src:
            return 0
        imgs = self.z_images(q, s, r)
        den = self._denominator(q - 1, s + r, r)
        base = linalg.span_rank(self.field, den)
        return linalg.span_rank(self.field, den + imgs) - base

    def page(self, r: int):
        """(entries, d_ranks) of E^r over the window, nonzero values only."""
        entries = {}
        d_ranks = {}
        for q in range(self.comp.Q + 1):
            for s in range(self.comp.S_max + 1):
                d = self.entry_dim(r, s, q)
                if d:
                    entries[(s, q)] = d
                rk = self.d_rank(r, s, q)
                if rk:
                    d_ranks[(s, q)] = rk
        return entries, d_ranks


# ---------------------------------------------------------------------------
# Dense d^1 routes on linalg_oracle
# ---------------------------------------------------------------------------


def dense_columns(comp, q: int):
    """The oracle's dense boundary_matrix(comp, q) as column vectors."""
    if not comp.vdim(q - 1):
        return [[] for _ in range(comp.vdim(q))]
    return linalg.transpose(boundary_matrix(comp, q))


def homology_data(C, q: int):
    """(homology representative cycles, boundary-space basis) for H_q(X, k),
    by RREF kernel and greedy extension of the boundary space."""
    if q < 0 or q > C.top:
        return [], []
    field = C.field
    ncells = C.dims[q]
    eps = C.epsilon_boundary(q)
    cycles = linalg.kernel_basis(field, eps, ncols=ncells)
    bcols = []
    if q < C.top:
        nxt = C.epsilon_boundary(q + 1)
        for j in range(C.dims[q + 1]):
            bcols.append([nxt[i][j] for i in range(ncells)])
    bbasis = []
    for v in bcols:
        if not linalg.in_span(field, bbasis, v):
            bbasis.append(v)
    hreps = []
    span = list(bbasis)
    for v in cycles:
        if not linalg.in_span(field, span, v):
            span.append(v)
            hreps.append(v)
    return hreps, bbasis


def canonical_e1_vectors(comp, q: int, s: int, hreps):
    """Dense vectors representing (gr^s basis) x (homology basis) in V_q."""
    ncells = comp.C.dims[q]
    out = []
    for b in range(comp.model.offset(s), comp.model.offset(s + 1)):
        for h in hreps:
            v = linalg.zeros(comp.field, comp.vdim(q))
            for c in range(ncells):
                v[b * ncells + c] = h[c]
            out.append(v)
    return out


def d1_matrix(comp, q: int, s: int = 0):
    """d^1: E^1_{-s,s+q} -> E^1_{-s-1,s+q} of a PageComputation in the
    canonical bases, one solve_mod_subspace per source vector."""
    if q < 1 or q > comp.Q:
        return []
    hsrc, _ = homology_data(comp.C, q)
    htgt, _ = homology_data(comp.C, q - 1)
    src = canonical_e1_vectors(comp, q, s, hsrc)
    tgt = canonical_e1_vectors(comp, q - 1, s + 1, htgt)
    field, n = comp.field, comp.vdim(q - 1)
    bt = boundary_matrix(comp, q)
    cols_q = dense_columns(comp, q)
    # F^{s+2} V_{q-1} + d(F^{s+1} V_q)
    den = [linalg.unit_vector(field, n, g) for g in comp._suffix_indices(q - 1, s + 2)]
    den += [cols_q[g] for g in comp._suffix_indices(q, s + 1)]
    cols = []
    for v in src:
        w = [sum((a * x for a, x in zip(row, v)), Scalar.of(field, 0)) for row in bt]
        cols.append(linalg.solve_mod_subspace(field, tgt, den, w))
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(tgt))]


def d1_closed_form(C):
    """{q: d^1 gr^0 x H_q -> gr^1 x H_{q-1}} from one lift of each homology
    cycle, read mod J^2 and solved in the homology basis."""
    field = C.field
    model = FiltrationModel(C.group, C.field, 2)
    gr1 = list(range(model.offset(1), model.offset(2)))
    out = {}
    for q in range(1, C.top + 1):
        hsrc, _ = homology_data(C, q)
        htgt, btgt = homology_data(C, q - 1)
        bd = C.boundary(q)
        ncells_tgt = C.dims[q - 1]
        matrix = [linalg.zeros(field, len(hsrc)) for _ in range(len(gr1) * len(htgt))]
        for j, h in enumerate(hsrc):
            images = []
            for i in range(ncells_tgt):
                w = GroupRingElem.zero(C.group, field)
                for c in range(C.dims[q]):
                    if h[c] and bd[i][c]:
                        w = w + bd[i][c].scale(h[c].v)
                if w.augmentation():
                    raise CrossCheckError("boundary of a cycle lift not in J")
                images.append(reduce(model, w))
            for gi, b in enumerate(gr1):
                yvec = [images[i][b] for i in range(ncells_tgt)]
                coords = linalg.solve_mod_subspace(field, htgt, btgt, yvec)
                for l, cval in enumerate(coords):
                    matrix[gi * len(htgt) + l][j] = cval
        out[q] = matrix
    return out
