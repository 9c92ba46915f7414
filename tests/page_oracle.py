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
"""

from __future__ import annotations

from ess import linalg


def mult_matrix(model, elem):
    """Dense matrix of v -> v * elem in the adapted coordinates of a
    FiltrationModel (columns = images of basis vectors)."""
    field = model.field
    n = model.dim
    out = [[field.zero() for _ in range(n)] for _ in range(n)]
    if model.group.kind == "free_abelian":
        red = model.reduce(elem)
        for col, alpha in enumerate(model.monomials):
            da = sum(alpha)
            for i, beta in enumerate(model.monomials):
                if model.vals[i] + da >= model.M:
                    continue
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                out[model.index[gamma]][col] = red[i]
        return out
    # cyclic: multiply in monomial coordinates, read adapted coordinates
    m = model.group.m
    filt = model._filt
    for col in range(n):
        vec_mono = filt.adapted[col]
        prod = linalg.zeros(field, m)
        for key, coeff in elem.terms.items():
            for j in range(m):
                if not vec_mono[j].is_zero():
                    prod[(j + key) % m] = prod[(j + key) % m] + vec_mono[j] * coeff
        img = filt.coords(prod)
        for i in range(n):
            out[i][col] = img[i]
    return out


def boundary_matrix(comp, q: int):
    """Dense truncated boundary V_q -> V_{q-1} of a PageComputation; global
    index b * ncells + c."""
    field = comp.field
    rows, cols = comp.vdim(q - 1), comp.vdim(q)
    mat = [[field.zero() for _ in range(cols)] for _ in range(rows)]
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


class OraclePages:
    """Pages of one PageComputation's truncated complex, recomputed by
    kernel/quotient arithmetic."""

    def __init__(self, comp):
        self.comp = comp
        self.field = comp.field
        self._z = {}
        self._bt = {}

    def boundary(self, q: int):
        if q not in self._bt:
            self._bt[q] = boundary_matrix(self.comp, q)
        return self._bt[q]

    def apply_boundary(self, q: int, vec):
        if self.comp.vdim(q - 1) == 0:
            return []
        out = []
        for row in self.boundary(q):
            acc = self.field.zero()
            for a, x in zip(row, vec):
                if not a.is_zero() and not x.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return out

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
        out = list(self.z_space(q, s + 1, r - 1))
        for w in self.z_space(q + 1, s + 1 - r, r - 1):
            out.append(self.apply_boundary(q + 1, w))
        return out

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
        imgs = [self.apply_boundary(q, v) for v in src]
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
