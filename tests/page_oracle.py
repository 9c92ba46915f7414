"""Reference page engine for the tests: kernel/sum/quotient dimension arithmetic.

This is the engine `ess.pages` used before the persistence-pair engine: for
every (r, s, q) it builds a basis of

    Z^r_{-s}[q] = {z in F^s V_q : dz in F^{s+r} V_{q-1}}

and the denominator Z^{r-1}_{-(s+1)} + d Z^{r-1}_{-(s+1-r)}, and reads
dim E^r and rank d^r off ranks of spanning sets.  It is slow but shares no
logic with the pair reading, so the two are compared on small windows.
"""

from __future__ import annotations

from ess import linalg


class OraclePages:
    """Pages of one PageComputation's truncated complex, recomputed by
    kernel/quotient arithmetic."""

    def __init__(self, comp):
        self.comp = comp
        self.field = comp.field
        self._z = {}

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
                    bt = comp.boundary_matrix(q)
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
            out.append(self.comp.apply_boundary(q + 1, w))
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
        imgs = [self.comp.apply_boundary(q, v) for v in src]
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
