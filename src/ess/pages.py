"""The spectral-sequence engine.

Pages E^r_{-s,t} of the J-adic filtration on C_*(X, kG) are computed exactly
on the filtered complex truncated at F^M.  On Z^n, M = S_max + R_max.  This
is sound on the window: quotienting by F^M changes no entry E^r_{-s} with
s + r <= M, because d preserves F^M and F^M lies inside every denominator in
that range (checked as the window-stability invariant in the test suite, not
assumed).  On Z_m, M = e and the quotient changes no page at all: J^e is an
idempotent ideal, kZ_m = kZ_m/J^e x J^e as filtered rings, and the factor
J^e, on which J is invertible, adds nothing to gr.  Every page over kZ_m is a
page over kZ_m/J^e = k[u]/u^e, u = t - 1, the ring of Z cut at degree e.

Over a field the truncated complex splits into interval pieces, so every page
is read off the pairs of one persistence column reduction per degree
(Zomorodian-Carlsson), run from the top degree down with clearing (Chen-Kerber):
a pivot row of d_{q+1} is a column of d_q that reduces to zero, so it is never
reduced.  E^1 is checked against dim gr^s(kG) * b_q(X, k).  No boundary is
stored: PageComputation._column builds any column from the expansion_coords of
the entries.  Multiplication is a shift on every model, so a pivot is read off
without its column, which is built only if that pivot is taken: most columns
are apparent pairs (Bauer, Ripser).  Every elimination here (the pairs, the
homology bases, d^1 and the k-rank of the Reznikov check) reduces sparse
vectors in coeffs.Echelon, fraction-free on integer columns over Q.  All of it
runs on raw payloads (over Q ints until a division), and every result (bases,
coordinates, d^1 matrices) is a dense list of payloads.

Also here: the closed-form d^1 (lift a homology basis, apply the equivariant
boundary once, read the gr^1 component), and the Reznikov-case full collapse,
whose pages are computed over the requested window only and whose E^oo totals
are checked over the whole filtration against the rank of each boundary's
rows, a reduction of the transpose.
"""

from __future__ import annotations

import bisect
import math
import operator
from types import MappingProxyType

from .coeffs import Echelon, FieldDescriptor
from .complexes import betti_numbers
from .errors import (CoefficientError, CrossCheckError, InputError, UnsupportedCoefficients,
                     ValidationError)
from .groupring import (GroupDescriptor, GroupRingElem, cyclic_filtration, expansion_coords,
                        gr_dimension, monomials_of_degree)

INF = math.inf
MAX_MODEL_DIM = 1 << 24  # basis vectors of one FiltrationModel, checked before any is built
_NO_RANKS = MappingProxyType({})  # the d_ranks of every page with no d^r


def kernel(field: FieldDescriptor, columns):
    """The relations among columns: for each column j that depends on the
    earlier ones, e_j minus its expression in the earlier independent columns,
    as a sparse {index: coefficient} dict (the free-column basis of the
    reduced echelon form)."""
    ech = Echelon(field)
    for j, col in enumerate(columns):
        ech.add(dict(col), j)
    return ech.relations


def solve_mod(field: FieldDescriptor, gens, subspace, targets):
    """For each target, the coordinates c with target = sum c_i gens[i]
    modulo span(subspace), as a dense list of payloads; all vectors are
    sparse raw columns.  Raises CoefficientError if the gens are dependent
    modulo the subspace or a target is not in span(gens + subspace)."""
    ech = Echelon(field)
    for col in subspace:
        ech.add(dict(col))
    for i, col in enumerate(gens):
        if ech.add(dict(col), i) is None:
            raise CoefficientError("generators dependent modulo subspace")
    zero = field._of_int(0)
    out = []
    for target in targets:
        coords = {}
        if ech.reduce(dict(target), coords) is not None:
            raise CoefficientError("target not in span of generators + subspace")
        out.append([coords.get(i, zero) for i in range(len(gens))])
    return out


class FiltrationModel:
    """A finite-dimensional k-model of kG adapted to the J-adic filtration.

    The basis is ordered with valuations nondecreasing, so J^s corresponds to
    a suffix of the coordinates.  It is kZ^n/J^M with monomial basis
    x^alpha = prod (t_i - 1)^{a_i}, |alpha| < M, of valuation |alpha|, and
    the coordinates of an element are groupring.expansion_coords cut at M,
    as raw payloads.  Z_m is the case n = 1 cut at M = e, whatever the
    window: kZ_m/J^e = k[u]/u^e with u = t - 1, the factor of kZ_m that
    carries the whole filtration (see groupring._CyclicFiltration).  On both,
    multiplication by a basis vector is a shift.

    `order` lists the basis by descending valuation, ties by index, and
    `place` is its inverse: the page engine numbers rows and columns so, and
    every F^s is a prefix.
    """

    def __init__(self, group: GroupDescriptor, field: FieldDescriptor, M: int):
        self.group, self.field = group, field
        n, self.M = ((group.n, M) if group.kind == "free_abelian"
                     else (1, cyclic_filtration(group.m, field).e))
        if (dim := math.comb(self.M - 1 + n, n)) > MAX_MODEL_DIM:
            raise InputError(f"the filtration model of k[{group}] cut at degree {self.M} has "
                             f"{dim} basis vectors, past the limit {MAX_MODEL_DIM}")
        by_deg = [monomials_of_degree(n, deg) for deg in range(self.M)]
        self.monomials = [alpha for alphas in by_deg for alpha in alphas]
        self.vals = [deg for deg, alphas in enumerate(by_deg) for _ in alphas]
        # alpha as the integer sum a_i M^(n-1-i): lex order is integer
        # order, and with |alpha + beta| < M the key of alpha + beta is a sum
        weights = [self.M ** k for k in reversed(range(n))]
        self.key = lambda alpha: sum(map(operator.mul, alpha, weights))
        self.keys = [sum(map(operator.mul, alpha, weights)) for alpha in self.monomials]
        self.index = dict(zip(self.keys, range(len(self.keys))))  # key -> basis index
        self.dim = len(self.monomials)
        self.order = sorted(range(self.dim), key=self.vals.__getitem__, reverse=True)  # stable
        self.place = sorted(range(self.dim), key=self.order.__getitem__)

    def offset(self, s: int) -> int:
        """First basis index with valuation >= s."""
        return bisect.bisect_left(self.vals, s)

    def reduce(self, elem: GroupRingElem):
        """Adapted coordinates of the image of elem in the model, as raw payloads."""
        out = [self.field._of_int(0)] * self.dim
        for beta, x in expansion_coords(elem, self.M).items():
            out[self.index[self.key(beta)]] = x
        return out


class PageTable:
    """Dimensions and d^r ranks of one page over a window of (s, q).

    `entries` and `d_ranks` are read-only: equal pages of one computation
    share the same two dicts, which `cli.cmd_pages` encodes once."""

    def __init__(self, r, entries, d_ranks, window):
        self.r = r
        self.entries = entries  # (s, q) -> dim
        self.d_ranks = d_ranks  # (s, q) -> rank of d^r out of that spot
        self.window = window    # (S_max, Q_max)

    def dim(self, s, q):
        return self.entries.get((s, q), 0)

    def row(self, q):
        return [self.dim(s, q) for s in range(self.window[0] + 1)]


class PageComputation:
    """Shared state for computing pages of one complex over one window."""

    def __init__(self, C, R_max: int, S_max: int):
        if not C.field.is_field:
            raise UnsupportedCoefficients("spectral sequence needs field coefficients; "
                                          "reduce Z coefficients to a field first")
        if R_max < 1 or S_max < 0:
            raise ValidationError("window needs R_max >= 1 and S_max >= 0")
        self.C, self.field, self.R_max, self.S_max = C, C.field, R_max, S_max
        self.M = S_max + R_max
        self.model, self.Q = FiltrationModel(C.group, C.field, self.M), C.top
        self._entries, self._pages = {}, None
        self.apparent = self.reduced = 0  # columns of the pairs paired as they stand / reduced

    # -- truncated complex ----------------------------------------------------

    def vdim(self, q: int) -> int:
        return self.model.dim * self.C.dims[q] if 0 <= q <= self.Q else 0

    def _cells(self, q: int):
        """Per cell j of V_q, the entries i of d_q e_j as (i, terms), terms the
        (|beta|, key of beta, payload) of expansion_coords cut at M, in order."""
        if q not in self._entries:
            model = self.model
            nsrc, ndst = (self.C.dims[p] if self.vdim(p) else 0 for p in (q, q - 1))
            self._entries[q] = [[(i, terms) for i in range(ndst) if (terms := sorted(
                (sum(beta), model.key(beta), x) for beta, x in
                expansion_coords(self.C.boundary(q)[i][j], model.M).items()))]
                for j in range(nsrc)]
        return self._entries[q]

    def _column(self, q: int, g: int, rows):
        """Column g = b * nsrc + j of d_q: basis vector b times the entries of
        cell j, cut at degree M; cell i of basis vector b' is row rows[b'] * ndst + i."""
        model, cells, ndst = self.model, self._cells(q), self.C.dims[q - 1]
        b, j = divmod(g, len(cells))
        alpha, room, index, col = model.keys[b], model.M - model.vals[b], model.index, {}
        for i, terms in cells[j]:
            for deg, beta, x in terms:
                if deg >= room:
                    break
                col[rows[index[alpha + beta]] * ndst + i] = x
        return col

    def boundary_matrix(self, q: int):
        """The columns of d_q as {global row: nonzero payload}, not stored."""
        return [self._column(q, g, range(self.model.dim)) for g in range(self.vdim(q))]

    def _suffix_indices(self, q: int, s: int):
        return range(self.model.offset(s) * self.vdim(q) // self.model.dim, self.vdim(q))

    # -- persistence pairs -----------------------------------------------------

    def _pivots(self, q: int, cleared):
        """(g, pivot) for each column g of d_q not cleared, in the order of
        _pairs, without building the column: the pivot is its last row, -1 if
        it is zero.  Multiplication is a shift, so the pivot of column
        (alpha, j) is alpha + beta_j at cell i_j, beta_j the lex-largest
        least-degree term in cell j and i_j the last entry carrying it (a shift
        by alpha keeps the lex order of one degree), unless
        |alpha + beta_j| >= M."""
        model, ndst, nsrc = self.model, self.C.dims[q - 1], self.C.dims[q]
        leads = [max(((-deg, beta, i) for i, terms in entries for deg, beta, _ in terms),
                     default=(-model.M, 0, 0)) for entries in self._cells(q)]
        place, index, keys, vals, M = model.place, model.index, model.keys, model.vals, model.M
        for b in model.order:
            alpha, room, base = keys[b], M - vals[b], b * nsrc
            for j, (nd, beta, i) in enumerate(leads):
                if not cleared[base + j]:
                    yield base + j, place[index[alpha + beta]] * ndst + i if nd + room > 0 else -1

    def _pairs(self, q: int, cleared=None):
        """Persistence pairs (i, j) of d_q: column j reduces to pivot row i.
        Both bases are ordered by descending valuation, ties by index (so
        model.place), and every F^s is a prefix.  Columns g with cleared[g]
        set, pivot rows of d_{q+1}, reduce to zero and are skipped (clearing).
        Every other column comes from _pivots as its index and pivot.  With a
        free pivot it pairs as it stands (an apparent pair) and is stored as
        its index; a column is built only when it is reduced or a reduction
        uses it."""
        ndst, order, place = self.C.dims[q - 1], self.model.order, self.model.place
        if not self.vdim(q - 1) or not self.vdim(q):
            return []
        ech = Echelon(self.field, lambda g: self._column(q, g, place))
        owner, pairs, seen, reduced = ech.owner, [], 0, 0
        for seen, (g, low) in enumerate(self._pivots(q, cleared or bytes(self.vdim(q))), 1):
            if low not in owner:
                if low < 0:
                    continue
                owner[low] = g
            else:
                reduced += 1
                low = ech.add(ech.build(g), low=low)
                if low is None:
                    continue
            pairs.append((order[low // ndst] * ndst + low % ndst, g))
        self.apparent += seen - reduced
        self.reduced += reduced
        return pairs

    def _barcode(self):
        """(entries, ranks, unpaired) of the window s <= S_max, for every page
        in one pass.  A class at (s, q) alive on pages 1..life (INF if never
        killed) counts on E^r for r <= life, so entries[r - 1] = dims of E^r
        are suffix sums over the lives, one dict per distinct page, the last
        serving every later page; ranks[r][(s, q)] is the rank of d^r out of
        (s, q); unpaired[q] = dim H_q of the truncated complex."""
        vals, dims, S, model = self.model.vals, self.C.dims, self.S_max, self.model
        lives, ranks = {}, {}  # life -> {(s, q): classes}
        unpaired = [self.vdim(q) for q in range(self.Q + 1)]
        sizes = [model.offset(s + 1) - model.offset(s) for s in range(S + 1)]
        free = [[n * dims[q] for n in sizes] for q in range(self.Q + 1)]  # (s, q) in no pair

        def add(table, key, spot, n):
            inner = table.setdefault(key, {})
            inner[spot] = inner.get(spot, 0) + n

        cleared = bytearray(self.vdim(self.Q))  # top down: the pivot rows of d_{q+1}
        for q in range(self.Q, 0, -1):
            below, bars = bytearray(self.vdim(q - 1)), {}
            for i, j in self._pairs(q, cleared):
                below[i] = 1
                bar = vals[j // dims[q]], vals[i // dims[q - 1]]
                bars[bar] = bars.get(bar, 0) + 1
            cleared = below
            # the interval piece x -> dx, column at b and pivot row at a >= b,
            # lives on pages r <= a - b at both ends and carries rank 1 of
            # d^{a-b}; a vector in no pair lives on every page
            for (b, a), n in bars.items():
                unpaired[q] -= n
                unpaired[q - 1] -= n
                if b <= S:
                    free[q][b] -= n
                    if a > b:
                        add(lives, a - b, (b, q), n)
                        add(ranks, a - b, (b, q), n)
                if a <= S:
                    free[q - 1][a] -= n
                    if a > b:
                        add(lives, a - b, (a, q - 1), n)
        for q, row in enumerate(free):
            for s, n in enumerate(row):
                if n:
                    add(lives, INF, (s, q), n)
        top = max((life for life in lives if life < INF), default=0) + 1
        entries, acc = [], {}
        for r in range(top, 0, -1):
            born = lives.get(INF if r == top else r)
            if born:
                acc = dict(acc)
                for spot, n in born.items():
                    acc[spot] = acc.get(spot, 0) + n
            entries.append(acc)
        return entries[::-1], ranks, unpaired

    # -- pages -----------------------------------------------------------------

    def page(self, r: int) -> PageTable:
        """E^r over the window; every page is computed on the first call."""
        if self._pages is None:
            self._pages = self._barcode()
        entries, ranks, _ = self._pages
        return PageTable(r, entries[min(r, len(entries)) - 1], ranks.get(r, _NO_RANKS),
                         (self.S_max, self.Q))

    def pages(self) -> list[PageTable]:
        tables = [self.page(r) for r in range(1, self.R_max + 1)]
        self._check_bookkeeping(tables)
        return tables

    def _check_bookkeeping(self, tables):
        """E^1 against the closed form dim E^1_{-s,s+q} = dim gr^s(kG) * b_q(X, k)."""
        e1 = tables[0]
        betti = betti_numbers(self.C)
        for s in range(self.S_max + 1):
            gr = gr_dimension(self.C.group, self.field, s)
            for q in range(self.Q + 1):
                if e1.dim(s, q) != gr * betti[q]:
                    raise CrossCheckError(
                        f"E^1 at s={s}, q={q} has dim {e1.dim(s, q)}, but "
                        f"dim gr^{s} * b_{q} = {gr} * {betti[q]} "
                        f"(field {self.field}, group {self.C.group}, "
                        f"window R={self.R_max} S={self.S_max})"
                    )

    # -- canonical d^1 ----------------------------------------------------------

    def canonical_e1_vectors(self, q: int, s: int, hreps):
        """Sparse vectors representing (gr^s basis) x (homology basis) in V_q."""
        ncells = self.C.dims[q]
        return [{b * ncells + c: x for c, x in enumerate(h) if x}
                for b in range(self.model.offset(s), self.model.offset(s + 1)) for h in hreps]

    def d1_matrix(self, q: int, s: int = 0):
        """Matrix of d^1: E^1_{-s,s+q} -> E^1_{-s-1,s+q} in the canonical
        bases (gr^s basis x H_q basis) -> (gr^{s+1} basis x H_{q-1} basis).
        Rows ordered gr-index-major."""
        if q < 1 or q > self.Q:
            return []
        hsrc, _ = homology_data(self.C, q)
        htgt, _ = homology_data(self.C, q - 1)
        src = self.canonical_e1_vectors(q, s, hsrc)
        tgt = self.canonical_e1_vectors(q - 1, s + 1, htgt)
        bt = self.boundary_matrix(q)
        # F^{s+2} V_{q-1} + d(F^{s+1} V_q)
        den = [{g: self.field._of_int(1)} for g in self._suffix_indices(q - 1, s + 2)]
        den += [bt[g] for g in self._suffix_indices(q, s + 1)]
        cols = solve_mod(self.field, tgt, den, [_apply(self.field, bt, v) for v in src])
        return [[col[i] for col in cols] for i in range(len(tgt))]


def _apply(field, columns, vec):
    """The sparse matrix with the given columns applied to a sparse vector."""
    add, mul = field._add, field._mul
    out = {}
    for g, x in vec.items():
        for i, y in columns[g].items():
            out[i] = add(out[i], mul(y, x)) if i in out else mul(y, x)
    return {i: x for i, x in out.items() if x}


def window_collapse_page(tables: list[PageTable]):
    """First page index r such that from r on, all windowed differentials
    vanish and the entries stay constant (necessary-only evidence for E^oo;
    the authoritative answer for G = Z is the SNF route)."""
    collapse, last = None, tables[-1].entries if tables else None
    for tab in reversed(tables):  # the stable pages are a tail
        if tab.d_ranks or (tab.entries is not last and tab.entries != last):
            break
        collapse = tab.r
    return collapse


# ---------------------------------------------------------------------------
# Homology bases over k (canonical, shared by the engine and the closed form)
# ---------------------------------------------------------------------------


def homology_data(C, q: int):
    """(homology representative cycles, boundary-space basis) for H_q(X, k).

    Representatives are kernel vectors of the epsilon boundary chosen by
    deterministic greedy extension of the boundary space.
    """
    if q < 0 or q > C.top:
        return [], []
    field = C.field
    ncells = C.dims[q]
    eps = C.epsilon_boundary(q)
    cycles = kernel(field, [{i: x for i, x in enumerate(col) if x} for col in zip(*eps)]
                    if eps else [{}] * ncells)
    bcols = list(zip(*C.epsilon_boundary(q + 1))) if q < C.top and ncells else []
    ech = Echelon(field)
    bbasis = [list(v) for v in bcols
              if ech.add({i: x for i, x in enumerate(v) if x}) is not None]
    zero = field._of_int(0)
    hreps = [[rel.get(c, zero) for c in range(ncells)]
             for rel in cycles if ech.add(dict(rel)) is not None]
    return hreps, bbasis


def d1_closed_form(C):
    """The d^1 differential gr^0 x H_q -> gr^1 x H_{q-1} per degree, computed
    without the page engine: lift each homology basis cycle to C_q(X, kG),
    apply the equivariant boundary once, reduce entries mod J^2, and express
    the gr^1 components back in the homology basis.

    Returns {q: matrix over k}, rows ordered gr^1-index-major, matching
    PageComputation.d1_matrix(q, 0).
    """
    if not C.field.is_field:
        raise UnsupportedCoefficients("closed-form d1 needs field coefficients")
    field = C.field
    model = FiltrationModel(C.group, C.field, 2)
    gr1 = list(range(model.offset(1), model.offset(2)))
    out = {}
    for q in range(1, C.top + 1):
        hsrc, _ = homology_data(C, q)
        htgt, btgt = homology_data(C, q - 1)
        bd = C.boundary(q)
        ncells_tgt = C.dims[q - 1]
        targets = []  # (j, gi) -> the gr^1 component at gi of d(lift of h_j)
        for h in hsrc:
            # w_i = sum_c bd[i][c] * h[c] in kG, one entry per target cell
            images = []
            for i in range(ncells_tgt):
                w = GroupRingElem.zero(C.group, field)
                for c in range(C.dims[q]):
                    if h[c] and bd[i][c]:
                        w = w + bd[i][c].scale(h[c])
                if w.augmentation():
                    raise CrossCheckError("boundary of a cycle lift not in J")
                images.append(model.reduce(w))
            targets += [{i: img[b] for i, img in enumerate(images) if img[b]}
                        for b in gr1]
        coords = solve_mod(field, [{i: x for i, x in enumerate(v) if x} for v in htgt],
                           [{i: x for i, x in enumerate(v) if x} for v in btgt], targets)
        out[q] = [[coords[j * len(gr1) + gi][l] for j in range(len(hsrc))]
                  for gi in range(len(gr1)) for l in range(len(htgt))]
    return out


# ---------------------------------------------------------------------------
# Reznikov case: full collapse for G = Z_{p^r}, char k = p
# ---------------------------------------------------------------------------


def reznikov_collapse(C, S_max: int | None = None, R_max: int | None = None):
    """The pages E^1 .. E^min(R_max, p^r) for G = Z_{p^r} over characteristic
    p (default: all of them, up to E^{p^r} = E^oo), over the window s <= S_max
    (default p^r - 1, the whole filtration), with total graded dimensions
    checked against dim_k H_q(X, kZ_{p^r}) computed independently by plain
    k-linear rank arithmetic.

    Here e = p^r: the model is all of kZ_{p^r} whatever the window, and
    J^{p^r} = 0, so the vectors of V_q in no pair count E^oo_q summed over
    every s: the totals are checked over the whole filtration, not only
    inside the window or up to the last page built.

    Returns (tables, homology_dims).
    """
    group = C.group
    if group.kind != "cyclic" or group.prime_power is None:
        raise ValidationError("Reznikov collapse needs G = Z_{p^r}")
    p, r = group.prime_power
    if C.field.characteristic != p:
        raise ValidationError(f"field characteristic {C.field.characteristic} != p = {p}")
    n = group.m  # p^r; J^n = 0
    comp = PageComputation(C, R_max=n if R_max is None else min(R_max, n),
                           S_max=n - 1 if S_max is None else S_max)
    tables = comp.pages()
    ranks = [_k_rank(comp, q) for q in range(C.top + 2)]
    hom_dims = [comp.vdim(q) - ranks[q] - ranks[q + 1] for q in range(C.top + 1)]
    _, _, unpaired = comp._pages
    for q, total in enumerate(unpaired):
        if total != hom_dims[q]:
            raise CrossCheckError(f"E^infinity total {total} != dim H_{q} = {hom_dims[q]}")
    return tables, hom_dims


def _k_rank(comp: PageComputation, q: int) -> int:
    """Rank over k of the truncated boundary d_q, for the E^oo check of
    reznikov_collapse: the rows of d_q, built from _cells in one loop (the
    arithmetic of _column), go into an `Echelon`.  A reduction of the transpose,
    with other vectors, pivots and order than _pairs, it repeats nothing."""
    cells = comp._cells(q) if 1 <= q <= comp.Q else ()
    if not any(cells):  # no entries: d_q = 0
        return 0
    model, ndst, index = comp.model, comp.C.dims[q - 1], comp.model.index
    rows = [{} for _ in range(comp.vdim(q - 1))]
    for b in range(model.dim):
        alpha, room = model.keys[b], model.M - model.vals[b]
        for g, entries in enumerate(cells, b * len(cells)):
            for i, terms in entries:
                for deg, beta, x in terms:
                    if deg >= room:
                        break
                    rows[index[alpha + beta] * ndst + i][g] = x
    ech = Echelon(comp.field)
    return sum(ech.add(row) is not None for row in rows)
