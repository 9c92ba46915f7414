"""Independent checks of ``ess`` outputs, computed with ``sympy``.

Nothing here imports ``ess``.  The oracle builds the chain complex of a
presentation itself (Fox calculus pushed along ``nu``) and derives each
answer by a different route from the one ``ess`` takes:

* ``pages``: ``dim E^1_{-s,s+q} = dim gr^s(kG) * b_q(X, k)``, with ``b_q``
  from ranks of the augmented boundaries; on ``Z_{p^r}`` in characteristic
  ``p`` also ``dim_k H_q(X, kZ_{p^r})`` from the expanded boundary matrices,
  which ``E^infinity`` must add up to.
* ``decompose``/``monodromy``: invariant factors of each boundary over
  ``k[t]`` give ``H_q`` directly: free rank ``n_q - rk d_q - rk d_{q+1}`` and
  torsion from the invariant factors of ``d_{q+1}``.  The Aomoto Betti numbers
  come from the linear part of the boundary at ``t = 1``.
* ``alexander``: the gcd of the ``(g-1)``-minors over ``Z[t]``.
* ``twisted``: ``rank d(zeta_d)`` is the number of invariant factors over
  ``Q[t]`` that ``Phi_d`` does not divide.
* ``bounds``: the three columns from the routes above, torsion from the SNF
  over ``Z`` of the augmented boundaries.

``check(op, stdout)`` returns ``None`` when the output is right and a
message otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations

import sympy
from sympy import GF, QQ, ZZ, Matrix, Poly
from sympy.matrices.normalforms import invariant_factors, smith_normal_form
from sympy.polys.matrices import DomainMatrix

T = sympy.Symbol("t")


# ---------------------------------------------------------------------------
# Chain complexes of presentations
# ---------------------------------------------------------------------------


class Space:
    """The cellular chain complex of a presentation 2-complex (plus extra
    cells), with entries as Laurent polynomials ``{exponent: int}`` over the
    deck group.  Exponents are ints for ``Z`` and ``Z_m`` (unreduced) and
    tuples for ``Z^n``."""

    def __init__(self, doc: dict, quotient: str | None):
        pres = doc["presentation"]
        gens = pres["generators"]
        images = [pres["nu"][g] for g in gens]
        self.modulus = None
        if quotient is None:
            self.images = [tuple(v) if isinstance(v, list) else v for v in images]
        else:
            flat = [sum(v) if isinstance(v, list) else v for v in images]
            if quotient.startswith("Zmod:"):
                self.modulus = int(quotient.split(":")[1])
            self.images = flat
        index = {g: i for i, g in enumerate(gens)}
        words = [[index[c] + 1 if c.islower() else -(index[c.lower()] + 1) for c in rel]
                 for rel in pres["relators"]]
        self.dims = [1, len(gens)] + ([len(words)] if words else [])
        d1 = [[self._add({self.images[i]: 1}, {self._zero(): -1}) for i in range(len(gens))]]
        self.boundaries = [d1]
        if words:
            self.boundaries.append(
                [[self._fox(w, i + 1) for w in words] for i in range(len(gens))])
        # Extra cells only enter through their augmentation (t_i = 1).
        self.extra_eps = []
        for cell in doc.get("extra_cells", []):
            rows = [[_augment_text(x) for x in row] for row in cell["matrix"]]
            self.dims.append(len(rows[0]))
            self.extra_eps.append(rows)

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def _zero(self):
        first = self.images[0]
        return tuple(0 for _ in first) if isinstance(first, tuple) else 0

    def _mul_exp(self, a, b, sign):
        if isinstance(a, tuple):
            return tuple(x + sign * y for x, y in zip(a, b))
        return a + sign * b

    @staticmethod
    def _add(p, q):
        out = dict(p)
        for k, v in q.items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def _fox(self, word, i):
        """nu(d word / d x_i) by the product rule: +prefix at x_i, -prefix
        including the letter at x_i^-1."""
        out = {}
        key = self._zero()
        for letter in word:
            img = self.images[abs(letter) - 1]
            if letter == i:
                out[key] = out.get(key, 0) + 1
            key = self._mul_exp(key, img, 1 if letter > 0 else -1)
            if letter == -i:
                out[key] = out.get(key, 0) - 1
        return {k: v for k, v in out.items() if v}

    def epsilon(self, q: int) -> list[list[int]]:
        """Augmented boundary d_q(1), a dims[q-1] x dims[q] integer matrix."""
        if q <= len(self.boundaries):
            return [[sum(e.values()) for e in row] for row in self.boundaries[q - 1]]
        return self.extra_eps[q - 1 - len(self.boundaries)]

    def derivative(self, q: int) -> list[list[int]]:
        """Linear part of d_q at t = 1 (group Z): sum of k * c_k."""
        return [[sum(k * c for k, c in e.items()) for e in row]
                for row in self.boundaries[q - 1]]

    def poly_matrix(self, q: int) -> Matrix:
        """d_q over k[t] (group Z): each column times the power of t that
        clears its negative exponents, a unit of k[t^+-1]."""
        mat = self.boundaries[q - 1]
        cols = len(mat[0])
        shift = [min((k for row in mat for k in row[j]), default=0) for j in range(cols)]
        return Matrix(len(mat), cols, lambda i, j: sum(
            c * T ** (k - shift[j]) for k, c in mat[i][j].items()))

    def expanded(self, q: int) -> list[list[int]]:
        """d_q over k as a (m * dims[q-1]) x (m * dims[q]) matrix, G = Z_m."""
        m = self.modulus
        mat = self.boundaries[q - 1]
        rows, cols = len(mat), len(mat[0])
        out = [[0] * (m * cols) for _ in range(m * rows)]
        for i in range(rows):
            for j in range(cols):
                for k, c in mat[i][j].items():
                    for b in range(m):
                        out[((b + k) % m) * rows + i][b * cols + j] += c
        return out


def _augment_text(text: str) -> int:
    expr = sympy.parse_expr(text.replace("^", "**"))
    return int(expr.subs({s: 1 for s in expr.free_symbols}))


# ---------------------------------------------------------------------------
# Linear algebra over k = Q or F_p
# ---------------------------------------------------------------------------


def _char(field: str) -> int:
    """Characteristic of a coefficient field written as "Q" or "Fp:<p>"."""
    return 0 if field in ("Q", "Z") else int(field.split(":")[1])


def _domain(field: str):
    return GF(_char(field)) if _char(field) else QQ


def rank(rows, dom) -> int:
    if not rows or not rows[0]:
        return 0
    return DomainMatrix.from_Matrix(Matrix(rows)).convert_to(dom).rank()


def betti(space: Space, dom) -> list[int]:
    ranks = [0] + [rank(space.epsilon(q), dom) for q in range(1, space.top + 1)] + [0]
    return [space.dims[q] - ranks[q] - ranks[q + 1] for q in range(space.top + 1)]


def aomoto_betti(space: Space, dom) -> list[int]:
    """dim E^2_{-1, 1+q} = b_q - rk delta_q - rk delta_{q+1}, where delta_q:
    H_q -> H_{q-1} is [z] -> [B_q z] for d_q = A_q + (t-1) B_q + ..."""
    def delta_rank(q):
        if q < 1 or q > space.top:
            return 0
        A = DomainMatrix.from_Matrix(Matrix(space.epsilon(q))).convert_to(dom)
        B = DomainMatrix.from_Matrix(Matrix(space.derivative(q))).convert_to(dom)
        kernel = A.nullspace()  # rows span ker A
        if kernel.shape[0] == 0:
            return 0
        image = B * kernel.transpose()
        return A.hstack(image).rank() - A.rank()

    b = betti(space, dom)
    return [b[q] - delta_rank(q) - delta_rank(q + 1) for q in range(space.top + 1)]


def _poly(expr, field: str) -> Poly:
    if _char(field):
        return Poly(expr, T, modulus=_char(field))
    return Poly(expr, T, domain=QQ)


def _strip_t(f: Poly) -> Poly:
    while not f.is_zero and f.eval(0) == 0:
        f = f.exquo(Poly(T, T, domain=f.domain))
    return f


def laurent_invariant_factors(space: Space, q: int, field: str) -> list[Poly]:
    """Nonzero invariant factors of d_q over k[t^+-1]: monic, t-free."""
    if q < 1 or q > len(space.boundaries):
        return []
    dom = _domain(field)[T]
    out = []
    for e in invariant_factors(space.poly_matrix(q), domain=dom):
        f = _poly(e, field)
        if not f.is_zero:
            out.append(_strip_t(f).monic())
    return out


def module_rows(space: Space, field: str) -> list[dict]:
    """Free rank, (t-1)-blocks and other primary parts of each H_q."""
    inv = [laurent_invariant_factors(space, q, field) for q in range(space.top + 2)]
    tm1 = _poly(T - 1, field)
    rows = []
    for q in range(space.top + 1):
        free = space.dims[q] - len(inv[q]) - len(inv[q + 1])
        blocks, others = [], Counter()
        for f in inv[q + 1]:
            if f.degree() == 0:
                continue
            e = 0
            while f.rem(tm1).is_zero:
                f = f.exquo(tm1)
                e += 1
            if e:
                blocks.append(e)
            if f.degree() > 0:
                others[tuple(f.monic().all_coeffs())] += 1
        rows.append({"free_rank": free, "blocks": sorted(blocks), "others": others})
    return rows


def _ess_others(entries, field: str) -> Counter:
    out = Counter()
    for o in entries:
        f = _poly(sympy.parse_expr(o["poly"].replace("^", "**"), {"t": T}), field) ** o["exp"]
        out[tuple(_strip_t(f).monic().all_coeffs())] += o["mult"]
    return out


def twisted_betti(space: Space, d: int) -> list[int]:
    phi = Poly(sympy.cyclotomic_poly(d, T), T, domain=QQ)
    ranks = [0]
    for q in range(1, space.top + 1):
        inv = laurent_invariant_factors(space, q, "Q")
        ranks.append(sum(1 for f in inv if not f.rem(phi).is_zero))
    ranks.append(0)
    return [space.dims[q] - ranks[q] - ranks[q + 1] for q in range(space.top + 1)]


# ---------------------------------------------------------------------------
# Per-verb checks
# ---------------------------------------------------------------------------


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _gr_dim(space: Space, field: str, s: int) -> int:
    if space.modulus is None:
        first = space.images[0]
        n = len(first) if isinstance(first, tuple) else 1
        return math.comb(s + n - 1, n - 1)
    # kZ_m = k[t]/(t^m - 1): J^s/J^{s+1} is k for s < e, the multiplicity of
    # (t - 1) in t^m - 1, and 0 beyond.
    p = _char(field)
    m, e = space.modulus, 1
    while p and m % p == 0:
        m //= p
        e *= p
    return 1 if s < e else 0


def check_pages(space, argv, doc, field):
    S = int(_opt(argv, "--S", "3"))
    dom = _domain(field)
    b = betti(space, dom)
    pages = {p["page"]: {(e["s"], e["q"]): e["dim"] for e in p["entries"]} for p in doc["pages"]}
    for s in range(S + 1):
        for q in range(space.top + 1):
            want = _gr_dim(space, field, s) * b[q]
            got = pages[1].get((s, q), 0)
            if got != want:
                return f"E^1 at s={s} q={q}: {got} != dim gr^{s} * b_{q} = {want}"
    m, p = space.modulus, _char(field)
    if m and p and sympy.primefactors(m) == [p]:
        ranks = [0] + [rank(space.expanded(q), dom) for q in range(1, space.top + 1)] + [0]
        hom = [m * space.dims[q] - ranks[q] - ranks[q + 1] for q in range(space.top + 1)]
        if doc.get("homology_dims") != hom:
            return f"homology dims {doc.get('homology_dims')} != {hom}"
        last = pages[max(pages)]
        totals = [sum(last.get((s, q), 0) for s in range(S + 1)) for q in range(space.top + 1)]
        if S >= m - 1 and totals != hom:
            return f"E^infinity totals {totals} != dim H_q = {hom}"
    return None


def check_decompose(space, argv, doc, field):
    want = module_rows(space, field)
    for row in doc["decompositions"]:
        w = want[row["q"]]
        got = (row["free_rank"], sorted(row["t_minus_1_blocks"]),
               _ess_others(row["other_primary"], field))
        if got != (w["free_rank"], w["blocks"], w["others"]):
            return f"H_{row['q']}: {got} != {w}"
        if row["separated"] != (not w["others"]):
            return f"H_{row['q']}: separated flag {row['separated']}"
    if [r["q"] for r in doc["decompositions"]] != list(range(space.top + 1)):
        return "decompose does not list every degree"
    return None


def check_monodromy(space, argv, doc, field):
    want = module_rows(space, field)
    beta = aomoto_betti(space, _domain(field))
    k_max = int(_opt(argv, "--k-max", space.top))
    rows = doc["degrees"]
    if [r["q"] for r in rows] != list(range(k_max + 1)):
        return "monodromy does not list every degree"
    through = []
    c1_all = True
    for r in rows:
        q = r["q"]
        w = want[q] if q <= space.top else {"free_rank": 0, "blocks": [], "others": Counter()}
        got = (r["free_rank"], sorted(r["t_minus_1_blocks"]),
               _ess_others(r["other_primary"], field), r["beta"])
        expect = (w["free_rank"], w["blocks"], w["others"], beta[q] if q <= space.top else 0)
        if got != expect:
            return f"monodromy q={q}: {got} != {expect}"
        c1 = w["free_rank"] == 0 and all(x <= 1 for x in w["blocks"])
        c2 = w["free_rank"] + sum(1 for x in w["blocks"] if x > 1) == 0
        if (r["condition_no_large_blocks"], r["condition_trivial_action"]) != (c1, c2):
            return f"monodromy q={q}: conditions differ"
        c1_all = c1_all and c1
        through.append(c1_all)
    if doc["trivial_through_degree"] != through:
        return f"trivial_through_degree {doc['trivial_through_degree']} != {through}"
    return None


def check_alexander(space, argv, doc, field):
    A = space.poly_matrix(2) if space.top >= 2 else None
    g = space.dims[1]
    if A is None or g - 1 == 0:
        want = Poly(1, T, domain=ZZ)
    elif A.cols < g - 1:
        want = Poly(0, T, domain=ZZ)
    else:
        want = Poly(0, T, domain=ZZ)
        for rows in combinations(range(g), g - 1):
            for cols in combinations(range(A.cols), g - 1):
                minor = A.extract(list(rows), list(cols))
                det = DomainMatrix.from_Matrix(minor).convert_to(ZZ[T]).det()
                want = want.gcd(Poly(ZZ[T].to_sympy(det), T, domain=ZZ))
    got = Poly(sympy.parse_expr(doc["alexander_polynomial"].replace("^", "**"), {"t": T}),
               T, domain=ZZ)
    want, got = _strip_t(want), _strip_t(got)
    if got != want and got != -want:
        return f"Alexander polynomial {got.as_expr()} != {want.as_expr()}"
    return None


def check_twisted(space, argv, doc, field):
    d = int(_opt(argv, "--d"))
    want = twisted_betti(space, d)
    if doc["twisted_betti"] != want or doc["d"] != d:
        return f"twisted Betti at d={d}: {doc['twisted_betti']} != {want}"
    return None


def check_bounds(space, argv, doc, field):
    p, r = int(_opt(argv, "--p")), int(_opt(argv, "--r", "1"))
    b_fp = betti(space, GF(p))
    beta = aomoto_betti(space, GF(p))
    twisted = twisted_betti(space, p ** r)
    rows = [{"q": q, "b_twisted": twisted[q], "beta_fp": beta[q], "b_fp": b_fp[q]}
            for q in range(space.top + 1)]
    torsion_free = []
    for q in range(space.top + 1):
        eps = space.epsilon(q + 1) if q < space.top else []
        if not eps or not eps[0]:
            torsion_free.append(True)
            continue
        D = smith_normal_form(Matrix(eps), domain=ZZ)
        torsion_free.append(all(abs(D[i, i]) in (0, 1) for i in range(min(D.shape))))
    if all(torsion_free):
        cohobound = "holds"
    elif all(x["b_twisted"] <= x["beta_fp"] for x in rows):
        cohobound = "not-applicable"
    else:
        cohobound = "not-applicable (raw comparison fails, as expected with torsion)"
    want = {"p": p, "r": r, "effective_order": p ** r, "rows": rows,
            "torsion_free": torsion_free,
            "verdicts": {"bettibound": "holds", "cohobound": cohobound}}
    if doc != want:
        return f"bounds {doc} != {want}"
    return None


CHECKS = {
    "pages": check_pages,
    "decompose": check_decompose,
    "monodromy": check_monodromy,
    "alexander": check_alexander,
    "twisted": check_twisted,
    "bounds": check_bounds,
}


def check(op, stdout: str) -> str | None:
    """Check one operation's canonical JSON output against the oracle."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    argv = op.argv
    field = _opt(argv, "--field", op.doc["field"])
    space = Space(op.doc, _opt(argv, "--group-quotient"))
    return CHECKS[argv[0]](space, argv, doc, field)
