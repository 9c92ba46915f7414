"""Twisted Betti numbers at roots of unity, Alexander polynomials, and
machine-checked instances of the modular bound theorems.

b_q(X, nu/d) is computed from exact ranks of the equivariant boundary
matrices evaluated at the distinguished primitive d-th root of unity zeta_d;
no floating point, no choice of embedding.  This is the only arithmetic in
Q(zeta_d) that `ess` does (`--field cyclotomic:<d>` is computed over Q), and
Phi_d is never formed: an entry sum_k c_k t^k becomes the power sum
{k*power mod d: c_k}, which `coeffs.cyclotomic_rank` evaluates straight into
F_ell at omega, a primitive d-th root of unity mod ell, with a certificate.

The Alexander polynomial is the gcd over Z[t^{+-1}] of the (g-1)-minors of
the Alexander matrix A = d_2 (Crowell and Fox).  Each minor is a fraction-free
Bareiss determinant in `coeffs.LaurentRing` over Q, so it costs polynomial
time; each Bareiss step is one exact division in a single pass of long
division.  The gcd is the minors' integer content times their primitive gcd
over Q[t^{+-1}], and the minors stop as soon as that is 1.  Since d_1 A = 0
(Fox's fundamental formula), the minors of a block of g-1 columns satisfy
m_i v_j = +-m_j v_i (m_i without row i, v a row of d_1); so when v_j divides
every v_i in Z[t^{+-1}] (as when some generator has nu = +-1), m_j alone is
the gcd of the block: one determinant instead of g.
"""

from __future__ import annotations

import itertools
import math

from .aomoto import aomoto_betti
from .coeffs import MAX_ORDER_BITS, FieldDescriptor, cyclotomic_rank, is_prime, rank_exact
from .complexes import (EquivariantComplex, GroupHom, _ring_map, base_change, betti_numbers,
                        change_field)
from .errors import (CrossCheckError, InputError, UnsupportedCoefficients,
                     ValidationError)
from .groupring import GroupDescriptor, GroupRingElem
from .modz import _LaurentCtx, _redundant_row, integral_torsion_check

_Z1 = GroupDescriptor.free_abelian(1)


def evaluated_boundary(C: EquivariantComplex, q: int, d: int, power: int = 1):
    """The boundary matrix with t -> zeta_d^power: each entry sum_k c_k t^k
    becomes {k * power mod d: sum of those c_k}, zero sums dropped, the form
    `coeffs.cyclotomic_rank` takes: the raw ring map of the key map
    (k,) -> k * power mod d."""
    if not 1 <= q <= C.top:
        return []
    mats = C.raw_integral if C.raw_integral is not None else C.raw
    return _ring_map([mats[q - 1]], lambda key: key[0] * power % d)[0]


def _check_order(p: int, r: int = 1):
    """InputError unless the character order p^r is at most 2^MAX_ORDER_BITS,
    decided from r * log2(p) before p^r is formed."""
    if p > 1 and r * math.log2(p) > MAX_ORDER_BITS:
        order = p if r == 1 else f"{p}^{r}"
        raise InputError(f"character order {order} exceeds the limit 2^{MAX_ORDER_BITS}")


def twisted_betti(C: EquivariantComplex, d: int, power: int = 1) -> list[int]:
    """b_q(X, nu/d) = dim C_q - rank d_q(zeta) - rank d_{q+1}(zeta).
    Since d_{q-1} d_q = 0, rank d_q <= dim C_{q-1} - rank d_{q-1}, a cap that
    lets cyclotomic_rank stop at the first prime that reaches it.

    C must live over Z (base change first); coefficients must embed in Q.
    d = 1 is the trivial character (Betti numbers over Q).
    """
    if C.group != _Z1:
        raise ValidationError("twisted_betti expects a complex over kZ; base change first")
    if d < 1:
        raise InputError("order d must be >= 1")
    _check_order(d)
    if C.raw_integral is None and C.field.kind not in ("Q", "Z"):
        raise UnsupportedCoefficients("need integral or rational coefficients")
    if math.gcd(power, d) != 1:
        raise InputError("power must be prime to d")
    ranks = [0] * (C.top + 2)
    for q in range(1, C.top + 1):
        ranks[q] = cyclotomic_rank(d, evaluated_boundary(C, q, d, power),
                                   cap=C.dims[q - 1] - ranks[q - 1])
    return [C.dims[q] - ranks[q] - ranks[q + 1] for q in range(C.top + 1)]


# ---------------------------------------------------------------------------
# Alexander polynomial
# ---------------------------------------------------------------------------


def _bareiss_det(ring, m):
    """Determinant, up to sign, of a square matrix over `ring` by
    fraction-free Bareiss elimination: every update is divided exactly by the
    previous pivot, and a zero pivot is swapped for a nonzero entry below."""
    m = [list(r) for r in m]
    prev = None
    for k in range(len(m) - 1):
        if ring.is_zero(m[k][k]):
            swap = next((i for i in range(k + 1, len(m)) if not ring.is_zero(m[i][k])), None)
            if swap is None:
                return ring.zero
            m[k], m[swap] = m[swap], m[k]
        piv = m[k][k]
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                x = ring.sub(ring.mul(piv, m[i][j]), ring.mul(m[i][k], m[k][j]))
                m[i][j] = x if prev is None else ring.exact_div(x, prev)
        prev = piv
    return m[-1][-1]


def alexander_polynomial(C: EquivariantComplex) -> tuple[int, ...]:
    """The integer coefficients, lowest degree first, of the gcd over
    Z[t^{+-1}] of the codimension-1 minors of the degree-2 boundary (the
    Alexander matrix A), normalized to lowest exponent 0 and positive
    leading coefficient.  By Gauss's lemma it is the gcd of the
    minors' integer contents times the primitive form of their gcd over
    Q[t^{+-1}]; each minor is a Bareiss determinant over Q[t^{+-1}], one
    per column block when `_redundant_row` finds a row of A that d_1 A = 0
    (checked on every complex when it is built) makes redundant.  The minors
    stop once the content is 1 and the gcd a unit: Delta = 1.  With no
    2-cells, Delta = 1 by convention."""
    if C.group != _Z1:
        raise ValidationError("Alexander polynomial needs group Z")
    if C.top < 2 or C.dims[2] == 0:
        return (1,)
    g, ncols = C.dims[1], C.dims[2]
    if g == 0:
        raise ValidationError("Alexander polynomial needs at least one 1-cell")
    if g == 1:
        return (1,)
    if ncols < g - 1:
        return ()
    if C.raw_integral is None and C.field.kind != "Q":
        raise UnsupportedCoefficients(
            "Alexander polynomial needs integral or rational coefficients")
    ring = _LaurentCtx(FieldDescriptor.rationals())
    mats = C.raw_integral if C.raw_integral is not None else C.raw
    A = [[ring.raw(terms) for terms in row] for row in mats[1]]  # dims[1] x dims[2]
    j = _redundant_row(ring, mats[0], integral=True)
    row_sets = itertools.combinations(range(g), g - 1) if j is None else [
        [i for i in range(g) if i != j]]  # the minors without row j divide the rest
    content, gcd = 0, None
    minors = (_bareiss_det(ring, [[A[i][c] for c in cols] for i in rows])
              for rows in row_sets
              for cols in itertools.combinations(range(ncols), g - 1))
    for det in minors:
        if not ring.is_zero(det):
            # det = t^shift * coefficients / den, gcd(coefficients, den) = 1
            content = math.gcd(content, *det[1])
            gcd = det if gcd is None else ring.gcd_bezout(gcd, det)[0]
            if content == 1 and ring.is_unit(gcd):
                break  # Delta = 1: no further minor can shrink it
    if gcd is None:
        return ()
    # monic over Q with gcd(coefficients, den) = 1: the coefficients are the
    # primitive integer form, leading coefficient positive
    _, (_, primitive, _) = ring.unit_normalize(gcd)
    return tuple(content * c for c in primitive)


# ---------------------------------------------------------------------------
# Bound theorems
# ---------------------------------------------------------------------------


def integral_complex(C: EquivariantComplex) -> EquivariantComplex:
    """The complex over Z carried by the integral shadow, whose compositions
    were checked when C was built."""
    if C.field.kind == "Z":
        return C
    if C.raw_integral is None:
        raise UnsupportedCoefficients("integral shadow required")
    return EquivariantComplex(FieldDescriptor.integers(), C.group, C.dims, C.raw_integral,
                              provenance=C.provenance, raw_integral=C.raw_integral)


def reduce_direction(nu_images: list[int], p: int, r: int):
    """Factor nu = m * nu' with nu' primitive and translate the character
    order: zeta_{p^r}^m has order p^r / gcd(m, p^r).  Returns
    (nu' or None, effective order d, p_divides_m)."""
    m = 0
    for x in nu_images:
        m = math.gcd(m, abs(x))
    if m == 0:
        return None, 1, True
    prim = [x // m for x in nu_images]
    d = p**r // math.gcd(m, p**r)
    return prim, d, m % p == 0


def bounds_report(C: EquivariantComplex, nu_images: list[int], p: int, r: int) -> dict:
    """The document `ess bounds --json` prints: the two bound-theorem
    comparisons for the character defined by nu_images (the map from C's
    deck group to Z) at order p^r, with torsion flags and verdicts.

    Violations of an applicable bound are implementation errors and raise;
    when integral torsion voids the Aomoto bound's hypothesis, the raw
    comparison is still reported with verdict "not-applicable".
    """
    _check_order(p, r)  # first: no arithmetic on a p^r past the order limit
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if r < 1:
        raise InputError("r must be >= 1")
    if len(nu_images) != C.group.num_generators:
        raise InputError("one integer image per group generator required")
    C_int = integral_complex(C)
    Fp = FieldDescriptor.prime_field(p)
    rationals = FieldDescriptor.rationals()
    torsion_free = integral_torsion_check(C_int)
    b_fp = betti_numbers(change_field(C_int, Fp))

    prim, d, p_divides_m = reduce_direction(nu_images, p, r)
    if prim is None:
        b_twisted = betti_numbers(change_field(C_int, rationals))
        beta_fp = list(b_fp)
    else:
        C_Z = C_int if C.group == _Z1 and prim == [1] else \
            base_change(C_int, GroupHom(C.group, _Z1, [[x] for x in prim]))
        b_twisted = twisted_betti(C_Z, d)
        if p_divides_m:
            beta_fp = list(b_fp)
        else:
            beta_fp = aomoto_betti(change_field(C_Z, Fp))["beta"]

    rows = []
    betti_ok = True
    coho_ok = True
    for q in range(C.top + 1):
        rows.append(
            {"q": q, "b_twisted": b_twisted[q], "beta_fp": beta_fp[q], "b_fp": b_fp[q]}
        )
        if b_twisted[q] > b_fp[q]:
            betti_ok = False
        if b_twisted[q] > beta_fp[q]:
            coho_ok = False
        if beta_fp[q] > b_fp[q]:
            raise CrossCheckError(
                f"beta_{q} = {beta_fp[q]} exceeds b_{q}(F_p) = {b_fp[q]}"
            )
    if not betti_ok:
        raise CrossCheckError(
            "modular Betti bound violated: implementation bug "
            f"(rows {rows})"
        )
    all_torsion_free = all(torsion_free)
    if all_torsion_free and not coho_ok:
        raise CrossCheckError(
            "Aomoto bound violated with torsion-free integral homology: "
            f"implementation bug (rows {rows})"
        )
    verdicts = {
        "bettibound": "holds",
        "cohobound": "holds" if all_torsion_free else "not-applicable",
    }
    if not all_torsion_free and not coho_ok:
        verdicts["cohobound"] = "not-applicable (raw comparison fails, as expected with torsion)"
    return {"p": p, "r": r, "effective_order": d, "rows": rows, "torsion_free": torsion_free,
            "verdicts": verdicts}


def minors_inequality(C: EquivariantComplex, p: int, r: int):
    """Instances of the minor congruence: for every boundary matrix,
    rank over Q(zeta_{p^r}) at zeta is >= rank over F_p at 1."""
    C_int = integral_complex(C)
    if C_int.group != _Z1:
        raise ValidationError("minor inequality checked over kZ")
    _check_order(p, r)
    d = p**r
    Fp = FieldDescriptor.prime_field(p)
    out = []
    for q in range(1, C_int.top + 1):
        rank_zeta = cyclotomic_rank(d, evaluated_boundary(C_int, q, d))
        rank_fp = rank_exact(Fp, [[Fp.from_fraction(x) for x in row]
                                  for row in C_int.epsilon_boundary(q)])
        out.append({"q": q, "rank_zeta": rank_zeta, "rank_fp_at_1": rank_fp,
                    "holds": rank_zeta >= rank_fp})
    return out
