"""Aomoto complexes and their Betti numbers.

beta_q(X, nu_k) is computed as dim E^2_{-1, q+1} of the equivariant spectral
sequence with kZ coefficients, so no cup products are ever required as input.
For minimal complexes over the universal abelian cover, the universal Aomoto
complex over S = Sym(H_1) is extracted by linearizing the equivariant cochain
complex (transpose of the mod-J^2 boundary matrices).
"""

from __future__ import annotations

from .coeffs import rank_exact
from .errors import (InputError, MinimalityError, UnsupportedCoefficients,
                     ValidationError)
from .complexes import _check_composition
from .groupring import GroupDescriptor, GroupRingElem, expansion_coords, format_element
from .pages import PageComputation

_Z1 = GroupDescriptor.free_abelian(1)


def aomoto_betti(C) -> dict:
    """Aomoto Betti numbers of (H^*(X,k), .nu_k) via the E^2 page: the
    document `ess aomoto --json` prints, {"beta", "diff_ranks", "route"}.

    C must be the complex over kZ (base change along nu first).
    """
    if C.group != _Z1:
        raise ValidationError("aomoto_betti expects a complex over kZ")
    if not C.field.is_field:
        raise UnsupportedCoefficients("field coefficients required")
    comp = PageComputation(C, R_max=2, S_max=2)
    page2, page1 = comp.page(2), comp.page(1)
    return {"beta": [page2.dim(1, q) for q in range(C.top + 1)],
            "diff_ranks": [page1.d_ranks.get((1, q), 0) for q in range(C.top + 1)],
            "route": "E2"}


class UniversalAomoto:
    """The universal Aomoto complex: free S-modules H^q x S with entrywise
    linear differentials D^q, D o D = 0 verified symbolically.

    Linear forms in e_1..e_n are represented as degree-one elements of the
    polynomial subring of k[e_1^{+-1}..], reusing the sparse group-ring type.
    """

    def __init__(self, n, field, matrices, dims):
        self.n = n
        self.field = field
        self.matrices = matrices  # q -> matrix of D^q: H^q -> H^{q+1}
        self.dims = dims          # dims[q] = dim H^q
        self.sym = GroupDescriptor.free_abelian(n)
        self._check_dd()

    def _check_dd(self):
        terms = [[[e.terms for e in row] for row in D] for D in self.matrices]
        for q in range(len(terms) - 1):  # D^q is d_{q+1} linearized
            _check_composition(self.field, self.sym, terms[q + 1], terms[q], q + 1)

    def to_json(self):
        names = [f"e{i + 1}" for i in range(self.n)]
        return {
            "variables": names,
            "dims": self.dims,
            "differentials": [[[format_element(e, names) for e in row] for row in D]
                              for D in self.matrices],
        }


def universal_aomoto(C) -> UniversalAomoto:
    """Linearize the equivariant cochain complex of a minimal complex over
    kZ^n (the universal abelian cover): D^{q-1} is the transpose of the
    mod-J^2 boundary matrix, rewritten as linear forms via x_i = t_i - 1.
    """
    if C.group.kind != "free_abelian":
        raise ValidationError("universal Aomoto needs the abelian-cover complex over kZ^n")
    if not C.field.is_field:
        raise UnsupportedCoefficients("field coefficients required")
    if not C.is_minimal():
        offenders = C.nonminimal_entries()
        raise MinimalityError(
            "complex is not minimal; nonzero specialized entries at "
            + ", ".join(f"(q={q}, row={i}, col={j}): {v}" for q, i, j, v in offenders[:8])
        )
    n = C.group.n
    field = C.field
    sym = GroupDescriptor.free_abelian(n)
    constant = (0,) * n

    def linear_form(elem: GroupRingElem) -> GroupRingElem:
        # the J/J^2 part: the coordinates of degree 1, x_i keyed as e_i
        coords = expansion_coords(elem, 2)
        if constant in coords:
            raise MinimalityError("entry does not lie in J")
        return GroupRingElem(sym, field, coords, canonical=True)

    matrices = []
    for q in range(1, C.top + 1):
        bd = C.boundary(q)  # dims[q-1] x dims[q]
        D = [[linear_form(bd[i][j]) for i in range(C.dims[q - 1])] for j in range(C.dims[q])]
        matrices.append(D)  # D^{q-1}: H^{q-1} -> H^q, shape dims[q] x dims[q-1]
    return UniversalAomoto(n, field, matrices, list(C.dims))


def aomoto_specialize(U: UniversalAomoto, z) -> list[int]:
    """The Betti numbers of the universal complex evaluated at e_i -> z_i
    (ints or Fractions)."""
    if len(z) != U.n:
        raise InputError(f"direction vector needs length {U.n}")
    field = U.field
    zvals = [field.from_fraction(x) for x in z]
    # ranks[q] = rank D^{q-1}, the map into H^q
    ranks = [0] + [rank_exact(field, [[_eval_linear(e, zvals, field) for e in row] for row in D])
                   for D in U.matrices] + [0]
    return [U.dims[q] - ranks[q] - ranks[q + 1] for q in range(len(U.dims))]


def _eval_linear(elem: GroupRingElem, zvals, field):
    """The payload of elem at e_i -> zvals[i]."""
    add, mul = field._add, field._mul
    acc = field._of_int(0)
    for key, coeff in elem.terms.items():
        for v, e in zip(zvals, key):
            for _ in range(e):
                coeff = mul(coeff, v)
        acc = add(acc, coeff)
    return acc
