"""The built-in corpus: named inputs shipped as data files, plus the two
parameterized families ("lyndon:<d>", "comm-p:<p>") whose documents are
generated on demand in the same JSON shape.
"""

from __future__ import annotations

import json
import os

from .coeffs import FieldDescriptor, cyclotomic_polynomial, read_prefixed
from .complexes import EquivariantComplex, parse_document
from .errors import InputError
from .groupring import GroupDescriptor, GroupRingElem, format_element

_NAMES = ("circle", "wedge2", "torus2", "torus3", "trefoil", "figure8", "zxf2", "torsfree",
          "minimal-check")


def builtin_names() -> list[str]:
    return sorted(_NAMES) + ["lyndon:<d>", "comm-p:<p>"]


def comm_p_document(p: int) -> dict:
    if p < 2:
        raise InputError("comm-p:<p> needs p >= 2")
    return {
        "field": "Z",
        "group": "Z",
        "presentation": {
            "generators": ["x", "y"],
            "relators": ["xyXY" * p],
            "nu": {"x": 1, "y": 1},
        },
    }


def lyndon_document(d: int) -> dict:
    """The one-relator family behind the non-prime-power counterexample:
    degree-2 boundary (Phi_d(t1)(t2-1), Phi_d(t1)(1-t1)) over ZZ^2."""
    if d < 1:
        raise InputError("lyndon:<d> needs d >= 1")
    ZZ = FieldDescriptor.integers()
    G2 = GroupDescriptor.free_abelian(2)
    t1 = GroupRingElem.monomial(G2, ZZ, (1, 0))
    t2 = GroupRingElem.monomial(G2, ZZ, (0, 1))
    one = GroupRingElem.one(G2, ZZ)
    phi = cyclotomic_polynomial(d)
    phi_t1 = GroupRingElem.from_ints(G2, ZZ, {(i, 0): c for i, c in enumerate(phi)})
    v1 = phi_t1 * (t2 - one)
    v2 = phi_t1 * (one - t1)
    return {
        "field": "Z",
        "group": "Z^2",
        "matrices": {
            "dims": [1, 2, 1],
            "boundaries": [
                [[format_element(t1 - one), format_element(t2 - one)]],
                [[format_element(v1)], [format_element(v2)]],
            ],
        },
    }


def load_builtin_document(name: str) -> dict:
    if name in _NAMES:
        with open(os.path.join(os.path.dirname(__file__), "data", f"{name}.json"), "rb") as fh:
            return json.loads(fh.read())  # UTF-8 bytes, decoded by json
    return read_prefixed(name, (("lyndon:", lyndon_document), ("comm-p:", comm_p_document)),
                         "built-in", f"; available: {', '.join(builtin_names())}")


def builtin_complex(name: str) -> EquivariantComplex:
    return parse_document(load_builtin_document(name))


def diagonal_quotient_images(group: GroupDescriptor) -> list:
    """Default images for the quotient of the deck group onto Z: the diagonal
    character (identity for Z itself)."""
    if group.kind == "cyclic":
        raise InputError("no canonical quotient to Z from a finite cyclic group")
    return [[1] for _ in range(group.n)]
