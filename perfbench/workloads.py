"""The three benchmark workloads, one list of CLI operations each.

Each workload loads one layer of ``ess`` and nearly skips the others, so that
an optimisation of a layer has one workload where it should show and another
where the prediction is "no change":

* ``pages-zn``: the page engine on ``Z^n``/``Z`` windows (boundary assembly,
  ``mat_vec`` and many small eliminations); never builds a cyclic filtration.
* ``cyclic-pr``: ``pages`` on ``Z_m``, mostly ``Z_{p^r}`` in characteristic
  ``p`` with the full window (the Reznikov collapse path), where the ``J``-adic
  filtration of ``kZ_m`` is built by row reduction.
* ``laurent-modules``: module theory over ``k[t^{+-1}]`` (Smith normal form,
  Alexander polynomials, twisted Betti numbers over ``Q(zeta_d)``), where the
  elimination kernel runs on a few large matrices instead of many small ones.

Every operation carries the reason it was chosen.  Every output is checked by
the oracles; operations on built-in inputs give the same output for every
seed, and that output must also match ``reference.json`` byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs

INPUT = "{input}"  # replaced by the path of the op's generated document


@dataclass
class Op:
    name: str
    argv: list[str]
    doc: dict          # the input document, for the oracle
    why: str
    seeded: bool = False


# Copies of the built-in documents the workloads use, so that the oracle does
# not read the program's own data files.
def _pres(field_, group, gens, rels, nu, extra_cells=None):
    doc = {"field": field_, "group": group,
           "presentation": {"generators": gens, "relators": rels, "nu": nu}}
    if extra_cells:
        doc["extra_cells"] = extra_cells
    return doc


BUILTIN_DOCS = {
    "circle": _pres("Z", "Z", ["x"], [], {"x": 1}),
    "wedge2": _pres("Q", "Z^2", ["a", "b"], [], {"a": [1, 0], "b": [0, 1]}),
    "torus2": _pres("Z", "Z^2", ["a", "b"], ["abAB"], {"a": [1, 0], "b": [0, 1]}),
    "torus3": _pres(
        "Z", "Z^3", ["a", "b", "c"], ["abAB", "acAC", "bcBC"],
        {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]},
        extra_cells=[{"degree": 3, "matrix": [["t3 - 1"], ["1 - t2"], ["t1 - 1"]]}],
    ),
    "trefoil": _pres("Z", "Z", ["x", "y"], ["xyxYXY"], {"x": 1, "y": 1}),
    "figure8": _pres("Z", "Z", ["a", "b"], ["abABaBAbaB"], {"a": 1, "b": 1}),
    "zxf2": _pres("Z", "Z", ["a", "b", "c"], ["abAB", "acAC"], {"a": 2, "b": 1, "c": 1}),
    "comm-p:2": _pres("Z", "Z", ["x", "y"], ["xyXY" * 2], {"x": 1, "y": 1}),
    "comm-p:3": _pres("Z", "Z", ["x", "y"], ["xyXY" * 3], {"x": 1, "y": 1}),
}


def _builtin(name, verb, args, why):
    return Op(name, [verb, "--builtin", name.split("/")[0]] + args,
              BUILTIN_DOCS[name.split("/")[0]], why)


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def pages_zn(seed: int) -> list[Op]:
    z2 = inputs.presentation_onto_z2(_rng(seed, "z2"), nrels=2, length=2)
    return [
        _builtin("torus2/Q", "pages", ["--field", "Q", "--R", "3", "--S", "3"],
                 "README-sized Z^2 window: many small eliminations over Q"),
        _builtin("torus2/F2", "pages", ["--field", "Fp:2", "--R", "3", "--S", "3"],
                 "the same window over F_2: elimination without rational growth"),
        _builtin("torus3/Q", "pages", ["--field", "Q", "--R", "2", "--S", "1"],
                 "Z^3 with the Koszul 3-cell over Q: a 4-term complex"),
        _builtin("torus3/F3", "pages", ["--field", "Fp:3", "--R", "2", "--S", "2"],
                 "the largest Z^3 window: the dense mat_vec hot spot"),
        _builtin("wedge2/Q", "pages", ["--field", "Q", "--R", "3", "--S", "3"],
                 "free group onto Z^2: no 2-cells, so all of E^1 survives"),
        _builtin("zxf2/Q", "pages",
                 ["--field", "Q", "--group-quotient", "Z", "--R", "4", "--S", "4"],
                 "G = Z through --group-quotient: a long, thin window"),
        Op("seed-z2/Q", ["pages", INPUT, "--field", "Q", "--R", "2", "--S", "2"], z2,
           "seeded 3-generator presentation onto Z^2: input the engine was not tuned on",
           seeded=True),
    ]


def cyclic_pr(seed: int) -> list[Op]:
    z9 = inputs.presentation_onto_z(_rng(seed, "z9"), ngens=2, nrels=1, length=6)
    full9 = ["--group-quotient", "Zmod:9", "--field", "Fp:3", "--S", "8"]
    return [
        _builtin("circle/Z9", "pages", full9,
                 "smallest Reznikov case: fixed cost of the collapse path"),
        _builtin("trefoil/Z9", "pages", full9, "a knot group on Z_9 over F_3"),
        _builtin("comm-p:3/Z9", "pages", full9,
                 "comm-p:3 has large H_1 over F_3: many surviving classes"),
        _builtin("comm-p:2/Z8", "pages",
                 ["--group-quotient", "Zmod:8", "--field", "Fp:2", "--S", "7"],
                 "Z_8 in characteristic 2"),
        _builtin("circle/Z16", "pages",
                 ["--group-quotient", "Zmod:16", "--field", "Fp:2", "--S", "15"],
                 "Z_16: the largest J-adic filtration, where cyclic_filtration dominates"),
        Op("seed/Z9", ["pages", INPUT] + full9, z9,
           "seeded one-relator presentation on Z_9 over F_3", seeded=True),
        _builtin("torus2/Z12", "pages", ["--group-quotient", "Zmod:12", "--field", "Fp:2"],
                 "non-prime-power Z_12 in characteristic 2: the ordinary engine on kZ_m"),
        _builtin("torus2/Z6", "pages", ["--group-quotient", "Zmod:6", "--field", "Q"],
                 "Z_6 over Q: a semisimple group ring, J^1 = J^2"),
    ]


def laurent_modules(seed: int) -> list[Op]:
    verbs = [
        ("decompose/Q", ["decompose", INPUT, "--field", "Q"],
         "Laurent SNF over Q[t^+-1], with content extraction"),
        ("decompose/F2", ["decompose", INPUT, "--field", "Fp:2"],
         "Laurent SNF over F_2[t^+-1]"),
        ("monodromy/Q", ["monodromy", INPUT, "--field", "Q"],
         "SNF route and E^2 route on one input"),
        ("alexander", ["alexander", INPUT], "(g-1)-minors of the Alexander matrix"),
        ("twisted/30", ["twisted", INPUT, "--d", "30"], "ranks over Q(zeta_30), degree 8"),
        ("bounds/3^2", ["bounds", INPUT, "--p", "3", "--r", "2"],
         "both bound theorems: SNF over Z, F_3 Betti, Aomoto and twisted ranks"),
    ]
    # d = 210 only on the smaller inputs: over Q(zeta_210), degree 48, one
    # operation on 6 or 7 generators takes as long as all the others together.
    big = ("twisted/210", ["twisted", INPUT, "--d", "210"],
           "ranks over Q(zeta_210), degree 48: a few large eliminations")
    ops = []
    for g in (4, 5, 6, 7):
        doc = inputs.presentation_onto_z(_rng(seed, f"lm{g}"), ngens=g, nrels=g - 1, length=6)
        for suffix, argv, why in verbs + ([big] if g <= 5 else []):
            ops.append(Op(f"seed{g}/{suffix}", argv, doc,
                          f"{g}-generator seeded presentation: {why}", seeded=True))
    ops += [
        _builtin("zxf2/decompose", "decompose", ["--field", "Q"],
                 "README command: a module with a non-(t-1) primary part"),
        _builtin("torus2/monodromy", "monodromy", ["--field", "Q", "--group-quotient", "Z"],
                 "README command: base change Z^2 -> Z before the module theory"),
        _builtin("trefoil/twisted", "twisted", ["--d", "6"],
                 "README command: twisted Betti number at a root of the Alexander polynomial"),
        _builtin("figure8/alexander", "alexander", [], "README command"),
    ]
    return ops


WORKLOADS = {
    "pages-zn": pages_zn,
    "cyclic-pr": cyclic_pr,
    "laurent-modules": laurent_modules,
}

# ROADMAP item 5: these exit 4 at the commit that defined the benchmark.  They
# run untimed so the defect, and its fix, show beside the metrics.
PROBES = [
    ("circle/Z9/default-S", ["pages", "--builtin", "circle",
                             "--group-quotient", "Zmod:9", "--field", "Fp:3"]),
    ("comm-p:5/Z5/default-S", ["pages", "--builtin", "comm-p:5",
                               "--group-quotient", "Zmod:5", "--field", "Fp:5"]),
    ("comm-p:7/Z7/default-S", ["pages", "--builtin", "comm-p:7",
                               "--group-quotient", "Zmod:7", "--field", "Fp:7"]),
]
