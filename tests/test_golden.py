"""Canonical ``--json`` stdout of the CLI, diffed byte for byte.

Each file under ``tests/golden/`` is the stdout of
``python -m ess.cli <verb> --builtin <space> <options> --json``; the name
spells the command (``twisted-trefoil-d6.json`` is
``twisted --builtin trefoil --d 6``, ``decompose-zxf2-Fp2.json`` is
``decompose --builtin zxf2 --field Fp:2``, ``monodromy-torus2-Z-Q.json``
is ``monodromy --builtin torus2 --group-quotient Z --field Q`` and
``pages-torus2-Z12-Fp2.json`` is
``pages --builtin torus2 --group-quotient Zmod:12 --field Fp:2``, and
``decompose-trefoil-cyc6.json`` is
``decompose --builtin trefoil --field cyclotomic:6``, and
``alexander-lyndon6-Z.json`` is
``alexander --builtin lyndon:6 --group-quotient Z``, and
``universal-aomoto-torus2-Q-at2m1.json`` is
``universal-aomoto --builtin torus2 --field Q --spec-at 2,-1``); a name
without a built-in reads its input from ``golden/inputs/``
(``alexander-nontrivial-delta-g10.json`` is
``alexander golden/inputs/nontrivial-delta-g10.json``).  A refactor must
leave every file unchanged; a change of behaviour re-records the affected
files.
"""

import hashlib
from pathlib import Path

import pytest

from ess import cli

GOLDEN = Path(__file__).parent / "golden"
# a seeded presentation onto Z with 10 generators and 10 relators (9 random,
# the 10th the product of the first two) and a nontrivial Delta of degree 20
G10 = str(GOLDEN / "inputs" / "nontrivial-delta-g10.json")

SPACES = ("trefoil", "figure8", "zxf2")
MODULE_VERBS = ("decompose", "monodromy")
PLAIN_SPACES = ("torus2", "trefoil", "zxf2")
PAGE_SPACES = ("torus2", "torus3", "wedge2")
WINDOWS = {"R2S2": ["--R", "2", "--S", "2"], "R3S4": ["--R", "3", "--S", "4"]}
CASES = {
    **{f"twisted-{space}-d{d}": ["twisted", "--builtin", space, "--d", str(d)]
       for space in SPACES for d in (2, 6, 30, 210)},
    **{f"bounds-{space}-p{p}-r{r}":
       ["bounds", "--builtin", space, "--p", str(p), "--r", str(r)]
       for space in SPACES for p, r in ((2, 1), (3, 2), (5, 1))},
    **{f"{verb}-{space}-{label}": [verb, "--builtin", space, "--field", field]
       for verb in MODULE_VERBS for space in SPACES
       for label, field in (("Q", "Q"), ("Fp2", "Fp:2"), ("Fp3", "Fp:3"),
                            ("cyc5", "cyclotomic:5"), ("cyc6", "cyclotomic:6"),
                            ("cyc12", "cyclotomic:12"))},
    # comm-p:3 has Delta = 3*t - 3, whose content is 3
    **{f"alexander-{space.replace(':', '')}": ["alexander", "--builtin", space]
       for space in ("circle", "trefoil", "figure8", "zxf2", "torsfree", "minimal-check",
                     "comm-p:3", "comm-p:5")},
    # wedge2 has no 2-cells, so its output carries the notice
    **{f"alexander-{space.replace(':', '')}-Z": ["alexander", "--builtin", space,
                                                 "--group-quotient", "Z"]
       for space in ("torus2", "torus3", "lyndon:6", "wedge2")},
    "alexander-nontrivial-delta-g10": ["alexander", G10],
    "decompose-nontrivial-delta-g10-Q": ["decompose", G10, "--field", "Q"],
    **{f"decompose-comm-p3-{label}": ["decompose", "--builtin", "comm-p:3", "--field", field]
       for label, field in (("Q", "Q"), ("Fp2", "Fp:2"))},
    **{f"{verb}-{space}-{label}": [verb, "--builtin", space, "--field", field]
       for verb, spaces in (("betti", PLAIN_SPACES), ("validate", PLAIN_SPACES),
                            ("aomoto", ("trefoil", "zxf2")),
                            # universal-aomoto needs a minimal complex, which
                            # trefoil is not
                            ("universal-aomoto", ("torus2", "wedge2", "zxf2")))
       for space in spaces for label, field in (("Q", "Q"), ("Fp2", "Fp:2"))},
    # the universal complex specialised at a character z and a weight beta
    **{f"universal-aomoto-{space}-{label}-at{tag}": ["universal-aomoto", "--builtin", space,
                                                     "--field", field, "--spec-at", at]
       for space, label, field, tag, at in (("torus2", "Q", "Q", "2m1", "2,-1"),
                                            ("wedge2", "Q", "Q", "10", "1,0"),
                                            ("zxf2", "Fp2", "Fp:2", "1", "1"))},
    **{f"aomoto-torus2-Z-{label}": ["aomoto", "--builtin", "torus2", "--group-quotient", "Z",
                                    "--field", field]
       for label, field in (("Q", "Q"), ("Fp2", "Fp:2"))},
    **{f"{verb}-torus2-Z-Q": [verb, "--builtin", "torus2", "--group-quotient", "Z",
                              "--field", "Q"]
       for verb in MODULE_VERBS},
    **{f"pages-{space}-{label}-{window}": ["pages", "--builtin", space, "--field", field]
       + WINDOWS[window]
       for space in PAGE_SPACES for label, field in (("Q", "Q"), ("Fp2", "Fp:2"))
       for window in WINDOWS},
    "pages-torus3-Q-R5S5": ["pages", "--builtin", "torus3", "--field", "Q",
                            "--R", "5", "--S", "5"],
    # the pivots of d_3 and d_2 clear columns of d_2 and d_1, over F_3 with no
    # rational arithmetic
    "pages-torus3-Fp3-R8S8": ["pages", "--builtin", "torus3", "--field", "Fp:3",
                              "--R", "8", "--S", "8"],
    "pages-zxf2-Z-Q-R4S4": ["pages", "--builtin", "zxf2", "--group-quotient", "Z",
                            "--field", "Q", "--R", "4", "--S", "4"],
    # the Reznikov path over its whole filtration, and Z_12 in characteristic
    # 2, where J^2 = J^3 = ... is not zero
    "pages-circle-Z9-Fp3": ["pages", "--builtin", "circle", "--group-quotient", "Zmod:9",
                            "--field", "Fp:3", "--S", "8"],
    "pages-comm-p3-Z27-Fp3": ["pages", "--builtin", "comm-p:3", "--group-quotient",
                              "Zmod:27", "--field", "Fp:3", "--S", "26"],
    "pages-comm-p5-Z25-Fp5": ["pages", "--builtin", "comm-p:5", "--group-quotient",
                              "Zmod:25", "--field", "Fp:5", "--S", "24"],
    # the Reznikov path over a window: the default --S 3, and one past
    # s = p^r - 1 that pads with zero columns
    "pages-comm-p3-Z81-Fp3": ["pages", "--builtin", "comm-p:3", "--group-quotient",
                              "Zmod:81", "--field", "Fp:3"],
    "pages-comm-p3-Z27-Fp3-S40": ["pages", "--builtin", "comm-p:3", "--group-quotient",
                                  "Zmod:27", "--field", "Fp:3", "--S", "40"],
    # a small window on a large Z_{p^r}: the E^oo totals still rank the
    # boundary over the whole model kZ_m
    **{f"pages-comm-p{p}-Z{m}-Fp{p}-R3S4": ["pages", "--builtin", f"comm-p:{p}",
                                            "--group-quotient", f"Zmod:{m}", "--field",
                                            f"Fp:{p}"] + WINDOWS["R3S4"]
       for p, m in ((3, 729), (5, 625))},
    "pages-torus2-Z12-Fp2": ["pages", "--builtin", "torus2", "--group-quotient", "Zmod:12",
                             "--field", "Fp:2"],
    # 1 < e = 5 < m = 30: the pages of kZ_30 are those of its factor F_5[u]/u^5
    "pages-figure8-Z30-Fp5": ["pages", "--builtin", "figure8", "--group-quotient", "Zmod:30",
                              "--field", "Fp:5", "--S", "6"],
    # the page engine over Q(zeta_3), Z_m over Q (e = 1 < m), and Z_{p^r}
    # in characteristic p with the default window
    "pages-torus2-cyc3-R2S2": ["pages", "--builtin", "torus2", "--field", "cyclotomic:3"]
    + WINDOWS["R2S2"],
    **{f"pages-{space}-Z{m}-{label}": ["pages", "--builtin", space, "--group-quotient",
                                       f"Zmod:{m}", "--field", field]
       for space, m, label, field in (("torus2", 6, "Q", "Q"), ("torus2", 12, "Q", "Q"),
                                      ("circle", 16, "Fp2", "Fp:2"),
                                      ("trefoil", 9, "Fp3", "Fp:3"))},
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_stdout_matches_golden(name, capsys):
    code = cli.main(CASES[name] + ["--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


# Stdout too large or with no file under golden/, pinned by sha256: the text
# stdout of the Reznikov goldens, and both stdouts of a Reznikov run at Z_2187
# (2187 pages, 0.9 MB of JSON), recorded before equal pages shared one
# encoding.
Z2187 = ["pages", "--builtin", "comm-p:3", "--group-quotient", "Zmod:2187", "--field", "Fp:3"]
PINNED = {
    "pages-comm-p3-Z2187-Fp3.json": (
        Z2187 + ["--json"], "407cfaced3b17f80bea92887ad7286e79115fed1b8c2fc5186e7ed3c6dbbc39d"),
    "pages-comm-p3-Z2187-Fp3.txt": (
        Z2187, "44831f30d74baca44fd7c72e7e973d71356b942c3e664367626c84ca1b0b253b"),
    **{f"{name}.txt": (CASES[name], digest) for name, digest in (
        ("pages-circle-Z9-Fp3", "7312fff8337c666fc2d9dff4dc3553904ee67fd7487ff82f8dd76386be455720"),
        ("pages-trefoil-Z9-Fp3", "88d3b0ef46963fca879263fc2ddef0843d71e94e75331dddbabb6872d420a534"),
        ("pages-comm-p3-Z27-Fp3", "e835aa05fd2d74e38a0faf7b081bd5314e8918a4d0a9817e12ae800cb4886924"),
        ("pages-comm-p3-Z27-Fp3-S40",
         "74a9e825e9cf1b11603a9b8e9697ffd638abdd98665b33c5907b6905fb9e8249"),
        ("pages-comm-p3-Z81-Fp3", "6ecb9d25a4ed0b51c92add6ab20eae575c5a355f2cd9b68f03ae558ebca51639"),
    )},
    # Z_m with e < m: over Q (e = 1) and in characteristic 2 with 8 | 3000
    # (e = 8), recorded while the model still covered all of kZ_m
    "pages-torus2-Z600-Q.json": (
        ["pages", "--builtin", "torus2", "--group-quotient", "Zmod:600", "--field", "Q",
         "--json"], "98b166e0327a58a084e36709dc07688e1f880556976d4316005106ac60260cc1"),
    "pages-trefoil-Z3000-Fp2-S4.json": (
        ["pages", "--builtin", "trefoil", "--group-quotient", "Zmod:3000", "--field", "Fp:2",
         "--S", "4", "--json"],
        "dc0a31ae75c9a7946bc9319bdae03adbc80b224a2788610698d1617c33dfe9b2"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stdout_matches_pinned_sha256(name, capsys):
    argv, digest = PINNED[name]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
