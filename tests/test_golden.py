"""Canonical ``--json`` stdout of the CLI, diffed byte for byte.

Each file under ``tests/golden/`` is the stdout of
``python -m ess.cli <verb> --builtin <space> <options> --json``; the name
spells the command (``twisted-trefoil-d6.json`` is
``twisted --builtin trefoil --d 6``, ``decompose-zxf2-Fp2.json`` is
``decompose --builtin zxf2 --field Fp:2`` and ``monodromy-torus2-Z-Q.json``
is ``monodromy --builtin torus2 --group-quotient Z --field Q``).  A refactor
must leave every file unchanged; a change of behaviour re-records the
affected files.
"""

from pathlib import Path

import pytest

from ess import cli

GOLDEN = Path(__file__).parent / "golden"

SPACES = ("trefoil", "figure8", "zxf2")
MODULE_VERBS = ("decompose", "monodromy")
CASES = {
    **{f"twisted-{space}-d{d}": ["twisted", "--builtin", space, "--d", str(d)]
       for space in SPACES for d in (2, 6, 30, 210)},
    **{f"bounds-{space}-p{p}-r{r}":
       ["bounds", "--builtin", space, "--p", str(p), "--r", str(r)]
       for space in SPACES for p, r in ((2, 1), (3, 2), (5, 1))},
    **{f"{verb}-{space}-{label}": [verb, "--builtin", space, "--field", field]
       for verb in MODULE_VERBS for space in SPACES
       for label, field in (("Q", "Q"), ("Fp2", "Fp:2"))},
    **{f"{verb}-torus2-Z-Q": [verb, "--builtin", "torus2", "--group-quotient", "Z",
                              "--field", "Q"]
       for verb in MODULE_VERBS},
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_stdout_matches_golden(name, capsys):
    code = cli.main(CASES[name] + ["--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == (GOLDEN / f"{name}.json").read_text()
