"""Nothing is approximate: no floating point in the package, and over Q no
Fraction reaches the elimination when the input is integral."""

import ast
import json
import pathlib

import pytest

import ess
from ess import cli
from ess.coeffs import Echelon
from ess.pages import PageComputation

SOURCES = sorted(pathlib.Path(ess.__file__).parent.glob("*.py"))

# presentation_onto_z2(random.Random("z2:0"), nrels=3, length=6) of the
# benchmark inputs: three generators onto Z^2, commutator relators
SEEDED_Z2 = {
    "field": "Z", "group": "Z^2",
    "presentation": {"generators": ["a", "b", "c"],
                     "relators": ["BacbaCaCbaBAcABCAbabABcA", "CacaacAbabaCCAACAccABABa",
                                  "CBabCCBcbCCBccBAbcbccBCb"],
                     "nu": {"a": [1, 0], "b": [0, 1], "c": [-1, 1]}},
}


def _inexact(path):
    """(line, what) for each true division and each float() call in a file,
    in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float()"))
    return sorted(found)


def test_no_true_division_or_float_in_the_package():
    assert len(SOURCES) > 5
    found = [f"{path.name}:{line}: {what}" for path in SOURCES for line, what in _inexact(path)]
    assert not found


def test_the_guard_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("a = 1 / 2\nb = 3\nb /= 2\nc = 7 // 2\nd = float(c)\n")
    assert _inexact(probe) == [(1, "true division"), (3, "true division"),
                                     (5, "float()")]


@pytest.mark.parametrize("argv", [
    ["pages", "--builtin", "torus3", "--field", "Q", "--R", "4", "--S", "4"],
    ["pages", "SEEDED", "--field", "Q", "--R", "4", "--S", "4"],
    ["pages", "SEEDED", "--field", "cyclotomic:6", "--R", "3", "--S", "3"],
], ids=["torus3", "seeded-z2", "seeded-z2-cyclotomic"])
def test_integral_pages_eliminate_on_ints(argv, monkeypatch, tmp_path, capsys):
    """Every payload the page engine reads its columns and apparent pivots
    from (PageComputation._cells) and every payload a reduction adds to an
    Echelon is an int.  The seeded inputs reduce columns; torus3 needs no
    reduction, so only the entries it pairs from are seen there."""
    doc = tmp_path / "z2.json"
    doc.write_text(json.dumps(SEEDED_Z2))
    read, added, cells, add = [], [], PageComputation._cells, Echelon.add
    monkeypatch.setattr(PageComputation, "_cells", lambda self, q: read.extend(
        type(x) for entries in cells(self, q) for _, terms in entries for *_, x in terms)
        or cells(self, q))
    monkeypatch.setattr(Echelon, "add", lambda self, col, label=None, low=None:
                        added.extend(map(type, col.values())) or add(self, col, label, low))
    assert cli.main([str(doc) if a == "SEEDED" else a for a in argv] + ["--json"]) == 0
    capsys.readouterr()
    assert read and set(read) == {int} and set(added) <= {int}
    assert added or "SEEDED" not in argv
