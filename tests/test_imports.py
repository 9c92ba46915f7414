"""No dead imports in the package: every name a module imports is used in
that module.  The CLI imports every module on start, so a dead import is
compile and load time paid on each run.  `ess/__init__` only re-exports and
is not checked."""

import ast
import pathlib

import ess

SOURCES = sorted(p for p in pathlib.Path(ess.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(path):
    """(line, name) for each imported name that no Name node of the file
    reads; `from __future__ import annotations` is a compiler directive."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_every_imported_name_is_used():
    assert len(SOURCES) > 5
    found = [f"{path.name}:{line}: {name}" for path in SOURCES
             for line, name in _unused_imports(path)]
    assert not found


def test_the_guard_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nimport json as j\n"
                     "from math import gcd, lcm as l\n\n\ndef f():\n    return gcd(1, 2)\n")
    assert _unused_imports(probe) == [(2, "os"), (3, "j"), (4, "l")]
