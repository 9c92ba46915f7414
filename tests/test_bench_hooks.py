"""The bench tracer's span hooks name functions that `ess` still has.

`perfbench/tracing.py` wraps the functions listed in `HOOKS` by import and
`getattr`; a hook that no longer resolves is skipped at run time, and its
per-layer metric silently reads 0.  Here every hook is resolved the same way,
without installing anything, so a rename inside `ess` fails the suite.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The dense elimination helpers that moved from ess.linalg to
# tests/linalg_oracle.py; the tracer still lists them, so linalg.elim_* and
# linalg.matvec_* read 0 until it follows the move.
RETIRED = {f"ess.linalg.{name}" for name in (
    "in_span", "kernel_basis", "mat_vec", "rank_of", "rref", "solve_coords",
    "solve_mod_subspace", "span_rank")}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, path):
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    return owner


def test_unresolved_bench_hooks_are_exactly_the_retired_linalg_ones():
    hooks = _load_tracing().HOOKS
    unresolved = {f"{mod}.{path}" for mod, path, _ in hooks if _resolve(mod, path) is None}
    assert unresolved == RETIRED
