"""Spans around calls into the ``ess`` layers, recorded from outside the package.

``install()`` runs in the child process after ``ess`` is imported and before
the CLI call.  It wraps the functions named in ``HOOKS`` at every binding
site: the defining module, every ``ess`` module that imported the function by
name (``cli`` imports ``parse_document``, ``pages`` imports
``cyclic_filtration``, ...), and the class for methods.  Each call records a
span ``[name, start, end, parent, work, nnz]`` in memory; the child writes the
list out when the operation ends and ``layer_metrics`` turns it into self and
inclusive times and counters.

Inclusive time is a span's duration; self time subtracts its child spans.
``work`` is the number of matrix entries a call received (rows x columns),
``nnz`` the nonzeros of a freshly assembled boundary matrix.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from time import perf_counter

ELIM = ("rref", "rank_of", "kernel_basis", "span_rank", "in_span",
        "solve_coords", "solve_mod_subspace")

# (module, attribute path, span name); the attribute may be "Class.method".
HOOKS = [
    ("ess.complexes", "parse_document", "complexes.parse"),
    ("ess.complexes", "base_change", "complexes.base_change"),
    ("ess.complexes", "change_field", "complexes.base_change"),
    ("ess.groupring", "_CyclicFiltration.__init__", "groupring.filtration"),
    ("ess.pages", "FiltrationModel.__init__", "pages.model"),
    ("ess.pages", "PageComputation.boundary_matrix", "pages.assembly"),
    ("ess.pages", "PageComputation.page", "pages.engine"),
    ("ess.pages", "PageComputation._check_bookkeeping", "pages.crosscheck"),
    ("ess.pages", "_k_rank", "pages.crosscheck"),
    ("ess.linalg", "mat_vec", "linalg.matvec"),
    *[("ess.linalg", name, "linalg.elim") for name in ELIM],
    ("ess.coeffs", "rank_exact", "coeffs.rank_exact"),
    ("ess.modz", "smith_normal_form", "modz.snf"),
    ("ess.modz", "homology_decomposition", "modz.decompose"),
    ("ess.aomoto", "aomoto_betti", "aomoto.betti"),
    ("ess.twisted", "evaluated_boundary", "twisted.eval"),
    ("ess.twisted", "alexander_polynomial", "twisted.alexander"),
]

# Spans whose calls into themselves are not recorded again: span_rank calls
# rank_of calls rref, and one elimination should count once.
FLAT = {"linalg.elim"}

_COUNTED_WORK = {"linalg.matvec", "linalg.elim", "modz.snf"}


def _size(x) -> int:
    """Entries of a dense or sparse matrix or vector argument, else 0."""
    if not isinstance(x, (list, tuple)):
        return 0
    if x and isinstance(x[0], (list, tuple, dict)):
        return sum(len(row) for row in x)
    return len(x)


def _work(name, args, kwargs) -> int:
    if name == "linalg.matvec":
        matrix, vec = args[1], args[2]
        return len(matrix) * len(vec)
    return sum(_size(a) for a in args) + sum(_size(a) for a in kwargs.values())


def _nnz(mat) -> int:
    total = 0
    for row in mat:
        values = row.values() if isinstance(row, dict) else row
        total += sum(1 for x in values if x)
    return total


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, work: int = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([nid, perf_counter(), 0.0, parent, work, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def innermost_is(self, nid: int) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        counted = name in _COUNTED_WORK
        flat = name in FLAT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flat and self.innermost_is(nid):
                return fn(*args, **kwargs)
            work = _work(name, args, kwargs) if counted else 0
            idx = self.open(nid, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def wrap_assembly(self, fn):
        """Record only the first build of each boundary matrix, with its shape
        (from the truncated dimensions) and nonzeros."""
        nid = self.name_id("pages.assembly")
        built = weakref.WeakKeyDictionary()

        @functools.wraps(fn)
        def boundary_matrix(comp, q, *args, **kwargs):
            seen = built.setdefault(comp, set())
            if q in seen:
                return fn(comp, q, *args, **kwargs)
            seen.add(q)
            idx = self.open(nid)
            try:
                mat = fn(comp, q, *args, **kwargs)
            finally:
                self.close(idx)
            span = self.spans[idx]
            vdim = getattr(comp, "vdim", None)
            span[4] = vdim(q - 1) * vdim(q) if vdim else _size(mat)
            span[5] = _nnz(mat)
            return mat

        return boundary_matrix

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "missing": self.missing}


def install() -> Recorder:
    rec = Recorder()
    for modname, path, name in HOOKS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            rec.missing.append(f"{modname}.{path}")
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            rec.missing.append(f"{modname}.{path}")
            continue
        if name == "pages.assembly":
            wrapped = rec.wrap_assembly(orig)
        else:
            wrapped = rec.wrap(name, orig)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for modname2, mod in list(sys.modules.items()):
            if mod is None or not (modname2 == "ess" or modname2.startswith("ess.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return rec


# ---------------------------------------------------------------------------
# Aggregation (parent process)
# ---------------------------------------------------------------------------

TIME_METRICS = {
    "complexes.parse_s": ("incl", "complexes.parse"),
    "complexes.base_change_s": ("incl", "complexes.base_change"),
    "groupring.filtration_s": ("incl", "groupring.filtration"),
    "pages.assembly_s": ("incl", "pages.assembly"),
    "pages.engine_s": ("incl", "pages.engine"),
    "pages.crosscheck_s": ("incl", "pages.crosscheck"),
    "linalg.matvec_s": ("self", "linalg.matvec"),
    "linalg.elim_s": ("self", "linalg.elim"),
    "coeffs.rank_exact_s": ("incl", "coeffs.rank_exact"),
    "modz.snf_s": ("incl", "modz.snf"),
    "modz.decompose_s": ("self", "modz.decompose"),
    "aomoto.betti_s": ("incl", "aomoto.betti"),
    "twisted.eval_s": ("incl", "twisted.eval"),
    "twisted.alexander_s": ("incl", "twisted.alexander"),
}

# counter -> (span name, what): "calls" counts spans, "work"/"nnz" sums them.
COUNTERS = {
    "groupring.filtration_calls": ("groupring.filtration", "calls"),
    "pages.assembly_entries": ("pages.assembly", "work"),
    "pages.assembly_nnz": ("pages.assembly", "nnz"),
    "linalg.matvec_calls": ("linalg.matvec", "calls"),
    "linalg.matvec_entries": ("linalg.matvec", "work"),
    "linalg.elim_calls": ("linalg.elim", "calls"),
    "linalg.elim_entries": ("linalg.elim", "work"),
    "coeffs.rank_exact_calls": ("coeffs.rank_exact", "calls"),
    "modz.snf_calls": ("modz.snf", "calls"),
    "modz.snf_entries": ("modz.snf", "work"),
}


def layer_metrics(trace: dict, op_seconds: float) -> tuple[dict, dict]:
    """(times in seconds, counters) of one traced operation."""
    names, spans = trace["names"], trace["spans"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestor_named(i, nid):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == nid:
                return p
            p = spans[p][3]
        return -1

    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    nnz: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = names[s[0]]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + s[4]
        nnz[name] = nnz.get(name, 0) + s[5]
        if ancestor_named(i, s[0]) < 0:
            incl[name] = incl.get(name, 0.0) + dur[i]

    times = {}
    for metric, (kind, name) in TIME_METRICS.items():
        times[metric] = (incl if kind == "incl" else self_t).get(name, 0.0)
    # FiltrationModel construction without the filtration it builds.
    model = incl.get("pages.model", 0.0)
    if "pages.model" in names and "groupring.filtration" in names:
        model_id = names.index("pages.model")
        filt_id = names.index("groupring.filtration")
        for i, s in enumerate(spans):
            if s[0] == filt_id and ancestor_named(i, filt_id) < 0 \
                    and ancestor_named(i, model_id) >= 0:
                model -= dur[i]
    times["pages.model_s"] = model
    top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    times["cli.other_s"] = op_seconds - top

    counters = {}
    for metric, (name, what) in COUNTERS.items():
        counters[metric] = {"calls": calls, "work": work, "nnz": nnz}[what].get(name, 0)
    return times, counters
