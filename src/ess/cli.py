"""Command-line surface: parse space descriptions, dispatch computations,
emit aligned-text and JSON reports.

Command lines read ``ess <verb> [input] [options]``.  Each verb's options
are declared once, in the table ``_VERBS``, and parsed by ``parse_args``:
an option is ``--opt value`` or ``--opt=value`` (a value may start with a
single "-", as in ``--k-max -1``), names must be spelled out in full (no
abbreviations), and the last of a repeated option wins.  ``ess --help`` lists
the verbs and ``ess <verb> --help`` the options of one verb.  A usage error
(unknown verb or option, missing or non-integer value, a second input, --nu
without --group-quotient outside bounds) is an input error: exit 2 with an
``error:`` line.

Exit codes: 0 success; 2 input/validation error, or a request that runs out
of memory; 3 hypothesis-not-met verdict under bounds --strict; 4 internal
cross-check failure (pipeline disagreement, always an implementation bug).
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import builtins as corpus
from .aomoto import aomoto_betti, aomoto_specialize, universal_aomoto
from .coeffs import FieldDescriptor, format_poly, read_int
from .complexes import (EquivariantComplex, GroupHom, base_change, betti_numbers,
                        parse_document)
from .errors import CrossCheckError, EssError, InputError
from .groupring import GroupDescriptor
from .modz import homology_decomposition, monodromy_report
from .pages import PageComputation, reznikov_collapse, window_collapse_page
from .twisted import alexander_polynomial, bounds_report, twisted_betti

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRICT = 3
EXIT_CROSSCHECK = 4


def emit_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _int(text: str, option: str) -> int:
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    if not body[len(sign):].isdecimal():
        raise InputError(f"{option} expects an integer, got {text!r:.40}")
    return read_int(body[len(sign):], f"{option} {sign}") * (-1 if sign == "-" else 1)


def _nu_images(text: str | None, group: GroupDescriptor) -> list[int]:
    """The --nu images, one per generator of group, by position: either
    "a=2,b=1,c=1" (the names before '=' are decorative) or plain "2,1,1";
    without --nu, every generator goes to 1."""
    if not text:
        return [1] * group.num_generators
    values = [_int(p.split("=", 1)[-1].strip(), "--nu") for p in text.split(",") if p.strip()]
    if len(values) != group.num_generators:
        raise InputError(
            f"--nu needs {group.num_generators} images for {group}, got {len(values)}"
        )
    return values


def load_complex(args) -> EquivariantComplex:
    if args.builtin and args.input:
        raise InputError("give exactly one input source (--builtin or a path)")
    if args.builtin:
        doc = corpus.load_builtin_document(args.builtin)
    elif args.input:
        try:
            with open(args.input) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc.strerror}") from None
        except ValueError as exc:
            raise InputError(f"{args.input} is not valid JSON: {exc}") from None
    else:
        raise InputError("an input path or --builtin is required")
    C, hom = parse_document(doc), None
    if args.group_quotient:
        target = GroupDescriptor.parse(args.group_quotient)
        if target.kind == "free_abelian" and target.n != 1:
            raise InputError(f"--group-quotient takes Z or Zmod:<m>, got {args.group_quotient!r}")
        if args.nu or target.kind == "cyclic":
            images = [v if target.kind == "cyclic" else [v] for v in _nu_images(args.nu, C.group)]
        else:
            images = corpus.diagonal_quotient_images(C.group)
        hom = GroupHom(C.group, target, images)
    # one ring map from the document's kG to the requested one
    return base_change(C, hom, FieldDescriptor.parse(args.field) if args.field else None)


def require_field(C: EquivariantComplex) -> EquivariantComplex:
    if not C.field.is_field:
        raise InputError(
            "this command needs field coefficients; pass --field Q or --field Fp:<p>"
        )
    return C


def require_z(C: EquivariantComplex, verb: str) -> EquivariantComplex:
    """C if its deck group is Z, else an InputError naming the way onto Z."""
    if C.group.kind == "free_abelian" and C.group.n == 1:
        return C
    onto_z = C.group.kind == "free_abelian" and C.group.n
    how = "pass --group-quotient Z to map it onto Z" if onto_z else "it has no quotient onto Z"
    raise InputError(f"{verb} needs the deck group Z, and the input's group is {C.group}; {how}")


def _q_range(args, C):
    if args.q_range:
        lo, _, hi = args.q_range.partition(":")
        lo, hi = _int(lo, "--q-range"), _int(hi or lo, "--q-range")
        if min(lo, hi) < 0:
            raise InputError(f"--q-range needs degrees >= 0, got {args.q_range!r}")
        if lo > hi:
            raise InputError(f"--q-range needs lo <= hi, got {args.q_range!r}")
        return range(lo, hi + 1)
    return range(C.top + 1)


def cmd_validate(args):
    C = load_complex(args)
    doc = {
        "group": str(C.group),
        "field": str(C.field),
        "dims": C.dims,
        "provenance": C.provenance,
        "minimal": C.is_minimal(),
        "integral_shadow": C.raw_integral is not None,
        "valid": True,
    }
    if args.json:
        sys.stdout.write(emit_json(doc))
    else:
        print("valid complex:", ", ".join(f"{k}={v}" for k, v in doc.items()))
    return EXIT_OK


def cmd_betti(args):
    C = require_field(load_complex(args))
    b = betti_numbers(C)
    if args.json:
        sys.stdout.write(emit_json({"betti": b, "field": str(C.field)}))
    else:
        print(f"b_q(X, {C.field}) = {tuple(b)}")
    return EXIT_OK


def _distinct_pages(tables, encode):
    """(r, encode(table)) per page, encoding each distinct page once: pages
    that are equal share their dicts (see PageTable)."""
    seen = {}
    for t in tables:
        key = id(t.entries), id(t.d_ranks)
        if key not in seen:
            seen[key] = encode(t)
        yield t.r, seen[key]


def _entries_json(t) -> str:
    """The "entries" list of one page as emit_json writes it, q outer and s
    inner, keys sorted: every value is an int."""
    S, Q = t.window
    dim, rank = t.entries.get, t.d_ranks.get
    return "[" + ",".join(f'{{"d_rank":{rank((s, q), 0)},"dim":{dim((s, q), 0)},"q":{q},"s":{s}}}'
                          for q in range(Q + 1) for s in range(S + 1)) + "]"


def _rows_text(t) -> str:
    """The table of one page without its title: a header of s, then a row
    per q from the top down of dim, or dim/rank where d^r leaves that spot."""
    S, Q = t.window
    dim, rank = t.entries.get, t.d_ranks.get
    lines = ["q\\s " + " ".join(f"{s:>7}" for s in range(S + 1))]
    for q in range(Q, -1, -1):
        cells = (f"{dim((s, q), 0)}/{rk}" if (rk := rank((s, q), 0)) else f"{dim((s, q), 0)}  "
                 for s in range(S + 1))
        lines.append(f"{q:>3} " + " ".join(f"{c:>7}" for c in cells))
    return "\n".join(lines)


PAGE_TITLE = "page E^{}  (rows q, columns filtration s; dim/d-rank)"


def cmd_pages(args):
    if args.R is not None and args.R < 1:
        raise InputError("--R must be >= 1")
    C = require_field(load_complex(args))
    if C.group.kind == "cyclic" and C.group.prime_power and \
            C.field.characteristic == C.group.prime_power[0]:
        tables, hom = reznikov_collapse(C, S_max=args.S, R_max=args.R)
        collapse = window_collapse_page(tables)
        extra = {"homology_dims": hom}
    else:
        comp = PageComputation(C, R_max=3 if args.R is None else args.R, S_max=args.S)
        tables = comp.pages()
        collapse = window_collapse_page(tables)
        extra = {}
    if args.json:
        # emit_json of the whole document, written a page at a time: the keys
        # sort as "homology_dims" < "pages" < "window_collapse_page", and in a
        # page "entries" < "page"; a distinct page's entries are encoded once
        write = sys.stdout.write
        write(emit_json(extra)[:-2] + ',"pages":[' if extra else '{"pages":[')
        for i, (r, entries) in enumerate(_distinct_pages(tables, _entries_json)):
            write(f'{"," if i else ""}{{"entries":{entries},"page":{r}}}')
        write(f'],"window_collapse_page":{json.dumps(collapse)}}}\n')
    else:
        # a distinct page's rows are formatted once, under each page's title
        for r, rows in _distinct_pages(tables, _rows_text):
            print(PAGE_TITLE.format(r), rows, "", sep="\n")
        print(f"window collapse at page: {collapse}")
        if extra:
            print(f"homology dims (independent rank computation): {extra['homology_dims']}")
    return EXIT_OK


def cmd_decompose(args):
    C = require_z(require_field(load_complex(args)), "decompose")
    rows = []
    snfs = {}  # d_q serves H_{q-1} and H_q
    for q in _q_range(args, C):
        rows.append(homology_decomposition(C, q, snfs))
    if args.json:
        sys.stdout.write(emit_json({"decompositions": rows}))
    else:
        for row in rows:
            blocks = row["t_minus_1_blocks"]
            others = ", ".join(
                f"{o['poly']} (mult {o['mult']})" for o in row["other_primary"]
            ) or "none"
            print(
                f"H_{row['q']}: free rank {row['free_rank']}, (t-1)-blocks {blocks}, "
                f"other primary: {others}, filtration "
                f"{'separated' if row['separated'] else 'not separated'}"
            )
    return EXIT_OK


def cmd_monodromy(args):
    if args.k_max is not None and args.k_max < 0:
        raise InputError("--k-max must be >= 0")
    C = require_z(require_field(load_complex(args)), "monodromy")
    rep = monodromy_report(C, args.k_max if args.k_max is not None else C.top)
    if args.json:
        sys.stdout.write(emit_json(rep))
    else:
        for row in rep["degrees"]:
            print(
                f"q={row['q']}: free={row['free_rank']} blocks={row['t_minus_1_blocks']} "
                f"beta={row['beta']} trivial-action={row['condition_trivial_action']}"
            )
        for k, v in enumerate(rep["trivial_through_degree"]):
            print(f"monodromy trivial through degree {k}: {v}")
    return EXIT_OK


def cmd_aomoto(args):
    C = require_z(require_field(load_complex(args)), "aomoto")
    doc = aomoto_betti(C)
    if args.json:
        sys.stdout.write(emit_json(doc))
    else:
        print(f"beta_q(X, nu_{C.field}) = {tuple(doc['beta'])}  (E^2 route)")
    return EXIT_OK


def cmd_universal_aomoto(args):
    C = require_field(load_complex(args))
    U = universal_aomoto(C)
    doc = U.to_json()
    if args.spec_at:
        z = [_int(x, "--spec-at") for x in args.spec_at.split(",")]
        doc["specialization"] = {"z": z, "beta": aomoto_specialize(U, z)}
    if args.json:
        sys.stdout.write(emit_json(doc))
    else:
        for q, mat in enumerate(doc["differentials"]):
            print(f"D^{q} =", mat)
        if "specialization" in doc:
            s = doc["specialization"]
            print(f"beta at z={s['z']}: {tuple(s['beta'])}")
    return EXIT_OK


def cmd_twisted(args):
    C = load_complex(args)  # twisted_betti validates coefficients itself
    if args.d is None:
        raise InputError("--d <order> is required")
    b = twisted_betti(require_z(C, "twisted"), args.d)
    if args.json:
        sys.stdout.write(emit_json({"d": args.d, "twisted_betti": b}))
    else:
        print(f"b_q(X, nu/{args.d}) = {tuple(b)}")
    return EXIT_OK


def cmd_alexander(args):
    C = require_z(load_complex(args), "alexander")
    delta = format_poly(alexander_polynomial(C), "t")
    notice = "no 2-cells; Delta = 1 by convention" if C.top < 2 or not C.dims[2] else None
    if args.json:
        doc = {"alexander_polynomial": delta}
        if notice:
            doc["notice"] = notice
        sys.stdout.write(emit_json(doc))
    else:
        print(f"Delta = {delta}")
        if notice:
            print(f"note: {notice}")
    return EXIT_OK


def cmd_bounds(args):
    C = load_complex(args)
    if args.p is None:
        raise InputError("--p <prime> is required")
    # --nu is the character unless --group-quotient read it
    images = _nu_images(None if args.group_quotient else args.nu, C.group)
    rep = bounds_report(C, images, args.p, args.r)
    verdicts = rep["verdicts"]
    if args.json:
        sys.stdout.write(emit_json(rep))
    else:
        print(f"bounds for p = {rep['p']}, r = {rep['r']} "
              f"(effective character order {rep['effective_order']})")
        print(f"{'q':>3} {'b_q(nu/p^r)':>12} {'beta_q(F_p)':>12} {'b_q(F_p)':>10} "
              f"{'H_q(Z) free':>12}")
        for row, free in zip(rep["rows"], rep["torsion_free"]):
            print(f"{row['q']:>3} {row['b_twisted']:>12} {row['beta_fp']:>12} "
                  f"{row['b_fp']:>10} {str(free):>12}")
        print(f"modular bound: {verdicts['bettibound']}; Aomoto bound: {verdicts['cohobound']}")
    if args.strict and verdicts["cohobound"] != "holds":
        return EXIT_STRICT
    return EXIT_OK


def cmd_selftest(args):
    from . import selftest

    failures = selftest.run_all(verbose=not args.json)
    if args.json:
        sys.stdout.write(emit_json({"failures": failures}))
    return EXIT_OK if not failures else EXIT_CROSSCHECK


# The options of every verb: (name, type, default, help).  "input" is the
# optional positional; a bool option is a flag; the attribute of the parsed
# namespace is the name without its dashes, with "-" read as "_".
_COMMON = (
    ("input", str, None, "path to a JSON space description"),
    ("--builtin", str, None, "named built-in input (see README)"),
    ("--field", str, None, "coefficients: Q, Fp:<p>, cyclotomic:<d>, Z"),
    ("--group-quotient", str, None,
     "base change the deck group along a surjection onto Z or Zmod:<m> (no other "
     "target); without --nu, every generator goes to 1"),
    ("--nu", str, None, "images for --group-quotient, e.g. 'a=2,b=1,c=1' or '2,1,1' "
     "(bounds without --group-quotient: the character)"),
    ("--json", bool, False, "emit canonical JSON"),
)

_VERBS = {
    "validate": (cmd_validate, ()),
    "betti": (cmd_betti, ()),
    "pages": (cmd_pages, (
        ("--R", int, None, "last page (default 3; E^{p^r} for Z_{p^r} in characteristic p)"),
        ("--S", int, 3, "max filtration degree (default 3)"),
    )),
    "decompose": (cmd_decompose, (
        ("--q-range", str, None, "degree range lo:hi (default all)"),
    )),
    "monodromy": (cmd_monodromy, (("--k-max", int, None, "report through this degree"),)),
    "aomoto": (cmd_aomoto, ()),
    "universal-aomoto": (cmd_universal_aomoto, (
        ("--spec-at", str, None, "also specialize at z, e.g. '1,1'"),
    )),
    "twisted": (cmd_twisted, (("--d", int, None, "character order"),)),
    "alexander": (cmd_alexander, ()),
    "bounds": (cmd_bounds, (
        ("--p", int, None, "prime"),
        ("--r", int, 1, "exponent (default 1)"),
        ("--strict", bool, False, "exit 3 when the cohomology bound does not hold"),
    )),
    "selftest": (cmd_selftest, ()),
}

_HELP = ("-h", "--help")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def help_text(verb: str | None = None) -> str:
    """``ess --help`` (every verb) or ``ess <verb> --help`` (its options)."""
    if verb is None:
        return (
            "usage: ess <verb> [input] [options]\n\n"
            "Equivariant spectral sequences of finite complexes, exactly: pages, "
            "module\ndecompositions, Aomoto and twisted Betti numbers, and the "
            "modular bound reports.\n\n"
            "verbs:\n" + "".join(f"  {name}\n" for name in _VERBS) +
            "Run 'ess <verb> --help' for the options of one verb.\n"
        )
    lines = [f"usage: ess {verb} [input] [options]", ""]
    for name, kind, _, text in _COMMON + _VERBS[verb][1]:
        left = name if kind is bool or name == "input" else f"{name} {_dest(name).upper()}"
        lines.append(f"  {left:<32} {text}")
    lines.append(f"  {'-h, --help':<32} show this help")
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """One command line read against the table (forms in the module
    docstring): a namespace holding ``verb`` and every option of that verb,
    its default where not given; or the help text for -h/--help.  Every usage
    error is an InputError."""
    if not argv:
        raise InputError(f"a verb is required: {', '.join(_VERBS)}")
    verb, rest = argv[0], argv[1:]
    if verb in _HELP:
        return help_text()
    if verb not in _VERBS:
        raise InputError(f"unknown verb {verb!r}; one of: {', '.join(_VERBS)}")
    if any(token in _HELP for token in rest):
        return help_text(verb)
    options = _COMMON + _VERBS[verb][1]
    kinds = {name: kind for name, kind, _, _ in options}
    args = {_dest(name): default for name, _, default, _ in options}
    args["verb"] = verb
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-") or token == "-":
            if args["input"] is not None:
                raise InputError(f"unexpected argument {token!r}: one input only")
            args["input"] = token
            continue
        name, eq, value = token.partition("=")
        kind = kinds.get(name)
        if kind is None:
            raise InputError(f"unknown option {name!r} for {verb}; see 'ess {verb} --help'")
        if kind is bool:
            if eq:
                raise InputError(f"{name} takes no value")
            args[_dest(name)] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise InputError(f"{name} needs a value")
        args[_dest(name)] = _int(value, name) if kind is int else value
    if args["nu"] is not None and not args["group_quotient"] and verb != "bounds":
        raise InputError(f"--nu gives the images of --group-quotient; {verb} reads it only "
                         "with that option")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = None
    try:
        args = parse_args(argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        return _VERBS[args.verb][0](args)
    except CrossCheckError as exc:
        print(f"FATAL cross-check failure (implementation bug): {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except EssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # args is None only if parsing itself ran out
        what = " ".join(f"{k}={getattr(args, k)}" for k in ("verb", "R", "S") if hasattr(args, k))
        print(f"error: out of memory ({what}); try a smaller window", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
