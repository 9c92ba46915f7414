import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pages_output_oracle
from ess import cli
from ess.builtins import builtin_complex, builtin_names
from ess.complexes import GroupHom, base_change
from ess.groupring import GroupDescriptor
from ess.pages import PageComputation, PageTable
from ess.twisted import bounds_report


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_every_builtin(capsys):
    for name in ("circle", "wedge2", "torus2", "torus3", "trefoil", "figure8",
                 "zxf2", "torsfree", "minimal-check", "lyndon:6", "comm-p:3"):
        code, out, _ = run(["validate", "--builtin", name], capsys)
        assert code == 0, name
        assert "valid" in out


def test_unknown_builtin_is_input_error(capsys):
    code, _, err = run(["validate", "--builtin", "nope"], capsys)
    assert code == cli.EXIT_INPUT
    assert "unknown built-in" in err


def test_twisted_trefoil_d6(capsys):
    code, out, _ = run(["twisted", "--builtin", "trefoil", "--d", "6", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["twisted_betti"][1] == 1


def test_bounds_comm_p3(capsys):
    code, out, _ = run(["bounds", "--builtin", "comm-p:3", "--p", "3", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    row1 = [r for r in doc["rows"] if r["q"] == 1][0]
    assert (row1["b_twisted"], row1["beta_fp"], row1["b_fp"]) == (0, 1, 2)


def test_bounds_strict_exit_code(capsys):
    code, _, _ = run(["bounds", "--builtin", "torsfree", "--p", "2", "--strict"], capsys)
    assert code == cli.EXIT_STRICT
    code2, _, _ = run(["bounds", "--builtin", "torus2", "--p", "2", "--strict"], capsys)
    assert code2 == 0


def test_pages_circle_mod3(capsys):
    code, out, _ = run(
        ["pages", "--builtin", "circle", "--group-quotient", "Zmod:3",
         "--field", "Fp:3", "--R", "3", "--S", "3", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["window_collapse_page"] <= 3
    assert doc["homology_dims"] == [1, 1]
    last = [p for p in doc["pages"] if p["page"] == 3][0]
    survivors = {(e["s"], e["q"]): e["dim"] for e in last["entries"] if e["dim"]}
    assert survivors[(2, 1)] == 1 and (1, 1) not in survivors


def test_reznikov_totals_cover_the_whole_filtration(capsys):
    # the default --S 3 window stops short of s = p^r - 1; the E^infinity
    # totals must still be checked over every s, not only inside the window
    for name, m, p, hom in (("circle", 9, 3, [1, 1]), ("comm-p:5", 5, 5, [1, 6, 5]),
                            ("comm-p:7", 7, 7, [1, 8, 7])):
        code, out, _ = run(
            ["pages", "--builtin", name, "--group-quotient", f"Zmod:{m}",
             "--field", f"Fp:{p}", "--json"],
            capsys,
        )
        assert code == 0, name
        doc = json.loads(out)
        assert doc["homology_dims"] == hom, name
        assert max(e["s"] for e in doc["pages"][0]["entries"]) == 3


def test_pages_honours_R_on_the_reznikov_path(capsys):
    def pages(argv):
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0, argv
        return [p["page"] for p in json.loads(out)["pages"]]

    z3 = ["pages", "--builtin", "circle", "--group-quotient", "Zmod:3",
          "--field", "Fp:3", "--S", "1"]
    assert pages(z3 + ["--R", "1"]) == [1]
    assert pages(z3 + ["--R", "2"]) == [1, 2]
    assert pages(z3 + ["--R", "7"]) == [1, 2, 3]  # E^3 = E^infinity for Z_3
    assert pages(z3) == [1, 2, 3]
    assert pages(["pages", "--builtin", "circle", "--field", "Q"]) == [1, 2, 3]
    for argv in (z3 + ["--R", "0"], ["pages", "--builtin", "circle", "--field", "Q", "--R", "0"]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_INPUT and not out, argv
        assert err.startswith("error: ")


_T_MINUS_1_POWERS = {2: "t^2 - 2*t + 1", 3: "t^3 - 3*t^2 + 3*t - 1"}


@settings(max_examples=60, deadline=None)
@given(space=st.sampled_from(["circle", "trefoil", "comm-p:2", "comm-p:3", "torus2", 2, 3]),
       m=st.sampled_from([4, 8, 9, 16, 25, 27]), prime_field=st.booleans(),
       S=st.integers(0, 30), R=st.none() | st.integers(1, 30))
def test_pages_stdout_matches_the_one_page_at_a_time_encoder(space, m, prime_field, S, R,
                                                            tmp_path_factory):
    """Each distinct page encoded once and spliced under every page number
    gives the stdout of encoding every page and the whole document at once,
    for the very tables the command computed.  An integer space k is the
    complex kG --(t - 1)^k--> kG, whose d^1 .. d^(k-1) vanish: equal pages
    there differ in their d^r alone."""
    p = next(q for q in (2, 3, 5) if m % q == 0)
    if isinstance(space, int):
        path = tmp_path_factory.getbasetemp() / f"power{space}.json"
        path.write_text(json.dumps({"field": "Z", "group": "Z", "matrices": {
            "dims": [1, 1], "boundaries": [[[_T_MINUS_1_POWERS[space]]]]}}))
        source = [str(path)]
    else:
        source = ["--builtin", space]
    argv = ["pages", *source, "--group-quotient", f"Zmod:{m}",
            "--field", f"Fp:{p}" if prime_field else "Q", "--S", str(S)]
    argv += [] if R is None else ["--R", str(R)]
    for json_flag, oracle in (([], pages_output_oracle.pages_text),
                              (["--json"], pages_output_oracle.pages_json)):
        seen = {}
        collapse, reznikov = cli.window_collapse_page, cli.reznikov_collapse

        def keep_tables(tables):
            seen["tables"] = tables
            return collapse(tables)

        def keep_homology(C, S_max, R_max):
            tables, seen["hom"] = reznikov(C, S_max, R_max)
            return tables, seen["hom"]

        out = io.StringIO()
        with mock.patch.object(cli, "window_collapse_page", keep_tables), \
                mock.patch.object(cli, "reznikov_collapse", keep_homology), \
                contextlib.redirect_stdout(out):
            assert cli.main(argv + json_flag) == cli.EXIT_OK
        assert out.getvalue() == oracle(seen["tables"], seen.get("hom"))


def test_reznikov_pages_encode_each_distinct_page_once(monkeypatch, capsys):
    calls, to_json = [], PageTable.to_json
    monkeypatch.setattr(PageTable, "to_json", lambda self: calls.append(self.r) or to_json(self))
    code, out, _ = run(["pages", "--builtin", "comm-p:3", "--group-quotient", "Zmod:729",
                        "--field", "Fp:3", "--json"], capsys)
    pages = json.loads(out)["pages"]
    distinct = {json.dumps(page["entries"]) for page in pages}
    assert code == cli.EXIT_OK and len(pages) == 729
    assert len(calls) == len(distinct) < 10


def test_reznikov_pages_with_r_build_only_those_pages(monkeypatch, capsys):
    """--R on the Reznikov path builds E^1 .. E^R, not the p^r pages."""
    calls, page = [], PageComputation.page
    monkeypatch.setattr(PageComputation, "page", lambda self, r: calls.append(r) or page(self, r))
    code, out, _ = run(["pages", "--builtin", "comm-p:3", "--group-quotient", "Zmod:729",
                        "--field", "Fp:3", "--R", "3", "--json"], capsys)
    assert code == cli.EXIT_OK and calls == [1, 2, 3]
    assert [page["page"] for page in json.loads(out)["pages"]] == [1, 2, 3]


@pytest.mark.parametrize("space", ["circle", "torus2"])
def test_pages_on_a_huge_cyclic_group_over_q_run_on_e_equal_1(space, capsys):
    """Over Q every Z_m has e = 1, so a modulus of 10^12 + 39 (prime) or 2^90
    costs what Z_6 costs, and prints the same pages."""
    def pages(m):
        return run(["pages", "--builtin", space, "--group-quotient", f"Zmod:{m}", "--field", "Q",
                    "--json"], capsys)
    want = pages(6)
    assert want[0] == cli.EXIT_OK and want[2] == ""
    assert pages(1000000000039) == pages(2 ** 90) == want


@pytest.mark.parametrize("group, field, message", [
    ("Zmod:1099511627776", "Fp:2", "k[Zmod:1099511627776] cut at degree 1099511627776 has "
                                   "1099511627776 basis vectors, past the limit 16777216"),
    (f"Zmod:{3 ** 60}", "Fp:3", f"cut at degree {3 ** 60} has {3 ** 60} basis vectors"),
    ("Zmod:618970019642690137449562111", "Q",
     "618970019642690137449562111 is too large for an exact primality test"),
], ids=["e=2^40", "reznikov-3^60", "prime-past-the-bound"])
def test_oversized_cyclic_groups_exit_2_before_building(group, field, message, capsys):
    code, out, err = run(["pages", "--builtin", "circle", "--group-quotient", group,
                          "--field", field], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "") and err.startswith("error: ") and message in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int(str) has no digit limit on this Python")
@pytest.mark.parametrize("prefix", ["Zmod:", "Z^"])
@pytest.mark.parametrize("source", ["argv", "document"])
def test_group_descriptor_past_the_int_digit_limit_exits_2(source, prefix, tmp_path, capsys):
    """A descriptor of 5000 digits is past what int(str) converts: an input
    error that names it, from --group-quotient and from a document's "group"."""
    group = prefix + "9" * 5000
    if source == "argv":
        argv = ["pages", "--builtin", "circle", "--group-quotient", group, "--field", "Q"]
    else:
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"field": "Q", "group": group, "presentation": _ONE_CELL}))
        argv = ["pages", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "") and err.startswith("error: ")
    assert f"group descriptor {prefix}999" in err and "5000 digits" in err


_EXTRA_CELL_WITHOUT_DEGREE = json.dumps({
    "field": "Z", "group": "Z",
    "presentation": {"generators": ["x", "y"], "relators": ["xyXY"], "nu": {"x": 1, "y": 1}},
    "extra_cells": [{"matrix": [["t - 1"]]}],
})


_ONE_CELL = {"generators": ["x"], "relators": []}


@pytest.mark.parametrize("text, argv", [
    ('{"field": "Q",', ["betti", "{path}"]),
    (None, ["betti", "{path}"]),
    (None, ["validate", "--builtin", "lyndon:abc"]),
    (_EXTRA_CELL_WITHOUT_DEGREE, ["validate", "{path}"]),
    (None, ["betti", "--builtin", "torus2", "--group-quotient", "Z", "--nu", "a=x",
            "--field", "Q"]),
    (None, ["bounds", "--builtin", "torus2", "--p", "2", "--nu", "a=x"]),
    (None, ["decompose", "--builtin", "zxf2", "--field", "Q", "--q-range", "a:b"]),
    (None, ["universal-aomoto", "--builtin", "torus2", "--field", "Q", "--spec-at", "a"]),
    (json.dumps({"field": "Z", "group": "Z",
                 "presentation": dict(_ONE_CELL, nu={"x": "a"})}), ["validate", "{path}"]),
    (json.dumps({"field": "Z", "group": "Z", "matrices": {"boundaries": [[["t - 1"]]]}}),
     ["validate", "{path}"]),
    (json.dumps({"field": "Z", "group": "Z",
                 "matrices": {"dims": [1, "a"], "boundaries": [[["t - 1"]]]}}),
     ["validate", "{path}"]),
    (None, ["betti", "--builtin", "trefoil", "--field", "Fp:x"]),
    (None, ["betti", "--builtin", "trefoil", "--field", "cyclotomic:x"]),
    (json.dumps({"field": "Fp:x", "group": "Z", "presentation": _ONE_CELL}),
     ["validate", "{path}"]),
    (json.dumps({"field": "cyclotomic:x", "group": "Z", "presentation": _ONE_CELL}),
     ["validate", "{path}"]),
    (json.dumps({"field": 5, "group": "Z", "presentation": _ONE_CELL}),
     ["validate", "{path}"]),
    (None, ["decompose", "--builtin", "circle", "--field", "Q", "--q-range=-1:1"]),
    (None, ["decompose", "--builtin", "circle", "--field", "Q", "--q-range=0:-1"]),
    (None, ["monodromy", "--builtin", "circle", "--field", "Q", "--k-max", "-1"]),
    (None, ["decompose", "--builtin", "circle", "--field", "Q", "--q-range", "3:1"]),
    (json.dumps({"field": "Z", "group": "Z",
                 "matrices": {"dims": [1, 0, 1], "boundaries": [[[]], []]}}),
     ["alexander", "{path}", "--json"]),
    (None, ["nope", "--builtin", "circle"]),
    (None, []),
    (None, ["pages", "--builtin", "circle", "--bogus"]),
    (None, ["pages", "--builtin", "circle", "--field", "Q", "--R"]),
    (None, ["pages", "--builtin", "circle", "--field", "Q", "--R", "--json"]),
    (None, ["pages", "--builtin", "circle", "--field", "Q", "--R", "x"]),
    (None, ["twisted", "--builtin", "trefoil", "--d", "1.5"]),
    (None, ["betti", "{path}", "{path}", "--field", "Q"]),
    (None, ["validate", "--buil", "circle"]),
    (None, ["validate", "--builtin", "circle", "--json=yes"]),
    (None, ["validate", "--builtin", "wedge2", "--group-quotient", "Z^2"]),
    (None, ["pages", "--builtin", "torus2", "--group-quotient", "Z^0", "--field", "Q"]),
    (None, ["decompose", "--builtin", "torus2", "--field", "Q"]),
    (None, ["monodromy", "--builtin", "torus2", "--field", "Q"]),
    (None, ["alexander", "--builtin", "torus2"]),
    (None, ["twisted", "--builtin", "torus2", "--d", "3"]),
    (None, ["decompose", "--builtin", "torus2", "--group-quotient", "Zmod:4", "--field", "Q"]),
    (json.dumps({"field": "Z", "group": "Zmod:3", "presentation": _ONE_CELL}),
     ["alexander", "{path}"]),
    (json.dumps({"field": "Z", "group": "Zmod:5",
                 "presentation": dict(_ONE_CELL, nu={"x": [1, 7]})}), ["validate", "{path}"]),
    *[(json.dumps({"field": "Z", "group": "Z", "presentation": {
        "generators": gens, "relators": [], "nu": dict.fromkeys(gens, 1)}}),
       ["betti", "{path}", "--field", "Q"])
      for gens in (["a", "a"], ["ab"], ["A"], ["a", "x1"], ["x1", "x1"])],
    (json.dumps({"field": "Z", "group": "Z",
                 "presentation": {"generators": ["a"], "relators": [],
                                  "nu": {"a": 1, "zz": 5}}}),
     ["betti", "{path}", "--field", "Q"]),
], ids=["malformed-json", "missing-path", "non-integer-family-argument",
        "extra-cell-without-degree", "betti-nu-not-integer", "bounds-nu-not-integer",
        "q-range-not-integer", "spec-at-not-integer", "json-nu-image-string",
        "matrices-without-dims", "non-integer-dims", "field-fp-not-integer",
        "field-cyclotomic-not-integer", "json-field-fp-not-integer",
        "json-field-cyclotomic-not-integer", "json-field-not-a-string",
        "q-range-negative-low",
        "q-range-negative-high", "k-max-negative", "q-range-inverted",
        "alexander-2-cells-without-1-cells", "unknown-verb", "no-verb", "unknown-option",
        "missing-value", "option-as-value", "R-not-integer", "d-not-integer",
        "two-inputs", "abbreviated-option", "flag-with-value", "quotient-Z^2",
        "quotient-Z^0", "decompose-on-Z^2", "monodromy-on-Z^2", "alexander-on-Z^2",
        "twisted-on-Z^2", "decompose-on-Zmod:4", "alexander-on-Zmod:3",
        "json-nu-list-of-two-on-Zmod", "generator-names-repeated",
        "generator-name-two-letters", "generator-name-uppercase",
        "generator-name-x1-at-position-2", "generator-names-x1-repeated",
        "nu-key-names-no-generator"])
def test_bad_input_exits_2_with_an_error_line(text, argv, tmp_path, capsys):
    path = tmp_path / "space.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run([a.replace("{path}", str(path)) for a in argv], capsys)
    assert code == cli.EXIT_INPUT
    assert not out
    assert err.startswith("error: ") and err[len("error: "):].strip()


def _entry_in_d3(entry):
    """A complex with d_2 = 0, so that d o d = 0 holds whatever d_3 reads as."""
    return {"field": "Z", "group": "Z", "matrices": {
        "dims": [1, 1, 1, 1], "boundaries": [[["t - 1"]], [["0"]], [[entry]]]}}


_HUGE = "9" * 5000


@pytest.mark.parametrize("doc, argv", [
    *[(_entry_in_d3(entry), ["validate"])
      for entry in ["2t", "t t", "2 3", "t^2t", "t**2 + 1", "2*", "*t", "t*"]],
    (_entry_in_d3(_HUGE + "*t"), ["validate"]),
    (_entry_in_d3("t^" + _HUGE), ["validate"]),
    ({"field": "Z", "group": "Z",
      "presentation": {"generators": ["x"], "relators": ["x" + _HUGE], "nu": {"x": 1}}},
     ["validate"]),
    (None, ["betti", "--builtin", "circle", "--field", "Fp: 7"]),
    (None, ["betti", "--builtin", "circle", "--field", "Fp:+7"]),
    (None, ["validate", "--builtin", "lyndon: 6"]),
], ids=["juxtaposed-integer-and-variable", "juxtaposed-variables", "juxtaposed-integers",
        "juxtaposed-power-and-variable", "double-star", "dangling-star-after",
        "dangling-star-before", "dangling-star-after-variable", "coefficient-5000-digits",
        "exponent-5000-digits", "relator-letter-5000-digits", "field-space-before-digits",
        "field-plus-before-digits", "family-space-before-digits"])
def test_readers_refuse_what_their_grammar_does_not_write(doc, argv, tmp_path, capsys):
    """Exit 2 with one error line, no traceback, and no long run of digits
    echoed back."""
    if doc is not None:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "9" * 40 not in err, err


def test_field_descriptor_reads_unicode_decimal_digits(capsys):
    # an Arabic-Indic seven, as Zmod:\u0663 reads as Zmod:3
    code, out, _ = run(["betti", "--builtin", "circle", "--field", "Fp:\u0667", "--json"], capsys)
    assert code == cli.EXIT_OK and json.loads(out)["field"] == "Fp:7"


def test_strict_is_an_option_of_bounds_only(capsys):
    code, out, err = run(["pages", "--builtin", "torus2", "--field", "Q", "--strict"], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "") and "unknown option '--strict' for pages" in err


@pytest.mark.parametrize("argv", [
    ["pages", "--builtin", "torus2", "--field", "Q", "--json"],
    ["betti", "--builtin", "torus2", "--field", "Q"],
    ["aomoto", "--builtin", "torus3", "--field", "Fp:3"],
])
def test_nu_without_group_quotient_exits_2_outside_bounds(argv, capsys):
    """Without --group-quotient only bounds reads --nu; elsewhere it used to
    be ignored, with the output of a run without it."""
    code, out, err = run(argv + ["--nu", "2,1"], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert "--nu gives the images of --group-quotient" in err


@pytest.mark.parametrize("name, nu", [("torus2", "2,1"), ("torus3", "2,1,3")])
@pytest.mark.parametrize("p, r", [(2, 1), (3, 2)])
def test_bounds_reads_nu_through_the_quotient_or_as_its_character(name, nu, p, r, capsys):
    """--nu is read once: by --group-quotient Z when it is given, else as the
    character of bounds; the two reports agree."""
    argv = ["bounds", "--builtin", name, "--p", str(p), "--r", str(r), "--nu", nu, "--json"]
    direct = run(argv, capsys)
    assert direct[0] == cli.EXIT_OK
    assert run(argv + ["--group-quotient", "Z"], capsys) == direct
    images = [int(v) for v in nu.split(",")]
    C = builtin_complex(name)
    onto_z = base_change(C, GroupHom(C.group, GroupDescriptor.free_abelian(1),
                                     [[v] for v in images]))
    assert bounds_report(onto_z, [1], p, r) == bounds_report(C, images, p, r)


ONTO_Z = "pass --group-quotient Z to map it onto Z"


@pytest.mark.parametrize("argv, group, how", [
    (["decompose", "--builtin", "torus2", "--field", "Q"], "Z^2", ONTO_Z),
    (["monodromy", "--builtin", "wedge2", "--field", "Fp:3"], "Z^2", ONTO_Z),
    (["alexander", "--builtin", "torus3"], "Z^3", ONTO_Z),
    (["twisted", "--builtin", "torus2", "--d", "3"], "Z^2", ONTO_Z),
    (["decompose", "--builtin", "torus2", "--group-quotient", "Zmod:4", "--field", "Q"],
     "Zmod:4", "it has no quotient onto Z"),
    (["twisted", "--builtin", "circle", "--group-quotient", "Zmod:6", "--d", "3"],
     "Zmod:6", "it has no quotient onto Z"),
    (["aomoto", "--builtin", "torus2", "--field", "Q"], "Z^2", ONTO_Z),
    (["aomoto", "--builtin", "circle", "--group-quotient", "Zmod:6", "--field", "Q"],
     "Zmod:6", "it has no quotient onto Z"),
])
def test_verbs_over_z_name_the_verb_the_group_and_the_way_onto_z(argv, group, how, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: {argv[0]} needs the deck group Z, and the input's group is " \
                  f"{group}; {how}\n"
    # the option the message names reaches Z, where the verb runs
    if how == ONTO_Z:
        assert run(argv + ["--group-quotient", "Z"], capsys)[0] == cli.EXIT_OK


_ONE_GENERATOR = dict(_ONE_CELL, nu={"x": 1})


@pytest.mark.parametrize("doc", [
    {"presentation": 5},
    {"presentation": dict(_ONE_GENERATOR, generators=None)},
    {"presentation": dict(_ONE_GENERATOR, nu="x")},
    {"presentation": dict(_ONE_GENERATOR, relators=[1])},
    {"presentation": _ONE_GENERATOR, "extra_cells": 5},
    {"presentation": _ONE_GENERATOR, "extra_cells": [{"degree": 2, "matrix": [[1]]}]},
    {"matrices": {"dims": [1, 1], "boundaries": [[[1]]]}},
    {"matrices": {"dims": [1, 1], "boundaries": [[[["t"]]]]}},
], ids=["presentation-not-object", "generators-null", "nu-string", "relator-int",
        "extra-cells-int", "extra-cell-entry-int", "matrix-entry-int", "matrix-entry-list"])
def test_wrongly_typed_document_exits_2_without_traceback(doc, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"field": "Q", "group": "Z", **doc}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "ess.cli", "validate", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INPUT, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["twisted", "--builtin", "trefoil", "--d", "100000000000000000000"],
    ["twisted", "--builtin", "trefoil", "--d", str(2**62)],
    ["bounds", "--builtin", "trefoil", "--p", "2", "--r", "100"],
    ["bounds", "--builtin", "trefoil", "--p", str(10**30 + 57)],
], ids=["twisted-d-1e20", "twisted-d-2^62", "bounds-2^100", "bounds-p-1e30"])
def test_huge_character_order_exits_2_without_traceback(argv):
    # the order is refused above 2^40 before any arithmetic: no OverflowError,
    # MemoryError or endless search for a prime = 1 (mod d) below 2^62
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "ess.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INPUT, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, what", [
    (["pages", "--builtin", "torus3", "--field", "Q", "--R", "5", "--S", "2"],
     "(verb=pages R=5 S=2)"),
    (["decompose", "--builtin", "zxf2", "--field", "Q"], "(verb=decompose)"),
], ids=["pages", "decompose"])
def test_memory_error_exits_2_naming_verb_and_window(argv, what, monkeypatch, capsys):
    """A MemoryError out of a verb is an input error (exit 2) with an error:
    line naming the verb and the window, and no traceback.  The verb is
    replaced, so nothing large is allocated."""
    def out_of_memory(args):
        raise MemoryError
    monkeypatch.setitem(cli._VERBS, argv[0], (out_of_memory, cli._VERBS[argv[0]][1]))
    code, out, err = run(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: out of memory ") and what in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["option", "document"])
def test_prime_field_past_exact_primality_exits_2_fast(where, tmp_path):
    # 10^30 + 57 is prime, but above the bound where 12-base Miller-Rabin is
    # exact; the field is refused at once instead of trial-dividing to 10^15
    field = f"Fp:{10**30 + 57}"
    if where == "option":
        argv = ["betti", "--builtin", "circle", "--field", field]
    else:
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"field": field, "group": "Z", "presentation": _ONE_GENERATOR}))
        argv = ["betti", str(path)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "ess.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INPUT, "")
    assert proc.stderr.startswith("error: ") and "primality" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_twisted_at_order_one_million(capsys):
    code, out, _ = run(["twisted", "--builtin", "trefoil", "--d", "1000000", "--json"], capsys)
    assert (code, out) == (0, '{"d":1000000,"twisted_betti":[0,0,0]}\n')


def test_pages_needs_field(capsys):
    code, _, err = run(["pages", "--builtin", "trefoil"], capsys)
    assert code == cli.EXIT_INPUT
    assert "--field" in err


def test_decompose_zxf2(capsys):
    code, out, _ = run(
        ["decompose", "--builtin", "zxf2", "--field", "Q", "--q-range", "1:1", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["decompositions"][0]
    assert row["t_minus_1_blocks"] == [1, 1]
    assert row["other_primary"] == [{"poly": "1 + t", "exp": 1, "mult": 1}]
    assert row["separated"] is False


def test_monodromy_torus2(capsys):
    code, out, _ = run(
        ["monodromy", "--builtin", "torus2", "--field", "Q",
         "--group-quotient", "Z", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trivial_through_degree"] == [True, True, True]


@pytest.mark.parametrize("argv", [
    ["monodromy", "--builtin", "torus2", "--field", "Q", "--group-quotient", "Z"],
    ["monodromy", "--builtin", "zxf2", "--field", "Fp:2"],
])
def test_monodromy_far_past_the_top(argv, capsys):
    """Degrees past the top are zero rows and keep the last verdict."""
    _, out, _ = run(argv + ["--json"], capsys)
    base = json.loads(out)
    top, k_max = len(base["degrees"]) - 1, 3000
    code, out, _ = run(argv + ["--k-max", str(k_max), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"][:top + 1] == base["degrees"]
    zero = {"beta": 0, "condition_no_large_blocks": True, "condition_trivial_action": True,
            "free_rank": 0, "other_primary": [], "t_minus_1_blocks": []}
    assert doc["degrees"][top + 1:] == [dict(zero, q=q) for q in range(top + 1, k_max + 1)]
    verdicts = base["trivial_through_degree"]
    assert doc["trivial_through_degree"] == verdicts + verdicts[-1:] * (k_max - top)


def test_aomoto_and_universal(capsys):
    code, out, _ = run(
        ["aomoto", "--builtin", "torus2", "--field", "Q", "--group-quotient", "Z", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["beta"] == [0, 0, 0]
    code2, out2, _ = run(
        ["universal-aomoto", "--builtin", "torus2", "--field", "Q",
         "--spec-at", "1,1", "--json"],
        capsys,
    )
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["differentials"][0] == [["e1"], ["e2"]]
    assert doc2["specialization"]["beta"] == [0, 0, 0]


def test_universal_aomoto_refuses_nonminimal(capsys):
    code, _, err = run(
        ["universal-aomoto", "--builtin", "minimal-check", "--field", "Q"], capsys
    )
    assert code == cli.EXIT_INPUT
    assert "not minimal" in err


@pytest.mark.parametrize("argv", [["twisted", "--d", "3"], ["twisted", "--d", "4"],
                                  ["alexander"], ["bounds", "--p", "2", "--r", "2"]],
                         ids=["twisted-d3", "twisted-d4", "alexander", "bounds-p2-r2"])
def test_cyclotomic_matrices_document_prints_what_q_prints(argv, tmp_path, capsys):
    # cyclotomic:<d> payloads are Fractions, so integer entries give the
    # document the integral shadow that twisted, alexander and bounds read
    mats = {"dims": [1, 2, 1],
            "boundaries": [[["t - 1", "t - 1"]], [["1 + t^2"], ["-1 - t^2"]]]}
    outs = []
    for field in ("Q", "cyclotomic:5"):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"field": field, "group": "Z", "matrices": mats}))
        outs.append(run(argv[:1] + [str(path)] + argv[1:] + ["--json"], capsys))
    assert outs[0][0] == 0 and outs[1] == outs[0]


def test_alexander_text(capsys):
    code, out, _ = run(["alexander", "--builtin", "figure8"], capsys)
    assert code == 0
    assert "t^2 - 3*t + 1" in out


def test_json_roundtrip_byte_identical(capsys):
    for args in (
        ["twisted", "--builtin", "trefoil", "--d", "6", "--json"],
        ["decompose", "--builtin", "zxf2", "--field", "Q", "--json"],
        ["bounds", "--builtin", "torus2", "--p", "3", "--json"],
        ["validate", "--builtin", "torsfree", "--json"],
    ):
        code, out, _ = run(args, capsys)
        assert code == 0
        assert cli.emit_json(json.loads(out)) == out


def test_nu_inline_images(capsys):
    code, out, _ = run(
        ["betti", "--builtin", "zxf2", "--field", "Fp:2", "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["betti"] == [1, 3, 2]
    code2, out2, _ = run(
        ["twisted", "--builtin", "torus2", "--group-quotient", "Z",
         "--nu", "a=1,b=2", "--d", "4", "--json"],
        capsys,
    )
    assert code2 == 0


def test_input_file_path(tmp_path, capsys):
    doc = {"field": "Q", "group": "Z",
           "presentation": {"generators": ["x"], "relators": [], "nu": {"x": 1}}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["betti", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


@pytest.mark.parametrize("group, nu", [
    ("Z", {"x": 2, "y": 4}),
    ("Z^2", {"x": [1, 1], "y": [2, 2]}),
    ("Z^2", {"x": [2, 0], "y": [0, 1]}),
], ids=["Z-even", "Z2-rank-1", "Z2-index-2"])
def test_non_surjective_nu_is_input_error(group, nu, tmp_path, capsys):
    doc = {"field": "Z", "group": group,
           "presentation": {"generators": ["x", "y"], "relators": ["xyXY"], "nu": nu}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path)], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert "do not generate" in err


def _two_generators(field="Z", group="Z", relators=("xyXY",), nu=None):
    return {"field": field, "group": group, "presentation": {
        "generators": ["x", "y"], "relators": list(relators), "nu": nu or {"x": 1, "y": 1}}}


_QUOTIENT_AND_FIELD_ERRORS = ["--group-quotient", "Zmod:4", "--nu", "2,2", "--field", "Fp:4"]


@pytest.mark.parametrize("doc, argv, message", [
    # the document first, then --group-quotient and --nu, then --field
    (_two_generators(field="Fp:4"), _QUOTIENT_AND_FIELD_ERRORS, "4 is not prime"),
    (_two_generators(nu={"x": 2, "y": 4}), _QUOTIENT_AND_FIELD_ERRORS, "do not generate"),
    (_two_generators(relators=["xy"]), _QUOTIENT_AND_FIELD_ERRORS,
     "does not map to the identity"),
    ({"field": "Z", "group": "Z",
      "matrices": {"dims": [1, 1, 1], "boundaries": [[["t - 1"]], [["t - 1"]]]}},
     _QUOTIENT_AND_FIELD_ERRORS, "composition d_1 o d_2"),
    (_two_generators(nu={"x": 1, "y": 1.5}), _QUOTIENT_AND_FIELD_ERRORS,
     "must be an integer or a list of integers"),
    (_two_generators(nu={"x": 1, "y": True}), [], "must be an integer or a list of integers"),
    (_two_generators(group="Z^2", nu={"x": [1, 0], "y": [0, "1"]}), [],
     "must be an integer or a list of integers"),
    (None, _QUOTIENT_AND_FIELD_ERRORS, "group map is not surjective"),
    (None, ["--group-quotient", "Z", "--nu", "2,2"], "group map is not surjective"),
    (None, ["--group-quotient", "Zmod:x", "--field", "Fp:4"], "unknown group descriptor"),
    (None, ["--group-quotient", "Zmod:4", "--nu", "1", "--field", "Fp:4"],
     "--nu needs 2 images"),
    (None, ["--group-quotient", "Zmod:4", "--nu", "x", "--field", "Fp:4"],
     "--nu expects an integer"),
    (_two_generators(group="Zmod:4"), ["--group-quotient", "Z", "--field", "Fp:4"],
     "no canonical quotient to Z"),
    (None, ["--group-quotient", "Zmod:4", "--field", "Fp:4"], "4 is not prime"),
    (None, ["--group-quotient", "Z^2", "--nu", "1,1", "--field", "Fp:4"],
     "--group-quotient takes Z or Zmod:<m>, got 'Z^2'"),
    (None, ["--group-quotient", "Z^0", "--field", "Q"],
     "--group-quotient takes Z or Zmod:<m>, got 'Z^0'"),
    (_two_generators(field="Fp:2"), ["--group-quotient", "Zmod:4", "--field", "Q"],
     "no coefficient map Fp:2 -> Q"),
], ids=["document-field", "document-nu-not-onto", "document-relator",
        "document-composition", "document-nu-float", "document-nu-bool",
        "document-nu-string-in-vector", "quotient-not-onto-before-field",
        "nu-not-onto-Z", "quotient-descriptor-before-field", "nu-count-before-field",
        "nu-not-integer-before-field", "no-quotient-of-a-cyclic-group", "field-after-quotient",
        "quotient-Z^2", "quotient-Z^0", "no-coefficient-map"])
def test_error_precedence_document_quotient_field(doc, argv, message, tmp_path, capsys):
    """Each load reports its first error: every error of the document comes
    before any of --group-quotient and --nu, and those before any of --field."""
    source = ["--builtin", "torus2"]
    if doc is not None:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        source = [str(path)]
    code, out, err = run(["validate", *source, *argv], capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("group, shown", [
    ("Z^02", "Z^2"), ("Zmod:\u0663", "Zmod:3"),  # an Arabic-Indic three
    ("Z^", None), ("Zmod:", None), ("Z^-1", None), ("Z^\u00b2", None), ("Z^2\n", None),
])
def test_group_descriptor_takes_decimal_digits_only(group, shown, tmp_path, capsys):
    """The exponent or order is a run of Unicode decimal digits, nothing else."""
    nu = {"x": [1, 0], "y": [0, 1]} if group.startswith("Z^") else {"x": 1, "y": 0}
    doc = {"field": "Q", "group": group,
           "presentation": {"generators": ["x", "y"], "relators": ["xyXY"], "nu": nu}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path), "--json"], capsys)
    if shown is None:
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "unknown group descriptor" in err
    else:
        assert code == cli.EXIT_OK and json.loads(out)["group"] == shown


def test_selftest_wiring(monkeypatch, capsys):
    from ess import selftest

    monkeypatch.setattr(selftest, "CRITERIA", [("ok", lambda: "fine")])
    code, _, _ = run(["selftest"], capsys)
    assert code == 0

    def boom():
        raise AssertionError("broken")

    monkeypatch.setattr(selftest, "CRITERIA", [("bad", boom)])
    code2, _, _ = run(["selftest"], capsys)
    assert code2 == cli.EXIT_CROSSCHECK


def test_builtin_names_listing():
    names = builtin_names()
    assert "torus2" in names and "lyndon:<d>" in names


def test_shipped_samples_match_generators():
    # the frozen instances in data/ document exactly what the generators emit
    from importlib import resources

    from ess.builtins import comm_p_document, lyndon_document

    for fname, doc in (("lyndon-6.json", lyndon_document(6)),
                       ("comm-p-3.json", comm_p_document(3))):
        shipped = json.loads(resources.files("ess.data").joinpath(fname).read_text())
        assert shipped == doc, fname


def test_options_take_both_forms_and_the_last_repeat_wins(capsys):
    base = ["pages", "--builtin", "circle", "--field", "Q", "--json"]
    outs = [run(base + extra, capsys)[:2] for extra in (
        ["--R", "2", "--S", "1"], ["--R=2", "--S=1"], ["--R", "5", "--S", "1", "--R=2"])]
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
    assert [p["page"] for p in json.loads(outs[0][1])["pages"]] == [1, 2]


@pytest.mark.parametrize("argv", [["--help"]] + [[verb, "--help"] for verb in cli._VERBS],
                         ids=lambda argv: " ".join(argv))
def test_help_lists_every_verb_and_option(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    if len(argv) == 1:
        assert all(f"  {verb}\n" in out for verb in cli._VERBS)
    else:
        _, extra = cli._VERBS[argv[0]]
        assert out.startswith(f"usage: ess {argv[0]} ")
        assert all(name in out for name, *_ in cli._COMMON + extra)
    assert run(argv[:-1] + ["-h"], capsys) == (code, out, err)


_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import ess, ess.cli, ess.selftest
code = ess.cli.main(["pages", "--builtin", "torus2", "--field", "Q", "--R", "2", "--S", "2",
                     "--json"])
usage = ess.cli.main(["pages", "--builtin", "torus2", "--bogus"])
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"code": code, "usage": usage, "added": sorted(added)}), file=sys.stderr)
"""


def test_runtime_imports_only_the_standard_library(tmp_path):
    # a fresh interpreter with only src/ on the path; site hooks may preload
    # third-party modules, so only what the imports and the call add counts
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert (report["code"], report["usage"]) == (0, cli.EXIT_INPUT)
    foreign = [m for m in report["added"] if m != "ess" and m not in sys.stdlib_module_names]
    assert not foreign
    # the fixed cost of a command: argparse's messages import gettext and locale
    assert not {"argparse", "gettext", "locale"} & set(report["added"])
