import itertools
import json
import math
import os
import random
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ess import cli, complexes
from ess.builtins import builtin_complex, load_builtin_document
from ess.coeffs import FieldDescriptor, format_poly
from ess.complexes import (Epimorphism, FreeWord, GroupHom, Presentation,
                           base_change, betti_numbers, change_field,
                           complex_from_matrices, extend_with_cells, fox_derivative,
                           parse_document, presentation_complex)
from ess.errors import InputError, ValidationError
from ess.groupring import GroupDescriptor, GroupRingElem, parse_element
from ess.twisted import alexander_polynomial, bounds_report, integral_complex

Q = FieldDescriptor.rationals()
ZZ = FieldDescriptor.integers()
GZ = GroupDescriptor.free_abelian(1)
G2 = GroupDescriptor.free_abelian(2)
G3 = GroupDescriptor.free_abelian(3)


def word(text, gens):
    return FreeWord.parse(text, gens)


def test_fox_generator_rules():
    w = FreeWord((1,))
    assert fox_derivative(w, 1) == [(1, FreeWord(()))]
    winv = FreeWord((-1,))
    assert fox_derivative(winv, 1) == [(-1, FreeWord((-1,)))]
    assert fox_derivative(w, 2) == []


def test_fox_commutator_hand_computation():
    w = word("abAB", ["a", "b"])
    nu = Epimorphism(G2, [[1, 0], [0, 1]])
    one = GroupRingElem.one(G2, Q)
    tb = GroupRingElem.monomial(G2, Q, (0, 1))
    der = GroupRingElem.zero(G2, Q)
    for sign, prefix in fox_derivative(w, 1):
        der = der + nu.monomial(prefix, Q).scale(sign)
    assert der == one - tb  # d[a,b]/da abelianizes to 1 - t_b


def test_fox_product_rule_random():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 3)
        u = FreeWord([rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(0, 6))])
        v = FreeWord([rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(0, 6))])
        uv = FreeWord(u.letters + v.letters)
        nu = Epimorphism(GZ, [[rng.randint(-2, 2)] for _ in range(n)])
        for i in range(1, n + 1):
            left = _fox_push(uv, i, nu)
            right = _fox_push(u, i, nu) + nu.monomial(u, Q) * _fox_push(v, i, nu)
            assert left == right


def _fox_push(w, i, nu):
    out = GroupRingElem.zero(nu.target, Q)
    for sign, prefix in fox_derivative(w, i):
        out = out + nu.monomial(prefix, Q).scale(sign)
    return out


def test_presentation_complex_wedge2():
    C = presentation_complex(Presentation(["a", "b"], []), Epimorphism(G2, [[1, 0], [0, 1]]), Q)
    one = GroupRingElem.one(G2, Q)
    t1 = GroupRingElem.monomial(G2, Q, (1, 0))
    t2 = GroupRingElem.monomial(G2, Q, (0, 1))
    assert C.dims == [1, 2]
    assert C.boundary(1) == [[t1 - one, t2 - one]]


def test_presentation_complex_commutators_z3():
    gens = ["a", "b", "c"]
    P = Presentation(gens, [word("abAB", gens), word("acAC", gens)])
    nu = Epimorphism(G3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    C = presentation_complex(P, nu, Q)
    one = GroupRingElem.one(G3, Q)
    ta = GroupRingElem.monomial(G3, Q, (1, 0, 0))
    tb = GroupRingElem.monomial(G3, Q, (0, 1, 0))
    col1 = [C.boundary(2)[i][0] for i in range(3)]
    assert col1 == [one - tb, ta - one, GroupRingElem.zero(G3, Q)]


def test_presentation_complex_trefoil_matches_alexander():
    gens = ["x", "y"]
    C = presentation_complex(
        Presentation(gens, [word("xyxYXY", gens)]), Epimorphism(GZ, [[1], [1]]), Q
    )
    delta = parse_element("t^2 - t + 1", GZ, Q)
    entry = C.boundary(2)[0][0]
    # equal up to sign and a power of t
    assert entry == delta or entry == -delta, str(entry)
    assert format_poly(alexander_polynomial(builtin_complex("trefoil")), "t") == "t^2 - t + 1"


def test_fundamental_identity_is_composition():
    # d1 o d2 = 0 is validated at construction; spot-check it is the Fox identity
    gens = ["a", "b", "c"]
    P = Presentation(gens, [word("abAB", gens), word("acAC", gens)])
    C = presentation_complex(P, Epimorphism(GZ, [[2], [1], [1]]), Q)
    assert C.dims == [1, 3, 2]


def test_complex_from_matrices_accepts_equiv2():
    TF = builtin_complex("torsfree")
    assert TF.dims == [1, 1, 1, 1]
    assert TF.provenance == "matrices"
    assert TF.raw_integral is not None


def test_complex_from_matrices_rejects_bad_composition():
    doc = {
        "field": "Q",
        "group": "Z",
        "matrices": {"dims": [1, 1, 1], "boundaries": [[["t-1"]], [["t-1"]]]},
    }
    with pytest.raises(ValidationError, match="composition"):
        parse_document(doc)


def test_elementary_complex_accepted_for_any_x():
    rng = random.Random(8)
    for _ in range(10):
        x = GroupRingElem.zero(GZ, Q)
        for _ in range(rng.randint(0, 3)):
            x = x + GroupRingElem.monomial(GZ, Q, (rng.randint(-2, 2),), rng.randint(-3, 3))
        zero = GroupRingElem.zero(GZ, Q)
        C = complex_from_matrices(Q, GZ, [1, 1, 1], [[[zero]], [[x]]])
        assert C.top == 2


def test_base_change_diagonal_wedge():
    C = builtin_complex("wedge2")
    Cz = base_change(C, GroupHom(G2, GZ, [[1], [1]]))
    one = GroupRingElem.one(GZ, C.field)
    t = GroupRingElem.monomial(GZ, C.field, (1,))
    assert Cz.boundary(1) == [[t - one, t - one]]


def test_base_change_z3_to_z_gives_zxf2():
    gens = ["a", "b", "c"]
    P = Presentation(gens, [word("abAB", gens), word("acAC", gens)])
    C3 = presentation_complex(P, Epimorphism(G3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), ZZ)
    Cz = base_change(C3, GroupHom(G3, GZ, [[2], [1], [1]]))
    direct = builtin_complex("zxf2")
    assert Cz.dims == direct.dims
    for q in range(1, 3):
        assert Cz.boundary(q) == direct.boundary(q)


def test_base_change_circle_to_cyclic():
    circ = change_field(builtin_complex("circle"), FieldDescriptor.prime_field(3))
    C3 = GroupDescriptor.cyclic(3)
    Cp = base_change(circ, GroupHom(GZ, C3, [1]))
    t = GroupRingElem.monomial(C3, Cp.field, 1)
    one = GroupRingElem.one(C3, Cp.field)
    assert Cp.boundary(1) == [[t - one]]


def test_base_change_functorial():
    C = presentation_complex(
        Presentation(["a", "b", "c"], [FreeWord.parse("abAB", ["a", "b", "c"]),
                                       FreeWord.parse("acAC", ["a", "b", "c"])]),
        Epimorphism(G3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), Q)
    f = GroupHom(G3, G2, [[1, 0], [0, 1], [1, 1]])
    g = GroupHom(G2, GZ, [[1], [2]])
    gf = GroupHom(G3, GZ, [[1], [2], [3]])  # g(f(a))=1, g(f(b))=2, g(f(c))=1+2
    two_step = base_change(base_change(C, f), g)
    one_step = base_change(C, gf)
    for q in range(1, C.top + 1):
        assert two_step.boundary(q) == one_step.boundary(q)


def test_epimorphism_validation_failures():
    P = Presentation(["a", "b"], [FreeWord.parse("abAB", ["a", "b"])])
    with pytest.raises(ValidationError, match="generate"):
        Epimorphism(GZ, [[2], [2]]).validate(P)
    P2 = Presentation(["a", "b"], [FreeWord.parse("ab", ["a", "b"])])
    with pytest.raises(ValidationError, match="identity"):
        Epimorphism(G2, [[1, 0], [0, 1]]).validate(P2)


def _brute_minor_gcd(rows, k):
    """gcd of all k x k minors of an integer matrix by Laplace expansion (0 if
    there are none)."""

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    return math.gcd(*(det([[rows[i][j] for j in cols] for i in sel])
                      for sel in itertools.combinations(range(len(rows)), k)
                      for cols in itertools.combinations(range(k), k)))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_surjectivity_onto_zn_is_minor_gcd_one(n, data):
    # onto Z^n iff the n x n minors of the image matrix have gcd 1
    a = data.draw(st.integers(0, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              min_size=a, max_size=a))
    onto = Epimorphism(GroupDescriptor.free_abelian(n), rows).is_surjective()
    assert onto == (_brute_minor_gcd(rows, n) == 1), rows


def test_betti_numbers_examples():
    wedge = change_field(builtin_complex("wedge2"), Q)
    assert betti_numbers(wedge) == [1, 2]
    TF = builtin_complex("torsfree")
    assert betti_numbers(change_field(TF, FieldDescriptor.prime_field(2))) == [1, 1, 1, 1]
    assert betti_numbers(change_field(TF, Q)) == [1, 1, 0, 0]


def test_epsilon_specialization_gives_exponent_sums():
    C = builtin_complex("trefoil")
    eps = C.epsilon_boundary_int(2)
    # exponent sums of xyxY X Y: x -> 1, y -> -1
    assert eps == [[1], [-1]]
    assert all(x == 0 for x in C.epsilon_boundary_int(1)[0])


def test_minimality_flags():
    assert builtin_complex("torus2").is_minimal()
    assert builtin_complex("zxf2").is_minimal()
    assert not builtin_complex("trefoil").is_minimal()
    assert not builtin_complex("minimal-check").is_minimal()
    assert not builtin_complex("torsfree").is_minimal()


def test_word_parse_errors():
    with pytest.raises(InputError, match="Q"):
        FreeWord.parse("abQ", ["a", "b"])
    with pytest.raises(InputError):
        FreeWord.parse("x9", ["a", "b"])


def test_wide_alphabet_tokens():
    w = FreeWord.parse("x1X2x1", ["g1", "g2"])
    assert w.letters == (1, -2, 1)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(
    st.text(alphabet="abcdxXABCQ 0123\u0663\u00b2+-", max_size=16),
    st.lists(st.sampled_from(["a", "b", "c", "A", "C", "x1", "X2", "x\u0663", "x0", "x"]),
             max_size=8).map("".join)),
       gens=st.sampled_from([[], ["a"], ["a", "b"], ["a", "b", "c"], ["a", "x", "c"]]))
def test_any_text_over_the_word_alphabet_reads_or_is_an_input_error(text, gens):
    """Text over the word syntax's alphabet (letters, x/X with Unicode
    digits, signs and spaces near it) is a word whose letters name
    generators, or an InputError, never another exception."""
    try:
        w = FreeWord.parse(text, gens)
    except InputError:
        return
    assert all(1 <= abs(i) <= len(gens) for i in w.letters), (text, w)


def test_document_schema_errors():
    with pytest.raises(InputError, match="exactly one"):
        parse_document({"field": "Q", "group": "Z"})
    with pytest.raises(InputError, match="extra_cells"):
        parse_document(
            {"field": "Q", "group": "Z",
             "matrices": {"dims": [1], "boundaries": []},
             "extra_cells": []}
        )
    with pytest.raises(InputError, match="missing"):
        parse_document({"group": "Z", "matrices": {"dims": [1], "boundaries": []}})


def test_boundary_row_written_as_a_string():
    doc = {"field": "Z", "group": "Z", "matrices": {"dims": [1, 1], "boundaries": [["t-1"]]}}
    with pytest.raises(InputError, match="each matrix row must be a list"):
        parse_document(doc)
    doc["matrices"]["boundaries"] = [[["t-1"]]]
    assert parse_document(doc).dims == [1, 1]


def test_every_builtin_is_valid():
    for name in ("circle", "wedge2", "torus2", "torus3", "trefoil", "figure8",
                 "zxf2", "torsfree", "minimal-check", "lyndon:6", "comm-p:3"):
        C = builtin_complex(name)
        assert C.dims[0] == 1
        assert load_builtin_document(name)


def test_torus3_has_koszul_top_cell():
    T3 = change_field(builtin_complex("torus3"), Q)
    assert T3.dims == [1, 3, 3, 1]
    assert betti_numbers(T3) == [1, 3, 3, 1]
    assert T3.is_minimal()


# -- d o d = 0 where new data enters, and nowhere else ---------------------------


def _oracle_matmul(a, b):
    """Product of two matrices over kG by GroupRingElem arithmetic."""
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            acc = GroupRingElem.zero(row[0].group, row[0].field)
            for x, y in zip(row, col):
                acc = acc + x * y
            out[-1].append(acc)
    return out


def _integral_boundaries(C):
    """The integer shadow of C's boundaries as GroupRingElem matrices over Z,
    None if it has none."""
    return None if C.raw_integral is None else [
        [[GroupRingElem(C.group, ZZ, terms) for terms in row] for row in mat]
        for mat in C.raw_integral]


def _assert_chain_complex(C):
    for mats in (C.boundaries, _integral_boundaries(C) or []):
        for q in range(1, len(mats)):
            prod = _oracle_matmul(mats[q - 1], mats[q])
            assert all(e.is_zero() for row in prod for e in row), (C.group, C.field, q)


_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=16).map(FreeWord)


@settings(max_examples=150, deadline=None)
@given(w=_words, cyclic=st.booleans(), data=st.data())
def test_fox_columns_match_fox_derivative(w, cyclic, data):
    if cyclic:
        G = GroupDescriptor.cyclic(data.draw(st.integers(2, 12)))
        images = data.draw(st.lists(st.integers(-12, 12), min_size=3, max_size=3))
    else:
        n = data.draw(st.integers(1, 3))
        images = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                    min_size=3, max_size=3))
        G = GroupDescriptor.free_abelian(n)
    nu = Epimorphism(G, images)
    cols = nu.fox_columns(w)
    assert len(cols) == 3
    for i, col in enumerate(cols, 1):
        der = GroupRingElem.zero(G, ZZ)
        for sign, prefix in fox_derivative(w, i):
            der = der + nu.monomial(prefix, ZZ).scale(sign)
        assert GroupRingElem.from_ints(G, ZZ, col) == der, (w, i)


_koszul = [["t3 - 1"], ["1 - t2"], ["t1 - 1"]]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["torus2", "torus3", "trefoil", "zxf2", "torsfree", "lyndon:6"]),
       m=st.integers(2, 9), p=st.sampled_from([2, 3, 5]),
       terms=st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3)), max_size=3))
def test_derived_complexes_are_chain_complexes(name, m, p, terms):
    C = builtin_complex(name)
    derived = [C]
    if name == "torus3":
        # the Koszul 3-cell times an arbitrary element of ZG is still a cycle
        u = sum((GroupRingElem.monomial(G3, ZZ, (e, 0, -e), c) for e, c in terms),
                GroupRingElem.zero(G3, ZZ))
        bare = parse_document({k: v for k, v in load_builtin_document(name).items()
                               if k != "extra_cells"})
        derived.append(extend_with_cells(bare, 3, [[parse_element(x, G3, ZZ) * u]
                                                   for [x] in _koszul]))
    for D in list(derived):
        targets = [GroupDescriptor.cyclic(m)] + ([GZ] if D.group != GZ else [])
        for T in targets:
            images = [1] * D.group.num_generators if T.kind == "cyclic" else \
                [[i + 1] for i in range(D.group.num_generators)]
            derived.append(base_change(D, GroupHom(D.group, T, images)))
    for D in list(derived):
        derived += [change_field(D, Q), change_field(D, FieldDescriptor.prime_field(p))]
        derived.append(integral_complex(derived[-1]))
    for D in derived:
        _assert_chain_complex(D)
        complex_from_matrices(D.field, D.group, D.dims, D.boundaries)  # the raw check agrees


@settings(max_examples=150, deadline=None)
@given(cyclic=st.booleans(), field=st.sampled_from(["Z", "Q", "Fp:2", "Fp:3", "cyclotomic:3"]),
       data=st.data())
def test_raw_composition_check_matches_oracle(cyclic, field, data):
    G, k = (GroupDescriptor.cyclic(4) if cyclic else G2), FieldDescriptor.parse(field)
    terms = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-2, 2)),
                     min_size=1, max_size=3)

    def elem():
        return sum((GroupRingElem.monomial(G, k, e1 % 4 if cyclic else (e1, e2), c)
                    for e1, e2, c in data.draw(terms)), GroupRingElem.zero(G, k))

    inner = data.draw(st.integers(1, 3))
    a, b = [[elem() for _ in range(inner)]], [[elem()] for _ in range(inner)]
    if inner == 2:  # a Koszul column: the product vanishes
        v = elem()
        b = [[a[0][1] * v], [-(a[0][0] * v)]]
    zero = all(e.is_zero() for row in _oracle_matmul(a, b) for e in row)
    raw = ([[e.terms for e in row] for row in m] for m in (a, b))  # the check reads raw maps
    try:
        complexes._check_composition(k, G, *raw, 1)
        assert zero
    except ValidationError:
        assert not zero


@pytest.mark.parametrize("field, group, d1, d2", [
    ("Fp:3", "Z", ["t-1"], ["t-1"]),
    ("Fp:2", "Zmod:4", ["t-1"], ["t-1"]),
    ("Q", "Zmod:4", ["t-1"], ["t+1"]),
    ("Z", "Z^2", ["t1-1", "t2-1"], ["t2-1", "t1-1"]),
    ("cyclotomic:3", "Z", ["t-1"], ["t"]),
], ids=["Fp", "Zmod-Fp", "Zmod-Z", "Z^2", "cyclotomic"])
def test_bad_composition_rejected_on_every_payload(field, group, d1, d2):
    doc = {"field": field, "group": group,
           "matrices": {"dims": [1, len(d1), 1], "boundaries": [[d1], [[x] for x in d2]]}}
    with pytest.raises(ValidationError, match="composition d_1 o d_2"):
        parse_document(doc)


def test_bad_composition_rejected_on_fractions():
    # no integral shadow: the check runs on the Fraction payloads
    half = GroupRingElem.monomial(GZ, Q, (1,), Fraction(1, 2))
    d1 = GroupRingElem.monomial(GZ, Q, (1,)) - 1
    with pytest.raises(ValidationError, match="composition d_1 o d_2"):
        complex_from_matrices(Q, GZ, [1, 1, 1], [[[d1]], [[half - half * d1]]])


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["extra_cells"][0].update(matrix=[["t3 - 1"], ["t2 - 1"], ["t1 - 1"]]),
     "composition d_2 o d_3"),
    (lambda doc: doc["presentation"]["relators"].append("ab"), "does not map to the identity"),
], ids=["extra-cells", "relator-outside-kernel"])
def test_cli_rejects_a_complex_that_is_not_one(edit, message, tmp_path, capsys):
    doc = load_builtin_document("torus3")
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["validate", str(path), "--field", "Fp:3", "--json"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INPUT and not out
    assert err.startswith("error: ") and message in err


def test_each_block_is_checked_once(monkeypatch):
    calls = []
    check = complexes._check_composition
    monkeypatch.setattr(complexes, "_check_composition",
                        lambda *args: calls.append(args[-1]) or check(*args))
    C = parse_document(load_builtin_document("torus3"))
    assert calls == [1, 2]
    Cz = base_change(C, GroupHom(G3, GZ, [[1], [1], [1]]))
    change_field(Cz, FieldDescriptor.prime_field(3))
    assert calls == [1, 2]
    bounds_report(parse_document(load_builtin_document("comm-p:3")), [1], 3, 2)
    assert calls == [1, 2, 1]


# -- the one-pass load against an element-level oracle ---------------------------

_BUILTINS = ["circle", "wedge2", "torus2", "torus3", "trefoil", "figure8", "zxf2",
             "torsfree", "minimal-check", "lyndon:6", "comm-p:3"]
_LOAD_FIELDS = ["Z", "Q", "Fp:2", "Fp:3"]


def _oracle_load(doc, quotient, field_text):
    """What `ess --group-quotient quotient --field field_text` loads from doc,
    built entry by entry with GroupRingElem.map_exponents and a coefficient
    map from parse_document's entries, with its own key maps: every generator of
    the deck group goes to 1 (the default images)."""
    C = parse_document(doc)
    group, key = C.group, None
    if quotient:
        group = GroupDescriptor.parse(quotient)
        m = group.m
        key = (lambda k: sum(k) % m) if m else (lambda k: (sum(k),))
    field = FieldDescriptor.parse(field_text) if field_text else C.field

    def image(e, k):
        e = e.map_exponents(key, group) if key else e
        if e.field == k:
            return e
        return GroupRingElem(e.group, k, {x: k.from_fraction(c) for x, c in e.terms.items()})

    def mats(source, k):
        return source and [[[image(e, k) for e in row] for row in mat] for mat in source]

    return SimpleNamespace(field=field, group=group, dims=C.dims, provenance=C.provenance,
                           boundaries=mats(C.boundaries, field),
                           integral_boundaries=mats(_integral_boundaries(C), ZZ))


def _load(source, quotient, field_text):
    argv = ["validate", *source] + (["--group-quotient", quotient] if quotient else [])
    return cli.load_complex(cli.parse_args(argv + (["--field", field_text] if field_text else [])))


def assert_loads_like_oracle(doc, source, quotient, field_text):
    C, want = _load(source, quotient, field_text), _oracle_load(doc, quotient, field_text)
    assert (C.field, C.group, C.dims, C.provenance) == \
        (want.field, want.group, want.dims, want.provenance)
    for got, expected in ((C.boundaries, want.boundaries),
                          (_integral_boundaries(C), want.integral_boundaries)):
        assert (got is None) == (expected is None)
        for mat, wmat in zip(got or [], expected or []):
            assert [[(e.group, e.field, e.terms) for e in row] for row in mat] == \
                [[(e.group, e.field, e.terms) for e in row] for row in wmat]


@pytest.mark.parametrize("quotient", [None, "Z", "Zmod:4", "Zmod:6"])
@pytest.mark.parametrize("name", _BUILTINS)
def test_one_pass_load_matches_element_oracle(name, quotient):
    doc = load_builtin_document(name)
    for field_text in [None] + _LOAD_FIELDS:
        assert_loads_like_oracle(doc, ["--builtin", name], quotient, field_text)


_letters = st.lists(st.sampled_from("abcABC"), min_size=1, max_size=5).map("".join)


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(["Z", "Z^2", "Zmod:4", "Zmod:9"]), data=st.data(),
       field=st.sampled_from(["Z", "Q", "Fp:2", "Fp:3"]))
def test_one_pass_load_matches_element_oracle_on_seeded_presentations(group, field, data):
    """Commutator relators [u, v] map to 1 in every abelian group; a goes to a
    generator, so nu is onto."""
    relators = [u + v + u.swapcase()[::-1] + v.swapcase()[::-1]
                for u, v in data.draw(st.lists(st.tuples(_letters, _letters), max_size=3))]
    G = GroupDescriptor.parse(group)
    c = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    nu = ({"a": [1, 0], "b": [0, 1], "c": c} if G.kind == "free_abelian" and G.n == 2
          else {"a": 1, "b": c[0], "c": c[1]})
    doc = {"field": field, "group": group, "presentation": {
        "generators": ["a", "b", "c"], "relators": relators, "nu": nu}}
    quotients = [None]
    if G.kind == "free_abelian":
        quotients += ["Z", f"Zmod:{data.draw(st.sampled_from([2, 3, 4, 6]))}"]
    # no coefficient map leaves F_p
    fields = [None, field] if field.startswith("Fp") else [None] + _LOAD_FIELDS
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for quotient, field_text in itertools.product(quotients, fields):
            assert_loads_like_oracle(doc, [path], quotient, field_text)


def test_a_load_with_no_ring_map_is_the_parsed_complex(monkeypatch):
    """No --group-quotient and no new --field: the ring map is the identity,
    and the complex parse_document built is returned as it is."""
    parsed = []
    parse = cli.parse_document
    monkeypatch.setattr(cli, "parse_document", lambda doc: parsed.append(parse(doc)) or parsed[-1])
    for field_text in (None, "Z"):
        assert _load(["--builtin", "torus3"], None, field_text) is parsed[-1]
    C = parsed[-1]
    assert change_field(C, C.field) is C and base_change(C, None) is C


def test_loading_a_zn_builtin_runs_no_smith_normal_form(monkeypatch):
    """Surjectivity onto Z^n is decided by integer elimination, not by SNF."""
    from ess import modz

    def snf(*args):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(modz, "smith_normal_form", snf)
    monkeypatch.setattr(modz, "_snf_engine", snf)
    for name in _BUILTINS:
        assert load_builtin_document(name)["group"] in ("Z", "Z^2", "Z^3")
        for quotient in (None, "Z", "Zmod:4"):
            _load(["--builtin", name], quotient, "Q")
