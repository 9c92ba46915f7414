import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ess.builtins import builtin_complex, load_builtin_document
from ess.coeffs import FieldDescriptor
from ess.complexes import (Epimorphism, FreeWord, GroupHom, Presentation,
                           base_change, betti_numbers, change_field,
                           complex_from_matrices, fox_derivative,
                           parse_document, presentation_complex)
from ess.errors import InputError, ValidationError
from ess.groupring import GroupDescriptor, GroupRingElem, parse_element

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
    from ess.twisted import alexander_polynomial

    assert str(alexander_polynomial(builtin_complex("trefoil"))) == "t^2 - t + 1"


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
    assert TF.integral_boundaries is not None


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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_surjectivity_onto_zn_is_minor_gcd_one(n, data):
    # onto Z^n iff the n x n minors of the image matrix have gcd 1
    a = data.draw(st.integers(0, 5))
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
