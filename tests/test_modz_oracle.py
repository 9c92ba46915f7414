"""The SNF-of-the-boundaries decomposition against the presentation-matrix route.

Both routes must give the same free rank, invariant factors, (t-1)-blocks and
other primary parts of H_q(X, kZ_nu) in every degree.
"""

import json
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modz_oracle
from ess import cli
from ess.builtins import builtin_complex
from ess.coeffs import FieldDescriptor
from ess.complexes import (GroupHom, base_change, change_field, complex_from_matrices,
                           parse_document)
from ess.groupring import GroupDescriptor, GroupRingElem
from ess.modz import _LaurentCtx, _snf_engine, homology_decomposition, smith_normal_form

FIELDS = {
    "Q": FieldDescriptor.rationals(),
    "F2": FieldDescriptor.prime_field(2),
    "F3": FieldDescriptor.prime_field(3),
}
GZ = GroupDescriptor.free_abelian(1)

BUILTINS = ("circle", "trefoil", "figure8", "zxf2", "torsfree", "minimal-check",
            "comm-p:3", "wedge2", "torus2", "torus3", "lyndon:6")


def summary(dec):
    return (dec.free_rank, [str(f) for f in dec.invariant_factors], dec.tminus1_blocks,
            [(str(f), e, m) for f, e, m in dec.other_primary])


def assert_routes_agree(C):
    # q = top + 1 is past the complex, where both routes give the zero module
    for q in range(C.top + 2):
        assert summary(homology_decomposition(C, q)) == \
            summary(modz_oracle.homology_decomposition(C, q)), f"H_{q}"


def onto_z(C):
    if C.group == GZ:
        return C
    return base_change(C, GroupHom(C.group, GZ, [[1]] * C.group.n))


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_decompositions_match_oracle(name, fname):
    assert_routes_agree(onto_z(change_field(builtin_complex(name), FIELDS[fname])))


def _balanced_relator(rng, ngens, length):
    """A cyclically reduced word with exponent sum 0 on at least two letters."""
    while True:
        word = [rng.randint(1, ngens) for _ in range(length // 2)]
        word += [-rng.randint(1, ngens) for _ in range(length - length // 2)]
        rng.shuffle(word)
        if all(x != -y for x, y in zip(word, word[1:] + word[:1])) and \
                len({abs(x) for x in word}) >= 2:
            return "".join(string.ascii_lowercase[x - 1] if x > 0
                           else string.ascii_uppercase[-x - 1] for x in word)


# Q(zeta_d) is flat over Q, so over these fields every verb prints what it
# prints over Q; betti and validate also echo the field.
DESCENT = {"cyc5": "cyclotomic:5", "cyc6": "cyclotomic:6", "cyc12": "cyclotomic:12"}
DESCENT_VERBS = (["decompose"], ["monodromy"], ["aomoto"], ["pages", "--R", "2", "--S", "2"],
                 ["betti"], ["validate"])


def _stdout(argv, capsys):
    assert cli.main(argv + ["--json"]) == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("fname", ["Q", "F2", *DESCENT])
@pytest.mark.parametrize("ngens", [4, 5, 6, 7])
def test_seeded_presentations_match_oracle(ngens, fname, tmp_path, capsys):
    rng = random.Random(f"modz-oracle:{ngens}")
    gens = list(string.ascii_lowercase[:ngens])
    doc = {"field": "Z", "group": "Z",
           "presentation": {"generators": gens,
                            "relators": [_balanced_relator(rng, ngens, 6)
                                         for _ in range(ngens - 1)],
                            "nu": {g: 1 for g in gens}}}
    if fname not in DESCENT:
        assert_routes_agree(change_field(parse_document(doc), FIELDS[fname]))
        return
    label = DESCENT[fname]
    C = change_field(parse_document(doc), FieldDescriptor.parse(label))
    assert_routes_agree(C)
    # descent keeps Q's payloads: these boundaries are integral, so ints
    assert all(type(c) is int
               for mat in C.boundaries for row in mat for e in row for c in e.terms.values())
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    for verb in DESCENT_VERBS:
        over_q = _stdout(verb + [str(path), "--field", "Q"], capsys)
        over_k = _stdout(verb + [str(path), "--field", label], capsys)
        if verb[0] in ("betti", "validate"):
            assert json.loads(over_k) == dict(json.loads(over_q), field=label), verb
        else:
            assert over_k == over_q, verb


def _element(field, terms):
    out = GroupRingElem.zero(GZ, field)
    for e, c in terms:
        out = out + GroupRingElem.monomial(GZ, field, (e,), c)
    return out


@st.composite
def complexes_over_z(draw):
    """A three-term complex L -> L^b -> L^c (L = k[t^{+-1}]) with
    d_2 = K M: the columns of K are the Koszul syzygies of d_1 and M is
    random, so d_1 d_2 = 0 and H_1 picks up torsion from M."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    terms = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=3)
    b = draw(st.integers(1, 3))
    c = draw(st.integers(0, 3))
    d1 = []
    for _ in range(b):
        a = _element(field, draw(terms))
        d1.append(a - GroupRingElem.monomial(GZ, field, (0,), a.augmentation()))
    koszul = []
    for i in range(b):
        for j in range(i + 1, b):
            col = [GroupRingElem.zero(GZ, field) for _ in range(b)]
            col[i], col[j] = d1[j], -d1[i]
            koszul.append(col)
    d2 = [[GroupRingElem.zero(GZ, field) for _ in range(c)] for _ in range(b)]
    for k in range(c):
        for col in koszul:
            m = _element(field, draw(terms))
            for i in range(b):
                d2[i][k] = d2[i][k] + col[i] * m
    dims = [1, b, c] if c else [1, b]
    boundaries = [[d1], d2] if c else [[d1]]
    return complex_from_matrices(field, GZ, dims, boundaries)


@settings(max_examples=60, deadline=None)
@given(C=complexes_over_z())
def test_random_complex_decompositions_match_oracle(C):
    assert_routes_agree(C)


def _scalar(field, a, b):
    """a/b over Q, a (mod p) over F_p."""
    return Fraction(a, b) if field.kind == "Q" else a


@st.composite
def laurent_matrices(draw):
    """An n x m matrix over k[t^{+-1}], n, m <= 6, of rank at most r: random
    entries when r = min(n, m), else a product of n x r and r x m factors."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    terms = st.lists(st.tuples(st.integers(-1, 2), st.integers(-3, 3), st.integers(1, 3)),
                     max_size=3)

    def entries(rows, cols):
        return [[_element(field, [(e, _scalar(field, a, b)) for e, a, b in draw(terms)])
                 for _ in range(cols)] for _ in range(rows)]

    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(n, m)))
    if r == min(n, m):
        return entries(n, m)
    left, right = entries(n, r), entries(r, m)
    zero = GroupRingElem.zero(GZ, field)
    return [[sum((left[i][k] * right[k][j] for k in range(r)), zero) for j in range(m)]
            for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(A=laurent_matrices())
def test_raw_snf_matches_groupring_oracle(A):
    # the raw context runs the same pivot rule, content step and fix-up as
    # the GroupRingElem context, so D, U and V agree exactly, not only the
    # canonical invariant factors
    res = smith_normal_form(A)
    ctx = modz_oracle._LaurentCtx(A[0][0].field)
    diag, U, V, _ = _snf_engine(ctx, A)
    canonical = [ctx.unit_normalize(d)[1] for d in diag if not d.is_zero()]
    assert [ctx.unit_normalize(d)[1] for d in res.nonzero()] == canonical
    assert res.diagonal == diag
    raw = _LaurentCtx(A[0][0].field)
    rdiag, rU, rV, _ = _snf_engine(raw, [[raw.raw(x) for x in row] for row in A])

    def lift(rows):
        return [[raw.lift(x) for x in row] for row in rows]

    assert ([raw.lift(d) for d in rdiag], lift(rU), lift(rV)) == (diag, U, V)
