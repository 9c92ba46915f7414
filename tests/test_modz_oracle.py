"""The SNF-of-the-boundaries decomposition against the presentation-matrix route.

Both routes must give the same free rank, invariant factors, (t-1)-blocks and
other primary parts of H_q(X, kZ_nu) in every degree.
"""

import json
import math
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modz_oracle
from ess import cli, modz
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


def _kernel_relator(rng, nu, length):
    """A relator in the kernel of nu on at least two letters, spelt from a
    cyclically reduced word with as many positive as negative letters."""
    ngens = len(nu)
    while True:
        word = [rng.randint(1, ngens) for _ in range(length // 2)]
        word += [-rng.randint(1, ngens) for _ in range(length - length // 2)]
        rng.shuffle(word)
        if all(x != -y for x, y in zip(word, word[1:] + word[:1])) and \
                len({abs(x) for x in word}) >= 2:
            return modz_oracle.spell_in_kernel(word, nu, string.ascii_lowercase)


def _seeded_document(ngens):
    """ngens generators and ngens - 1 relators onto Z.  The images of the
    generators are 2 and 3 for even ngens, so no entry of d_1 divides the
    others, and include +-1 for odd ngens, so one does and a row of d_2 is
    dropped before its SNF."""
    rng = random.Random(f"modz-oracle:{ngens}")
    images = (2, 3) if ngens % 2 == 0 else (1, -1, 2, 3)
    while True:
        nu = [rng.choice(images) for _ in range(ngens)]
        if math.gcd(*nu) == 1 and any(abs(x) == 1 for x in nu) == bool(ngens % 2):
            break
    gens = list(string.ascii_lowercase[:ngens])
    return {"field": "Z", "group": "Z",
            "presentation": {"generators": gens,
                             "relators": [_kernel_relator(rng, nu, 6) for _ in range(ngens - 1)],
                             "nu": dict(zip(gens, nu))}}


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
    doc = _seeded_document(ngens)
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


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_dropping_a_row_without_the_divisibility_test_is_caught(fname, monkeypatch):
    # on the documents whose images are 2 and 3, a row of d_2 that d_1 does
    # not make redundant changes the decomposition of some H_q
    complexes = [change_field(parse_document(_seeded_document(n)), FIELDS[fname])
                 for n in (4, 6)]
    want = [[summary(homology_decomposition(C, q)) for q in range(C.top + 1)]
            for C in complexes]
    monkeypatch.setattr(modz, "_redundant_row", modz_oracle.undivided_row)
    got = [[summary(homology_decomposition(C, q)) for q in range(C.top + 1)]
           for C in complexes]
    assert got != want


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
    # the GroupRingElem context, so D, P and Q agree exactly, not only the
    # canonical invariant factors
    res = smith_normal_form(A)
    ctx = modz_oracle._LaurentCtx(A[0][0].field)
    diag, P, Q = _snf_engine(ctx, A)
    canonical = [ctx.unit_normalize(d)[1] for d in diag if not d.is_zero()]
    assert [ctx.unit_normalize(d)[1] for d in res.nonzero()] == canonical
    assert res.diagonal == diag
    raw = _LaurentCtx(A[0][0].field)
    rdiag, rP, rQ = _snf_engine(raw, [[raw.raw(x) for x in row] for row in A])

    def lift(vectors):
        # sparse columns of P or rows of Q
        return [{k: raw.lift(x) for k, x in v.items()} for v in vectors]

    assert ([raw.lift(d) for d in rdiag], lift(rP), lift(rQ)) == (diag, P, Q)
