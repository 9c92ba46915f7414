"""The persistence-pair page engine against the kernel/quotient reference.

Both engines run on the same truncated complex, so every windowed entry and
every windowed d^r rank must agree exactly.  The sparse boundary columns are
also checked against the reference's dense assembly, and the homology bases
and both d^1 routes against their dense eliminations.  The engine's
raw-payload coordinates are checked against the oracle's, which computes
with `linalg_oracle.Scalar`.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as linalg
import page_oracle
from ess import cli
from ess.builtins import builtin_complex
from ess.coeffs import Echelon, FieldDescriptor
from ess.complexes import GroupHom, base_change, change_field, complex_from_matrices
from ess.groupring import GroupDescriptor, GroupRingElem, pascal_row
from ess.pages import (FiltrationModel, PageComputation, _apply, _k_rank, d1_closed_form,
                       homology_data)
from page_oracle import OraclePages, boundary_matrix, mult_matrix

FIELDS = {
    "Q": FieldDescriptor.rationals(),
    "F2": FieldDescriptor.prime_field(2),
    "F3": FieldDescriptor.prime_field(3),
}

# The oracle is slow on Z^n, so the window shrinks with the rank of the group.
BUILTINS = {
    "circle": (4, 3), "trefoil": (4, 3), "figure8": (4, 3), "zxf2": (4, 3),
    "torsfree": (4, 3), "minimal-check": (4, 3), "comm-p:3": (4, 3),
    "wedge2": (3, 2), "torus2": (3, 2), "lyndon:6": (3, 2),
    "torus3": (2, 1),
}


def assert_engines_agree(C, R, S):
    tables = PageComputation(C, R_max=R, S_max=S).pages()
    oracle = OraclePages(PageComputation(C, R_max=R, S_max=S))
    for table in tables:
        entries, d_ranks = oracle.page(table.r)
        assert table.entries == entries, f"E^{table.r} entries"
        assert table.d_ranks == d_ranks, f"E^{table.r} d-ranks"


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_pages_match_oracle(name, fname):
    R, S = BUILTINS[name]
    assert_engines_agree(change_field(builtin_complex(name), FIELDS[fname]), R, S)


def _onto_cyclic(name, field, m):
    C = change_field(builtin_complex(name), field)
    images = [1] * C.group.n
    return base_change(C, GroupHom(C.group, GroupDescriptor.cyclic(m), images))


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9])
def test_cyclic_quotient_pages_match_oracle(m, fname):
    # m = 6 in characteristic 2 or 3, and every m over Q, leave a stable
    # J^oo != 0, whose basis vectors have valuation infinity
    for name in ("circle", "zxf2"):
        assert_engines_agree(_onto_cyclic(name, FIELDS[fname], m), 4, 3)


# Z_m with e < m: e = 1 over Q, e = 4 over F_2 (4 exactly divides m) and
# e = 5 over F_5 (5 exactly divides m)
_E_BELOW_M = [(6, "Q"), (12, "F2"), (20, "F2"), (10, "F5"), (15, "F5")]


@pytest.mark.parametrize("m, fname", _E_BELOW_M)
def test_cyclic_pages_match_oracle_on_all_of_kzm(m, fname):
    """The engine computes on kZ_m/J^e = k[u]/u^e; the oracle on its own
    model of all of kZ_m, where u^k has valuation infinity from e on.  Every
    entry and d^r rank agrees, over windows with S + R below, at and past e:
    the factor J^e adds nothing to any page, and the engine's model is not
    cut at the window."""
    field = dict(FIELDS, F5=FieldDescriptor.prime_field(5))[fname]
    for name in ("circle", "trefoil", "zxf2"):
        C = _onto_cyclic(name, field, m)
        for R, S in ((1, 0), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3), (6, 1)):
            tables = PageComputation(C, R_max=R, S_max=S).pages()
            oracle = OraclePages(page_oracle.CyclicComputation(PageComputation(C, R, S)))
            for table in tables:
                assert (table.entries, table.d_ranks) == oracle.page(table.r), \
                    (name, R, S, table.r)


def _element(group, field, terms):
    out = GroupRingElem.zero(group, field)
    for exps, c in terms:
        key = exps if group.kind == "free_abelian" else exps[0]
        out = out + GroupRingElem.monomial(group, field, key, c)
    return out


def _in_j(a):
    """a - eps(a), which augments to 0 as a degree-1 boundary entry must."""
    return a - GroupRingElem.monomial(a.group, a.field, a.group.identity_key(),
                                      a.augmentation())


_GROUPS = [GroupDescriptor.free_abelian(1), GroupDescriptor.free_abelian(2),
           GroupDescriptor.cyclic(4), GroupDescriptor.cyclic(6)]

# Z_{p^r} in characteristic p (e = m) and Z_m with e < m
_REZNIKOV = [(2, "F2"), (4, "F2"), (8, "F2"), (3, "F3"), (9, "F3")]
_NOT_NILPOTENT = [(6, "F2"), (12, "F2"), (6, "F3"), (3, "F2"), (4, "Q"), (6, "Q"),
                  (18, "F3")]


@st.composite
def small_complexes(draw, reznikov=False):
    """A three-term complex kG -> kG^b -> kG^c with d_2 built from Koszul
    syzygies of d_1, so d_1 d_2 = 0 holds for any random d_1.  With
    reznikov, G = Z_{p^r} and k has characteristic p (from _REZNIKOV)."""
    if reznikov:
        m, fname = draw(st.sampled_from(_REZNIKOV))
        field, group = FIELDS[fname], GroupDescriptor.cyclic(m)
    else:
        field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
        group = draw(st.sampled_from(_GROUPS))
    width = group.n if group.kind == "free_abelian" else 1
    terms = st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * width), st.integers(-2, 2)),
        max_size=3,
    )
    b = draw(st.integers(1, 3))
    c = draw(st.integers(0, 2))
    d1 = [_in_j(_element(group, field, draw(terms))) for _ in range(b)]
    d2 = [[GroupRingElem.zero(group, field) for _ in range(c)] for _ in range(b)]
    for col in range(c):
        for i in range(b):
            for j in range(i + 1, b):
                lam = _element(group, field, draw(terms))
                d2[i][col] = d2[i][col] + lam * d1[j]
                d2[j][col] = d2[j][col] - lam * d1[i]
    dims = [1, b, c] if c else [1, b]
    boundaries = [[d1], d2] if c else [[d1]]
    return complex_from_matrices(field, group, dims, boundaries)


@settings(max_examples=40, deadline=None)
@given(C=small_complexes(), R=st.integers(1, 3), S=st.integers(0, 2))
def test_random_complex_pages_match_oracle(C, R, S):
    assert_engines_agree(C, R, S)


def assert_clearing_keeps_pairs(comp):
    """Top down, each degree cleared by the pivot rows of the one above (as
    _barcode runs it), gives the uncleared pairs in every degree and the same
    barcode; returns how many columns clearing skipped."""
    cleared, skipped = bytearray(comp.vdim(comp.Q)), 0
    for q in range(comp.Q, 0, -1):
        pairs = comp._pairs(q, cleared)
        assert set(pairs) == set(page_oracle.uncleared_pairs(comp, q)), q
        skipped += cleared.count(1) if comp.vdim(q - 1) else 0
        cleared = bytearray(comp.vdim(q - 1))
        for i, _ in pairs:
            cleared[i] = 1
    uncleared = PageComputation(comp.C, R_max=comp.R_max, S_max=comp.S_max)
    uncleared._pairs = lambda q, cleared=(): page_oracle.uncleared_pairs(uncleared, q)
    assert comp._barcode() == uncleared._barcode()
    return skipped


@settings(max_examples=40, deadline=None)
@given(C=small_complexes(), R=st.integers(1, 3), S=st.integers(0, 2))
def test_clearing_keeps_pairs_and_barcode(C, R, S):
    assert_clearing_keeps_pairs(PageComputation(C, R_max=R, S_max=S))


def test_clearing_skips_columns_on_torus3(monkeypatch):
    """Clearing skips columns, and every other column is seen once: paired
    as it stands (apparent, or zero) or reduced through Echelon.add.  On
    torus3 no column needs a reduction."""
    C = change_field(builtin_complex("torus3"), FIELDS["Q"])
    skipped = assert_clearing_keeps_pairs(PageComputation(C, 4, 4))
    comp = PageComputation(C, 4, 4)
    added, add = [], Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, col, label=None, low=None:
                        added.append(col) or add(self, col, label, low))
    comp._barcode()
    reduced = sum(comp.vdim(q) for q in range(1, comp.Q + 1) if comp.vdim(q - 1))
    assert skipped > 0 and comp.apparent + comp.reduced == reduced - skipped
    assert comp.reduced == len(added) == 0 and comp.apparent > 0
    # on wedge2 the pivots x^alpha * x_a and x^beta * x_b collide
    comp = PageComputation(change_field(builtin_complex("wedge2"), FIELDS["Q"]), 3, 3)
    comp._barcode()
    assert comp.reduced == len(added) > 0 and comp.apparent + comp.reduced == comp.vdim(1)


def _nonzero_columns(dense, ncols):
    """The nonzero entries of a dense row-major Scalar matrix as
    {row: raw payload} columns."""
    return [{i: row[j].v for i, row in enumerate(dense) if row[j]} for j in range(ncols)]


@st.composite
def models_and_elements(draw):
    kind = draw(st.sampled_from(["free_abelian", "reznikov", "not_nilpotent"]))
    if kind == "free_abelian":
        n = draw(st.integers(1, 3))
        group = GroupDescriptor.free_abelian(n)
        field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
        M = draw(st.integers(1, 6))
    else:
        m, fname = draw(st.sampled_from(_REZNIKOV if kind == "reznikov" else _NOT_NILPOTENT))
        group, field, M = GroupDescriptor.cyclic(m), FIELDS[fname], draw(st.integers(1, 6))
        n = 1
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * n),
                                    st.integers(-2, 2)), max_size=4))
    return FiltrationModel(group, field, M), _element(group, field, terms)


def _mult_columns(model, elem):
    """v -> v * elem in the model's coordinates, as the page engine generates
    it: the columns of d_2 of kG --elem--> kG --0--> kG."""
    zero = GroupRingElem.zero(model.group, model.field)
    C = complex_from_matrices(model.field, model.group, [1, 1, 1], [[[zero]], [[elem]]])
    return PageComputation(C, R_max=model.M, S_max=0).boundary_matrix(2)


@settings(max_examples=150, deadline=None)
@given(case=models_and_elements())
def test_sparse_multiplication_matches_dense_oracle(case):
    model, elem = case
    cols = _mult_columns(model, elem)
    assert all(x for col in cols for x in col.values())
    assert cols == _nonzero_columns(mult_matrix(model, elem), model.dim)


@settings(max_examples=100, deadline=None)
@given(m_field=st.sampled_from(_REZNIKOV + _NOT_NILPOTENT), data=st.data())
def test_cyclic_multiplication_composes(m_field, data):
    """v -> v * (a * b) is v -> v * a followed by v -> v * b, so the shift
    agrees with the ring structure of kZ_m/J^e."""
    m, fname = m_field
    model = FiltrationModel(GroupDescriptor.cyclic(m), FIELDS[fname], 1)
    terms = st.lists(st.tuples(st.tuples(st.integers(0, m - 1)), st.integers(-2, 2)),
                     max_size=4)
    a, b = (_element(model.group, model.field, data.draw(terms)) for _ in range(2))
    after_a, by_b = _mult_columns(model, a), _mult_columns(model, b)
    assert _mult_columns(model, a * b) == [_apply(model.field, by_b, col) for col in after_a]


@st.composite
def shift_boundaries(draw):
    """d_2: kG^c -> kG^r (r, c <= 3) with random entries and d_1 = 0, for G =
    Z^n (n <= 3) over Q, F_2 or F_3 truncated at M <= 6, or G = Z_m, where
    multiplication is Z truncated at M = e: Z_{p^r} in characteristic p
    (e = m) or Z_m with e < m."""
    n, M = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    group, field = GroupDescriptor.free_abelian(n), FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    if draw(st.booleans()):
        m, fname = draw(st.sampled_from(_REZNIKOV + _NOT_NILPOTENT))
        n, group, field = 1, GroupDescriptor.cyclic(m), FIELDS[fname]
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-2, 2)),
                     max_size=3)
    matrix = [[_element(group, field, draw(terms)) for _ in range(c)] for _ in range(r)]
    d1 = [[GroupRingElem.zero(group, field)] * r]
    return PageComputation(complex_from_matrices(field, group, [1, r, c], [d1, matrix]), M, 0)


@settings(max_examples=150, deadline=None)
@given(comp=shift_boundaries())
def test_apparent_pivot_is_the_last_row_of_the_column(comp):
    """The pivot read off the leads, without the column, is the last nonzero
    row of the generated column in the engine's order (-1 where the cut at
    degree M leaves the column zero), for every column once."""
    place, seen = comp.model.place, []
    for g, low in comp._pivots(2, bytes(comp.vdim(2))):
        assert low == max(comp._column(2, g, place), default=-1), g
        seen.append(g)
    assert sorted(seen) == list(range(comp.vdim(2)))
    assert seen == sorted(seen, key=lambda g: (place[g // comp.C.dims[2]], g))


@settings(max_examples=40, deadline=None)
@given(C=small_complexes(), R=st.integers(1, 3), S=st.integers(0, 2))
def test_sparse_boundary_and_rank_match_dense_oracle(C, R, S):
    comp = PageComputation(C, R_max=R, S_max=S)
    for q in range(comp.Q + 2):
        dense = boundary_matrix(comp, q)
        assert comp.boundary_matrix(q) == _nonzero_columns(dense, comp.vdim(q))
        assert _k_rank(comp, q) == linalg.rank_of(C.field, dense)


@settings(max_examples=40, deadline=None)
@given(C=small_complexes(reznikov=True))
def test_k_rank_matches_dense_oracle_on_reznikov_complexes(C):
    """The rank behind the E^oo check of reznikov_collapse, over the whole
    model kZ_{p^r}, against the oracle's own dense truncated boundary, which
    linalg_oracle ranks with no Echelon."""
    m = C.group.m
    comp = PageComputation(C, R_max=m, S_max=m - 1)
    for q in range(comp.Q + 2):
        assert _k_rank(comp, q) == linalg.rank_of(C.field, boundary_matrix(comp, q)), q


# The pages ops of the cyclic-pr benchmark workload, on the built-ins: the
# Reznikov case, and Z_12 over F_2 and Z_6 over Q, where e < m.
CYCLIC_PR = [("circle", 9, "Fp:3"), ("trefoil", 9, "Fp:3"), ("comm-p:3", 9, "Fp:3"),
             ("comm-p:2", 8, "Fp:2"), ("circle", 16, "Fp:2"), ("torus2", 12, "Fp:2"),
             ("torus2", 6, "Q")]


def _seeded_relator(rng, length):
    """A word in a, b with exponent sum 0: onto Z with every generator to 1."""
    letters = [rng.choice("abAB") for _ in range(length)]
    excess = sum(1 if x.islower() else -1 for x in letters)
    return "".join(letters) + ("A" if excess > 0 else "a") * abs(excess)


@pytest.mark.parametrize("source", CYCLIC_PR + [(seed, m, f"Fp:{p}") for seed in range(4)
                                                for m, p in ((8, 2), (9, 3), (27, 3))],
                         ids=lambda s: f"{'seed' * isinstance(s[0], int)}{s[0]}-Z{s[1]}-{s[2]}")
def test_k_rank_matches_dense_oracle_on_cyclic_inputs(source, tmp_path):
    """_k_rank, rows built straight from _cells, against the rank of the
    oracle's dense boundary, on the whole model kZ_m/J^e."""
    space, m, field = source
    if isinstance(space, int):
        rng = random.Random(f"k-rank:{space}")
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"field": "Z", "group": "Z", "presentation": {
            "generators": ["a", "b"], "relators": [_seeded_relator(rng, 6)],
            "nu": {"a": 1, "b": 1}}}))
        args = [str(path)]
    else:
        args = ["--builtin", space]
    C = cli.load_complex(cli.parse_args(["pages", *args, "--group-quotient", f"Zmod:{m}",
                                         "--field", field]))
    comp = PageComputation(C, R_max=m, S_max=m - 1)
    for q in range(comp.Q + 2):
        assert _k_rank(comp, q) == linalg.rank_of(C.field, boundary_matrix(comp, q)), q


# Q(zeta_3) computes over Q, so cyc3 runs the descended route on every built-in.
D1_FIELDS = dict(FIELDS, cyc3=FieldDescriptor.cyclotomic(3))


def assert_d1_routes_agree(C, S):
    """Homology bases in every degree, d1_matrix(q, s) for s <= S and the
    closed-form d^1 equal the dense routes entry for entry."""
    for q in range(C.top + 1):
        assert homology_data(C, q) == page_oracle.homology_data(C, q), f"H_{q} bases"
    comp = PageComputation(C, R_max=2, S_max=S)
    for q in range(1, C.top + 1):
        for s in range(S + 1):
            assert comp.d1_matrix(q, s) == page_oracle.d1_matrix(comp, q, s), (q, s)
    assert d1_closed_form(C) == page_oracle.d1_closed_form(C)


@pytest.mark.parametrize("fname", sorted(D1_FIELDS))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_d1_matches_dense_oracle(name, fname):
    C = change_field(builtin_complex(name), D1_FIELDS[fname])
    assert_d1_routes_agree(C, 1 if name == "torus3" else 2)


# Z_{p^r} in characteristic p, where the J-adic filtration does not stabilise
_CHAR_P_QUOTIENTS = [(2, "F2"), (4, "F2"), (8, "F2"), (3, "F3"), (9, "F3")]


@pytest.mark.parametrize("m, fname", _CHAR_P_QUOTIENTS)
def test_cyclic_d1_and_jordan_square_match_dense_oracle(m, fname):
    for name in sorted(BUILTINS):
        C = _onto_cyclic(name, FIELDS[fname], m)
        assert d1_closed_form(C) == page_oracle.d1_closed_form(C), name


@settings(max_examples=40, deadline=None)
@given(C=small_complexes(), S=st.integers(0, 2))
def test_random_complex_d1_matches_dense_oracle(C, S):
    assert_d1_routes_agree(C, S)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), M=st.integers(1, 6), fname=st.sampled_from(sorted(FIELDS)),
       terms=st.lists(st.tuples(st.tuples(*[st.integers(-8, 8)] * 3), st.integers(-2, 2)),
                      max_size=4))
def test_pascal_row_coordinates_match_binomial_oracle(n, M, fname, terms):
    """Z^n coordinates from Pascal rows equal the binomial-by-binomial
    expansion, for negative exponents and exponents >= M too."""
    group, field = GroupDescriptor.free_abelian(n), FIELDS[fname]
    elem = GroupRingElem.zero(group, field)
    for exps, a in terms:
        elem = elem + GroupRingElem.monomial(group, field, exps[:n], a)
        for k in exps:
            assert pascal_row(k, M) == tuple(page_oracle._binomial(k, j) for j in range(M))
    model = FiltrationModel(group, field, M)
    assert model.reduce(elem) == page_oracle.reduce(model, elem)


# e = m (Z_{p^r} in characteristic p) and e < m, over F_p and Q
_CYCLIC_COORDS = [(4, "F2"), (8, "F2"), (3, "F3"), (9, "F3"), (6, "F2"), (12, "F2"),
                  (6, "F3"), (5, "Q"), (6, "Q")]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(_CYCLIC_COORDS),
       entries=st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_raw_cyclic_coordinates_match_fieldelem_oracle(case, entries):
    """The Z_m model reads an element's coordinates in the basis u^k, k < e,
    of kZ_m/J^e through the Pascal rows of expansion_coords, as on Z^n: the
    first e of the oracle's coordinates in the basis u^k, k < m, of kZ_m."""
    m, fname = case
    field = FIELDS[fname]
    group = GroupDescriptor.cyclic(m)
    model = FiltrationModel(group, field, m)
    e = sum(v < math.inf for v in page_oracle.CyclicModel(group, field).vals)
    assert model.dim == e
    zero, one = field._of_int(0), field._of_int(1)

    def element(vec):
        return GroupRingElem(group, field, dict(enumerate(vec)))

    for s, vec in enumerate(page_oracle.adapted_basis(field, m)):
        assert model.reduce(element([x.v for x in vec])) == [one if k == s else zero
                                                             for k in range(e)]
    vec = [field.from_fraction(a) for a in entries[:m]]
    assert model.reduce(element(vec)) == page_oracle.cyclic_coords(field, vec)[:e]
