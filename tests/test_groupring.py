import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as linalg
from ess.coeffs import FieldDescriptor
from ess.errors import CoefficientError, EssError, InputError
from ess.groupring import (GroupDescriptor, GroupRingElem, cyclic_filtration,
                           format_element, gr_dimension, j_valuation,
                           monomials_of_degree, parse_element)

Q = FieldDescriptor.rationals()
GZ = GroupDescriptor.free_abelian(1)
G2 = GroupDescriptor.free_abelian(2)


def t_pow(e, group=GZ, field=Q):
    key = (e,) if group.kind == "free_abelian" and group.n == 1 else e
    return GroupRingElem.monomial(group, field, key)


def test_augmentation_of_group_element():
    a = GroupRingElem.monomial(G2, Q, (3, -2))
    assert a.augmentation() == 1 and type(a.augmentation()) is int
    half = GroupRingElem.monomial(G2, Q, (3, -2), Fraction(1, 2))
    assert half.augmentation() == Fraction(1, 2) and type(half.augmentation()) is Fraction


def test_augmentation_t2_minus_t():
    assert not (t_pow(2) - t_pow(1)).augmentation()


def test_augmentation_is_ring_map():
    rng = random.Random(9)
    for _ in range(30):
        a = sum(
            (t_pow(rng.randint(-3, 3)) * rng.randint(-4, 4) for _ in range(3)),
            GroupRingElem.zero(GZ, Q),
        )
        b = sum(
            (t_pow(rng.randint(-3, 3)) * rng.randint(-4, 4) for _ in range(3)),
            GroupRingElem.zero(GZ, Q),
        )
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        assert (a + b).augmentation() == a.augmentation() + b.augmentation()


def test_norm_element_augments_to_zero_mod_p():
    for p in (2, 3, 5):
        Fp = FieldDescriptor.prime_field(p)
        Cp = GroupDescriptor.cyclic(p)
        norm = sum(
            (GroupRingElem.monomial(Cp, Fp, j) for j in range(1, p)),
            GroupRingElem.one(Cp, Fp),
        )
        assert not norm.augmentation()
        assert j_valuation(norm) == p - 1


def test_j_valuation_free_abelian():
    one = GroupRingElem.one(GZ, Q)
    assert j_valuation((t_pow(1) - one) * (t_pow(1) - one)) == 2
    assert j_valuation(t_pow(2) - t_pow(1)) == 1
    assert j_valuation(GroupRingElem.zero(GZ, Q)) == math.inf
    assert j_valuation(one * 5) == 0


def test_j_valuation_t2_minus_1_char_2():
    F2 = FieldDescriptor.prime_field(2)
    C4 = GroupDescriptor.cyclic(4)
    t = GroupRingElem.monomial(C4, F2, 1)
    one = GroupRingElem.one(C4, F2)
    assert j_valuation(t * t - one) == 2  # (t-1)^2 in characteristic 2


def test_j_valuation_superadditive_with_equality_free_abelian():
    rng = random.Random(21)
    for _ in range(40):
        a = sum(
            (t_pow(rng.randint(-2, 2)) * rng.randint(-3, 3) for _ in range(2)),
            GroupRingElem.zero(GZ, Q),
        )
        b = sum(
            (t_pow(rng.randint(-2, 2)) * rng.randint(-3, 3) for _ in range(2)),
            GroupRingElem.zero(GZ, Q),
        )
        if a.is_zero() or b.is_zero():
            continue
        assert j_valuation(a * b) == j_valuation(a) + j_valuation(b)


def test_valuation_zero_iff_augmentation_nonzero():
    rng = random.Random(4)
    for _ in range(40):
        a = sum(
            (t_pow(rng.randint(-2, 2)) * rng.randint(-2, 2) for _ in range(3)),
            GroupRingElem.zero(GZ, Q),
        )
        if a.is_zero():
            continue
        assert (j_valuation(a) == 0) == bool(a.augmentation())


def test_coefficients_are_payloads():
    F5 = FieldDescriptor.prime_field(5)
    a = GroupRingElem.monomial(GZ, F5, (1,), -1) * 3 + GroupRingElem.monomial(GZ, F5, (0,), 7)
    assert a.terms == {(1,): 2, (0,): 2}
    assert GroupRingElem.monomial(GZ, Q, (2,), Fraction(1, 2)).scale(4).terms == {(2,): 2}
    assert (a - a).terms == {} and a.augmentation() == 4


def test_monomial_and_scale_over_z_refuse_non_integral_rationals():
    ZZ = FieldDescriptor.integers()
    with pytest.raises(CoefficientError):
        GroupRingElem.monomial(GZ, ZZ, (1,), Fraction(1, 2))
    with pytest.raises(CoefficientError):
        t_pow(1, field=ZZ).scale(Fraction(1, 2))
    with pytest.raises(CoefficientError):
        t_pow(1, field=ZZ) * Fraction(3, 2)
    assert t_pow(1, field=ZZ).scale(Fraction(4, 2)).terms == {(1,): 2}


def test_monomials_of_degree_lex_increasing_with_binomial_count():
    for n in range(5):
        for s in range(9):
            monos = monomials_of_degree(n, s)
            assert all(a < b for a, b in zip(monos, monos[1:])), (n, s)
            assert all(len(m) == n and sum(m) == s and min(m, default=0) >= 0
                       for m in monos), (n, s)
            assert len(monos) == (math.comb(s + n - 1, n - 1) if n else int(s == 0)), (n, s)


def test_monomials_of_degree_in_one_variable_is_one_call():
    """n = 1 is a base case: the lone tuple (s,), with no recursion through
    the O(s) degrees below s (the Z_m model of Z_{3^9} asks for s < 19683)."""
    monomials_of_degree.cache_clear()
    for s in (0, 1, 7, 19682, 10**9):
        assert monomials_of_degree(1, s) == ((s,),)
    assert monomials_of_degree.cache_info().currsize == 5
    assert monomials_of_degree(2, 3) == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_gr_dimension_free_abelian_2():
    for s in range(6):
        assert gr_dimension(G2, Q, s) == s + 1


def test_gr_dimension_free_abelian_random_subspace_oracle():
    # sample random elements of J^s, expand through degree s, and check the
    # degree-s parts span a space of exactly the predicted dimension
    from ess.pages import FiltrationModel

    rng = random.Random(33)
    for s in range(1, 5):
        model = FiltrationModel(G2, Q, s + 1)
        lo, hi = model.offset(s), model.offset(s + 1)
        samples = []
        one = GroupRingElem.one(G2, Q)
        for _ in range(3 * (s + 1)):
            elem = one
            for _ in range(s):
                g = GroupRingElem.monomial(G2, Q, (rng.randint(-1, 1), rng.randint(-1, 1)))
                c = rng.randint(1, 3)
                elem = elem * (g - one if not (g - one).is_zero() else t_pow((1, 0), G2) - one)
            mono = GroupRingElem.monomial(G2, Q, (rng.randint(-1, 1), rng.randint(-1, 1)))
            samples.append(model.reduce(elem * mono)[lo:hi])
        rank = linalg.rank_of(Q, samples)
        assert rank == gr_dimension(G2, Q, s) == s + 1


def test_gr_dimension_hilbert_series():
    # sum gr_dim(n, s) x^s = 1/(1-x)^n as far as tested
    for n in range(1, 4):
        G = GroupDescriptor.free_abelian(n)
        for s in range(6):
            assert gr_dimension(G, Q, s) == math.comb(s + n - 1, n - 1)


def test_gr_dimension_cyclic_prime_power():
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        Fp = FieldDescriptor.prime_field(p)
        C = GroupDescriptor.cyclic(p**r)
        dims = [gr_dimension(C, Fp, s) for s in range(p**r + 2)]
        assert dims == [1] * (p**r) + [0, 0]


def test_gr_dimension_s0_always_1():
    for G in (GZ, G2, GroupDescriptor.cyclic(6), GroupDescriptor.cyclic(4)):
        for F in (Q, FieldDescriptor.prime_field(2)):
            assert gr_dimension(G, F, 0) == 1


def test_cyclic_j_stabilizes_when_characteristic_coprime():
    # J = J^2 for Z_m over characteristic not dividing m
    C6 = GroupDescriptor.cyclic(6)
    assert gr_dimension(C6, Q, 1) == 0
    F5 = FieldDescriptor.prime_field(5)
    assert gr_dimension(C6, F5, 1) == 0
    t = GroupRingElem.monomial(C6, Q, 1)
    one = GroupRingElem.one(C6, Q)
    assert j_valuation(t - one) == math.inf  # epsilon-kernel element in the core


FILTRATION_FIELDS = [Q] + [FieldDescriptor.prime_field(p) for p in (2, 3, 5)]


def _power_spans(m, field):
    """Row-reduced spanning sets {t^j (t-1)^s mod t^m - 1 : j < m} of J^s
    inside k^m, for s = 0, 1, ... until two consecutive ranks agree (the chain
    is then stable), by multiplication in kZ_m; with their ranks."""
    G = GroupDescriptor.cyclic(m)
    one = GroupRingElem.one(G, field)
    u = GroupRingElem.monomial(G, field, 1) - one
    power = one
    spans, dims = [], []
    while True:
        span = []
        for j in range(m):
            elem = power * GroupRingElem.monomial(G, field, j)
            span.append([elem.terms.get(k, 0) for k in range(m)])
        dims.append(linalg.rank_of(field, span))
        spans.append(linalg.rref(field, span)[0][:dims[-1]])  # cheap rank tests
        if len(dims) > 1 and dims[-1] == dims[-2]:
            return spans, dims
        power = power * u


def _brute_valuation(field, spans, dims, vec):
    """Largest s with vec in J^s by rank tests; INF inside the stable end of
    the chain (a nonzero J^s equal to all deeper powers)."""
    if not any(vec):
        return math.inf
    s = 0
    while s + 1 < len(spans) and linalg.rank_of(field, spans[s + 1] + [vec]) == dims[s + 1]:
        s += 1
    return math.inf if s == len(spans) - 1 else s


@pytest.mark.parametrize("field", FILTRATION_FIELDS, ids=str)
def test_cyclic_filtration_against_spanning_sets(field):
    # reference: dim J^s as the rank of its spanning set, membership by rank
    # tests; nothing here uses the closed form for J^s
    rng = random.Random(field.characteristic)
    for m in range(2, 17):
        G = GroupDescriptor.cyclic(m)
        spans, dims = _power_spans(m, field)
        for s in range(m + 2):
            dim_s = dims[min(s, len(dims) - 1)]
            dim_next = dims[min(s + 1, len(dims) - 1)]
            assert gr_dimension(G, field, s) == dim_s - dim_next, (m, s)
        e = cyclic_filtration(m, field).e
        # the powers u^i = (t - 1)^i, i < m, in monomial coordinates: u^i has
        # valuation i below e and lies in the stable J^e from e on
        u = GroupRingElem.monomial(G, field, 1) - GroupRingElem.one(G, field)
        power, vecs = GroupRingElem.one(G, field), []
        for _ in range(m):
            vecs.append([power.terms.get(j, 0) for j in range(m)])
            power = power * u
        vecs += [[field.from_fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(4)]
        for i, vec in enumerate(vecs):
            expected = _brute_valuation(field, spans, dims, vec)
            if i < m:
                assert (i if i < e else math.inf) == expected, (m, i)
            elem = GroupRingElem(G, field, {j: x for j, x in enumerate(vec)})
            assert j_valuation(elem) == expected, (m, vec)


@st.composite
def _cyclic_pairs(draw):
    m = draw(st.integers(2, 16))
    field = draw(st.sampled_from(FILTRATION_FIELDS))
    G = GroupDescriptor.cyclic(m)

    def elem():
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        return GroupRingElem(G, field, {j: field.from_fraction(c) for j, c in enumerate(coeffs)})

    return elem(), elem()


@settings(max_examples=60, deadline=None)
@given(pair=_cyclic_pairs())
def test_cyclic_j_valuation_superadditive(pair):
    a, b = pair
    assert j_valuation(a * b) >= j_valuation(a) + j_valuation(b)


class GrPiece:
    """gr^s_J(kG): dimension plus an ordered list of representatives, the
    products of (t_i - 1) of total degree s; on Z_m, (t - 1)^s when s < e."""

    def __init__(self, group, field, s):
        self.group = group
        self.field = field
        self.s = s
        if group.kind == "free_abelian":
            self.monomials = monomials_of_degree(group.n, s)
        else:
            self.monomials = [(s,)] if s < cyclic_filtration(group.m, field).e else []
        self.basis = [_x_power(group, field, alpha) for alpha in self.monomials]
        self.dimension = len(self.basis)
        assert self.dimension == gr_dimension(group, field, s)


def _x_power(group, field, alpha):
    """The product (t_1 - 1)^a_1 ... (t_n - 1)^a_n as a GroupRingElem; on
    Z_m, alpha = (a,) and the product is (t - 1)^a."""
    out = GroupRingElem.one(group, field)
    for i, a in enumerate(alpha):
        ti = 1 if group.kind == "cyclic" else tuple(int(j == i) for j in range(group.n))
        base = GroupRingElem.monomial(group, field, ti) - GroupRingElem.one(group, field)
        for _ in range(a):
            out = out * base
    return out


def test_gr_piece_sizes_match():
    for s in range(4):
        piece = GrPiece(G2, Q, s)
        assert piece.dimension == gr_dimension(G2, Q, s)
    # on Z_m, gr^s is spanned by (t - 1)^s, of valuation s, for s < e and is
    # zero from e on
    F2, F3 = FieldDescriptor.prime_field(2), FieldDescriptor.prime_field(3)
    for m, field, e in ((3, F3, 3), (9, F3, 9), (12, F2, 4), (6, Q, 1)):
        G = GroupDescriptor.cyclic(m)
        u = GroupRingElem.monomial(G, field, 1) - GroupRingElem.one(G, field)
        power = GroupRingElem.one(G, field)
        for s in range(m + 2):
            piece = GrPiece(G, field, s)
            assert piece.dimension == gr_dimension(G, field, s), (m, s)
            if s < e:
                assert piece.basis == [power] and j_valuation(power) == s, (m, s)
            else:
                assert piece.basis == [], (m, s)
            power = power * u


_GROUPS = [GroupDescriptor.free_abelian(n) for n in (1, 2, 3)] + \
    [GroupDescriptor.cyclic(m) for m in (2, 6, 7)]


@st.composite
def _respaced(draw):
    """(element, its text): format_element's text with 0-2 spaces or tabs
    between tokens, each term sign made a run of signs of the same product,
    and a leading "+"/"--" run before a first term without a sign."""
    group = draw(st.sampled_from(_GROUPS))
    keys = st.integers(0, group.m - 1) if group.kind == "cyclic" else \
        st.tuples(*[st.integers(-4, 4)] * group.n)
    elem = GroupRingElem.from_ints(group, Q, draw(st.dictionaries(keys, st.integers(-9, 9),
                                                                  max_size=5)))
    gap = st.sampled_from(["", " ", "  ", "\t"])

    def run(negative):
        signs = draw(st.lists(st.sampled_from("+-"), max_size=3))
        signs.append("-" if (signs.count("-") % 2 == 0) == negative else "+")
        return "".join(s + draw(gap) for s in signs)

    tokens = re.findall(r"\d+|\w+|\S", format_element(elem))
    text = run(False) if tokens[0] != "-" and draw(st.booleans()) else ""
    for i, tok in enumerate(tokens):
        term_sign = tok in "+-" and (i == 0 or tokens[i - 1] != "^")
        text += (run(tok == "-") if term_sign else tok) + draw(gap)
    return elem, text


@settings(max_examples=300, deadline=None)
@given(case=_respaced())
def test_parse_format_roundtrip(case):
    """The reader inverts the printer on Z^n (n <= 3) and Z_m, whatever the
    spacing and however each term's sign is written."""
    elem, text = case
    assert parse_element(text, elem.group, Q) == elem, text


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet="t123\u0663\u00b2x +-*^\t", max_size=24),
       group=st.sampled_from(_GROUPS))
def test_any_text_over_the_alphabet_reads_or_is_an_input_error(text, group):
    """Text over the entry grammar's alphabet (and a few characters near it)
    is an element or an InputError, never another exception."""
    try:
        elem = parse_element(text, group, Q)
    except InputError:
        return
    assert isinstance(elem, GroupRingElem) and elem.group == group


_DESCRIPTOR_PREFIXES = ("", "Q", "Z", "Fp:", "Fp", "cyclotomic:", "Z^", "Zmod:", "Zmod")


@settings(max_examples=400, deadline=None)
@given(reader=st.sampled_from([FieldDescriptor, GroupDescriptor]),
       prefix=st.sampled_from(_DESCRIPTOR_PREFIXES),
       rest=st.one_of(st.text(alphabet="0123789\u0663", max_size=6),
                      st.text(alphabet="QZFpcyclotomd:^ 0123789\u0663\u00b2+-", max_size=10)))
def test_any_descriptor_text_reads_and_round_trips_or_is_an_ess_error(reader, prefix, rest):
    """Text over the descriptor alphabet is a descriptor that its printed
    form reads back to, or an EssError, never another exception."""
    try:
        desc = reader.parse(prefix + rest)
    except EssError:
        return
    assert isinstance(desc, reader) and reader.parse(str(desc)) == desc, prefix + rest


def test_parse_examples():
    a = parse_element("t1^-2*t2^3", G2, Q)
    assert a == GroupRingElem.monomial(G2, Q, (-2, 3))
    b = parse_element("-3*t^2", GZ, Q)
    assert b == GroupRingElem.monomial(GZ, Q, (2,), -3)


def test_parse_rejects_unknown_variable():
    with pytest.raises(InputError):
        parse_element("t3 + 1", G2, Q)


@pytest.mark.parametrize("text, group, terms", [
    ("--t", GZ, {(1,): 1}), ("- + -t^-2 - -3", GZ, {(-2,): 1, (0,): 3}),
    (" 2 * t1 ^ - 1 * 3 * t2 * t1 ", G2, {(0, 1): 6}), ("", G2, {}),
    ("t*t^6", GroupDescriptor.cyclic(7), {0: 1}), ("\u0663*t^\u0662", GZ, {(2,): 3}),
])
def test_parse_reads_sign_runs_spaces_and_products(text, group, terms):
    assert parse_element(text, group, Q).terms == terms


@pytest.mark.parametrize("text", ["2t", "t t", "2 3", "t^2t", "t**2 + 1", "2*", "*t", "t*",
                                  "t +", "t^", "t^+2", "t^--2", "t2", "t^2^3", "1/2*t"])
def test_parse_rejects_what_the_grammar_does_not_write(text):
    with pytest.raises(InputError):
        parse_element(text, GZ, Q)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int(str) has no digit limit on this Python")
@pytest.mark.parametrize("text, lead", [("9" * 5000 + "*t", "coefficient 999999999999..."),
                                        ("t^-" + "9" * 5000, "exponent t^-999999999999...")],
                         ids=["coefficient", "exponent"])
def test_parse_names_an_integer_past_the_digit_limit_without_its_digits(text, lead):
    with pytest.raises(InputError) as err:
        parse_element(text, GZ, Q)
    assert str(err.value) == f"{lead} has 5000 digits, too many for an integer"
