import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ess.builtins import builtin_complex
from ess.coeffs import FieldDescriptor, rank_exact
from ess.complexes import GroupHom, base_change, change_field
from ess.errors import CoefficientError, CrossCheckError, ValidationError
from ess.groupring import GroupDescriptor, GroupRingElem, parse_element
from ess.modz import (_IntCtx, _LaurentCtx, _snf_engine, _verify_snf, einf_gr_module,
                      homology_decomposition, integral_torsion_check, monodromy_report,
                      smith_normal_form)

Q = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
GZ = GroupDescriptor.free_abelian(1)
G2 = GroupDescriptor.free_abelian(2)


def L(text):
    return parse_element(text, GZ, Q)


def to_z(name, field=Q):
    C = change_field(builtin_complex(name), field)
    if C.group == GZ:
        return C
    images = [[1]] * C.group.n
    return base_change(C, GroupHom(C.group, GZ, images))


def test_snf_diagonal_input_unchanged():
    D = [[L("1"), L("0")], [L("0"), L("t - 1")]]
    res = smith_normal_form(D)
    assert [str(d) for d in res.diagonal] == ["1", "-1 + t"]


def test_snf_column_elimination():
    res = smith_normal_form([[L("t - 1")], [L("1 - t")]])
    assert [str(d) for d in res.diagonal] == ["-1 + t"]


def test_snf_int_examples():
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert res.diagonal == [2, 2, 156]
    res2 = smith_normal_form([[1, 0], [0, 0]])
    assert res2.diagonal == [1, 0]


def test_snf_zxf2_invariant_factors():
    # the invariant factors of d_2 realize (L/(1-t))^2 + L/(1+t) as H_1
    dec = homology_decomposition(change_field(builtin_complex("zxf2"), Q), 1)
    assert [str(f) for f in dec.invariant_factors] == ["-1 + t", "-1 + t^2"]


def test_snf_rank_matches_fraction_field_rank():
    rng = random.Random(14)
    zero = GroupRingElem.zero(GZ, Q)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = [
            [
                sum(
                    (GroupRingElem.monomial(GZ, Q, (rng.randint(-1, 2),), rng.randint(-2, 2))
                     for _ in range(rng.randint(0, 3))),
                    zero,
                )
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        res = smith_normal_form(mat)
        # evaluate at a rational t = 7/3 avoiding roots of the diagonal
        ev = [[sum((c * Fraction(7, 3) ** k for (k,), c in e.terms.items()), Fraction(0))
               for e in row] for row in mat]
        assert len(res.nonzero()) == rank_exact(Q, ev)


def test_homology_circle():
    circ = change_field(builtin_complex("circle"), Q)
    h0 = homology_decomposition(circ, 0)
    assert h0.free_rank == 0 and h0.tminus1_blocks == [1] and not h0.other_primary
    h1 = homology_decomposition(circ, 1)
    assert h1.free_rank == 0 and not h1.tminus1_blocks and not h1.other_primary


def test_homology_wedge2_free_of_rank_1():
    dec = homology_decomposition(to_z("wedge2"), 1)
    assert dec.free_rank == 1 and not dec.tminus1_blocks and not dec.other_primary


def test_homology_zxf2_both_characteristics():
    dq = homology_decomposition(change_field(builtin_complex("zxf2"), Q), 1)
    assert dq.tminus1_blocks == [1, 1]
    assert [(str(f), e, m) for f, e, m in dq.other_primary] == [("1 + t", 1, 1)]
    assert not dq.separated
    d2 = homology_decomposition(change_field(builtin_complex("zxf2"), F2), 1)
    assert d2.tminus1_blocks == [1, 2] and d2.separated


def test_homology_trefoil():
    dec = homology_decomposition(change_field(builtin_complex("trefoil"), Q), 1)
    assert dec.free_rank == 0 and not dec.tminus1_blocks
    assert [(str(f), e, m) for f, e, m in dec.other_primary] == [("1 - t + t^2", 1, 1)]


def test_homology_needs_group_z():
    with pytest.raises(ValidationError):
        homology_decomposition(change_field(builtin_complex("wedge2"), Q), 1)


def test_einf_gr_module_dims():
    from ess.modz import LaurentModuleDecomp

    free2 = LaurentModuleDecomp(2, [], [], [], Q)
    assert einf_gr_module(free2).dims(3) == [2, 2, 2, 2]
    one_block = LaurentModuleDecomp(0, [], [1], [], Q)
    assert einf_gr_module(one_block).dims(2) == [1, 0, 0]
    blocks12 = LaurentModuleDecomp(0, [], [1, 2], [], Q)
    assert einf_gr_module(blocks12).dims(2) == [2, 1, 0]


def test_integral_torsion_check_examples():
    assert integral_torsion_check(builtin_complex("torsfree")) == [True, True, False, True]
    assert all(integral_torsion_check(builtin_complex("wedge2")))
    assert all(integral_torsion_check(builtin_complex("torus2")))


def test_integral_torsion_needs_shadow():
    doc_field_q = {
        "field": "Q",
        "group": "Z",
        "matrices": {"dims": [1, 1], "boundaries": [[["t - 1"]]]},
    }
    from ess.complexes import parse_document

    C = parse_document(doc_field_q)
    assert C.integral_boundaries is not None  # integer entries keep the shadow
    assert integral_torsion_check(C) == [True, True]


def test_monodromy_torus_trivial():
    rep = monodromy_report(to_z("torus2"), 2)
    assert rep.verdicts == [True, True, True]
    assert all(row["beta"] == 0 for row in rep.rows)


def test_monodromy_wedge2_nontrivial():
    rep = monodromy_report(to_z("wedge2"), 1)
    assert rep.rows[1]["free_rank"] == 1
    assert rep.rows[1]["beta"] == 1
    assert rep.verdicts == [True, False]


def test_monodromy_zxf2_characteristics_differ():
    # char 0: blocks all size 1, the L/(1+t) part is outside the conditions,
    # so the monodromy verdict through degree 1 is trivial and beta_1 = 0
    rep = monodromy_report(change_field(builtin_complex("zxf2"), Q), 1)
    assert rep.verdicts == [True, True]
    assert rep.rows[1]["beta"] == 0
    # char 2: a size-2 block appears, so the verdict flips and beta_1 = 1
    rep2 = monodromy_report(change_field(builtin_complex("zxf2"), F2), 1)
    assert rep2.verdicts == [True, False]
    assert rep2.rows[1]["beta"] == 1


def test_separatedness_rule():
    # separated iff no other-primary part, exercised on both characteristics
    dq = homology_decomposition(change_field(builtin_complex("zxf2"), Q), 1)
    d2 = homology_decomposition(change_field(builtin_complex("zxf2"), F2), 1)
    assert (not dq.separated) and d2.separated


def test_snf_postconditions_random_small():
    rng = random.Random(2)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        smith_normal_form([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
    zero = GroupRingElem.zero(GZ, Q)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = [
            [
                sum(
                    (GroupRingElem.monomial(GZ, Q, (rng.randint(-1, 2),), rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 3))),
                    zero,
                )
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        smith_normal_form(mat)  # verification is built in


def test_snf_cross_check_names_ring_shape_and_cell():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, P, Q_ = _snf_engine(_IntCtx(), A)
    assert diag == [2, 2, 156]
    diag[2] += 1  # adds P[:, 2] Q[2, :] to the product, first nonzero at [1][1]
    with pytest.raises(CrossCheckError,
                       match=r"over Z on a 3x3 matrix: \(P D Q\)\[1\]\[1\] = 167, "
                             r"expected A\[1\]\[1\] = 6"):
        _verify_snf(_IntCtx(), A, diag, P, Q_)
    ctx = _LaurentCtx(Q)
    one, zero = ctx.one, ctx.zero
    ident = [{0: one}, {1: one}]  # sparse columns of P, rows of Q
    D = [[ctx.raw(L("1 + t")), zero], [zero, ctx.raw(L("t - 1"))]]
    with pytest.raises(CrossCheckError,
                       match=r"over Q\[t\^\+-1\] on a 2x2 matrix: diagonal entry 0 "
                             r"\(1 \+ t\) does not divide entry 1 \(-1 \+ t\)"):
        _verify_snf(ctx, D, [D[0][0], D[1][1]], ident, ident)


RAW_FIELDS = (Q, F2, FieldDescriptor.prime_field(3))


@st.composite
def laurent_pairs(draw):
    """Two random elements of k[t^{+-1}] over one of RAW_FIELDS, with
    coefficients a/b over Q and a mod p over F_p."""
    field = draw(st.sampled_from(RAW_FIELDS))

    def element():
        out = GroupRingElem.zero(GZ, field)
        for e, a, b in draw(st.lists(st.tuples(st.integers(-2, 3), st.integers(-4, 4),
                                               st.integers(1, 4)), max_size=4)):
            c = Fraction(a, b) if field.kind == "Q" else a
            out = out + GroupRingElem.monomial(GZ, field, (e,), c)
        return out

    return field, element(), element()


@settings(max_examples=150, deadline=None)
@given(case=laurent_pairs())
def test_raw_laurent_arithmetic(case):
    field, a, b = case
    ctx = _LaurentCtx(field)
    ra, rb = ctx.raw(a), ctx.raw(b)
    assert ctx.lift(ra) == a and ctx.lift(rb) == b
    # raw forms are canonical, so equal elements are equal tuples: the
    # denominator is reduced and no zero is kept at either end
    for x in (ra, rb):
        assert not x[1] or (x[1][0] and x[1][-1])
        if field.kind == "Q":
            assert x[2] >= 1 and math.gcd(x[2], *x[1]) == 1
        else:
            assert x[2] == 1
    assert ctx.add(ra, rb) == ctx.raw(a + b)
    assert ctx.sub(ra, rb) == ctx.raw(a - b)
    assert ctx.mul(ra, rb) == ctx.raw(a * b)
    assert ctx.sub(ra, ra) == ctx.zero
    assert ctx.submul(ra, rb, ra) == ctx.raw(a - b * a)
    assert ctx.submul(rb, ra, rb) == ctx.raw(b - a * b)
    if b.is_zero():
        return
    scale, q = ctx.divstep(rb, ra)
    rem = ctx.sub(ctx.mul(scale, ra), ctx.mul(q, rb))
    assert ctx.is_unit(scale) and scale[0] == 0
    assert ctx.is_zero(rem) or ctx.norm(rem) < ctx.norm(rb)
    assert ctx.exact_div(ctx.mul(ra, rb), rb) == ra
    unit, canon = ctx.unit_normalize(rb)
    assert ctx.mul(unit, canon) == rb and canon[0] == 0
    # division by a unit (a scalar times a power of t) is one product
    assert ctx.is_unit(unit) and ctx.exact_div(ctx.mul(ra, unit), unit) == ra
    # a monomial operand scales the other operand's coefficients
    assert ctx.mul(unit, ra) == ctx.mul(ra, unit) == ctx.raw(ctx.lift(unit) * a)
    if not ctx.is_unit(rb):
        # a non-multiple raises: a*b + 1 leaves a nonzero remainder, and a
        # divisor of longer span than the dividend fits no quotient
        with pytest.raises(CoefficientError):
            ctx.exact_div(ctx.add(ctx.mul(ra, rb), ctx.one), rb)
        with pytest.raises(CoefficientError):
            ctx.exact_div(rb, ctx.mul(rb, (0, (1, 1), 1)))
    assert ctx.lift(canon).terms[(len(canon[1]) - 1,)] == 1
    if field.kind == "Q":
        # the content step makes the coefficients coprime integers
        c = ctx.content_unit([ra, rb]) or ctx.one
        scaled = [ctx.mul(c, x) for x in (ra, rb) if x[1]]
        assert all(x[2] == 1 for x in scaled)
        assert math.gcd(*(y for x in scaled for y in x[1])) == 1
        assert ctx.is_unit(c) and c[0] == 0


@pytest.mark.parametrize("field", RAW_FIELDS, ids=str)
def test_exact_div_rejects_non_multiples(field):
    ctx = _LaurentCtx(field)
    one_plus_t, cubic = (0, (1, 1), 1), (0, (1, 1, 1), 1)
    # 1 + t + t^2 is 1 at t = -1 in every characteristic: remainder 1
    with pytest.raises(CoefficientError):
        ctx.exact_div(cubic, one_plus_t)
    with pytest.raises(CoefficientError):  # span too short
        ctx.exact_div(one_plus_t, cubic)
    with pytest.raises(CoefficientError):
        ctx.exact_div(cubic, ctx.zero)
    assert ctx.exact_div(ctx.mul(cubic, one_plus_t), one_plus_t) == cubic
    if field.kind == "Q":
        # over Z by the primitive part 1 + 2t: the leading step 1/2 is not
        # integral, so 1 + 2t does not divide 1 + t + t^2 in Q[t]
        with pytest.raises(CoefficientError):
            ctx.exact_div(cubic, (0, (1, 2), 1))
        assert ctx.exact_div((0, (1, 3, 2), 3), (0, (2, 4), 1)) == (0, (1, 1), 6)
