"""The SNF certificate A = P D Q, checked outside `ess`.

`ess.modz._snf_engine` returns P and Q, the inverses of its row and column
operations, and `_verify_snf` checks A = P D Q before a diagonal is used.
Here sympy recomputes the product, the determinants of P and Q (units of Z,
or of k[t^{+-1}]: one monomial) and the invariant factors, on integer
matrices and on Laurent matrices over Q, F_2 and F_3 up to 6 x 6.  Mutants
of the certificate and of the engine's inverse transforms must each raise
CrossCheckError.
"""

import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import invariant_factors  # noqa: E402

from ess import modz  # noqa: E402
from ess.coeffs import FieldDescriptor  # noqa: E402
from ess.errors import CrossCheckError  # noqa: E402
from ess.modz import _IntCtx, _LaurentCtx, _snf_engine, _verify_snf  # noqa: E402

T = sympy.Symbol("t")
FIELDS = (None, FieldDescriptor.rationals(), FieldDescriptor.prime_field(2),
          FieldDescriptor.prime_field(3))


def ring_of(field):
    """sympy's principal ideal domain for Z (field None) or k[t]."""
    if field is None:
        return sympy.ZZ
    return (sympy.QQ if field.kind == "Q" else sympy.GF(field.p))[T]


def terms(x):
    """{exponent: (numerator, denominator)} of an int, a payload map
    {(e,): c} or a raw Laurent polynomial (shift, coefficients, den)."""
    if isinstance(x, int):
        return {0: (x, 1)} if x else {}
    if isinstance(x, dict):
        return {e: (c.numerator, c.denominator) for (e,), c in x.items()}
    s, cs, den = x
    return {s + i: (c, den) for i, c in enumerate(cs) if c}


def element(K, x, shift=0):
    """t^shift times the element `terms` x of K."""
    if K == sympy.ZZ:
        return K(x[0][0]) if x else K.zero
    return K.ring.from_dict({(e + shift,): K.domain(n) / K.domain(d) for e, (n, d) in x.items()})


def domain_matrix(K, rows):
    """(a, t^a M) over K for the matrix M of `terms` maps, with a >= 0 the
    least power of t making every entry a polynomial (0 over Z)."""
    a = max([0] + [-e for row in rows for x in row for e in x])
    return a, DomainMatrix([[element(K, x, a) for x in row] for row in rows],
                           (len(rows), len(rows[0])), K)


def power_of_t(K, a):
    return K.one if K == sympy.ZZ else K.ring.from_dict({(a,): K.domain.one})


def canonical(K, f):
    """The associate of f != 0 with lowest exponent 0 and leading
    coefficient 1 (over Z: |f|), coefficients lowest degree first."""
    if K == sympy.ZZ:
        return abs(int(f))
    cs = dict(f.terms())
    lo, hi = min(cs)[0], max(cs)[0]
    return tuple(cs.get((e,), K.domain.zero) / cs[(hi,)] for e in range(lo, hi + 1))


@st.composite
def matrices(draw):
    """(field, A): an n x m matrix, n, m <= 6, over Z (field None) or over
    k[t^{+-1}] as payload maps {(e,): c}, of rank at most r: random entries
    when r = min(n, m), else a product of n x r and r x m factors."""
    field = draw(st.sampled_from(FIELDS))
    K = ring_of(field)
    if field is None:
        entry = st.integers(-9, 9)
    else:
        coeff = st.integers(1, field.p - 1) if field.kind == "Fp" else \
            st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
        entry = st.dictionaries(st.integers(-1, 2).map(lambda e: (e,)), coeff, max_size=3)
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(n, m)))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    if r == min(n, m):
        return field, block(n, m)
    if r == 0:
        return field, [[0 if field is None else {} for _ in range(m)] for _ in range(n)]
    (a, left), (b, right) = (domain_matrix(K, [[terms(x) for x in row] for row in blk])
                             for blk in (block(n, r), block(r, m)))
    prod = (left * right).to_list()
    if field is None:
        return field, [[int(x) for x in row] for row in prod]
    value = (lambda c: Fraction(int(c.numerator), int(c.denominator))) \
        if field.kind == "Q" else (lambda c: int(c) % field.p)
    return field, [[{(e - a - b,): value(c) for (e,), c in x.terms()} for x in row]
                   for row in prod]


def run(field, A):
    ctx = _IntCtx() if field is None else _LaurentCtx(field)
    raw = [[ctx.raw(x) for x in row] for row in A]
    diag, P, Q = _snf_engine(ctx, raw)
    return ctx, raw, diag, P, Q


def assert_certified(field, A):
    """A = P D Q, det P and det Q units and D sympy's Smith form, all in
    sympy; a mutant of P, Q or D fails `_verify_snf`."""
    ctx, raw, diag, P, Q = run(field, A)
    _verify_snf(ctx, raw, diag, P, Q)
    K = ring_of(field)
    n, m = len(A), len(A[0])
    a, Pm = domain_matrix(K, [[terms(P[k].get(i, ctx.zero)) for k in range(n)]
                              for i in range(n)])
    b, Qm = domain_matrix(K, [[terms(Q[k].get(j, ctx.zero)) for j in range(m)]
                              for k in range(m)])
    _, D = domain_matrix(K, [[terms(diag[i]) if i == j else {} for j in range(m)]
                             for i in range(n)])
    c, Am = domain_matrix(K, [[terms(x) for x in row] for row in A])
    # (t^a P) D (t^b Q) t^c = (t^c A) t^(a+b)
    assert Pm * D * Qm * power_of_t(K, c) == Am * power_of_t(K, a + b)
    # P and Q are invertible: the determinant is +-1 over Z, one monomial
    # c t^e over k[t^{+-1}]
    for M in (Pm, Qm):
        det = M.det()
        assert det in (1, -1) if K == sympy.ZZ else len(det.terms()) == 1, det
    # the diagonal is sympy's Smith form over Z or k[t] of t^c A
    assert [canonical(K, element(K, terms(d))) for d in diag if not ctx.is_zero(d)] == \
        [canonical(K, f) for f in invariant_factors(Am) if f]
    # each mutant of the certificate fails: one entry of P in a used column,
    # one of Q in a used row, one diagonal entry
    used = [k for k, d in enumerate(diag) if not ctx.is_zero(d)]
    for k in used[:1]:
        i = next(iter(P[k]))
        bad = [dict(col) for col in P]
        bad[k][i] = ctx.add(bad[k][i], ctx.one)
        with pytest.raises(CrossCheckError):
            _verify_snf(ctx, raw, diag, bad, Q)
        j = next(iter(Q[k]))
        bad = [dict(row) for row in Q]
        bad[k][j] = ctx.sub(bad[k][j], ctx.one)
        with pytest.raises(CrossCheckError):
            _verify_snf(ctx, raw, diag, P, bad)
    if diag:
        bad = list(diag)
        bad[-1] = ctx.add(bad[-1], ctx.one)
        with pytest.raises(CrossCheckError):
            _verify_snf(ctx, raw, bad, P, Q)


@settings(max_examples=150, deadline=None)
@given(case=matrices())
def test_certificate_checked_in_sympy(case):
    assert_certified(*case)


def _laurent(*coefficient_lists):
    """Payload maps {(e,): c} from coefficient lists, lowest degree first."""
    return [{(e,): c for e, c in enumerate(cs) if c} for cs in coefficient_lists]


# t - 1 divides t^2 - 1 and t^3 - 1: the least-norm pivot is no unit but
# divides its row and column, so exact quotients clear it with no Bezout
# block.  In the 2 x 2 case t - 1 does not divide what is left,
# t^2 (t^2 - t - 1), in any characteristic: the fix-up adds that row back
# and Bezout blocks finish the pivot.
DIVIDING_PIVOTS = {
    "row": ([_laurent([-1, 1], [-1, 0, 1], [-1, 0, 0, 1])], False),
    "column": ([[x] for x in _laurent([-1, 1], [-1, 0, 1], [-1, 0, 0, 1])], False),
    "fix-up": ([_laurent([-1, 1], [-1, 0, 1]), _laurent([-1, 0, 1], [-1, -1, 0, 0, 1])], True),
}


@pytest.mark.parametrize("field", FIELDS[1:], ids=str)
@pytest.mark.parametrize("name", DIVIDING_PIVOTS)
def test_certificate_on_a_dividing_non_unit_pivot(name, field, monkeypatch):
    A, fix_up = DIVIDING_PIVOTS[name]
    if field.kind == "Fp":
        A = [[{k: c % field.p for k, c in x.items() if c % field.p} for x in row] for row in A]
    bezout = []
    gcd_bezout = _LaurentCtx.gcd_bezout
    monkeypatch.setattr(_LaurentCtx, "gcd_bezout",
                        lambda self, a, b: bezout.append(a) or gcd_bezout(self, a, b))
    assert_certified(field, A)
    assert bool(bezout) == fix_up


def _mutant(old, new):
    """A copy of ess.modz with one line of its source replaced."""
    with open(modz.__file__) as fh:
        source = fh.read()
    assert source.count(old) == 1, old
    module = types.ModuleType("ess._modz_mutant")
    module.__package__ = "ess"
    exec(compile(source.replace(old, new), "<modz mutant>", "exec"), module.__dict__)
    return module


Q_FIELD = FieldDescriptor.rationals()
F3 = FieldDescriptor.prime_field(3)

# seeded matrices on which each mutant below breaks the certificate: each
# meets a Bezout block with tau != 0 and a unit-pivot clear in rows and
# columns that the product P D Q reads
MUTANT_CASES = [
    (None, [[1, -3, 8], [-3, -4, -3], [3, 0, -9]]),
    (Q_FIELD, [[{(0,): 2, (1,): 4, (2,): 3}, {}, {(1,): 1, (2,): 4}],
               [{(0,): 1, (1,): 4, (2,): 2}, {}, {(2,): 4}],
               [{(0,): 3, (1,): 4, (2,): 2}, {(0,): 3, (2,): 3}, {(0,): 1, (2,): 3}]]),
    (F3, [[{(1,): 2}, {(2,): 2}, {(1,): 2}],
          [{(1,): 1}, {(0,): 2}, {(0,): 1, (2,): 2}],
          [{(1,): 2, (2,): 1}, {(1,): 2, (2,): 2}, {(0,): 2, (2,): 2}]]),
]


@pytest.mark.parametrize("old, new", [
    # the sign of tau in the inverse Bezout block [[alpha, -tau], [beta, sigma]]
    ("axpy(X[i], neg(tu), old_t)", "axpy(X[i], tu, old_t)"),
    # the multiplier a unit-pivot clear records in P
    ("axpy(P[t], q, P[i])", "axpy(P[t], neg(q), P[i])"),
], ids=["bezout-tau-sign", "unit-multiplier-sign"])
def test_engine_mutants_fail_the_certificate(old, new):
    mutant = _mutant(old, new)
    for field, A in MUTANT_CASES:
        with pytest.raises(CrossCheckError):
            mutant.smith_normal_form(A, field)
        modz.smith_normal_form(A, field)  # the engine itself passes
