import contextlib
import io
import itertools
import json
import math
import random
from functools import lru_cache
from pathlib import Path

import pytest
import sympy
from hypothesis import event, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Poly
from sympy.polys.matrices import DomainMatrix

import modz_oracle
from ess import cli, twisted
from ess.builtins import builtin_complex, builtin_names, lyndon_document
from ess.coeffs import FieldDescriptor, LaurentRing, cyclotomic_polynomial
from ess.complexes import (Epimorphism, FreeWord, GroupHom, Presentation,
                           base_change, change_field, parse_document,
                           presentation_complex)
from ess.errors import CoefficientError, InputError, ValidationError
from ess.groupring import GroupDescriptor
from ess.twisted import (alexander_polynomial, bounds_report, evaluated_boundary,
                         minors_inequality, reduce_direction, twisted_betti)

Q = FieldDescriptor.rationals()
ZZ = FieldDescriptor.integers()
GZ = GroupDescriptor.free_abelian(1)
G2 = GroupDescriptor.free_abelian(2)


def to_z(name):
    C = builtin_complex(name)
    if C.group == GZ:
        return C
    return base_change(C, GroupHom(C.group, GZ, [[1]] * C.group.n))


def test_twisted_betti_trefoil():
    tre = builtin_complex("trefoil")
    assert twisted_betti(tre, 6)[1] == 1
    for d in (2, 3, 4, 5):
        assert twisted_betti(tre, d)[1] == 0
    assert twisted_betti(tre, 1) == [1, 1, 0]  # order 1 = rational Betti


def to_z_complex(C):
    return base_change(C, GroupHom(C.group, GZ, [[1]] * C.group.n))


def test_twisted_betti_lyndon_nonprimepower():
    for d in (6, 10):
        C = to_z_complex(parse_document(lyndon_document(d)))
        assert twisted_betti(C, d)[1] == 1


def test_twisted_betti_torsfree_d2():
    assert twisted_betti(builtin_complex("torsfree"), 2) == [0, 0, 1, 1]


def test_twisted_galois_independence():
    tre = builtin_complex("trefoil")
    for d in (5, 6, 12):
        base = twisted_betti(tre, d)
        for a in range(2, d):
            import math

            if math.gcd(a, d) == 1:
                assert twisted_betti(tre, d, power=a) == base, (d, a)
    with pytest.raises(InputError):
        twisted_betti(tre, 6, power=2)


def test_twisted_requires_group_z():
    with pytest.raises(ValidationError):
        twisted_betti(builtin_complex("wedge2"), 3)


def test_alexander_unknot():
    res = alexander_polynomial(builtin_complex("circle"))
    assert res.polynomial == (1,)
    assert "convention" in res.notice


def test_alexander_trefoil_and_figure8():
    assert alexander_polynomial(builtin_complex("trefoil")).polynomial == (1, -1, 1)
    assert alexander_polynomial(builtin_complex("figure8")).polynomial == (1, -3, 1)
    # Delta(1) = +-1 for knots
    assert sum(alexander_polynomial(builtin_complex("trefoil")).polynomial) == 1


def test_alexander_connected_sum_multiplicative():
    # granny knot: two trefoil relators sharing a generator
    gens = ["x", "y", "z"]
    P = Presentation(
        gens,
        [FreeWord.parse("xyxYXY", gens), FreeWord.parse("yzyZYZ", gens)],
    )
    C = presentation_complex(P, Epimorphism(GZ, [[1], [1], [1]]), ZZ)
    delta = alexander_polynomial(C).polynomial
    trefoil = (0, (1, -1, 1), 1)
    assert (0, delta, 1) == LaurentRing(Q).mul(trefoil, trefoil)


def test_alexander_root_criterion():
    # b_1(X, nu/d) != 0 iff Phi_d divides Delta
    ring = LaurentRing(Q)
    for name, delta in (("trefoil", (0, (1, -1, 1), 1)), ("figure8", (0, (1, -3, 1), 1))):
        C = builtin_complex(name)
        for d in range(2, 13):
            phi = (0, cyclotomic_polynomial(d), 1)
            divides = True
            try:
                ring.exact_div(delta, phi)
            except CoefficientError:
                divides = False
            assert (twisted_betti(C, d)[1] != 0) == divides, (name, d)


def test_reduce_direction():
    assert reduce_direction([0, 0], 3, 1) == (None, 1, True)
    assert reduce_direction([2, 4], 2, 2) == ([1, 2], 2, True)
    assert reduce_direction([2], 3, 1) == ([1], 3, False)
    assert reduce_direction([3], 3, 2) == ([1], 3, True)
    assert reduce_direction([9], 3, 2) == ([1], 1, True)


def test_bounds_coho_strict_values():
    for p in (3, 5):
        rep = bounds_report(builtin_complex(f"comm-p:{p}"), [1], p, 1)
        row1 = rep.rows[1]
        assert row1["b_twisted"] == 0
        assert row1["beta_fp"] == 1
        assert row1["b_fp"] == 2
        assert rep.verdicts["cohobound"] == "holds"


def test_bounds_torsfree_counterexample():
    rep = bounds_report(builtin_complex("torsfree"), [1], 2, 1)
    assert rep.torsion_free == [True, True, False, True]
    assert rep.verdicts["bettibound"] == "holds"
    assert rep.verdicts["cohobound"].startswith("not-applicable")
    assert rep.rows[3]["b_twisted"] == 1 and rep.rows[3]["beta_fp"] == 0


def test_bounds_sharpness_zero_map():
    # nu = 0: b_q(X, nu/p^r) = b_q(X) = b_q(X, F_p) for torsion-free input
    rep = bounds_report(builtin_complex("torus2"), [0, 0], 5, 1)
    for row in rep.rows:
        assert row["b_twisted"] == row["b_fp"] == row["beta_fp"]
    assert [row["b_twisted"] for row in rep.rows] == [1, 2, 1]


def test_bounds_nonsurjective_reduction():
    # nu = 2 * id on the trefoil: zeta_4^2 has order 2
    rep = bounds_report(builtin_complex("trefoil"), [2], 2, 2)
    assert rep.d_effective == 2
    direct = twisted_betti(builtin_complex("trefoil"), 2)
    assert [row["b_twisted"] for row in rep.rows] == direct
    # p divides m: nu_{F_2} = 0, Aomoto bound degenerates to the modular one
    rep2 = bounds_report(builtin_complex("trefoil"), [2], 2, 1)
    assert [r["beta_fp"] for r in rep2.rows] == [r["b_fp"] for r in rep2.rows]


def test_bounds_rejects_composite_p():
    with pytest.raises(InputError):
        bounds_report(builtin_complex("trefoil"), [1], 6, 1)


def test_minors_inequality_on_corpus():
    for name in ("trefoil", "figure8", "torsfree", "zxf2"):
        C = to_z(name)
        for p, r in ((2, 1), (3, 1), (2, 2)):
            for row in minors_inequality(C, p, r):
                assert row["holds"], (name, p, r, row)


def test_lyndon_beta_vanishes_but_twisted_does_not():
    C = parse_document(lyndon_document(6))
    Cz = to_z_complex(C)
    assert twisted_betti(Cz, 6)[1] == 1
    from ess.aomoto import aomoto_betti

    assert aomoto_betti(change_field(Cz, Q)).beta[1] == 0


@lru_cache(maxsize=None)
def _zeta_powers_by_sympy(d):
    """zeta^0..zeta^(d-1) as coefficient tuples of sympy's remainder of t^k by
    Phi_d: each power reduced on its own, not by ess's shift recursion."""
    phi = sympy.cyclotomic_poly(d, T)
    deg = sympy.degree(phi, T)
    powers = []
    for k in range(d):
        coeffs = Poly(sympy.rem(T**k, phi, T), T).all_coeffs()[::-1]
        powers.append(tuple(int(c) for c in coeffs) + (0,) * (deg - len(coeffs)))
    return powers


def _evaluate_by_sympy_powers(C, q, d, power):
    """t -> zeta^power through the sympy powers of zeta, each scaled by its
    rational coefficient."""
    powers = _zeta_powers_by_sympy(d)
    mats = C.raw_integral if C.raw_integral is not None else C.raw
    out = []
    for row in mats[q - 1]:
        out.append([])
        for terms in row:
            acc = [0] * len(powers[0])
            for key, c in terms.items():
                zk = powers[key[0] * power % d]
                acc = [a + c * x for a, x in zip(acc, zk)]
            out[-1].append(tuple(acc))
    return out


def _seeded_five_generator_complex(seed):
    """Five generators onto Z by the all-ones character; each relator has three
    positive and three negative letters, so it lies in the kernel."""
    rng = random.Random(seed)
    gens = list("abcde")
    rels = []
    for _ in range(4):
        letters = [rng.choice(gens) for _ in range(3)] + [rng.choice(gens).upper() for _ in range(3)]
        rng.shuffle(letters)
        rels.append(FreeWord.parse("".join(letters), gens))
    return presentation_complex(Presentation(gens, rels), Epimorphism(GZ, [[1]] * 5), ZZ)


def test_evaluated_boundary_matches_repeated_multiplication():
    # each entry is {k * power mod d: c}, zero sums dropped; read in the power
    # basis through sympy's powers of zeta, it is the entry evaluated there
    names = [n for n in builtin_names() if "<" not in n] + ["lyndon:6", "comm-p:3"]
    spaces = [to_z(n) for n in names] + [_seeded_five_generator_complex(7)]
    for d in (1, 2, 6, 12, 30, 210):
        powers = _zeta_powers_by_sympy(d)
        for power in (a for a in range(1, d + 1) if math.gcd(a, d) == 1):
            for C in spaces:
                for q in range(1, C.top + 1):
                    expected = _evaluate_by_sympy_powers(C, q, d, power)
                    got = evaluated_boundary(C, q, d, power)
                    assert all(0 <= k < d and c for row in got for e in row
                               for k, c in e.items()), (d, power, q)
                    assert [[tuple(sum(c * powers[k][i] for k, c in e.items())
                                   for i in range(len(powers[0]))) for e in row]
                            for row in got] == expected, (d, power, q)


def test_twisted_and_bounds_never_build_a_cyclotomic_polynomial(monkeypatch):
    # the ranks at zeta_d are taken at omega mod ell straight from the powers
    # of zeta; Phi_d is never formed, at any order
    import ess
    from ess import builtins, coeffs, selftest

    spaces = [builtin_complex(n) for n in ("trefoil", "figure8", "comm-p:3")]
    spaces.append(to_z_complex(parse_document(lyndon_document(6))))

    def refuse(d):
        raise AssertionError(f"cyclotomic_polynomial({d}) called")

    for module in (ess, builtins, coeffs, selftest, twisted):
        if hasattr(module, "cyclotomic_polynomial"):
            monkeypatch.setattr(module, "cyclotomic_polynomial", refuse)
    for d in (6, 210, 1000000):
        assert twisted_betti(spaces[0], d) == ([0, 1, 1] if d == 6 else [0, 0, 0])
    for C in spaces:
        for p, r in ((2, 1), (3, 2), (5, 1)):
            bounds_report(C, [1] * C.group.num_generators, p, r)
            if C.group == GZ:
                minors_inequality(C, p, r)


def test_twisted_rank_stops_at_the_certified_cap(monkeypatch, capsys):
    # torus3 onto Z by (1, 0, 0): d_2 at zeta_d is 3 x 3 of rank 2, which the
    # norm bound alone certifies only after hundreds of primes; the cap
    # dim C_1 - rank d_1 = 2 certifies it at the first, as for d_1 and d_3
    from ess import coeffs

    calls, modulus = [], coeffs._modulus
    monkeypatch.setattr(coeffs, "_modulus", lambda d, i: calls.append(i) or modulus(d, i))
    code = cli.main(["twisted", "--builtin", "torus3", "--group-quotient", "Z",
                     "--nu", "a=1,b=0,c=0", "--d", "100000", "--json"])
    assert (code, capsys.readouterr().out) == (0, '{"d":100000,"twisted_betti":[0,0,0,0]}\n')
    assert calls == [0, 0, 0]


# ---------------------------------------------------------------------------
# Alexander polynomial against an independent sympy oracle
# ---------------------------------------------------------------------------

T = sympy.Symbol("t")
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def sympy_alexander(doc):
    """gcd over ZZ[t] of the (g-1)-minors of the Fox matrix, computed from the
    document alone: sympy determinants, no code from ess.  Returns a Poly
    without a factor t, up to sign."""
    pres = doc["presentation"]
    gens, nu = pres["generators"], pres["nu"]
    g, cols = len(gens), []
    for word in pres["relators"]:
        col = [{} for _ in gens]  # exponent -> coefficient
        pos = 0  # nu of the prefix read so far
        for i, e in ((gens.index(ch.lower()), 1 if ch.islower() else -1) for ch in word):
            if e < 0:
                pos -= nu[gens[i]]
            col[i][pos] = col[i].get(pos, 0) + e  # d(u x)/dx = u, d(u x^-1)/dx = -u x^-1
            if e > 0:
                pos += nu[gens[i]]
        low = min((k for entry in col for k, c in entry.items() if c), default=0)
        cols.append([sum(c * T**(k - low) for k, c in entry.items()) for entry in col])
    if not cols or g == 1:
        return Poly(1, T, domain=sympy.ZZ)
    A = Matrix(g, len(cols), lambda i, j: cols[j][i])
    ring = sympy.ZZ[T]
    want = Poly(0, T, domain=sympy.ZZ)
    for rows in itertools.combinations(range(g), g - 1):
        for sel in itertools.combinations(range(len(cols)), g - 1):
            det = DomainMatrix.from_Matrix(A.extract(list(rows), list(sel))).convert_to(ring).det()
            want = want.gcd(Poly(ring.to_sympy(det), T, domain=sympy.ZZ))
    while not want.is_zero and want.eval(0) == 0:
        want = want.exquo(Poly(T, T, domain=sympy.ZZ))
    return want


def _matches_oracle(coeffs, doc):
    got = Poly(list(reversed(coeffs)) or [0], T, domain=sympy.ZZ)
    want = sympy_alexander(doc)
    return got in (want, -want)


def seeded_presentation(rng, g, nu=None):
    """g generators onto Z by the character nu (images in generator order,
    all ones by default) and g - 1 or g relators in its kernel, some of them
    proper powers, whose Fox columns are then multiples of the power: a
    source of Alexander polynomials with content > 1."""
    gens = "abcdef"[:g]
    nu = nu or [1] * g
    rels = []
    for _ in range(g - 1 + rng.randrange(2)):
        half = rng.choice((2, 3))
        word = [rng.randrange(g) + 1 for _ in range(half)] + [-rng.randrange(g) - 1
                                                              for _ in range(half)]
        rng.shuffle(word)
        rels.append(modz_oracle.spell_in_kernel(word, nu, gens) * rng.choice((1, 1, 1, 2, 3)))
    return {"field": "Z", "group": "Z",
            "presentation": {"generators": list(gens), "relators": rels,
                             "nu": dict(zip(gens, nu))}}


def seeded_character(rng, g, images):
    """Images of g generators drawn from `images`, with gcd 1: onto Z."""
    while True:
        nu = [rng.choice(images) for _ in range(g)]
        if math.gcd(*nu) == 1:
            return nu


def test_alexander_matches_sympy_minors_on_seeded_presentations(monkeypatch):
    # characters with images in {+-1, 2, 3}: with an image +-1 the entry
    # t^+-1 - 1 of d_1 divides every other and one minor per column block
    # decides; with images 2 and 3 only none does and every minor is computed
    found = []
    redundant_row = twisted._redundant_row
    monkeypatch.setattr(twisted, "_redundant_row",
                        lambda *a, **k: found.append(redundant_row(*a, **k)) or found[-1])
    rng = random.Random(20240611)
    with_content = 0
    for k in range(150):
        g = 2 + k % 5
        doc = seeded_presentation(rng, g, seeded_character(rng, g, (1, -1, 2, 3) if k % 2
                                                           else (2, 3)))
        delta = alexander_polynomial(parse_document(doc)).polynomial
        assert _matches_oracle(delta, doc), (doc, delta)
        if delta and math.gcd(*delta) > 1:
            with_content += 1
    assert with_content >= 10, with_content
    one_minor = sum(j is not None for j in found)
    assert one_minor >= 50 and len(found) - one_minor >= 50, (one_minor, len(found))


def test_dropping_a_row_without_the_divisibility_test_changes_delta(monkeypatch):
    rng = random.Random("alexander-undivided-row")
    docs = [seeded_presentation(rng, g, seeded_character(rng, g, (2, 3)))
            for g in (2, 3, 4, 5) for _ in range(5)]
    want = [alexander_polynomial(parse_document(doc)).polynomial for doc in docs]
    monkeypatch.setattr(twisted, "_redundant_row", modz_oracle.undivided_row)
    got = [alexander_polynomial(parse_document(doc)).polynomial for doc in docs]
    assert sum(a != b for a, b in zip(want, got)) >= 5


def _counting_bareiss(monkeypatch):
    calls = []
    bareiss = twisted._bareiss_det
    monkeypatch.setattr(twisted, "_bareiss_det",
                        lambda ring, m: calls.append(m) or bareiss(ring, m))
    return calls


def test_alexander_stops_once_delta_is_one(monkeypatch):
    # one minor per column block: every generator goes to 1, so d_1 =
    # (t - 1, ..., t - 1) makes row 0 of d_2 redundant and each minor drops
    # it; after the 4th of the 5 blocks the content is 1 and the gcd a unit,
    # so Delta = 1 and the last block is never reached
    doc = seeded_presentation(random.Random("alexander-early-stop:1"), 5)
    assert len(doc["presentation"]["relators"]) == 5
    calls = _counting_bareiss(monkeypatch)
    delta = alexander_polynomial(parse_document(doc)).polynomial
    assert delta == (1,) and _matches_oracle(delta, doc)
    assert len(calls) == 4 < math.comb(5, 4)
    assert len({repr(m) for m in calls}) == 4  # four different blocks


def test_alexander_with_g_minus_1_relators_is_one_bareiss_call(monkeypatch):
    # the seeded g = 10 golden input without its last relator: 9 columns,
    # one block, one minor, and the same Delta as all 10 minors of the block
    doc = json.loads((GOLDEN_INPUTS / "nontrivial-delta-g10.json").read_text())
    del doc["presentation"]["relators"][-1]
    calls = _counting_bareiss(monkeypatch)
    delta = alexander_polynomial(parse_document(doc)).polynomial
    assert len(calls) == 1 and len(delta) > 1
    monkeypatch.setattr(twisted, "_redundant_row", lambda *a, **k: None)
    assert alexander_polynomial(parse_document(doc)).polynomial == delta
    assert len(calls) == 1 + 10


# stdout of the CLI before the minors became Bareiss determinants
PINNED = [
    # g - 1 = 2 > 1 column: no minor, Delta = 0
    ({"generators": ["a", "b", "c"], "relators": ["aA"], "nu": {"a": 1, "b": 1, "c": 1}},
     '{"alexander_polynomial":"0"}\n'),
    # both columns vanish: every minor is 0
    ({"generators": ["a", "b", "c"], "relators": ["aA", "bB"],
      "nu": {"a": 1, "b": 1, "c": 1}},
     '{"alexander_polynomial":"0"}\n'),
    # a squared relator: content 2
    ({"generators": ["a", "b", "c", "d"], "relators": ["DDbdaC", "bDAcbDAc", "cdCCBc"],
      "nu": {"a": 1, "b": 1, "c": 1, "d": 1}},
     '{"alexander_polynomial":"2*t^5 - 2*t^3 + 2*t^2 - 2"}\n'),
]


@pytest.mark.parametrize("pres, stdout", PINNED)
def test_alexander_json_input_pinned(pres, stdout, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"field": "Z", "group": "Z", "presentation": pres}))
    assert cli.main(["alexander", str(path), "--json"]) == cli.EXIT_OK
    assert capsys.readouterr().out == stdout


@st.composite
def presentations_onto_z(draw):
    """Random presentations with a character onto Z that need not be onto and
    relators that need not be reduced: commutators, which lie in the kernel of
    every character, and arbitrary words, which usually do not."""
    g = draw(st.integers(1, 4))
    gens = "abcd"[:g]
    letter = st.sampled_from(gens + gens.upper())
    word = st.lists(letter, min_size=1, max_size=4).map("".join)

    def inverse(w):
        return w[::-1].swapcase()

    commutator = st.tuples(word, word).map(lambda uv: uv[0] + uv[1] + inverse(uv[0])
                                            + inverse(uv[1]))
    rels = draw(st.lists(st.one_of(commutator, commutator, word), max_size=g + 1))
    nu = {x: draw(st.integers(-2, 2)) for x in gens}
    return {"field": "Z", "group": "Z",
            "presentation": {"generators": list(gens), "relators": rels, "nu": nu}}


@settings(max_examples=100, deadline=None)
@given(doc=presentations_onto_z())
def test_alexander_cli_property(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("alexander") / "space.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["alexander", str(path), "--json"])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT)
    event(f"exit {code}")
    if code == cli.EXIT_OK:
        text = json.loads(out.getvalue())["alexander_polynomial"]
        got = Poly(sympy.parse_expr(text.replace("^", "**"), {"t": T}), T, domain=sympy.ZZ)
        assert got in (sympy_alexander(doc), -sympy_alexander(doc)), (doc, text)
