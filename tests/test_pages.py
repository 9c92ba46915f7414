import pytest

from ess import pages
from ess.builtins import builtin_complex
from ess.coeffs import FieldDescriptor
from ess.complexes import GroupHom, base_change, change_field
from ess.errors import CrossCheckError, UnsupportedCoefficients, ValidationError
from ess.groupring import GroupDescriptor
from ess.modz import einf_gr_module, homology_decomposition
from ess.pages import (PageComputation, PageTable, d1_closed_form, reznikov_collapse,
                       window_collapse_page)

Q = FieldDescriptor.rationals()
F2 = FieldDescriptor.prime_field(2)
F3 = FieldDescriptor.prime_field(3)
GZ = GroupDescriptor.free_abelian(1)
G2 = GroupDescriptor.free_abelian(2)


def compute_pages(C, R_max, S_max):
    """Pages E^1..E^{R_max} with entries exact for all s <= S_max."""
    return PageComputation(C, R_max, S_max).pages()


def circle_mod_p(p):
    Fp = FieldDescriptor.prime_field(p)
    circ = change_field(builtin_complex("circle"), Fp)
    return base_change(circ, GroupHom(GZ, GroupDescriptor.cyclic(p), [1]))


def test_pages_need_field_coefficients():
    with pytest.raises(UnsupportedCoefficients):
        compute_pages(builtin_complex("circle"), 2, 2)


def test_circle_mod_3_page_structure():
    C = circle_mod_p(3)
    tables, hom = reznikov_collapse(C)
    assert hom == [1, 1]
    e1 = tables[0]
    for s in range(3):
        assert e1.dim(s, 0) == 1 and e1.dim(s, 1) == 1
    # d1 is an isomorphism from each degree-1 spot into the next column
    assert e1.d_ranks.get((0, 1)) == 1 and e1.d_ranks.get((1, 1)) == 1
    last = tables[-1]
    assert [last.dim(s, 1) for s in range(3)] == [0, 0, 1]
    assert [last.dim(s, 0) for s in range(3)] == [1, 0, 0]


def test_wedge2_e1_dimensions():
    C = change_field(builtin_complex("wedge2"), Q)
    comp = PageComputation(C, R_max=2, S_max=3)
    p1 = comp.page(1)
    assert p1.row(1) == [2, 4, 6, 8]
    assert p1.row(0) == [1, 2, 3, 4]


def test_zxf2_einfinity_row():
    # the L/(1+t) summand is invisible: gr of it vanishes, so the degree-1
    # row stabilizes to dimension 2 at s = 0 and nothing beyond
    C = change_field(builtin_complex("zxf2"), Q)
    comp = PageComputation(C, R_max=4, S_max=3)
    tables = comp.pages()
    assert tables[1].row(1) == [2, 0, 0, 0]
    assert tables[3].row(1) == [2, 0, 0, 0]
    assert window_collapse_page(tables) == 2
    dec = homology_decomposition(C, 1)
    assert einf_gr_module(dec).dims(3) == [2, 0, 0, 0]


def test_e1_check_against_gr_times_betti():
    # E^1_{-s,s+q} = gr^s(kZ^2) x H_q(T^2): dims (s+1) * (1, 2, 1)
    C = change_field(builtin_complex("torus2"), Q)
    comp = PageComputation(C, R_max=2, S_max=2)
    tables = comp.pages()
    assert [tables[0].row(q) for q in range(3)] == [[1, 2, 3], [2, 4, 6], [1, 2, 3]]
    tables[0].entries[(2, 1)] = 5
    with pytest.raises(CrossCheckError, match="s=2, q=1"):
        comp._check_bookkeeping(tables)


def test_second_quadrant_support():
    C = change_field(builtin_complex("torus2"), Q)
    tables = compute_pages(C, 2, 2)
    for tab in tables:
        for (s, q), dim in tab.entries.items():
            assert 0 <= s and 0 <= q <= C.top and dim > 0


def test_d1_gr_linearity_for_z():
    C = change_field(builtin_complex("zxf2"), Q)
    comp = PageComputation(C, R_max=3, S_max=3)
    base = comp.d1_matrix(1, 0)
    for s in (1, 2):
        assert comp.d1_matrix(1, s) == base


def test_d1_closed_form_matches_engine_on_torus():
    C = change_field(builtin_complex("torus2"), Q)
    comp = PageComputation(C, R_max=2, S_max=1)
    closed = d1_closed_form(C)
    for q in (1, 2):
        assert comp.d1_matrix(q, 0) == closed[q]


def test_torus_d1_matches_pinned_sign_convention():
    # d1([e_2]) = x_a (x) [e_b] - x_b (x) [e_a]; rows are ordered by the
    # gr^1 monomial order (x_b = (0,1) before x_a = (1,0)), then H_1 basis
    C = change_field(builtin_complex("torus2"), Q)
    m = d1_closed_form(C)[2]
    assert m == [[-1], [0], [0], [1]]


def test_torus_duality_with_cup_product():
    # transpose of d1 in degree 2 must be left cup-multiplication by nu_k:
    # (e_a* + e_b*) cup e_a* = -[T^2]*, (e_a* + e_b*) cup e_b* = +[T^2]*
    C = change_field(builtin_complex("torus2"), Q)
    Cz = base_change(C, GroupHom(G2, GZ, [[1], [1]]))
    m = d1_closed_form(Cz)[2]  # 1x... rows (gr^1 x H_1) = 2, col = [T^2]
    assert [x for row in m for x in row] == [-1, 1]


def test_torus3_pages_build_no_column(monkeypatch):
    """Every column of torus3 is an apparent pair or zero: the engine reads
    each pivot off the leads, builds no column and stores no boundary."""
    built, column = [], PageComputation._column
    monkeypatch.setattr(PageComputation, "_column",
                        lambda self, q, g, rows: built.append(g) or column(self, q, g, rows))
    comp = PageComputation(change_field(builtin_complex("torus3"), Q), R_max=6, S_max=6)
    comp.pages()
    assert comp.apparent > 0 and comp.reduced == 0 and not built
    assert not hasattr(comp, "_bt") and not hasattr(comp.model, "products")


def test_window_stability():
    for name in ("torus2", "zxf2", "trefoil"):
        C = change_field(builtin_complex(name), Q)
        small = compute_pages(C, 2, 1)
        large = compute_pages(C, 2, 3)
        for ts, tl in zip(small, large):
            for (s, q), dim in ts.entries.items():
                assert tl.dim(s, q) == dim
            for (s, q), dim in tl.entries.items():
                if s <= 1:
                    assert ts.dim(s, q) == dim


def test_reznikov_requires_matching_characteristic():
    C = circle_mod_p(3)
    wrong = base_change(
        change_field(builtin_complex("circle"), F2),
        GroupHom(GZ, GroupDescriptor.cyclic(3), [1]),
    )
    with pytest.raises(ValidationError, match="characteristic"):
        reznikov_collapse(wrong)
    reznikov_collapse(C)


def test_reznikov_p2_and_p5():
    for p in (2, 5):
        tables, hom = reznikov_collapse(circle_mod_p(p))
        assert hom == [1, 1]
        last = tables[-1]
        assert [last.dim(s, 1) for s in range(p)] == [0] * (p - 1) + [1]


def _reznikov_complex(name, m, p):
    C = change_field(builtin_complex(name), FieldDescriptor.prime_field(p))
    return base_change(C, GroupHom(C.group, GroupDescriptor.cyclic(m),
                                   [1] * C.group.num_generators))


def _cut(table, S):
    """The page restricted to the window s <= S, padded with zero columns
    when S is past the last nonzero one."""
    def keep(cells):
        return {k: v for k, v in cells.items() if k[0] <= S}
    return PageTable(table.r, keep(table.entries), keep(table.d_ranks), (S, table.window[1]))


def _page_data(table):
    return table.r, table.entries, table.d_ranks, table.window


@pytest.mark.parametrize("name, m, p", [("circle", 9, 3), ("comm-p:3", 27, 3),
                                        ("comm-p:5", 25, 5)])
def test_reznikov_window_is_the_whole_filtration_cut(name, m, p):
    """Computed over s <= S only, the pages are the whole-filtration pages
    cut to s <= S, inside, up to and past s = p^r - 1."""
    C = _reznikov_complex(name, m, p)
    full, full_hom = reznikov_collapse(C)
    for S in (0, 1, 3, m - 2, m + 5):
        tables, hom = reznikov_collapse(C, S)
        assert hom == full_hom, S
        assert [_page_data(t) for t in tables] == [_page_data(_cut(t, S)) for t in full], S


def test_reznikov_einfinity_check_fires_on_a_small_window(monkeypatch):
    """The E^oo totals are checked over every s even when the window stops
    at s = 1: a k-rank one too large is caught."""
    k_rank = pages._k_rank
    monkeypatch.setattr(pages, "_k_rank", lambda comp, q: k_rank(comp, q) + 1)
    with pytest.raises(CrossCheckError, match="E\\^infinity total"):
        reznikov_collapse(_reznikov_complex("circle", 9, 3), 1)


@pytest.mark.parametrize("name, m, p", [("circle", 9, 3), ("comm-p:3", 27, 3)])
def test_reznikov_einfinity_check_catches_a_dropped_pair(monkeypatch, name, m, p):
    """The pairs and _k_rank both reduce in Echelon, yet a fault in the pairs
    (here the last pair of every degree lost) still fails the E^oo check."""
    pairs = PageComputation._pairs
    monkeypatch.setattr(PageComputation, "_pairs",
                        lambda self, q, cleared=(): pairs(self, q, cleared)[:-1])
    with pytest.raises(CrossCheckError, match="E\\^infinity total"):
        reznikov_collapse(_reznikov_complex(name, m, p))


def test_page_table_report_shapes():
    C = change_field(builtin_complex("circle"), Q)
    tables = compute_pages(C, 2, 2)
    doc = tables[0].to_json()
    assert doc["page"] == 1
    assert {"s", "q", "dim", "d_rank"} <= set(doc["entries"][0])
    text = tables[0].to_text()
    assert "page E^1" in text
