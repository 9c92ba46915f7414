"""Exact equivariant spectral sequences of finite CW-complexes.

Computes pages of the J-adic spectral sequence with coefficients in group
rings of Z^n, Z, and Z_{p^r}; decompositions of infinite-cyclic-cover homology
over k[t^{+-1}]; Aomoto Betti numbers; twisted Betti numbers at roots of
unity; and machine-checked instances of the modular bound theorems.
"""

from .aomoto import aomoto_betti, aomoto_specialize, universal_aomoto
from .coeffs import FieldDescriptor, LaurentRing, cyclotomic_polynomial, rank_exact
from .complexes import (Epimorphism, EquivariantComplex, FreeWord, GroupHom,
                        Presentation, base_change, betti_numbers, change_field,
                        complex_from_matrices, fox_derivative, parse_document,
                        presentation_complex)
from .groupring import (GroupDescriptor, GroupRingElem, gr_dimension, j_valuation,
                        parse_element)
from .modz import (gr_dims, homology_decomposition, integral_torsion_check, monodromy_report,
                   smith_normal_form)
from .pages import (PageComputation, PageTable, d1_closed_form, reznikov_collapse,
                    window_collapse_page)
from .twisted import alexander_polynomial, bounds_report, minors_inequality, twisted_betti

__version__ = "0.1.0"
