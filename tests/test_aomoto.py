import random

import pytest

from ess.aomoto import UniversalAomoto, aomoto_betti, aomoto_specialize, universal_aomoto
from ess.builtins import builtin_complex
from ess.coeffs import FieldDescriptor
from ess.complexes import GroupHom, base_change, betti_numbers, change_field
from ess.errors import MinimalityError, ValidationError
from ess.groupring import GroupDescriptor
from ess.pages import PageComputation

Q = FieldDescriptor.rationals()
GZ = GroupDescriptor.free_abelian(1)
G2 = GroupDescriptor.free_abelian(2)
G3 = GroupDescriptor.free_abelian(3)


def to_z(name, field=Q):
    C = change_field(builtin_complex(name), field)
    if C.group == GZ:
        return C
    return base_change(C, GroupHom(C.group, GZ, [[1]] * C.group.n))


def test_torus_beta_vanishes():
    for name in ("torus2", "torus3"):
        beta = aomoto_betti(to_z(name))["beta"]
        assert all(b == 0 for b in beta), (name, beta)


def test_comm_p_beta():
    for p in (3, 5):
        Fp = FieldDescriptor.prime_field(p)
        C = change_field(builtin_complex(f"comm-p:{p}"), Fp)
        assert aomoto_betti(C)["beta"][1] == 1


def test_torsfree_beta3_vanishes_mod_2():
    C = change_field(builtin_complex("torsfree"), FieldDescriptor.prime_field(2))
    assert aomoto_betti(C)["beta"][3] == 0


def test_beta_requires_group_z():
    with pytest.raises(ValidationError):
        aomoto_betti(change_field(builtin_complex("wedge2"), Q))


def test_beta_page_independence():
    # beta_q = dim E^2_{-p, q+p} for every p >= 1
    for name in ("torus2", "zxf2", "comm-p:3"):
        C = to_z(name)
        comp = PageComputation(C, R_max=2, S_max=3)
        page2 = comp.page(2)
        beta = aomoto_betti(C)["beta"]
        for q in range(C.top + 1):
            for p in (1, 2, 3):
                assert page2.dim(p, q) == beta[q], (name, q, p)


def test_beta_euler_characteristic_preserved():
    for name in ("torus2", "zxf2", "comm-p:3", "torsfree"):
        C = to_z(name)
        beta = aomoto_betti(C)["beta"]
        b = betti_numbers(C)
        chi_beta = sum((-1) ** q * x for q, x in enumerate(beta))
        chi_b = sum((-1) ** q * x for q, x in enumerate(b))
        assert chi_beta == chi_b, name


def test_universal_aomoto_torus2():
    U = universal_aomoto(change_field(builtin_complex("torus2"), Q))
    mats = U.to_json()["differentials"]
    assert mats[0] == [["e1"], ["e2"]]
    assert mats[1] == [["-e2", "e1"]]


def test_universal_rejects_d_squared_nonzero():
    """Doubling an entry of D^1 of torus2 breaks D^1 D^0 = 0 (e1 e2 - e2 e1):
    the constructor names d_1 o d_2, whose linearizations D^0 and D^1 are."""
    U = universal_aomoto(change_field(builtin_complex("torus2"), Q))
    mats = [[list(row) for row in D] for D in U.matrices]
    mats[1][0][1] = mats[1][0][1] * 2
    with pytest.raises(ValidationError, match="d_1 o d_2"):
        UniversalAomoto(U.n, U.field, mats, U.dims)
    UniversalAomoto(U.n, U.field, U.matrices, U.dims)


def test_universal_d0_row_is_variable_vector():
    U = universal_aomoto(change_field(builtin_complex("torus3"), Q))
    assert U.to_json()["differentials"][0] == [["e1"], ["e2"], ["e3"]]


def test_universal_rejects_nonminimal():
    with pytest.raises(MinimalityError, match="q=2"):
        universal_aomoto(change_field(builtin_complex("minimal-check"), Q))
    with pytest.raises(MinimalityError):
        universal_aomoto(change_field(builtin_complex("trefoil"), Q))


def test_specialize_at_zero_gives_betti():
    C = change_field(builtin_complex("torus2"), Q)
    U = universal_aomoto(C)
    assert aomoto_specialize(U, [0, 0]) == betti_numbers(C)


def test_specialize_torus_diagonal():
    U = universal_aomoto(change_field(builtin_complex("torus2"), Q))
    assert aomoto_specialize(U, [1, 1]) == [0, 0, 0]


def test_specialize_lyndon6_diagonal():
    # the minimal one-relator complex of the non-prime-power family
    C = change_field(builtin_complex("lyndon:6"), Q)
    assert C.is_minimal()
    U = universal_aomoto(C)
    assert aomoto_specialize(U, [1, 1])[1] == 0


def test_route_agreement_random_directions():
    import math

    C = change_field(builtin_complex("torus3"), Q)
    U = universal_aomoto(C)
    rng = random.Random(55)
    done = 0
    while done < 8:
        z = [rng.randint(-4, 4) for _ in range(3)]
        if z == [0, 0, 0] or math.gcd(*z) != 1:
            continue
        Cz = base_change(C, GroupHom(G3, GZ, [[x] for x in z]))
        assert aomoto_specialize(U, z) == aomoto_betti(Cz)["beta"], z
        done += 1


def test_specialize_length_mismatch():
    from ess.errors import InputError

    U = universal_aomoto(change_field(builtin_complex("torus2"), Q))
    with pytest.raises(InputError):
        aomoto_specialize(U, [1, 2, 3])
