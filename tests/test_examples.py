from itertools import product as iproduct

import pytest

from qhopf import (Cocycle3, FiniteAbelianGroup, cocycle_for, cocycle_zn,
                   dpr_double, function_algebra, group_algebra, verify_quasi_bialgebra,
                   verify_quasi_hopf, verify_quasitriangular, is_ribbon)
from qhopf.errors import InternalInconsistency, NoSuchRoot
from qhopf.scalars import PrimeField, RationalField


def test_group_basics():
    g = FiniteAbelianGroup((2, 3))
    assert g.order == 6
    e = g.index(g.identity)
    for i in range(6):
        assert g.add_i(i, e) == i
        assert g.add_i(i, g.neg_i(i)) == e


def test_cocycle_z2_values(f7):
    w = cocycle_zn(2, 1, f7)
    # the only slot where the carry fires is (a, 1, 1); value (-1)^a
    assert w.value(1, 1, 1) == 6
    assert w.value(0, 1, 1) == 1
    for a, b, c in iproduct(range(2), repeat=3):
        if (a, b, c) != (1, 1, 1):
            assert w.value(a, b, c) == 1


def test_cocycle_trivial_when_q_zero(f7):
    w = cocycle_zn(2, 0, f7)
    assert w.is_trivial()


def test_cocycle_z3_identity_exhaustive(f7):
    # construction itself machine-checks all 81 quadruples; spot-check one
    w = cocycle_zn(3, 1, f7)
    g = w.group
    zeta = f7.root_of_unity(3)
    assert w.value(1, 2, 2) == zeta  # carry of 2+2 over 3 with a=1
    assert not w.is_trivial()


def test_cocycle_rejects_bad_table(f7):
    g = FiniteAbelianGroup((2,))
    table = {k: f7.one for k in iproduct(range(2), repeat=3)}
    table[(1, 1, 1)] = 3  # breaks the cocycle identity
    with pytest.raises(InternalInconsistency):
        Cocycle3(g, f7, table)


def test_cocycle_needs_root(z3):
    with pytest.raises(NoSuchRoot):
        cocycle_zn(3, 1, PrimeField(5))
    with pytest.raises(NoSuchRoot):
        cocycle_zn(3, 1, RationalField())


def test_function_algebra_layers(fz2w, fz3w):
    for d in (fz2w, fz3w):
        assert verify_quasi_bialgebra(d).ok
        assert verify_quasi_hopf(d).ok
        assert d.R is None


def test_function_algebra_trivial_cocycle(f7, z2):
    d = function_algebra(z2, Cocycle3.trivial(z2, f7))
    assert verify_quasi_hopf(d).ok
    from qhopf.derived import big_f
    assert big_f(d).F == d.unit_tensor(2)


def test_sign_associator_is_self_inverse(fz2w):
    # the nontrivial cocycle on Z2 takes values +-1, so the associator
    # squares to the unit cube and is its own inverse
    from qhopf.tensor import invert, mult
    assert mult(fz2w.phi, fz2w.phi, fz2w.algebra) == fz2w.unit_tensor(3)
    assert invert(fz2w.phi, fz2w.algebra) == fz2w.phi


def test_function_algebra_beta_mutation_breaks_duality(f7, z2):
    from qhopf.tensor import SparseTensor
    d = function_algebra(z2, cocycle_zn(2, 1, f7))
    # dropping the cocycle factor from the coevaluation element
    flat = SparseTensor.make(f7, 1, 2, {(0,): 1, (1,): 1})
    bad = d.with_changes(beta=flat)
    rep = verify_quasi_hopf(bad)
    names = {c.name for c in rep.failures()}
    assert names & {"duality_left", "duality_right"}


def test_doubles_pass_all_layers(dz2, dz2w, dz3, dz3w, dz2_f5):
    for d in (dz2, dz2w, dz3, dz3w, dz2_f5):
        assert verify_quasi_bialgebra(d).ok
        assert verify_quasi_hopf(d).ok
        assert verify_quasitriangular(d).ok
        assert d.metadata["kind"] == "dpr_double"
        assert "conventions" in d.metadata
        assert "blocks" in d.metadata


def test_double_blocks_are_orthogonal(dz3w):
    alg = dz3w.algebra
    blocks = dz3w.metadata["blocks"]
    for bi, block1 in enumerate(blocks):
        for bj, block2 in enumerate(blocks):
            if bi == bj:
                continue
            for i in block1:
                for j in block2:
                    assert not alg.vec_mul({i: dz3w.field.one},
                                           {j: dz3w.field.one})


def test_trivial_double_carries_closed_form_ribbon(dz2_f5, dz3):
    for d in (dz2_f5, dz3):
        assert d.v is not None
        assert d.metadata.get("closed_form_v")
        assert is_ribbon(d, d.v).ok


def test_closed_form_ribbon_is_checked(monkeypatch, z2, f5):
    # the closed form is pinned; the ribbon checks stay as a consistency
    # check on it
    from qhopf import ribbon
    from qhopf.report import CheckReport

    def failing(d, v):
        rep = CheckReport()
        rep.add_fail("ribbon_central")
        return rep

    monkeypatch.setattr(ribbon, "is_ribbon", failing)
    with pytest.raises(InternalInconsistency):
        dpr_double(z2, cocycle_for(z2, 0, f5))


def test_twisted_double_has_no_attached_ribbon(dz2w, dz3w):
    assert dz2w.v is None and dz3w.v is None


def test_sweedler_structure(sw):
    assert sw.dim == 4
    assert isinstance(sw.field, RationalField)
    assert verify_quasitriangular(sw).ok
    # x * g = -(g * x)
    xg = sw.mul(sw.basis(2), sw.basis(1))
    gx = sw.mul(sw.basis(1), sw.basis(2))
    assert xg.entries == {k: -v for k, v in gx.entries.items()}
    # x^2 = 0
    assert sw.mul(sw.basis(2), sw.basis(2)).is_zero()


def test_sweedler_f_is_unit(sw):
    from qhopf.derived import big_f
    assert big_f(sw).F == sw.unit_tensor(2)


def test_group_algebra_layers(kz2, f7):
    assert verify_quasitriangular(kz2).ok
    assert is_ribbon(kz2, kz2.v).ok
    z22 = FiniteAbelianGroup((2, 2))
    d = group_algebra(z22, f7, with_R=False)
    assert verify_quasi_hopf(d).ok
    assert d.R is None


def test_z2xz2_function_algebra(f7):
    g = FiniteAbelianGroup((2, 2))
    d = function_algebra(g, cocycle_for(g, 1, f7))
    assert verify_quasi_hopf(d).ok
