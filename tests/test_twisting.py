import pytest

from qhopf import (check_twist_elements, drinfeld_u, make_twist,
                   opcop_twist_iso, random_twist, twist,
                   verify_quasi_bialgebra, verify_quasi_hopf,
                   verify_quasitriangular)
from qhopf.errors import InvalidTwist
from qhopf.tensor import LEG_ID, SparseTensor, apply_legs, invert, scale


def test_identity_twist_is_noop(dz2w, sw):
    for d in (dz2w, sw):
        tw = make_twist(d, d.unit_tensor(2))
        assert twist(d, tw) == d


def test_make_twist_rejects_unnormalized(sw):
    bad = scale(sw.unit_tensor(2), 2)
    with pytest.raises(InvalidTwist):
        make_twist(sw, bad)


def test_make_twist_rejects_singular(sw):
    f = sw.field
    t = SparseTensor.make(f, 2, 4, {(0, 2): f.one})
    with pytest.raises(InvalidTwist):
        make_twist(sw, t)


def test_make_twist_rejects_a_wrong_supplied_inverse(sw):
    tw = random_twist(sw, 0)
    assert make_twist(sw, tw.T, tw.T_inv).T_inv == tw.T_inv
    with pytest.raises(InvalidTwist, match="supplied inverse"):
        make_twist(sw, tw.T, scale(tw.T_inv, 2))


def test_random_twist_deterministic(sw, dz3w):
    for d in (sw, dz3w):
        t1 = random_twist(d, 42)
        t2 = random_twist(d, 42)
        assert t1.T == t2.T and t1.T_inv == t2.T_inv
        assert random_twist(d, 43).T != t1.T


def test_random_twist_normalized(sw, dz2w):
    for d in (sw, dz2w):
        for seed in range(5):
            tw = random_twist(d, seed)
            one = d.unit_tensor(1)
            assert apply_legs(tw.T, [d.leg("eps"), LEG_ID]) == one
            assert apply_legs(tw.T, [LEG_ID, d.leg("eps")]) == one
            assert invert(tw.T, d.algebra) == tw.T_inv


def test_twisted_datum_verifies(sw, dz2w):
    for d, seeds in ((sw, range(6)), (dz2w, range(4))):
        for seed in seeds:
            dt = twist(d, random_twist(d, seed))
            assert verify_quasi_bialgebra(dt).ok
            assert verify_quasi_hopf(dt).ok
            assert verify_quasitriangular(dt).ok


def test_twisted_dim9_verifies_once(dz3w):
    dt = twist(dz3w, random_twist(dz3w, 1))
    assert verify_quasi_bialgebra(dt).ok
    assert verify_quasi_hopf(dt).ok
    assert verify_quasitriangular(dt).ok


def test_twist_round_trip(dz2w):
    # twisting by T then by the pushed-forward inverse recovers the datum
    tw = random_twist(dz2w, 9)
    dt = twist(dz2w, tw)
    back = make_twist(dt, tw.T_inv, tw.T)
    assert twist(dt, back) == dz2w


def test_twisting_hopf_case_nontrivial_phi(f7, z3):
    # a generic twist of a group algebra with trivial associator produces a
    # nontrivial one while the pentagon keeps holding
    from qhopf import group_algebra
    d = group_algebra(z3, f7, with_R=True)
    hit = False
    for seed in range(8):
        tw = random_twist(d, seed)
        dt = twist(d, tw)
        assert verify_quasi_bialgebra(dt).ok
        hit = hit or dt.phi != d.unit_tensor(3)
    assert hit


def test_twisting_z2_group_algebra_degenerates(f7, z2):
    # on the two-dimensional group algebra the counit normalization forces
    # every twisted associator to collapse to the unit cube exactly
    from qhopf import group_algebra
    d = group_algebra(z2, f7, with_R=True)
    for seed in range(6):
        dt = twist(d, random_twist(d, seed))
        assert dt.phi == d.unit_tensor(3)


TWIST_CHECKS = ["twisted_gamma_transform", "twisted_delta_transform",
                "twisted_F_transform", "u_twist_invariant"]


def test_twist_transformation_laws(sw, dz2w):
    for d, seeds in ((sw, range(8)), (dz2w, range(5))):
        for seed in seeds:
            tw = random_twist(d, seed)
            rep = check_twist_elements(d, tw)
            assert rep.ok, [(c.name, c.witness) for c in rep.failures()]
            assert [c.name for c in rep.checks] == TWIST_CHECKS


def test_u_twist_invariance(sw, dz2w):
    for d, seeds in ((sw, range(8)), (dz2w, range(5))):
        for seed in seeds:
            dt = twist(d, random_twist(d, seed))
            assert drinfeld_u(dt) == drinfeld_u(d)


def test_twist_identity_twist_trivial_checks(dz2w):
    tw = make_twist(dz2w, dz2w.unit_tensor(2))
    assert check_twist_elements(dz2w, tw).ok


def test_ribbon_survives_twisting(dz2_f5):
    # the attached ribbon candidate stays valid in the twisted datum
    from qhopf import is_ribbon
    tw = random_twist(dz2_f5, 3)
    dt = twist(dz2_f5, tw)
    assert dt.v == dz2_f5.v
    assert is_ribbon(dt, dt.v).ok


def test_opcop_twist_iso(sw, kz2, dz2, dz2w, dz3, dz3w):
    for d in (sw, kz2, dz2, dz2w, dz3, dz3w):
        rep = opcop_twist_iso(d)
        assert rep.ok, [(c.name, c.witness) for c in rep.failures()]
