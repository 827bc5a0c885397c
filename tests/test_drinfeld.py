import pytest

from qhopf import (check_u_tilde, check_u_under_modification, drinfeld_u,
                   op_cop, random_invertible, u_tilde)
from qhopf.dsl import check_named, evaluate
from qhopf.errors import MissingR, NotInvertible
from qhopf.rng import SplitMix64
from qhopf.tensor import SparseTensor, invert, mult

from oracle import dense_drinfeld, dense_of

from mutation import mutate

# the characterizing properties of u, stated once as named corpus lines
DRINFELD_PROPS = ("counit_of_u", "antipode_square_is_u_conjugation",
                  "coproduct_of_u")


def test_u_trivial_r(kz2):
    # R = 1 (x) 1 on a group algebra: the canonical element is the unit
    assert drinfeld_u(kz2) == kz2.unit


def test_u_sweedler_closed_form(sw):
    # hand evaluation over the four basis elements: the R-matrix terms are
    # (1,1), (1,g), (g,1), (g,g) with weights 1/2, 1/2, 1/2, -1/2, and
    # sum S(t) s collapses to g
    u = drinfeld_u(sw)
    assert u == sw.basis(1)
    assert invert(u, sw.algebra) == sw.basis(1)


def test_u_matches_dense_oracle(sw, dz2w, dz3w, dz2_f5, sw_rebased,
                                dz2_f5_rebased):
    for d in (sw, dz2w, dz3w, dz2_f5, sw_rebased, dz2_f5_rebased):
        assert dense_of(drinfeld_u(d)) == dense_drinfeld(d)


def test_u_requires_r(fz2w):
    with pytest.raises(MissingR):
        drinfeld_u(fz2w)


def test_u_two_sided_inverse(dz3w):
    u = drinfeld_u(dz3w)
    u_inv = invert(u, dz3w.algebra)
    one = dz3w.unit_tensor(1)
    assert mult(u, u_inv, dz3w.algebra) == one
    assert mult(u_inv, u, dz3w.algebra) == one


@pytest.mark.parametrize("layer", ["S", "alpha"])
def test_u_is_built_where_it_is_singular(sw, layer):
    # u exists on any datum with an R-matrix; only inverting it may fail, and
    # an identity that never inverts u still evaluates
    bad = mutate(sw, layer, SplitMix64(3))
    u = drinfeld_u(bad)
    with pytest.raises(NotInvertible):
        invert(u, bad.algebra)
    assert evaluate("map[S](u) * u", bad) == mult(bad.antipode(u), u,
                                                  bad.algebra)


def test_drinfeld_props_all_examples(kz2, sw, dz2, dz2w, dz3, dz3w):
    for d in (kz2, sw, dz2, dz2w, dz3, dz3w):
        rep = check_named(d, DRINFELD_PROPS)
        assert rep.ok, [(c.name, c.witness) for c in rep.failures()]


def test_hopf_case_coproduct_of_u(sw):
    # trivial conjugating element: the formula reduces to the classical
    # coproduct law for the canonical element
    from qhopf.tensor import concat, flip
    u = drinfeld_u(sw)
    alg = sw.algebra
    rr_inv = mult(sw.r_inv, flip(sw.r_inv, 0, 1), alg)
    assert sw.coproduct(u) == mult(concat(u, u), rr_inv, alg)


def test_mutated_r_breaks_conjugation(sw, dz2w):
    # the conjugation check needs a noncommutative algebra to have teeth
    bad = mutate(sw, "R", SplitMix64(0))
    rep = check_named(bad, DRINFELD_PROPS)
    assert any(c.name == "antipode_square_is_u_conjugation"
               and c.status == "fail" for c in rep.checks)
    # on the commutative double the R-matrix layer itself catches any
    # single-coefficient change
    from qhopf import verify_quasitriangular
    for seed in range(6):
        bad = mutate(dz2w, "R", SplitMix64(seed))
        try:
            ok = verify_quasitriangular(bad).ok
        except Exception:
            ok = False
        assert not ok


def test_u_under_modification_identity(dz2w):
    assert check_u_under_modification(dz2w, dz2w.unit).ok


def test_u_under_modification_random(dz2w, sw):
    for d, n in ((dz2w, 10), (sw, 5)):
        for seed in range(n):
            x = random_invertible(d, seed)
            assert check_u_under_modification(d, x).ok


def test_u_under_central_fixed_modifier(kz2):
    # a central element fixed by the antipode leaves u unchanged
    f = kz2.field
    x = SparseTensor.make(f, 1, kz2.dim, {(0,): 3})
    from qhopf.derived import modify_antipode
    dx = modify_antipode(kz2, x)
    assert drinfeld_u(dx) == drinfeld_u(kz2)


def test_trivial_double_classical_coproduct_of_u(dz2, dz3):
    # untwisted doubles have trivial conjugating element, so the coproduct
    # law for u collapses to its classical form
    from qhopf.derived import big_f
    from qhopf.tensor import concat, flip
    for d in (dz2, dz3):
        assert big_f(d).F == d.unit_tensor(2)
        u = drinfeld_u(d)
        rr_inv = mult(d.r_inv, flip(d.r_inv, 0, 1), d.algebra)
        assert d.coproduct(u) == mult(concat(u, u), rr_inv, d.algebra)


def test_u_tilde_trivial_case(kz2):
    assert u_tilde(kz2) == kz2.unit


def test_u_tilde_consistency_and_antipode(sw, dz2, dz2w, dz3w):
    for d in (sw, dz2, dz2w, dz3w):
        ut = u_tilde(d)
        assert ut == drinfeld_u(op_cop(d))
        assert d.antipode(ut) == drinfeld_u(d)
        assert check_u_tilde(d).ok
