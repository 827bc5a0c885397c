import pytest

from qhopf import (big_f, check_F_compat, coopposite, delta, gamma,
                   modify_antipode, op_cop, recover_modifier,
                   verify_quasi_bialgebra, verify_quasi_hopf,
                   verify_quasitriangular, random_invertible, random_twist,
                   rtwist_elements, twist)
from qhopf.errors import IncompatibleDatum, InternalInconsistency, NotInvertible
from qhopf.rng import SplitMix64
from qhopf.tensor import (SparseTensor, apply_legs, concat, invert, mul_all,
                          mult)

from oracle import (dense_gamma, dense_delta_elt, dense_big_f, dense_of,
                    delta_alt, gamma_alt)

from mutation import mutate


def test_gamma_delta_hopf_case(kz2, sw):
    # trivial associator with unit evaluation elements collapses everything
    for d in (kz2, sw):
        assert gamma(d) == d.unit_tensor(2)
        assert delta(d) == d.unit_tensor(2)
        assert big_f(d).F == d.unit_tensor(2)


def test_gamma_with_general_alpha_trivial_phi(sw):
    # keeping the trivial associator but scaling the evaluation element:
    # the first pairing element becomes alpha (x) alpha
    f = sw.field
    two = f.canon(2)
    alpha2 = SparseTensor.make(f, 1, 4, {(0,): two})
    half = f.inv(two)
    beta2 = SparseTensor.make(f, 1, 4, {(0,): half})
    d = sw.with_changes(alpha=alpha2, beta=beta2, R=None)
    assert verify_quasi_hopf(d).ok
    assert gamma(d) == concat(alpha2, alpha2)
    assert delta(d) == concat(beta2, beta2)


def test_gamma_agrees_with_alternative(fz2w, fz3w, dz2w, dz3w, sw_rebased,
                                       dz2_f5_rebased):
    for d in (fz2w, fz3w, dz2w, dz3w, sw_rebased, dz2_f5_rebased):
        assert gamma_alt(d) == gamma(d)
        assert delta_alt(d) == delta(d)


def test_gamma_delta_f_match_dense_oracle(fz2w, dz2w, dz3w, sw, sw_rebased,
                                         dz2_f5_rebased):
    # a twisted associator is not diagonal, so its contractions meet
    # entries from different blocks (the twist of D^w(Z3), with 631
    # entries, is out of the dense loops' reach)
    twisted = twist(dz2w, random_twist(dz2w, 0))
    for d in (fz2w, dz2w, dz3w, sw, sw_rebased, dz2_f5_rebased, twisted):
        g = gamma(d)
        assert dense_of(g) == dense_gamma(d)
        dl = delta(d)
        assert dense_of(dl) == dense_delta_elt(d)
        de = big_f(d)
        assert dense_of(de.F) == dense_big_f(d, dense_gamma(d))


def test_f_product_check(dz2w):
    de = big_f(dz2w)
    one2 = dz2w.unit_tensor(2)
    assert mult(de.F, de.F_inv, dz2w.algebra) == one2
    assert mult(de.F_inv, de.F, dz2w.algebra) == one2


def test_check_f_compat_all_examples(kz2, fz2w, fz3w, sw, dz2w, dz3w):
    for d in (kz2, fz2w, fz3w, sw, dz2w, dz3w):
        rep = check_F_compat(d)
        assert rep.ok, [c.name for c in rep.failures()]


def test_mutated_f_breaks_compat(dz2w):
    de = big_f(dz2w)
    from mutation import mutate_tensor
    bad_f = mutate_tensor(dz2w.field, de.F, SplitMix64(5))
    lhs = gamma(dz2w)
    rhs = mult(bad_f, dz2w.coproduct(dz2w.alpha), dz2w.algebra)
    assert lhs != rhs


def test_modify_antipode_identity(dz2w):
    assert modify_antipode(dz2w, dz2w.unit) == dz2w


def test_modify_antipode_round_trip(dz2w):
    x = random_invertible(dz2w, 7)
    x_inv = invert(x, dz2w.algebra)
    assert modify_antipode(modify_antipode(dz2w, x), x_inv) == dz2w


def test_modify_antipode_requires_invertible(dz2w):
    zero = SparseTensor.make(dz2w.field, 1, dz2w.dim, {})
    with pytest.raises(NotInvertible):
        modify_antipode(dz2w, zero)


def test_modified_datum_verifies(dz2w):
    for seed in range(4):
        x = random_invertible(dz2w, seed)
        dx = modify_antipode(dz2w, x)
        assert verify_quasi_hopf(dx).ok


def test_recover_modifier_round_trip(dz2w, sw):
    for d, seeds in ((dz2w, range(5)), (sw, range(3))):
        for seed in seeds:
            x = random_invertible(d, seed)
            dx = modify_antipode(d, x)
            assert recover_modifier(d, dx) == x


def test_recover_modifier_self_is_unit(dz2w):
    assert recover_modifier(dz2w, dz2w) == dz2w.unit


def test_recover_modifier_rejects_incompatible(dz2w, dz3w):
    with pytest.raises(IncompatibleDatum):
        recover_modifier(dz2w, dz3w)


def test_recover_modifier_rejects_unrelated_antipode(dz2w):
    bad = mutate(dz2w, "S", SplitMix64(2))
    with pytest.raises(InternalInconsistency):
        recover_modifier(dz2w, bad)


def test_transformation_laws(dz2w):
    # the modified pairing elements against their closed transforms
    alg = dz2w.algebra
    de = big_f(dz2w)
    for seed in range(10):
        x = random_invertible(dz2w, seed)
        x_inv = invert(x, alg)
        dx = modify_antipode(dz2w, x)
        dex = big_f(dx)
        assert dex.gamma == mult(concat(x, x), de.gamma, alg)
        assert dex.delta == mult(de.delta, concat(x_inv, x_inv), alg)
        assert dex.F == mul_all(alg, concat(x, x), de.F,
                                dz2w.coproduct(x_inv))


def test_coopposite_involution(fz2w, fz3w):
    for d in (fz2w, fz3w):
        dc = coopposite(d)
        assert verify_quasi_bialgebra(dc).ok
        assert verify_quasi_hopf(dc).ok
        assert coopposite(dc) == d


def test_coopposite_fixes_cocommutative_involutive_datum(f7, z2):
    # symmetric coproduct, trivial associator and involutive antipode leave
    # nothing for the coopposite construction to change
    from qhopf import Cocycle3, function_algebra
    d = function_algebra(z2, Cocycle3.trivial(z2, f7))
    assert coopposite(d) == d


def test_coopposite_f_transport(fz2w, dz2w):
    # the conjugating element formed in the coopposite datum is the image of
    # the original one under the doubled inverse antipode
    for d in (fz2w, dz2w.with_changes(R=None, v=None)):
        dc = coopposite(d)
        expect = apply_legs(big_f(d).F, [d.leg("Sinv"), d.leg("Sinv")])
        assert big_f(dc).F == expect


def test_op_cop_involution_and_layers(sw, dz2w, dz3w):
    for d in (sw, dz2w, dz3w):
        do = op_cop(d)
        assert verify_quasi_bialgebra(do).ok
        assert verify_quasi_hopf(do).ok
        assert verify_quasitriangular(do).ok
        assert op_cop(do) == d


def test_op_cop_swaps_evaluation_elements(kz2):
    do = op_cop(kz2)
    assert do.alpha == kz2.beta
    assert do.beta == kz2.alpha
    assert do.R == kz2.R


def test_op_cop_correspondence_table(sw, dz2w, dz3w):
    for d in (sw, dz2w, dz3w):
        a = rtwist_elements(d)
        b = rtwist_elements(op_cop(d))
        assert b.alpha_hat == a.beta_check
        assert b.beta_hat == a.alpha_check
        assert b.alpha_check == a.beta_hat
        assert b.beta_check == a.alpha_hat
        assert b.u_hat == a.u_check_inv
        assert b.u_check == a.u_hat_inv
