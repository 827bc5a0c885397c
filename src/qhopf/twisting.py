"""Twisting a quasi-Hopf datum by a counit-normalized invertible element of
the second tensor power, the transformation laws for the derived elements,
twist invariance of the canonical element, and the twist isomorphism from
the opposite-coopposite datum."""

from collections import namedtuple

from .derived import big_f, conjugation_sum, mirror_sum
from .drinfeld import drinfeld_u, u_tilde
from .errors import Exhausted, InvalidTwist, NotInvertible
from .report import CheckReport
from .rng import SplitMix64
from .tensor import (LEG_ID, SparseTensor, add, apply_legs, checked_inverse,
                     concat, flip, insert_leg, invert, mul_all, permute_legs,
                     scale, sub)


Twist = namedtuple("Twist", "T T_inv")


def make_twist(d, T, T_inv=None):
    """Validate the twist invariants: two-sided invertibility and exact
    counit normalization on both legs.  A supplied inverse must pass the
    product check that `invert` runs on the one it computes."""
    alg = d.algebra
    if T.arity != 2 or T.dim != d.dim:
        raise InvalidTwist("twist must live in the second tensor power")
    if T_inv is None:
        try:
            T_inv = invert(T, alg)
        except NotInvertible as exc:
            raise InvalidTwist("twist is not invertible: %s" % exc)
    else:
        try:
            checked_inverse(T, T_inv, alg)
        except NotInvertible:
            raise InvalidTwist("supplied inverse fails the product check")
    one = d.unit_tensor(1)
    if (apply_legs(T, [d.leg("eps"), LEG_ID]) != one
            or apply_legs(T, [LEG_ID, d.leg("eps")]) != one):
        raise InvalidTwist("counit normalization fails")
    return Twist(T=T, T_inv=T_inv)


def twist(d, tw):
    """The twisted datum: conjugated coproduct, transported associator,
    evaluation and coevaluation elements, and R-matrix, whose inverse is left
    to invert(); product, counit and antipode are untouched."""
    alg = d.algebra
    T, T_inv = tw.T, tw.T_inv
    delta_rows = {}
    for i in range(d.dim):
        row = mul_all(alg, T, d.coproduct(d.basis(i)), T_inv)
        if row.entries:
            delta_rows[i] = tuple(sorted(row.entries.items()))
    phi_t = mul_all(alg,
                    insert_leg(T, 0, d.unit),
                    apply_legs(T, [LEG_ID, d.leg("D")]),
                    d.phi,
                    apply_legs(T_inv, [d.leg("D"), LEG_ID]),
                    insert_leg(T_inv, 2, d.unit))
    phi_t_inv = mul_all(alg,
                        insert_leg(T, 2, d.unit),
                        apply_legs(T, [d.leg("D"), LEG_ID]),
                        d.phi_inv,
                        apply_legs(T_inv, [LEG_ID, d.leg("D")]),
                        insert_leg(T_inv, 0, d.unit))
    kw = dict(delta_rows=delta_rows, phi=phi_t, phi_inv=phi_t_inv,
              alpha=d.ev(T_inv), beta=d.coev(T))
    if d.R is not None:
        kw["R"] = mul_all(alg, flip(T, 0, 1), d.R, T_inv)
    return d.with_changes(**kw)


def random_twist(d, seed):
    """Deterministic pseudo-random twist: sample, project onto exact counit
    normalization, then walk lambda upward, mixing in the identity until the
    result is invertible.  The same seed always yields the same twist.
    Assumes the counit axioms, under which every candidate is normalized."""
    f = d.field
    if f.size is not None and f.size < 5:
        raise InvalidTwist("field too small for a useful random twist")
    rng = SplitMix64(seed)
    t0 = SparseTensor.make(f, 2, d.dim, {(i, j): f.sample(rng)
                                          for i in range(d.dim)
                                          for j in range(d.dim)})
    u1 = apply_legs(t0, [d.leg("eps"), LEG_ID])
    u2 = apply_legs(t0, [LEG_ID, d.leg("eps")])
    s = d.eps_of(u1)
    one2 = d.unit_tensor(2)
    t1 = add(sub(sub(t0, concat(d.unit, u1)), concat(u2, d.unit)),
             scale(one2, s + 1))
    limit = f.size if f.size is not None else 16
    tried = 0
    for k in range(limit):
        denom = f.canon(1 + k)
        if not denom:
            continue
        tried += 1
        cand = scale(add(t1, scale(one2, k)), f.inv(denom))
        try:
            return make_twist(d, cand)
        except InvalidTwist:
            continue
    raise Exhausted("no invertible normalized twist found for seed %d among "
                    "its %d candidates" % (seed, tried))


def random_invertible(d, seed):
    """Deterministic invertible element of the algebra itself (arity 1)."""
    f = d.field
    rng = SplitMix64(seed)
    for _ in range(64):
        x = SparseTensor.make(f, 1, d.dim, {(i,): f.sample(rng)
                                            for i in range(d.dim)})
        if x.is_zero():
            continue
        try:
            invert(x, d.algebra)
        except NotInvertible:
            continue
        return x
    raise Exhausted("no invertible element found for seed %d" % seed)


def check_twist_elements(d, tw):
    """The three transformation laws linking the pairing elements and the
    coproduct-conjugating element of the twisted datum to the original ones,
    and twist invariance of the canonical element.  Both sides are computed
    independently: the left sides from scratch in the twisted datum, built
    once, the right sides from the original derived elements.  Needs an
    R-matrix."""
    rep = CheckReport()
    alg = d.algebra
    S = d.leg("S")
    T, T_inv = tw.T, tw.T_inv
    dt = twist(d, tw)
    det = big_f(dt)
    de = big_f(d)

    dd = d.legs("D", "D")
    s_flip_inv = apply_legs(flip(T_inv, 0, 1), [S, S])

    lhs = mul_all(alg, apply_legs(flip(T, 0, 1), [S, S]), det.gamma, T)
    rep.compare("twisted_gamma_transform", lhs,
                conjugation_sum(d, apply_legs(T_inv, dd), de.gamma))
    lhs = mul_all(alg, T_inv, det.delta, s_flip_inv)
    rep.compare("twisted_delta_transform", lhs,
                mirror_sum(d, apply_legs(T, dd), de.delta))
    rep.compare("twisted_F_transform", det.F,
                mul_all(alg, s_flip_inv, de.F, T_inv))
    return rep.compare("u_twist_invariant", drinfeld_u(dt), drinfeld_u(d))


def opcop_twist_iso(d):
    """The antipode as an isomorphism from the opposite-coopposite datum to
    the twist by the scaled coproduct-conjugating element, including the
    corrected evaluation/coevaluation transport and the canonical-element
    consequence."""
    f = d.field
    de = big_f(d)
    eb = d.eps_of(d.beta)
    ea = d.eps_of(d.alpha)
    T = scale(de.F, eb)
    T_inv = scale(de.F_inv, f.inv(eb))

    one = d.unit_tensor(1)
    rep = CheckReport().compare_each("twist_counit_normalization", (
        (apply_legs(T, legs), one, {})
        for legs in (d.legs("eps", "id"), d.legs("id", "eps"))))
    if not rep.ok:
        return rep

    dt = twist(d, Twist(T=T, T_inv=T_inv))
    rep.compare_each("antipode_transports_coproduct", (
        (flip(apply_legs(d.coproduct(d.basis(i)), d.legs("S", "S")), 0, 1),
         dt.coproduct(d.antipode(d.basis(i))), {"basis": i})
        for i in range(d.dim)))
    rep.compare("antipode_transports_associator",
                apply_legs(permute_legs(d.phi, (2, 1, 0)), d.legs("S", "S", "S")),
                dt.phi)
    rep.compare("antipode_of_beta_is_twisted_alpha", d.antipode(d.beta),
                scale(dt.alpha, eb * eb))
    rep.compare("antipode_of_alpha_is_twisted_beta", d.antipode(d.alpha),
                scale(dt.beta, ea * ea))
    if d.R is not None:
        u_of_twist = drinfeld_u(dt)
        rep.compare("antipode_of_u_tilde_is_twisted_u", d.antipode(u_tilde(d)),
                    u_of_twist)
        rep.compare("twisted_u_is_u", u_of_twist, drinfeld_u(d))
    return rep
