"""The canonical element of a quasitriangular datum (the Drinfel'd element),
its characterizing properties, its behaviour under antipode modification,
and its counterpart in the opposite-coopposite datum."""

from collections import namedtuple

from .derived import big_f, modify_antipode, op_cop
from .errors import MissingR
from .report import CheckReport, witness_from
from .tensor import (apply_legs, concat, eq_witness, flip, invert, mul_all,
                     mult)


DrinfeldElements = namedtuple("DrinfeldElements", "u u_inv")


def drinfeld_u(d):
    """u and its inverse.  On a datum that passes `verify` u is invertible by
    theorem; elsewhere `invert` may raise NotInvertible."""
    def build():
        if d.R is None:
            raise MissingR("datum carries no R-matrix")
        w = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                   [[("S", ["y", d.beta, ("S", ["z"])])], ["x"]])
        u = d.hsum([(w, ("w", "x")), (d.R, ("s", "t"))],
                   [["w", ("S", ["t"]), d.alpha, "s", "x"]])
        return DrinfeldElements(u=u, u_inv=invert(u, d.algebra))
    return d.cache("drinfeld", build)


def check_drinfeld_props(d):
    """Counit value, conjugation to the antipode square, and the coproduct
    formula for the canonical element."""
    rep = CheckReport()
    alg = d.algebra
    f = d.field
    de = big_f(d)
    el = drinfeld_u(d)
    u = el.u

    val = d.eps_of(u)
    if val == f.one:
        rep.add_pass("counit_of_u")
    else:
        rep.add_fail("counit_of_u", {"index": [], "lhs": f.to_str(val), "rhs": "1"})

    bad = None
    for i in range(d.dim):
        lhs = d.antipode(d.antipode(d.basis(i)))
        rhs = mul_all(alg, u, d.basis(i), el.u_inv)
        diff = eq_witness(lhs, rhs)
        if diff is not None:
            bad = witness_from(diff, basis=i)
            break
    rep.add("antipode_square_is_u_conjugation", "fail" if bad else "pass", bad)

    rr_inv = mult(d.r_inv, flip(d.r_inv, 0, 1), alg)  # (R'R)^-1 = R^-1 R'^-1
    lhs = d.coproduct(u)
    rhs = mul_all(alg,
                  de.F_inv,
                  apply_legs(flip(de.F, 0, 1), [d.leg("S"), d.leg("S")]),
                  concat(u, u),
                  rr_inv)
    rep.add_diff("coproduct_of_u", eq_witness(lhs, rhs))
    return rep


def check_u_under_modification(d, x):
    """The canonical element of the x-modified datum against its predicted
    transform x S(x^-1) u."""
    rep = CheckReport()
    alg = d.algebra
    dx = modify_antipode(d, x)
    ux = drinfeld_u(dx).u
    x_inv = invert(x, alg)
    expected = mul_all(alg, x, d.antipode(x_inv), drinfeld_u(d).u)
    rep.add_diff("u_transform_under_modification", eq_witness(ux, expected))
    return rep


def u_tilde(d):
    """The canonical element of the opposite-coopposite datum, by its closed
    formula; `check_u_tilde` compares it with the from-scratch computation."""
    def build():
        if d.R is None:
            raise MissingR("datum carries no R-matrix")
        w = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                   [["z"], [("S", [("S", ["x"]), d.alpha, "y"])]])
        return d.hsum([(w, ("zz", "w")), (d.R, ("s", "t"))],
                      [["zz", "s", d.beta, ("S", ["t"]), "w"]])
    return d.cache("u_tilde", build)


def check_u_tilde(d):
    """The closed formula for u_tilde against the canonical element of the
    opposite-coopposite datum, and u = S(u_tilde)."""
    rep = CheckReport()
    ut = u_tilde(d)
    rep.add_diff("u_tilde_formula_vs_opcop",
                 eq_witness(ut, drinfeld_u(op_cop(d)).u))
    rep.add_diff("u_is_antipode_of_u_tilde",
                 eq_witness(drinfeld_u(d).u, d.antipode(ut)))
    return rep
