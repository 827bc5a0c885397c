"""Derived elements of a quasi-Hopf datum: the two pairing elements gamma
and delta, the coproduct-conjugating element F with its inverse, antipode
modification and recovery, and the coopposite / opposite-coopposite
constructions.

The double sums defining gamma and delta are evaluated by first collapsing
the inner sum over one decomposition tensor into a small arity-2 tensor,
then contracting it against the other decomposition; cost stays proportional
to the product of the two supports instead of the sixth power of the
dimension.  Each element is built from one formula and nothing is compared
here: on a datum that passes `verify` the formulas hold by theorem, and the
identities they satisfy are stated once, as named lines of the identity
corpus (`corpus.txt`) that `check_F_compat` runs by name, beside its check
of the inverse formula.
"""

from collections import namedtuple

from .datum import cop_rows
from .dsl import check_named
from .errors import IncompatibleDatum, InternalInconsistency
from .report import CheckReport
from .tensor import LEG_ID, apply_legs, hom_sum, invert, mult, permute_legs


DerivedElements = namedtuple("DerivedElements", "gamma delta F F_inv")


def gamma(d):
    """First pairing element."""
    return d.cache("gamma", lambda: _gamma_main(d))


def delta(d):
    """Second pairing element."""
    return d.cache("delta", lambda: _delta_main(d))


def _gamma_main(d):
    g0 = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                [[("S", ["x"]), d.alpha, "y"], [d.alpha, "z"]])
    p = apply_legs(d.phi, [d.leg("S"), d.leg("S"), d.leg("D")])
    return d.hsum([(p, ("sx", "sy", "z1", "z2")), (g0, ("g1", "g2"))],
                  [["sy", "g1", "z1"], ["sx", "g2", "z2"]])


def _delta_main(d):
    d0 = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                [["x", d.beta], ["y", d.beta, ("S", ["z"])]])
    p = apply_legs(d.phi, [d.leg("D"), d.leg("S"), d.leg("S")])
    return d.hsum([(p, ("x1", "x2", "sy", "sz")), (d0, ("d1", "d2"))],
                  [["x1", "d1", "sz"], ["x2", "d2", "sy"]])


def big_f(d):
    """All four derived elements.  That F_inv inverts F is the check
    `F_inverse_formula` of `check_F_compat`."""
    def build():
        g = gamma(d)
        dl = delta(d)
        w = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                   [["x"], ["y", d.beta, ("S", ["z"])]])
        w2 = apply_legs(apply_legs(w, [d.leg("D"), d.leg("D")]),
                        [d.leg("S"), d.leg("S"), LEG_ID, LEG_ID])
        F = d.hsum([(w2, ("sx1", "sx2", "w1", "w2")), (g, ("g1", "g2"))],
                   [["sx2", "g1", "w1"], ["sx1", "g2", "w2"]])
        v = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                   [[("S", ["x"]), d.alpha, "y"], ["z"]])
        v2 = apply_legs(apply_legs(v, [d.leg("D"), d.leg("D")]),
                        [LEG_ID, LEG_ID, d.leg("S"), d.leg("S")])
        F_inv = d.hsum([(v2, ("w1", "w2", "sz1", "sz2")), (dl, ("d1", "d2"))],
                       [["w1", "d1", "sz2"], ["w2", "d2", "sz1"]])
        return DerivedElements(gamma=g, delta=dl, F=F, F_inv=F_inv)
    return d.cache("big_f", build)


def check_F_compat(d):
    """The five compatibility identities tying F to the coproduct, the
    antipode and the associator: that F_inv inverts F, then four that the
    identity corpus states."""
    de = big_f(d)
    one2 = d.unit_tensor(2)
    rep = CheckReport().compare_each("F_inverse_formula", (
        (mult(a, b, d.algebra), one2, {})
        for a, b in ((de.F, de.F_inv), (de.F_inv, de.F))))
    return rep.extend(check_named(d, ("gamma_is_F_times_coproduct_alpha",
                                      "delta_is_coproduct_beta_times_F_inv",
                                      "antipode_coproduct_conjugation",
                                      "antipode_associator_transport")))


# ----- antipode modification ------------------------------------------------


def modify_antipode(d, x):
    """Replace the antipode triple by its conjugate under an invertible x."""
    alg = d.algebra
    x_inv = invert(x, alg)
    xd = {i: c for (i,), c in x.entries.items()}
    xi = {i: c for (i,), c in x_inv.entries.items()}
    s_rows = {}
    for i in range(d.dim):
        row = alg.vec_mul(xd, {j: c for j, c in d.s_rows.get(i, ())})
        row = alg.vec_mul(row, xi)
        if row:
            s_rows[i] = tuple(sorted(row.items()))
    return d.with_changes(s_rows=s_rows,
                          alpha=mult(x, d.alpha, alg),
                          beta=mult(d.beta, x_inv, alg))


def recover_modifier(d, d_prime):
    """Reconstruct the invertible element linking two antipode triples on
    the same underlying quasi-bialgebra."""
    same = (d.field == d_prime.field and d.dim == d_prime.dim
            and d.algebra.struct == d_prime.algebra.struct
            and d.algebra.unit_coeffs == d_prime.algebra.unit_coeffs
            and d.delta_rows == d_prime.delta_rows
            and d.eps == d_prime.eps and d.phi == d_prime.phi)
    if not same:
        raise IncompatibleDatum(
            "the two data do not share algebra, coproduct, counit and associator")
    alg = d.algebra
    legs = {"S": d.leg("S"), "Sp": d_prime.leg("S")}.__getitem__
    x = hom_sum(alg, legs, [(d.phi_inv, ("x", "y", "z"))],
                [[("Sp", ["x"]), d_prime.alpha, "y", d.beta, ("S", ["z"])]])
    x_inv = hom_sum(alg, legs, [(d.phi_inv, ("x", "y", "z"))],
                    [[("S", ["x"]), d.alpha, "y", d_prime.beta, ("Sp", ["z"])]])
    one = d.unit_tensor(1)
    if mult(x, x_inv, alg) != one or mult(x_inv, x, alg) != one:
        raise InternalInconsistency(
            "the recovered modifier is not invertible by its own inverse "
            "formula; the inputs are not antipode variants of each other")
    modified = modify_antipode(d, x)
    if (modified.s_rows != d_prime.s_rows or modified.alpha != d_prime.alpha
            or modified.beta != d_prime.beta):
        raise InternalInconsistency(
            "the recovered modifier does not transform one antipode triple "
            "into the other")
    return x


# ----- coopposite and opposite-coopposite -----------------------------------


def coopposite(d):
    """Reverse the coproduct; the associator becomes the reversed inverse,
    the antipode its inverse, and the (co)evaluation elements move through
    the inverse antipode.  The R-matrix and ribbon layers are not carried
    over."""
    alpha = apply_legs(d.alpha, [d.leg("Sinv")])
    beta = apply_legs(d.beta, [d.leg("Sinv")])
    return d.with_changes(delta_rows=cop_rows(d.delta_rows),
                          phi=permute_legs(d.phi_inv, (2, 1, 0)),
                          phi_inv=permute_legs(d.phi, (2, 1, 0)),
                          s_rows=d.s_inv_rows, alpha=alpha, beta=beta,
                          R=None, v=None)


def op_cop(d):
    """Reverse both the product and the coproduct; the antipode and counit
    survive unchanged, the associator is reversed, evaluation and
    coevaluation swap roles, and the R-matrix is kept."""
    struct_op = {(j, i): terms for (i, j), terms in d.algebra.struct.items()}
    return d.with_changes(product=struct_op,
                          delta_rows=cop_rows(d.delta_rows),
                          phi=permute_legs(d.phi, (2, 1, 0)),
                          phi_inv=permute_legs(d.phi_inv, (2, 1, 0)),
                          alpha=d.beta, beta=d.alpha)
