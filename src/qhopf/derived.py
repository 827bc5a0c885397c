"""Derived elements of a quasi-Hopf datum: the two pairing elements gamma
and delta, the coproduct-conjugating element F with its inverse, antipode
modification and recovery, and the coopposite / opposite-coopposite
constructions.

Every element here is written through four shapes, each stated once: the
datum's p_R and q_L (Hausser-Nill's sums over the inverse associator) and
contractions ev(t) = S(t1) alpha t2 and coev(t) = t1 beta S(t2), and this
module's conjugation sum and its mirror, whose inner sums for gamma and
delta are read off q_L and p_R.  The prefix rule: a shape stands only for a
left prefix of an output leg's product and no axiom is used, so writing a
sum through a shape changes no value, even on data that break associativity
or the antipode (p_L or q_R in `ribbon.rtwist_elements` would need S^-1 to
be anti-multiplicative).  Each element is built from one formula and nothing
is compared here: on a datum that passes `verify` the formulas hold by
theorem, and the identities they satisfy are stated once, as named lines of
the identity corpus (`corpus.txt`) that `check_F_compat` runs by name,
beside its check of the inverse formula.
"""

from collections import namedtuple

from .datum import cop_rows
from .dsl import check_named
from .errors import IncompatibleDatum, InternalInconsistency
from .report import CheckReport
from .tensor import apply_legs, invert, mult, permute_legs


DerivedElements = namedtuple("DerivedElements", "gamma delta F F_inv")


def gamma(d):
    """First pairing element."""
    return d.cache("gamma", lambda: conjugation_sum(
        d, apply_legs(d.phi, d.legs("id", "id", "D")),
        d.hsum([(d.q_l, ("a", "b"))], [["a"], [d.alpha, "b"]])))


def delta(d):
    """Second pairing element."""
    return d.cache("delta", lambda: mirror_sum(
        d, apply_legs(d.phi, d.legs("D", "id", "id")),
        d.hsum([(d.p_r, ("a", "b"))], [["a", d.beta], ["b"]])))


def conjugation_sum(d, a, y):
    """S(a2) y1 a3 (x) S(a1) y2 a4 over an arity-4 a and an arity-2 y: gamma,
    F and the twisted-gamma law."""
    sa = apply_legs(a, d.legs("S", "S", "id", "id"))
    return d.hsum([(sa, ("sa1", "sa2", "a3", "a4")), (y, ("y1", "y2"))],
                  [["sa2", "y1", "a3"], ["sa1", "y2", "a4"]])


def mirror_sum(d, a, y):
    """a1 y1 S(a4) (x) a2 y2 S(a3), the mirror of conjugation_sum: delta,
    F_inv and the twisted-delta law."""
    sa = apply_legs(a, d.legs("id", "id", "S", "S"))
    return d.hsum([(sa, ("a1", "a2", "sa3", "sa4")), (y, ("y1", "y2"))],
                  [["a1", "y1", "sa4"], ["a2", "y2", "sa3"]])


def big_f(d):
    """All four derived elements.  That F_inv inverts F is the check
    `F_inverse_formula` of `check_F_compat`."""
    def build():
        g = gamma(d)
        dl = delta(d)
        dd = d.legs("D", "D")
        F = conjugation_sum(d, apply_legs(d.p_r, dd), g)
        F_inv = mirror_sum(d, apply_legs(d.q_l, dd), dl)
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
    x, x_inv = d.coev(d_prime.q_l), d_prime.coev(d.q_l)
    one = d.unit_tensor(1)
    if d.mul(x, x_inv) != one or d.mul(x_inv, x) != one:
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
