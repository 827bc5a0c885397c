"""The canonical element of a quasitriangular datum (the Drinfel'd element),
its behaviour under antipode modification, and its counterpart in the
opposite-coopposite datum.  Its characterizing properties (counit value,
conjugation to the antipode square, coproduct formula) are named lines of
the identity corpus."""

from .datum import MISSING
from .derived import modify_antipode, op_cop
from .dsl import check_named
from .errors import MissingR
from .report import CheckReport
from .tensor import invert, mul_all


def drinfeld_u(d):
    """The canonical element u = S(p2) S(R2) alpha R1 p1.  On a datum that
    passes `verify` u is invertible by theorem; elsewhere it need not be."""
    def build():
        if d.R is None:
            raise MissingR(MISSING["R"])
        return d.hsum([(d.p_r, ("p1", "p2")), (d.R, ("s", "t"))],
                      [[("S", ["p2"]), ("S", ["t"]), d.alpha, "s", "p1"]])
    return d.cache("drinfeld", build)


def check_u_under_modification(d, x):
    """The canonical element of the x-modified datum against its predicted
    transform x S(x^-1) u."""
    alg = d.algebra
    ux = drinfeld_u(modify_antipode(d, x))
    expected = mul_all(alg, x, d.antipode(invert(x, alg)), drinfeld_u(d))
    return CheckReport().compare("u_transform_under_modification", ux, expected)


def u_tilde(d):
    """The canonical element of the opposite-coopposite datum, by its closed
    formula; `check_u_tilde` compares it with the from-scratch computation."""
    def build():
        if d.R is None:
            raise MissingR(MISSING["R"])
        return d.hsum([(d.q_l, ("q1", "q2")), (d.R, ("s", "t"))],
                      [["q2", "s", d.beta, ("S", ["t"]), ("S", ["q1"])]])
    return d.cache("u_tilde", build)


def check_u_tilde(d):
    """The closed formula for u_tilde against the canonical element of the
    opposite-coopposite datum, and u = S(u_tilde)."""
    rep = CheckReport().compare("u_tilde_formula_vs_opcop", u_tilde(d),
                                drinfeld_u(op_cop(d)))
    return rep.extend(check_named(d, ("u_is_antipode_of_u_tilde",)))
