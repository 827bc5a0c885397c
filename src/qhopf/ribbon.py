"""Viewing the R-matrix (and the inverse of its flip) as twists onto the
coopposite coproduct yields two families of evaluation data and two
invertible comparison elements.  This module computes them, checks the
identities connecting them to the canonical element, verifies ribbon
candidates, and searches for ribbon elements."""

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct

from . import linalg
from .drinfeld import drinfeld_u
from .errors import BudgetExceeded, NotInvertible, ShapeError, ShapeMismatch
from .report import CheckReport, witness_from
from .tensor import (SparseTensor, add, apply_legs, concat, eq_witness, flip,
                     invert, mult, scale)


@dataclass
class RTwistElements:
    alpha_hat: SparseTensor
    beta_hat: SparseTensor
    alpha_check: SparseTensor
    beta_check: SparseTensor
    u_hat: SparseTensor
    u_hat_inv: SparseTensor
    u_check: SparseTensor
    u_check_inv: SparseTensor


@dataclass
class RibbonCandidate:
    v: SparseTensor
    provenance: str  # user | closed-form | solver


@dataclass
class RibbonSearch:
    candidates: list
    region: str


def rtwist_elements(d):
    """All eight elements arising from the two R-twists.  Nothing is checked
    here: the inverse formulas and comparison relations hold by theorem on a
    datum that passes `verify`, and the identity corpus states the
    comparison relations."""
    def build():
        R, R_inv = d.R, d.r_inv
        alpha_hat = d.hsum([(R_inv, ("s", "t"))], [[("S", ["s"]), d.alpha, "t"]])
        beta_hat = d.hsum([(R, ("s", "t"))], [["s", d.beta, ("S", ["t"])]])
        alpha_check = d.hsum([(R, ("s", "t"))], [[("S", ["t"]), d.alpha, "s"]])
        beta_check = d.hsum([(R_inv, ("s", "t"))], [["t", d.beta, ("S", ["s"])]])

        def comparison(ev):
            return d.hsum([(d.phi, ("x", "y", "z"))],
                          [[("S", ["z"]), ev, "y",
                            ("Sinv", [d.beta]), ("Sinv", ["x"])]])

        def comparison_inv(coev):
            return d.hsum([(d.phi, ("x", "y", "z"))],
                          [[("Sinv", ["z"]), ("Sinv", [d.alpha]), "y",
                            coev, ("S", ["x"])]])

        u_hat = comparison(alpha_hat)
        u_hat_inv = comparison_inv(beta_hat)
        u_check = comparison(alpha_check)
        u_check_inv = comparison_inv(beta_check)
        return RTwistElements(alpha_hat=alpha_hat, beta_hat=beta_hat,
                              alpha_check=alpha_check, beta_check=beta_check,
                              u_hat=u_hat, u_hat_inv=u_hat_inv,
                              u_check=u_check, u_check_inv=u_check_inv)
    return d.cache("rtwist", build)


def check_rtwist_relations(d):
    """Cross relations between the two twist families and the canonical
    element."""
    rep = CheckReport()
    alg = d.algebra
    el = rtwist_elements(d)
    u = drinfeld_u(d).u
    sinv = d.leg("Sinv")

    def sinv_of(t):
        return apply_legs(t, [sinv])

    add = rep.add_diff
    add("inv_antipode_of_alpha_check",
        eq_witness(sinv_of(el.alpha_check), mult(el.u_hat_inv, d.alpha, alg)))
    add("inv_antipode_of_alpha_hat",
        eq_witness(sinv_of(el.alpha_hat), mult(el.u_check_inv, d.alpha, alg)))
    add("inv_antipode_of_beta_check",
        eq_witness(sinv_of(el.beta_check), mult(d.beta, el.u_hat, alg)))
    add("inv_antipode_of_beta_hat",
        eq_witness(sinv_of(el.beta_hat), mult(d.beta, el.u_check, alg)))
    add("u_equals_u_check", eq_witness(u, el.u_check))
    add("u_equals_antipode_of_u_hat_inv",
        eq_witness(u, d.antipode(el.u_hat_inv)))
    add("alpha_check_is_antipode_alpha_times_u",
        eq_witness(el.alpha_check, mult(d.antipode(d.alpha), u, alg)))
    add("u_hat_inv_is_inv_antipode_of_u_check",
        eq_witness(mult(el.u_hat, sinv_of(el.u_check), alg), d.unit_tensor(1)))
    return rep


# ----- ribbon elements ------------------------------------------------------


def is_ribbon(d, v):
    """The defining checks of a ribbon element plus the derived counit and
    invertibility consequences."""
    if v.arity != 1 or v.dim != d.dim:
        raise ShapeMismatch("ribbon candidate must be an element of the algebra")
    rep = CheckReport()
    alg = d.algebra
    f = d.field

    if v.is_zero():
        rep.add_fail("ribbon_nonzero", {"reason": "candidate is zero"})
        return rep
    rep.add_pass("ribbon_nonzero")

    bad = None
    for i in range(d.dim):
        diff = eq_witness(mult(v, d.basis(i), alg), mult(d.basis(i), v, alg))
        if diff is not None:
            bad = witness_from(diff, basis=i)
            break
    rep.add("ribbon_central", "fail" if bad else "pass", bad)

    rr = mult(flip(d.R, 0, 1), d.R, alg)
    diff = eq_witness(d.coproduct(v), mult(rr, concat(v, v), alg))
    rep.add_diff("ribbon_coproduct", diff)

    rep.add_diff("ribbon_antipode_fixed", eq_witness(d.antipode(v), v))

    val = d.eps_of(v)
    if val == f.one:
        rep.add_pass("ribbon_counit")
    else:
        rep.add_fail("ribbon_counit",
                     {"index": [], "lhs": f.to_str(val), "rhs": "1"})
    try:
        invert(v, alg)
        rep.add_pass("ribbon_invertible")
    except NotInvertible as exc:
        rep.add_fail("ribbon_invertible", {"reason": str(exc)})
    return rep


def check_ribbon_lemma(d, v):
    """The square of the ribbon element moves one twist family's evaluation
    data onto the other's."""
    rep = CheckReport()
    alg = d.algebra
    el = rtwist_elements(d)
    v2 = mult(v, v, alg)
    rep.add_diff("ribbon_square_times_alpha_check",
                 eq_witness(mult(v2, el.alpha_check, alg), el.alpha_hat))
    rep.add_diff("ribbon_square_times_beta_hat",
                 eq_witness(mult(v2, el.beta_hat, alg), el.beta_check))
    return rep


def check_main_theorem(d, v):
    """The inverse square of the ribbon element equals u S(u), and the
    intermediate identity expressing the square through the two comparison
    elements."""
    rep = CheckReport()
    alg = d.algebra
    try:
        v_inv = invert(v, alg)
        rep.add_pass("ribbon_invertible")
    except NotInvertible as exc:
        rep.add_fail("ribbon_invertible", {"reason": str(exc)})
        return rep
    u = drinfeld_u(d).u
    lhs = mult(v_inv, v_inv, alg)
    rhs = mult(u, d.antipode(u), alg)
    rep.add_diff("ribbon_inverse_square_is_u_Su", eq_witness(lhs, rhs))
    el = rtwist_elements(d)
    rhs = mult(el.u_hat, el.u_check_inv, alg)
    rep.add_diff("ribbon_square_is_uhat_ucheck_inv", eq_witness(mult(v, v, alg), rhs))
    return rep


def center(d):
    """Basis of the center, from the nullspace of the stacked commutator
    system; exact and deterministic."""
    f = d.field
    n = d.dim
    alg = d.algebra
    rows = []
    for i in range(n):
        for k in range(n):
            row = {}
            for j in range(n):
                c = f.zero
                for kk, cv in alg.struct.get((j, i), ()):
                    if kk == k:
                        c = f.add(c, cv)
                for kk, cv in alg.struct.get((i, j), ()):
                    if kk == k:
                        c = f.sub(c, cv)
                if not f.is_zero(c):
                    row[j] = c
            rows.append(row)
    basis = linalg.nullspace(f, rows, n)
    return [SparseTensor.make(f, 1, n, {(j,): c for j, c in enumerate(vec)})
            for vec in basis]


def find_ribbon(d, budget, method="auto"):
    """All ribbon elements found inside the searched region, each verified
    by the defining checks before being returned.

    The search space is cut by the necessary condition that the square of a
    ribbon element equals the inverse of u S(u).  With a tagged orthogonal
    block decomposition the square roots are found blockwise; otherwise the
    span of the center is enumerated when the field is small enough."""
    f = d.field
    alg = d.algebra
    u = drinfeld_u(d).u
    c = invert(mult(u, d.antipode(u), alg), alg)
    blocks = d.metadata.get("blocks") if method in ("auto", "blocks") else None
    if method == "blocks" and not blocks:
        raise BudgetExceeded("no block decomposition available", required=None)
    if blocks:
        _check_blocks(d, blocks)
        roots, region = _block_roots(d, c, blocks, budget)
    else:
        roots, region = _enumerate_center_roots(d, c, budget)
    out = []
    seen = set()
    for v in roots:
        key = tuple(v.sorted_items())
        if key in seen:
            continue
        seen.add(key)
        if is_ribbon(d, v).ok:
            out.append(RibbonCandidate(v=v, provenance="solver"))
    out.sort(key=lambda cand: tuple(cand.v.sorted_items()))
    return RibbonSearch(candidates=out, region=region)


def _check_blocks(d, blocks):
    """Raise ShapeError unless the metadata blocks partition the basis into
    unions of the algebra's own blocks.  Only then do elements of different
    metadata blocks multiply to zero, which blockwise root finding needs to
    find every root."""
    bad = ShapeError("metadata blocks must partition the basis indices "
                     "0..%d" % (d.dim - 1))
    if not isinstance(blocks, list) or not all(isinstance(b, list)
                                               for b in blocks):
        raise bad
    label = {}
    for n, block in enumerate(blocks):
        for i in block:
            if type(i) is not int or not 0 <= i < d.dim or i in label:
                raise bad
            label[i] = n
    if len(label) != d.dim:
        raise bad
    for members in d.algebra.blocks:
        if len({label[i] for i in members}) > 1:
            raise ShapeError("metadata blocks split the product block %r"
                             % list(members))


def _block_roots(d, c, blocks, budget):
    f = d.field
    if f.size is None:
        raise BudgetExceeded("blockwise enumeration needs a finite field",
                             required=None)
    alg = d.algebra
    per_block = []
    total = 0
    for block in blocks:
        block = list(block)
        total += f.size ** len(block)
        if total > budget:
            raise BudgetExceeded(
                "block enumeration needs %d points, budget is %d"
                % (total, budget), required=total)
        c_block = SparseTensor.make(
            f, 1, d.dim, {k: v for k, v in c.entries.items() if k[0] in block})
        roots = _square_roots(alg, [d.basis(i) for i in block], c_block)
        if not roots:
            return [], "blockwise, %d points, no square root in a block" % total
        per_block.append(roots)
    combos = 1
    for roots in per_block:
        combos *= len(roots)
    if combos > budget:
        raise BudgetExceeded("combining block roots needs %d candidates"
                             % combos, required=combos)
    out = []
    for pick in iproduct(*per_block):
        entries = {}
        for part in pick:
            entries.update(part.entries)
        out.append(SparseTensor(f, 1, d.dim, entries))
    return out, "blockwise over %d blocks, %d points" % (len(blocks), total)


def _enumerate_center_roots(d, c, budget):
    f = d.field
    zs = center(d)
    k = len(zs)
    if f.size is None:
        raise BudgetExceeded(
            "cannot enumerate the center span over an infinite field",
            required=None)
    total = f.size ** k
    if total > budget:
        raise BudgetExceeded(
            "center enumeration needs %d points, budget is %d" % (total, budget),
            required=total)
    return (_square_roots(d.algebra, zs, c),
            "center span, %d points (center dim %d)" % (total, k))


def _square_roots(alg, gens, target):
    """Every v = x_0 gens[0] + ... + x_{n-1} gens[n-1] with coefficients
    in the prime field F_p and v v == target, in lexicographic order of
    (x_0, ..., x_{n-1}).

    The n^2 products gens[a] gens[b] are formed once.  Fixing x_0, x_1, ...
    in turn, with w the sum fixed so far, the enumeration carries two kinds
    of dense vectors over the coordinates that the products and the target
    touch: the residual w w - target, and for each later generator g the
    cross term w g + g w.  Fixing x_a = x moves them by
    (w + x g) (w + x g) = w w + x (w g + g w) + x^2 g g.  For the last
    generator the p values of x are tested coordinate by coordinate in
    integer arithmetic, leaving at the first coordinate that fails."""
    f = alg.field
    p = f.p
    n = len(gens)
    zero = SparseTensor(f, 1, target.dim, {})
    if n == 0:
        return [] if target.entries else [zero]
    prods = [[mult(a, b, alg) for b in gens] for a in gens]
    coords = sorted(set(target.entries).union(
        *(t.entries for row in prods for t in row)))

    def dense(t):
        return [t.entries.get(k, 0) for k in coords]

    square = [dense(prods[a][a]) for a in range(n)]
    cross_step = [[[(x + y) % p for x, y in zip(dense(prods[a][b]),
                                                 dense(prods[b][a]))]
                   for b in range(n)] for a in range(n)]
    xs = [0] * n
    last = n - 1
    rng = range(len(coords))
    roots = []

    def descend(a, res, cross):
        lin, quad = cross[a], square[a]
        if a == last:
            for x in range(p):
                for k in rng:
                    if (res[k] + x * (lin[k] + x * quad[k])) % p:
                        break
                else:
                    xs[a] = x
                    roots.append(reduce(add, map(scale, gens, xs), zero))
            return
        step = cross_step[a]
        for x in range(p):
            xs[a] = x
            xx = x * x
            res_x = [(r + x * l + xx * q) % p
                     for r, l, q in zip(res, lin, quad)]
            cross_x = cross[:]
            for b in range(a + 1, n):
                cross_x[b] = [(c + x * s) % p for c, s in zip(cross[b], step[b])]
            descend(a + 1, res_x, cross_x)

    descend(0, [-c % p for c in dense(target)], [[0] * len(coords)] * n)
    return roots
