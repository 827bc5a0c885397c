"""Viewing the R-matrix (and the inverse of its flip) as twists onto the
coopposite coproduct yields two families of evaluation data and two
invertible comparison elements.  This module computes them, checks the
identities connecting them to the canonical element, verifies ribbon
candidates, and searches for ribbon elements."""

from collections import namedtuple
from functools import reduce
from itertools import product as iproduct
from math import prod

from . import linalg
from .drinfeld import drinfeld_u
from .dsl import check_named
from .errors import BudgetExceeded, QhopfError, ShapeMismatch
from .report import PASS, CheckReport
from .tensor import (SparseTensor, _canon, add, apply_legs, flip, invert,
                     mult, scale)


RTwistElements = namedtuple(
    "RTwistElements", "alpha_hat beta_hat alpha_check beta_check "
    "u_hat u_hat_inv u_check u_check_inv")
# provenance: user | closed-form | solver
RibbonCandidate = namedtuple("RibbonCandidate", "v provenance")
RibbonSearch = namedtuple("RibbonSearch", "candidates region")


def rtwist_elements(d):
    """All eight elements arising from the two R-twists.  Nothing is checked
    here: the inverse formulas and comparison relations hold by theorem on a
    datum that passes `verify`, and the identity corpus states the
    comparison relations."""
    def build():
        R, R_inv = d.R, d.r_inv
        sinv_alpha = apply_legs(d.alpha, d.legs("Sinv"))
        sinv_beta = apply_legs(d.beta, d.legs("Sinv"))
        alpha_hat, beta_hat = d.ev(R_inv), d.coev(R)
        alpha_check = d.ev(flip(R, 0, 1))
        beta_check = d.coev(flip(R_inv, 0, 1))

        def comparison(ev):
            return d.hsum([(d.phi, ("x", "y", "z"))],
                          [[("S", ["z"]), ev, "y",
                            sinv_beta, ("Sinv", ["x"])]])

        def comparison_inv(coev):
            return d.hsum([(d.phi, ("x", "y", "z"))],
                          [[("Sinv", ["z"]), sinv_alpha, "y",
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
    element: the identity corpus states all but the last, which relates the
    two inverse formulas."""
    rep = check_named(d, ("inv_antipode_of_alpha_check",
                          "inv_antipode_of_alpha_hat",
                          "inv_antipode_of_beta_check",
                          "inv_antipode_of_beta_hat", "u_equals_u_check",
                          "u_equals_antipode_of_u_hat_inv",
                          "alpha_check_is_antipode_alpha_times_u"))
    el = rtwist_elements(d)
    sinv_u_check = apply_legs(el.u_check, [d.leg("Sinv")])
    return rep.compare("u_hat_inv_is_inv_antipode_of_u_check",
                       mult(el.u_hat, sinv_u_check, d.algebra), d.unit_tensor(1))


# ----- ribbon elements ------------------------------------------------------


def is_ribbon(d, v):
    """The defining checks of a ribbon element plus the derived counit and
    invertibility consequences."""
    if v.arity != 1 or v.dim != d.dim:
        raise ShapeMismatch("ribbon candidate must be an element of the algebra")
    rep = CheckReport()
    alg = d.algebra

    if v.is_zero():
        rep.add_fail("ribbon_nonzero", {"reason": "candidate is zero"})
        return rep
    rep.add("ribbon_nonzero", PASS)
    rep.compare_each("ribbon_central", (
        (mult(v, d.basis(i), alg), mult(d.basis(i), v, alg), {"basis": i})
        for i in range(d.dim)))
    rep.extend(check_named(d, ("ribbon_coproduct", "ribbon_antipode_fixed",
                               "ribbon_counit"), {"v": v}))
    rep.invertible("ribbon_invertible", lambda: invert(v, alg))
    return rep


def check_ribbon_lemma(d, v):
    """The square of the ribbon element moves one twist family's evaluation
    data onto the other's."""
    return check_named(d, ("ribbon_square_times_alpha_check",
                           "ribbon_square_times_beta_hat"), {"v": v})


def check_main_theorem(d, v):
    """The inverse square of the ribbon element equals u S(u), and the
    intermediate identity expressing the square through the two comparison
    elements."""
    rep = CheckReport()
    if not rep.invertible("ribbon_invertible", lambda: invert(v, d.algebra)):
        return rep
    return rep.extend(check_named(d, ("ribbon_inverse_square_is_u_Su",
                                      "ribbon_square_is_uhat_ucheck_inv"),
                                  {"v": v}))


def verify_ribbon(d, v):
    """The ribbon layer: the defining checks of v, the ribbon lemma and the
    main theorem, in one report."""
    rep = is_ribbon(d, v)
    rep.extend(check_ribbon_lemma(d, v))
    return rep.extend(check_main_theorem(d, v))


def center(d):
    """Basis of the center: the bases of the block centers, block by block
    in the order of `Algebra.blocks`."""
    return [z for members in d.algebra.blocks
            for z in _block_center(d.algebra, members)]


def _block_center(alg, members):
    """Basis of the center of the block spanned by the basis indices
    `members`, from the nullspace of its commutator system; exact and
    deterministic.

    A block is a two-sided ideal, so the center of the algebra is the direct
    sum of the block centers, and an element of a block is central iff it
    commutes with the block's own basis.  Coordinate k of
    sum_j x_j (e_j e_i - e_i e_j) = 0 gives one row per (i, k)."""
    f = alg.field
    acc = {}
    for i in members:
        for c, j in enumerate(members):
            for k, cv in alg.struct.get((j, i), ()):
                acc[i, k, c] = acc.get((i, k, c), 0) + cv
            for k, cv in alg.struct.get((i, j), ()):
                acc[i, k, c] = acc.get((i, k, c), 0) - cv
    rows = {}
    for (i, k, c), cv in _canon(f, acc).items():
        rows.setdefault((i, k), {})[c] = cv
    return [SparseTensor.make(f, 1, alg.dim,
                              {(members[c],): x for c, x in enumerate(vec)})
            for vec in linalg.nullspace(f, list(rows.values()), len(members))]


def find_ribbon(d, budget):
    """All ribbon elements, each verified by the defining checks before
    being returned, in increasing order of their sorted entries.

    A ribbon element v is central, fixed by S, of counit 1, and satisfies
    v v = c with c = (u S(u))^-1.  The center is the direct sum of the block
    centers, so v is the sum of one square root of the block part of c in
    the span of each block's center.  Each block's roots are enumerated over
    F_p on their own; `_block_roots` combines only those that give
    S(v) = v and eps(v) = 1, and `is_ribbon` checks each combination.  The
    search needs a finite field and at most `budget` points and
    combinations."""
    if d.field.size is None:
        raise QhopfError("ribbon search needs a finite field")
    alg = d.algebra
    u = drinfeld_u(d)
    c = invert(mult(u, d.antipode(u), alg), alg)
    roots, region = _block_roots(d, c, budget)
    out = [RibbonCandidate(v=v, provenance="solver")
           for v in roots if is_ribbon(d, v).ok]
    out.sort(key=lambda cand: tuple(cand.v.sorted_items()))
    return RibbonSearch(candidates=out, region=region)


def _block_roots(d, c, budget):
    """Every central square root v of c with S(v) = v and eps(v) = 1, as
    sums of one root per block, and the region searched.

    Write v = sum_b r_b with r_b a root in block b.  When S maps each block
    b into one block s(b) and s permutes the blocks (`_block_image`), the
    part of S(v) in block s(b) is S(r_b), so S(v) = v iff S(r_b) = r_s(b)
    for every b.  On an orbit b, s(b), ..., s^(k-1)(b) the root r_b then
    fixes the others: the orbit contributes r_b + S(r_b) + ... +
    S^(k-1)(r_b) for each root r_b whose images are roots of their blocks
    and with S^k(r_b) = r_b.  Otherwise each block is its own orbit and
    contributes each of its roots.  Of the combinations of one part per
    orbit, those with eps(v) = 1 are returned; parts of different orbits
    have disjoint supports, so the sums are distinct.  `budget` bounds the
    points enumerated and the combinations formed."""
    f = d.field
    alg = d.algebra
    per_block = []
    total = 0
    for b, members in enumerate(alg.blocks):
        zs = _block_center(alg, members)
        total += f.size ** len(zs)
        if total > budget:
            raise BudgetExceeded(
                "block enumeration needs %d points, budget is %d"
                % (total, budget), required=total)
        c_block = SparseTensor(f, 1, d.dim, {
            k: v for k, v in c.entries.items() if alg.block_of[k[0]] == b})
        roots = _square_roots(alg, zs, c_block)
        if not roots:
            return [], "blockwise, %d points, no square root in a block" % total
        per_block.append(roots)
    image = _block_image(d)
    s = [d.leg("S")]
    parts = []     # per orbit: (part, eps(part)) for each part it contributes
    seen = set()
    for head in range(len(per_block)):
        if head in seen:
            continue
        orbit = [head]
        while image is not None and image[orbit[-1]] != head:
            orbit.append(image[orbit[-1]])
        seen.update(orbit)
        found = []
        for r in per_block[head]:
            entries = dict(r.entries)
            x = r
            for b in orbit[1:]:
                x = apply_legs(x, s)
                if x not in per_block[b]:
                    break
                entries.update(x.entries)
            else:
                if image is None or apply_legs(x, s) == r:
                    part = SparseTensor(f, 1, d.dim, entries)
                    found.append((part, d.eps_of(part)))
        parts.append(found)
    combos = prod(len(found) for found in parts)
    if combos > budget:
        raise BudgetExceeded("combining block roots needs %d candidates"
                             % combos, required=combos)
    out = []
    for pick in iproduct(*parts):
        if f.canon(sum([e for _, e in pick])) != f.one:
            continue
        entries = {}
        for part, _ in pick:
            entries.update(part.entries)
        out.append(SparseTensor(f, 1, d.dim, entries))
    return out, "blockwise over %d blocks, %d points" % (len(alg.blocks), total)


def _block_image(d):
    """{b: s(b)} when the antipode maps every basis element of each block b
    into the one block s(b) and s permutes the blocks; None otherwise."""
    alg = d.algebra
    terms = d.leg("S").terms
    image = {}
    for b, members in enumerate(alg.blocks):
        hit = {alg.block_of[j] for i in members for (j,), _ in terms.get(i, ())}
        if len(hit) != 1:
            return None
        image[b] = hit.pop()
    return image if len(set(image.values())) == len(image) else None


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
