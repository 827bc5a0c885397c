"""Naive dense evaluator: an independent implementation of the engine's
operations used as an oracle.  Everything here loops over all index tuples
and stores dense coefficient lists; nothing is shared with the sparse code
paths in the package.

The last two sections are the exception.  Alternative formulas for
derived elements, evaluated with the engine's own kernels, check the
package's formula, not its kernels.  The unfactored ribbon search, on the
engine's square-root kernel, checks how `find_ribbon` prunes candidates.
"""

from itertools import product as iproduct

from qhopf.drinfeld import drinfeld_u
from qhopf.ribbon import (RibbonCandidate, RibbonSearch, _block_center,
                          _square_roots, is_ribbon)
from qhopf.tensor import LEG_ID, SparseTensor, apply_legs, invert, mult


def dense_of(t):
    """Dense list-of-coefficients representation (flat, row-major)."""
    n, k = t.dim, t.arity
    size = n ** k
    out = [t.field.zero] * size
    for key, c in t.entries.items():
        out[flatten(key, n)] = c
    return out


def flatten(key, n):
    x = 0
    for i in key:
        x = x * n + i
    return x


def unflatten(x, n, k):
    key = []
    for _ in range(k):
        key.append(x % n)
        x //= n
    return tuple(reversed(key))


def struct_coeff(d, i, j, k):
    for kk, c in d.algebra.struct.get((i, j), ()):
        if kk == k:
            return c
    return d.field.zero


def dense_mult(d, t1, t2):
    """Componentwise product, looping over all pairs of index tuples; each
    pair multiplies out, leg by leg, the rows struct[(i_l, j_l)] of the
    structure constants."""
    f = d.field
    n, k = t1.dim, t1.arity
    a, b = dense_of(t1), dense_of(t2)
    size = n ** k
    out = [f.zero] * size
    for x in range(size):
        if not a[x]:
            continue
        kx = unflatten(x, n, k)
        for y in range(size):
            if not b[y]:
                continue
            ky = unflatten(y, n, k)
            rows = [d.algebra.struct.get((kx[l], ky[l]), ()) for l in range(k)]
            for terms in iproduct(*rows):
                c = f.canon(a[x] * b[y])
                for _, s in terms:
                    c = f.canon(c * s)
                z = flatten([i for i, _ in terms], n)
                out[z] = f.canon(out[z] + c)
    return out


def dense_apply_legs(d, t, names):
    """names: list of 'id'|'S'|'Sinv'|'eps'|'D'|'Dcop'."""
    f = d.field
    n = t.dim
    widths = {"id": 1, "S": 1, "Sinv": 1, "eps": 0, "D": 2, "Dcop": 2}
    out_arity = sum(widths[nm] for nm in names)
    out = [f.zero] * (n ** out_arity)
    for key, c in t.entries.items():
        terms = [((), c)]
        for idx, nm in zip(key, names):
            exp = []
            if nm == "id":
                exp = [((idx,), f.one)]
            elif nm == "S":
                exp = [((j,), v) for j, v in d.s_rows.get(idx, ())]
            elif nm == "Sinv":
                exp = [((j,), v) for j, v in d.s_inv_rows.get(idx, ())]
            elif nm == "eps":
                exp = [((), d.eps[idx])]
            elif nm == "D":
                exp = [(jk, v) for jk, v in d.delta_rows.get(idx, ())]
            elif nm == "Dcop":
                exp = [((kk, jj), v) for (jj, kk), v in d.delta_rows.get(idx, ())]
            terms = [(kk + sub, f.canon(cc * cv))
                     for kk, cc in terms for sub, cv in exp]
        for kk, cc in terms:
            z = flatten(kk, n)
            out[z] = f.canon(out[z] + cc)
    return out


def dense_vec_mul(d, a, b):
    """Dense product of two arity-1 coefficient lists."""
    f = d.field
    n = d.dim
    out = [f.zero] * n
    for i in range(n):
        if not a[i]:
            continue
        for j in range(n):
            if not b[j]:
                continue
            for k in range(n):
                out[k] = f.canon(out[k]
                                 + a[i] * b[j] * struct_coeff(d, i, j, k))
    return out


def hom_sum_cartesian(alg, legs, factors, out):
    """hom_sum in field arithmetic over the full cartesian product of the
    factors' supports: the general loop that the join replaced.  Its atom
    grammar is the wider one of that loop: (map, [atoms]) applies the
    width-1 Leg legs(map) to the product of any atoms, constants included.
    Each output leg is folded through the structure constants, up to its
    first zero product, and the legs are multiplied out.  Returns the
    accumulator in insertion order, with canonical nonzero values."""
    f = alg.field
    pos = {nm: (fi, li) for fi, (_, names) in enumerate(factors)
           for li, nm in enumerate(names)}

    def times(a, b):
        out = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for k, c in alg.struct.get((i, j), ()):
                    out[k] = f.canon(out.get(k, 0) + ca * cb * c)
        return out

    def value(atoms, combo):
        v = None
        for a in atoms:
            if isinstance(a, str):
                fi, li = pos[a]
                w = {combo[fi][0][li]: f.one}
            elif isinstance(a, SparseTensor):
                w = {i: c for (i,), c in a.entries.items()}
            else:
                leg, w = legs(a[0]), {}
                for i, ci in value(a[1], combo).items():
                    for (j,), n in leg.terms.get(i, ()):
                        w[j] = f.canon(w.get(j, 0) + ci * f.over(n, leg.den))
            v = w if v is None else times(v, w)
            if not v:
                break
        return v

    acc = {}
    for combo in iproduct(*[list(t.entries.items()) for t, _ in factors]):
        vecs = []
        for atoms in out:
            v = value(atoms, combo)
            if not v:
                break
            vecs.append(v.items())
        else:
            c = f.one
            for _, cv in combo:
                c = f.canon(c * cv)
            for picks in iproduct(*vecs):
                cc = c
                for _, x in picks:
                    cc = f.canon(cc * x)
                key = tuple(i for i, _ in picks)
                acc[key] = f.canon(acc.get(key, 0) + cc)
    return {k: v for k, v in acc.items() if v}


def mult_pairs(t1, t2, alg):
    """mult by pairs of entries: each entry of t1 meets the entries of t2
    of its block signature, and the cartesian product of the legs' term
    lists is expanded for each pair (one term or none a leg on a basis of
    single-term products), on integer numerators.  This is the loop that
    the package's prefix trees replaced for every operand of arity 1 and
    above.  Returns the accumulator in insertion order, with canonical
    nonzero values."""
    f, k = alg.field, t1.arity
    (e1, d1), (e2, d2) = f.numerators(t1.entries), f.numerators(t2.entries)
    block_of, struct = alg.block_of, alg.nstruct
    buckets = {}
    for k2, c2 in e2.items():
        sig = tuple(block_of[j] for j in k2)
        buckets.setdefault(sig, []).append((k2, c2))
    acc = {}
    for k1, c1 in e1.items():
        for k2, c2 in buckets.get(tuple(block_of[i] for i in k1), ()):
            lists = [struct.get((i, j), ()) for i, j in zip(k1, k2)]
            for picks in iproduct(*lists):
                c = c1 * c2
                for _, cv in picks:
                    c *= cv
                key = tuple(kk for kk, _ in picks)
                acc[key] = acc.get(key, 0) + c
    den = d1 * d2 * alg.den ** k
    acc = {key: f.over(v, den) for key, v in acc.items()}
    return {key: v for key, v in acc.items() if v}


def dense_basis(d, i):
    out = [d.field.zero] * d.dim
    out[i] = d.field.one
    return out


def dense_s(d, vec, inverse=False):
    f = d.field
    rows = d.s_inv_rows if inverse else d.s_rows
    out = [f.zero] * d.dim
    for i, c in enumerate(vec):
        if not c:
            continue
        for j, v in rows.get(i, ()):
            out[j] = f.canon(out[j] + c * v)
    return out


def dense_delta(d, vec):
    """Coproduct of a dense arity-1 vector, as a dense arity-2 list."""
    f = d.field
    n = d.dim
    out = [f.zero] * (n * n)
    for i, c in enumerate(vec):
        if not c:
            continue
        for (j, k), v in d.delta_rows.get(i, ()):
            out[j * n + k] = f.canon(out[j * n + k] + c * v)
    return out


def scale_vec(f, vec, c):
    return [f.canon(c * v) for v in vec]


def dense_gamma(d):
    """Direct transcription of the double sum defining the first pairing
    element: sum over the supports of the inverse associator (i) and the
    associator (j)."""
    f = d.field
    n = d.dim
    alpha = dense_of(d.alpha)
    out = [f.zero] * (n * n)
    for (xb, yb, zb), ci in d.phi_inv.entries.items():
        for (x, y, z), cj in d.phi.entries.items():
            for (z1, z2), cd in d.delta_rows.get(z, ()):
                c = f.canon(ci * cj * cd)
                left = dense_vec_mul(d, dense_basis(d, xb), dense_basis(d, y))
                left = dense_s(d, left)
                left = dense_vec_mul(d, left, alpha)
                left = dense_vec_mul(d, left, dense_basis(d, yb))
                left = dense_vec_mul(d, left, dense_basis(d, z1))
                right = dense_s(d, dense_basis(d, x))
                right = dense_vec_mul(d, right, alpha)
                right = dense_vec_mul(d, right, dense_basis(d, zb))
                right = dense_vec_mul(d, right, dense_basis(d, z2))
                for a in range(n):
                    if not left[a]:
                        continue
                    for b in range(n):
                        if not right[b]:
                            continue
                        out[a * n + b] = f.canon(out[a * n + b]
                                                 + c * left[a] * right[b])
    return out


def dense_delta_elt(d):
    """Direct transcription of the double sum defining the second pairing
    element: sum over the associator (i) and the inverse associator (j)."""
    f = d.field
    n = d.dim
    beta = dense_of(d.beta)
    out = [f.zero] * (n * n)
    for (x, y, z), ci in d.phi.entries.items():
        for (xb, yb, zb), cj in d.phi_inv.entries.items():
            for (x1, x2), cd in d.delta_rows.get(x, ()):
                c = f.canon(ci * cj * cd)
                left = dense_vec_mul(d, dense_basis(d, x1), dense_basis(d, xb))
                left = dense_vec_mul(d, left, beta)
                left = dense_vec_mul(d, left, dense_s(d, dense_basis(d, z)))
                yz = dense_vec_mul(d, dense_basis(d, y), dense_basis(d, zb))
                right = dense_vec_mul(d, dense_basis(d, x2), dense_basis(d, yb))
                right = dense_vec_mul(d, right, beta)
                right = dense_vec_mul(d, right, dense_s(d, yz))
                for a in range(n):
                    if not left[a]:
                        continue
                    for b in range(n):
                        if not right[b]:
                            continue
                        out[a * n + b] = f.canon(out[a * n + b]
                                                 + c * left[a] * right[b])
    return out


def dense_big_f(d, gamma_dense):
    """The coproduct-conjugating element, summed over the inverse associator."""
    f = d.field
    n = d.dim
    beta = dense_of(d.beta)
    out = [f.zero] * (n * n)
    for (xb, yb, zb), ci in d.phi_inv.entries.items():
        w = dense_vec_mul(d, dense_basis(d, yb), beta)
        w = dense_vec_mul(d, w, dense_s(d, dense_basis(d, zb)))
        dw = dense_delta(d, w)
        for (x1, x2), cd in d.delta_rows.get(xb, ()):
            sx2 = dense_s(d, dense_basis(d, x2))
            sx1 = dense_s(d, dense_basis(d, x1))
            for g in range(n * n):
                cg = gamma_dense[g]
                if not cg:
                    continue
                g1, g2 = g // n, g % n
                left = dense_vec_mul(d, sx2, dense_basis(d, g1))
                right = dense_vec_mul(d, sx1, dense_basis(d, g2))
                for w12 in range(n * n):
                    cw = dw[w12]
                    if not cw:
                        continue
                    w1, w2 = w12 // n, w12 % n
                    lv = dense_vec_mul(d, left, dense_basis(d, w1))
                    rv = dense_vec_mul(d, right, dense_basis(d, w2))
                    c = f.canon(ci * cd * cg * cw)
                    for a in range(n):
                        if not lv[a]:
                            continue
                        for b in range(n):
                            if not rv[b]:
                                continue
                            out[a * n + b] = f.canon(out[a * n + b]
                                                     + c * lv[a] * rv[b])
    return out


def dense_drinfeld(d):
    """The canonical quasitriangular element: triple sum over the inverse
    associator and the R-matrix supports."""
    f = d.field
    n = d.dim
    alpha = dense_of(d.alpha)
    beta = dense_of(d.beta)
    out = [f.zero] * n
    for (xb, yb, zb), ci in d.phi_inv.entries.items():
        w = dense_vec_mul(d, dense_basis(d, yb), beta)
        w = dense_vec_mul(d, w, dense_s(d, dense_basis(d, zb)))
        sw = dense_s(d, w)
        for (s, t), cl in d.R.entries.items():
            v = dense_vec_mul(d, sw, dense_s(d, dense_basis(d, t)))
            v = dense_vec_mul(d, v, alpha)
            v = dense_vec_mul(d, v, dense_basis(d, s))
            v = dense_vec_mul(d, v, dense_basis(d, xb))
            c = f.canon(ci * cl)
            for a in range(n):
                out[a] = f.canon(out[a] + c * v[a])
    return out


# ----- square roots ----------------------------------------------------------


def dense_square_roots(d, gens, target):
    """Every v = sum_a x_a gens[a] with x_a in F_p and v v == target, as
    dense coefficient lists in lexicographic order of (x_0, ..., x_{n-1}):
    each point is built and squared on its own."""
    f = d.field
    want = dense_of(target)
    dense_gens = [dense_of(g) for g in gens]
    out = []
    for xs in iproduct(range(f.size), repeat=len(gens)):
        v = [f.zero] * d.dim
        for x, g in zip(xs, dense_gens):
            v = [f.canon(a + x * b) for a, b in zip(v, g)]
        if dense_vec_mul(d, v, v) == want:
            out.append(v)
    return out


# ----- linear algebra ------------------------------------------------------


def dense_rref(f, rows, ncols):
    """Textbook Gauss-Jordan on dense row lists: columns left to right, the
    first nonzero row at or below the current one as pivot.  Returns the
    nonzero rows of the reduced row echelon form and their pivot columns."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.canon(inv * v) for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [f.canon(x - g * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def dense_solve(f, rows, n, b):
    """One solution of A x = b as {col: value}, free variables 0, or None
    when the system is inconsistent."""
    rref, pivots = dense_rref(f, [list(r) + [bi] for r, bi in zip(rows, b)],
                              n + 1)
    if n in pivots:
        return None
    return {c: row[n] for row, c in zip(rref, pivots) if row[n]}


def dense_inverse(f, rows, n):
    """Rows of the inverse as dense lists, or None when A is singular."""
    ident = [[f.one if j == i else f.zero for j in range(n)] for i in range(n)]
    rref, pivots = dense_rref(f, [list(r) + e for r, e in zip(rows, ident)],
                              2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]


def dense_nullspace(f, rows, n):
    """One basis vector per free column of the RREF, in increasing order."""
    rref, pivots = dense_rref(f, rows, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [f.zero] * n
        v[free] = f.one
        for row, c in zip(rref, pivots):
            v[c] = f.canon(-row[free])
        basis.append(v)
    return basis


# ----- alternative formulas -------------------------------------------------


def gamma_alt(d):
    """The first pairing element summed over the associator, then the
    inverse associator: the mirror of the package's formula, equal to it on
    every quasi-Hopf datum."""
    g1 = d.hsum([(d.phi, ("x", "y", "z"))],
                [[("S", ["y"]), d.alpha, "z"], [("S", ["x"]), d.alpha]])
    p = apply_legs(d.phi_inv, [d.leg("D"), LEG_ID, LEG_ID])
    q = apply_legs(p, [d.leg("S"), d.leg("S"), LEG_ID, LEG_ID])
    return d.hsum([(q, ("sx1", "sx2", "y", "z")), (g1, ("g1", "g2"))],
                  [["sx2", "g1", "y"], ["sx1", "g2", "z"]])


def delta_alt(d):
    """The second pairing element by the mirror formula of `gamma_alt`."""
    d1 = d.hsum([(d.phi, ("x", "y", "z"))],
                [[d.beta, ("S", ["z"])], ["x", d.beta, ("S", ["y"])]])
    p = apply_legs(d.phi_inv, [LEG_ID, LEG_ID, d.leg("D")])
    q = apply_legs(p, [LEG_ID, LEG_ID, d.leg("S"), d.leg("S")])
    return d.hsum([(q, ("x", "y", "sz1", "sz2")), (d1, ("d1", "d2"))],
                  [["x", "d1", "sz2"], ["y", "d2", "sz1"]])


# ----- reference ribbon search ----------------------------------------------


def find_ribbon_unfactored(d):
    """The ribbon search with no pruning: every combination of one central
    square root of c = (u S(u))^-1 per block goes through `is_ribbon`.
    Candidates, their order and the region are those `find_ribbon` must
    report."""
    f, alg = d.field, d.algebra
    u = drinfeld_u(d)
    c = invert(mult(u, d.antipode(u), alg), alg)
    per_block = []
    total = 0
    for b, members in enumerate(alg.blocks):
        zs = _block_center(alg, members)
        total += f.size ** len(zs)
        c_block = SparseTensor(f, 1, d.dim, {
            k: v for k, v in c.entries.items() if alg.block_of[k[0]] == b})
        roots = _square_roots(alg, zs, c_block)
        if not roots:
            return RibbonSearch(
                [], "blockwise, %d points, no square root in a block" % total)
        per_block.append(roots)
    out = []
    for pick in iproduct(*per_block):
        entries = {}
        for part in pick:
            entries.update(part.entries)
        v = SparseTensor(f, 1, d.dim, entries)
        if is_ribbon(d, v).ok:
            out.append(RibbonCandidate(v=v, provenance="solver"))
    out.sort(key=lambda cand: tuple(cand.v.sorted_items()))
    return RibbonSearch(out, "blockwise over %d blocks, %d points"
                        % (len(alg.blocks), total))
