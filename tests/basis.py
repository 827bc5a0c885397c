"""A whole datum rewritten in another basis, so that its basis products are
no longer single terms and the general kernel paths run.

The new basis is f_a = sum_i P[a][i] e_i for a seeded upper triangular P,
with a unit diagonal or, on request, a seeded diagonal in 1..3.  A diagonal
entry 2 or 3 gives P^-1, and so the new structure constants, denominators
over Q.  Every structure map is transformed with plain dense loops over
scalars; nothing here calls the sparse kernels of the package, except
`random_twist` for the twist that `scaled` rewrites.
"""

import functools

from qhopf import (FiniteAbelianGroup, cocycle_for, dpr_double, random_twist,
                   sweedler)
from qhopf.datum import QuasiHopfDatum
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField
from qhopf.tensor import SparseTensor


def triangular(f, n, seed, extra, diagonal=False):
    """P, the identity plus `extra` seeded entries above the diagonal, with
    values in 1..3, and Q = P^-1, both as dense rows.  With `diagonal`, the
    diagonal entries are then drawn from 1..3 as well."""
    rng = SplitMix64(seed)
    P = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    for _ in range(extra):
        i = rng.below(n - 1)
        j = i + 1 + rng.below(n - 1 - i)
        P[i][j] = f.canon(rng.below(3) + 1)
    if diagonal:
        for i in range(n):
            P[i][i] = f.canon(rng.below(3) + 1)
    Q = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        Q[i][i] = f.inv(P[i][i])
        for j in range(i + 1, n):
            s = sum(Q[i][k] * P[k][j] for k in range(i, j))
            Q[i][j] = f.canon(-s * f.inv(P[j][j]))
    return P, Q


def _legs_to_new(f, items, Q):
    """{key: scalar} in the old basis -> {key: scalar} in the new one: each
    leg e_k becomes sum_m Q[k][m] f_m."""
    out = dict(items)
    arity = len(next(iter(out))) if out else 0
    for leg in range(arity):
        nxt = {}
        for key, c in out.items():
            for m, q in enumerate(Q[key[leg]]):
                if not q:
                    continue
                kk = key[:leg] + (m,) + key[leg + 1:]
                nxt[kk] = f.canon(nxt.get(kk, 0) + c * q)
        out = {k: v for k, v in nxt.items() if v}
    return out


def _old_combination(f, P, a, image):
    """sum_i P[a][i] image(i), where image(i) is a {key: scalar} dict."""
    out = {}
    for i, p in enumerate(P[a]):
        if not p:
            continue
        for key, c in image(i).items():
            out[key] = f.canon(out.get(key, 0) + p * c)
    return out


def _tensor(f, t, Q):
    if t is None:
        return None
    return SparseTensor.make(f, t.arity, t.dim, _legs_to_new(f, t.entries, Q))


def rebase_tensor(f, t, seed, extra, diagonal=False):
    """t written in the basis of change_basis(d, seed, extra, diagonal)."""
    return _tensor(f, t, triangular(f, t.dim, seed, extra, diagonal)[1])


def change_basis(d, seed, extra=None, diagonal=False):
    """The datum d written in the basis f_a = sum_i P[a][i] e_i, for the
    seeded triangular P with `extra` (default dim) entries above the
    diagonal.  Metadata is dropped: its block list names the old basis."""
    f, n = d.field, d.dim
    P, Q = triangular(f, n, seed, n if extra is None else extra, diagonal)
    struct = d.algebra.struct

    def sorted_rows(images):
        return {a: tuple(sorted(img.items())) for a, img in images.items() if img}

    product = {}
    for a in range(n):
        for b in range(n):
            old = {}
            for i, pa in enumerate(P[a]):
                for j, pb in enumerate(P[b]):
                    if not pa or not pb:
                        continue
                    for k, c in struct.get((i, j), ()):
                        old[(k,)] = f.canon(old.get((k,), 0) + pa * pb * c)
            new = _legs_to_new(f, old, Q)
            if new:
                product[(a, b)] = tuple(sorted((k, c) for (k,), c in new.items()))
    unit = {k: c for (k,), c in _legs_to_new(
        f, {(i,): c for i, c in d.algebra.unit_coeffs.items()}, Q).items()}
    delta_rows = sorted_rows({a: _legs_to_new(f, _old_combination(
        f, P, a, lambda i: dict(d.delta_rows.get(i, ()))), Q) for a in range(n)})
    s_rows = sorted_rows({a: {k: c for (k,), c in _legs_to_new(f, _old_combination(
        f, P, a, lambda i: {(j,): c for j, c in d.s_rows.get(i, ())}), Q).items()}
        for a in range(n)})
    eps = []
    for a in range(n):
        eps.append(f.canon(sum(p * e for p, e in zip(P[a], d.eps))))
    return QuasiHopfDatum(f, n, product, unit, delta_rows, eps,
                          _tensor(f, d.phi, Q), s_rows, _tensor(f, d.alpha, Q),
                          _tensor(f, d.beta, Q), R=_tensor(f, d.R, Q),
                          v=_tensor(f, d.v, Q))


@functools.lru_cache(maxsize=None)
def rebased(name):
    """The rebased data of the differential tests, each with
    Algebra.mono None: H4 over Q, D^w(Z2) over F5 (trivial cocycle) and the
    twisted D^w(Z3) over F_2147483647, the largest allowed prime."""
    if name == "h4_q":
        return change_basis(sweedler(), seed=2, extra=2)
    if name == "dw_z2_f5":
        z2 = FiniteAbelianGroup((2,))
        return change_basis(dpr_double(z2, cocycle_for(z2, 0, PrimeField(5))),
                            seed=1, extra=2)
    if name == "dw_z3_p31":
        z3 = FiniteAbelianGroup((3,))
        field = PrimeField(2147483647)
        return change_basis(dpr_double(z3, cocycle_for(z3, 1, field)),
                            seed=1, extra=3)
    raise KeyError(name)


REBASED = ("h4_q", "dw_z2_f5", "dw_z3_p31")


SCALED = {"mono": (3, 0), "dense": (4, 2)}


@functools.lru_cache(maxsize=None)
def scaled(name):
    """H4/Q in the basis of a seeded triangular P with diagonal entries in
    1..3, so that its structure constants have denominators: "mono" keeps
    single-term products, "dense" does not.  With the seed-0 twist T, T^-1
    of H4 and R, written in the same basis."""
    seed, extra = SCALED[name]
    sw = sweedler()
    d = change_basis(sw, seed, extra, diagonal=True)
    T, T_inv = random_twist(sw, 0)
    return d, [rebase_tensor(sw.field, t, seed, extra, True)
               for t in (T, T_inv, sw.R)]
