"""Seeded single-coefficient mutations of a datum, for sensitivity tests."""

from qhopf.tensor import SparseTensor


def _different(field, old, rng):
    while True:
        if field.size is not None:
            new = rng.below(field.size)
        else:
            new = field.sample(rng)
        if new != old:
            return new


def mutate_tensor(field, t, rng):
    keys = sorted(t.entries)
    key = keys[rng.below(len(keys))]
    new = _different(field, t.entries[key], rng)
    items = dict(t.entries)
    items[key] = new
    return SparseTensor.make(field, t.arity, t.dim, items)


def _mutate_rows(field, rows, rng):
    """rows: {key: ((index, scalar), ...)}, the layout of the product,
    coproduct and antipode tables.  One scalar of one row is replaced; a
    term set to zero is dropped, and so is a row left empty."""
    pairs = [(key, pos) for key, row in sorted(rows.items())
             for pos in range(len(row))]
    key, pos = pairs[rng.below(len(pairs))]
    row = list(rows[key])
    idx, c = row[pos]
    new = _different(field, c, rng)
    if not new:
        del row[pos]
    else:
        row[pos] = (idx, new)
    rows = dict(rows)
    if row:
        rows[key] = tuple(row)
    else:
        del rows[key]
    return rows


def mutate(d, layer, rng):
    """One coefficient of the chosen structure layer replaced by a different
    field value (possibly zero)."""
    f = d.field
    if layer == "product":
        return d.with_changes(product=_mutate_rows(f, d.algebra.struct, rng))
    if layer == "delta":
        return d.with_changes(delta_rows=_mutate_rows(f, d.delta_rows, rng))
    if layer == "epsilon":
        eps = list(d.eps)
        i = rng.below(len(eps))
        eps[i] = _different(f, eps[i], rng)
        return d.with_changes(eps=eps)
    if layer == "S":
        return d.with_changes(s_rows=_mutate_rows(f, d.s_rows, rng))
    if layer == "phi":
        return d.with_changes(phi=mutate_tensor(f, d.phi, rng))
    if layer == "R":
        return d.with_changes(R=mutate_tensor(f, d.R, rng))
    if layer == "alpha":
        return d.with_changes(alpha=mutate_tensor(f, d.alpha, rng))
    if layer == "beta":
        return d.with_changes(beta=mutate_tensor(f, d.beta, rng))
    raise ValueError(layer)


def merge_blocks(d, rng):
    """Product mutant whose blocks merge: the output index of one product
    term moves to a basis element of another block (the datum needs two
    blocks at least)."""
    alg = d.algebra
    pairs = sorted(ij for ij, terms in alg.struct.items() if terms)
    ij = pairs[rng.below(len(pairs))]
    terms = list(alg.struct[ij])
    k, c = terms[0]
    others = [x for x in range(d.dim) if alg.block_of[x] != alg.block_of[k]]
    terms[0] = (others[rng.below(len(others))], c)
    return d.with_changes(product={**alg.struct, ij: tuple(terms)})


def layers_of(d):
    out = ["phi", "S", "alpha", "beta"]
    if d.R is not None:
        out.insert(1, "R")
    return out


def all_layers_of(d):
    """layers_of plus the product, coproduct and counit tables."""
    return ["product", "delta", "epsilon"] + layers_of(d)
