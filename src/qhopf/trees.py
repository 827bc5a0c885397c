"""Products on bases whose products have several terms, mult() of
tensor.py on dense operands, and the columns of the systems of invert().

Within one block signature, both operands are read as nested dicts, leg by
leg, and multiplied by recursion on legs: a leg's product runs once per pair
of prefixes, and only the last leg loops over entries.  On a basis of
single-term products (Algebra.mono) each pair of prefixes carries its output
prefix and scalar down (chase()).  On other bases each pair of subtrees is
multiplied and summed before the product e_i e_j of the two prefixes
expands it (expand()):

    t1 t2 = sum_{i,j} (e_i e_j) (x) (t1^(i) t2^(j)),

the contraction order that sums an index as soon as nothing later reads it.
product() picks one of the two; mult() and each column t e_j of invert(),
e_j a one-entry tree, go through it.  On bases of several-term products
hom_sum() expands each combination with fold().  Only one signature's trees
exist at once.  The loops add integer numerators, as every kernel of
tensor.py does.  This module is apart from tensor.py, which every command
compiles: the compile of the largest module sets the peak memory of short
commands, and only some commands build trees.
"""

from itertools import product as iproduct
from math import prod

from .tensor import _buckets, _vec_mul


def multiply(acc, alg, e1, buckets, k):
    """Add to acc the numerators of the product of the arity-k entries e1
    with those that buckets holds by block signature, as (key, numerator)
    lists."""
    for sig, items in _buckets(e1.items(), range(k), alg.block_of).items():
        partners = buckets.get(sig)
        if partners is not None:
            product(acc, alg, tree(items), tree(partners), k)


def product(acc, alg, n1, n2, k):
    """Add to acc the numerators of the product of the trees n1, n2 of k
    legs: chase() on a basis of single-term products, expand() on others;
    returns acc."""
    if alg.mono is None:
        return expand(acc, alg.nstruct, n1, n2, k)
    chase(acc, alg.mono, n1, n2, k, (), 1)
    return acc


def tree(items):
    """The (key, numerator) items as nested dicts, leg by leg; the last leg
    maps each index to its numerator."""
    root = {}
    for key, c in items:
        node = root
        for i in key[:-1]:
            sub = node.get(i)
            if sub is None:
                sub = node[i] = {}
            node = sub
        node[key[-1]] = c
    return root


def chase(acc, mono, n1, n2, depth, key, c):
    """Add to acc c e_key times the product of the subtrees n1, n2 of depth
    legs, on a basis of single-term products."""
    items2 = n2.items()
    if depth == 1:
        for i, c1 in n1.items():
            row, c1 = mono[i], c * c1
            for j, c2 in items2:
                term = row.get(j)
                if term is not None:
                    kk = key + (term[0],)
                    acc[kk] = acc.get(kk, 0) + c1 * c2 * term[1]
        return
    depth -= 1
    for i, s1 in n1.items():
        row = mono[i]
        for j, s2 in items2:
            term = row.get(j)
            if term is not None:
                chase(acc, mono, s1, s2, depth, key + (term[0],), c * term[1])


def expand(out, struct, n1, n2, depth):
    """Add to out the product of the subtrees n1, n2 of depth legs, keyed by
    those legs; returns out."""
    for i, s1 in n1.items():
        for j, s2 in n2.items():
            terms = struct.get((i, j))
            if not terms:
                continue
            if depth == 1:
                c = s1 * s2
                for k, ck in terms:
                    out[(k,)] = out.get((k,), 0) + c * ck
                continue
            sub = expand({}, struct, s1, s2, depth - 1).items()
            for k, ck in terms:
                for suffix, c in sub:
                    kk = (k,) + suffix
                    out[kk] = out.get(kk, 0) + ck * c
    return out


def fold(acc, struct, idx, legs, scalars):
    """Add to acc the terms of one combination of indices, each output
    leg's product folded with _vec_mul."""
    vecs, c = [], prod(scalars)
    for leg in legs:
        v = {idx[leg[0]]: 1}
        for p in leg[1:]:
            v = _vec_mul(struct, v, {idx[p]: 1})
        vecs.append(v.items())
    for picks in iproduct(*vecs):
        key = tuple([i for i, _ in picks])
        acc[key] = acc.get(key, 0) + c * prod([x for _, x in picks])
