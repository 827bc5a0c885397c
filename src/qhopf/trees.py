"""The products of mult() of tensor.py at arity 1 and above, and the
columns of the systems of invert().

Both operands are read whole as nested dicts, leg by leg, and multiplied by
recursion on legs: a leg's product runs once per pair of prefixes, and only
the last leg loops over entries.  A pair of prefixes whose product is zero,
as two indices of different blocks, is dropped with its subtrees, so the
operands need no split by block signature.  On a basis of single-term
products (Algebra.mono) each pair of prefixes carries its output prefix and
scalar down (chase()), and every last leg is summed into one dict per output
prefix, keyed by the last index; product() then makes each full key once,
a key per output entry rather than per pair.  On other bases each pair of
subtrees is multiplied and summed before the product e_i e_j of the two
prefixes expands it (expand()):

    t1 t2 = sum_{i,j} (e_i e_j) (x) (t1^(i) t2^(j)),

the contraction order that sums an index as soon as nothing later reads it.
product() picks one of the two; mult() and each column t e_j of invert(),
e_j a one-entry tree, go through it.

The join of hom_sum() is here too (join()): each factor's entries are
filtered once per distinct state of the output legs it extends (extend()),
and on bases of several-term products each surviving combination is
expanded with fold().  The loops add integer numerators, as every kernel of
tensor.py does.  This module is apart from tensor.py, which every command
compiles: the compile of the largest module sets the peak memory of short
commands, and only the commands that multiply, invert by a system or
evaluate a sum compile this one.
"""

from itertools import product as iproduct
from math import prod

from .tensor import _buckets, _vec_mul


def product(alg, n1, n2, k):
    """The numerators of the product of the trees n1, n2 of k legs, keyed in
    full: chase() on a basis of single-term products, each of its sums per
    output prefix then keyed once; expand() on others."""
    if alg.mono is None:
        return expand(alg.nstruct, n1, n2, k)
    sums = {}
    chase(sums, alg.mono, n1, n2, k, (), 1)
    return {key + (i,): c for key, out in sums.items() for i, c in out.items()}


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


def chase(sums, mono, n1, n2, depth, key, c):
    """Add c e_key times the product of the subtrees n1, n2 of depth legs,
    on a basis of single-term products: the last leg is summed into
    sums[key] by its index."""
    items2 = n2.items()
    if depth == 1:
        out = sums.setdefault(key, {})
        for i, c1 in n1.items():
            row, c1 = mono[i], c * c1
            for j, c2 in items2:
                term = row.get(j)
                if term is not None:
                    k = term[0]
                    out[k] = out.get(k, 0) + c1 * c2 * term[1]
        return
    depth -= 1
    for i, s1 in n1.items():
        row = mono[i]
        for j, s2 in items2:
            term = row.get(j)
            if term is not None:
                chase(sums, mono, s1, s2, depth, key + (term[0],), c * term[1])


def expand(struct, n1, n2, depth):
    """The product of the subtrees n1, n2 of depth legs, keyed by those
    legs; the last leg is the product of two vectors, _vec_mul."""
    if depth == 1:
        return {(k,): c for k, c in _vec_mul(struct, n1, n2).items()}
    out = {}
    for i, s1 in n1.items():
        for j, s2 in n2.items():
            terms = struct.get((i, j))
            if not terms:
                continue
            sub = expand(struct, s1, s2, depth - 1).items()
            for k, ck in terms:
                for suffix, c in sub:
                    kk = (k,) + suffix
                    out[kk] = out.get(kk, 0) + ck * c
    return out


def fold(acc, struct, idx, legs, c):
    """Add to acc c times the terms of one combination of indices, each
    output leg's product folded with _vec_mul."""
    vecs = []
    for leg in legs:
        v = {idx[leg[0]]: 1}
        for p in leg[1:]:
            v = _vec_mul(struct, v, {idx[p]: 1})
        vecs.append(v.items())
    for picks in iproduct(*vecs):
        key = tuple([i for i, _ in picks])
        acc[key] = acc.get(key, 0) + c * prod([x for _, x in picks])


# ----- the join of hom_sum --------------------------------------------------

def join(alg, factors, out):
    """(acc, den): the numerators over den of the sum of tensor.hom_sum over
    the (tensor, names) factors, out's atoms all names.

    Each combination is a row: every factor's key, each followed, on index
    states, by the new states of the legs that factor extends.  A factor's
    entries are filtered once per distinct state of those legs, the key of a
    memo (extend()); on index states, the atoms after an earlier factor's
    name are chased per row (grow()).  Survivors keep the cartesian order."""
    f, block_of = alg.field, alg.block_of
    ordered = alg.chain[0] is alg.mono
    owner = [n for n, (_, ns) in enumerate(factors) for _ in ns]
    pos = {nm: p for p, nm in enumerate(nm for _, ns in factors for nm in ns)}
    lpos = [[pos[a] for a in leg] for leg in out]
    # at[p]: the row position of name p; state[l]: that of leg l's index
    # state, or of a name of the leg, whose block is the leg's; done[l]: the
    # number of leg l's atoms chased
    at, state, done = [], [None] * len(out), [0] * len(out)
    levels, den, width = [], alg.den ** sum(len(l) - 1 for l in out), 0
    for n, (t, ns) in enumerate(factors):
        e, d = f.numerators(t.entries)
        den *= d
        at += range(width, width + len(ns))
        slots, firsts, heads, steps = [], [], [], []
        for l, leg in enumerate(lpos):
            # the atoms this factor chases: up to the first unbound one on
            # index states, its own ones in any order on block states
            if ordered:
                b = done[l]
                while b < len(leg) and owner[leg[b]] <= n:
                    b += 1
                seg, done[l] = leg[done[l]:b], b
            else:
                seg = [p for p in leg if owner[p] == n]
            if not seg:
                continue
            k = next((k for k, p in enumerate(seg) if owner[p] < n), len(seg))
            own = [at[p] - width for p in seg[:k]]
            if state[l] is None:
                heads.append((None, own[0], own[1:]))
            else:
                heads.append((len(slots), None, own))
                slots.append(state[l])
                firsts.append(own[0])
            if ordered:
                state[l] = width + len(ns) + len(heads) - 1
            elif state[l] is None:
                state[l] = at[seg[0]]
            steps += [(l, at[p]) for p in seg[k:]]
        width += len(ns) + (len(heads) if ordered else 0)
        moves = []
        for l, q in steps:
            moves.append((state[l], q))
            state[l], width = width, width + 1
        buckets = (_buckets(e.items(), firsts, block_of) if firsts
                   else {(): list(e.items())})
        levels.append((buckets, slots, heads, moves))
    # the last level streams into acc: its rows are the most numerous
    combos = [((), 1)]
    for level in levels[:-1]:
        combos = list(grow(combos, level, alg))
    combos = grow(combos, levels[-1], alg)
    acc = {}
    lrow = [[at[p] for p in leg] for leg in lpos]
    if ordered:
        for row, c in combos:
            key = tuple([row[p] for p in state])
            acc[key] = acc.get(key, 0) + c
    elif alg.mono:
        # block states on a basis whose blocks have no zero products: each
        # leg's product is chased once the join is done
        mono, chains = alg.mono, [(leg[0], leg[1:]) for leg in lrow]
        for row, c in combos:
            key = []
            for s, rest in chains:
                s = row[s]
                for p in rest:
                    s, x = mono[s][row[p]]
                    c *= x
                key.append(s)
            key = tuple(key)
            acc[key] = acc.get(key, 0) + c
    else:
        for row, c in combos:
            fold(acc, alg.nstruct, row, lrow, c)
    return acc, den


def grow(combos, level, alg):
    """The (row, numerator) combos joined with one factor's level, in
    cartesian order: each row meets the extensions of its key, and on index
    states the atoms after an earlier factor's name are chased per row."""
    (buckets, slots, heads, moves), (table, init) = level, alg.chain
    block_of, memo = alg.block_of, {}
    for row, c in combos:
        key = tuple([init[row[p]] for p in slots])
        ext = memo.get(key)
        if ext is None:
            ext = memo[key] = extend(
                buckets.get(tuple([block_of[s] for s in key]), ()),
                heads, key, alg)
        for x, cx in ext:
            x = row + x
            for p, q in moves:
                term = table[x[p]].get(x[q])
                if term is None:
                    break
                x, cx = x + (term[0],), cx * term[1]
            else:
                yield x, c * cx


def extend(entries, heads, key, alg):
    """(suffix, numerator) of each of the (key, numerator) entries whose
    chase along heads meets no zero product, in order: the entry's key,
    followed on index states by the legs' new states.  A head (slot, first,
    offsets) chases the entry's atoms at offsets from the state key[slot],
    or from the state of its atom at first."""
    (table, init), out = alg.chain, []
    ordered = table is alg.mono
    for ekey, c in entries:
        states = []
        for slot, first, offsets in heads:
            s = key[slot] if first is None else init[ekey[first]]
            for i in offsets:
                term = table[s].get(ekey[i])
                if term is None:
                    break
                s, c = term[0], c * term[1]
            else:
                states.append(s)
                continue
            break
        else:
            out.append((ekey + tuple(states) if ordered else ekey, c))
    return out

