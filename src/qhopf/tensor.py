"""Sparse multilinear algebra over tensor powers of a finite-dimensional
algebra.

A tensor of arity k over an algebra of dimension n is a map from k-tuples of
basis indices to nonzero scalars.  Componentwise products use the algebra's
structure constants; leg maps apply a linear map, the counit or the coproduct
to individual tensor factors.  Leg maps: apply_legs() makes one pass per moved
leg, each term of the leg's image replacing its index, and leaves identity
legs untouched; the keys keep the cartesian order (entry by entry, legs left
to right).

Block partition.  Each Algebra splits its basis into blocks: the connected
components of the graph that joins i, j and every output k of each nonzero
product e_i e_j.  Elements of different blocks multiply to zero and a block
is closed under products, for any structure constants, including ones that
break an axiom.  D^w(G) has one block per group element; H4 and K[G] have
one.  A multi-index has a block signature, the block of each leg.  mult()
needs no split by signature: a pair of prefixes whose legs lie in different
blocks has a zero product there and is dropped with its subtrees, and those
are exactly the pairs of different signature.  invert() inverts one
signature at a time: by a scalar where t is a multiple of the unit there
(the associator of D^w(G) on every signature), else by one linear system.

Joins.  hom_sum() joins its factors left to right, once each map is applied
to its leg and each constant is a factor.  After each factor is bound, every
output leg's product is chased as far as its bound atoms reach, so that a
zero product (x x = 0 in H4) drops a combination before later factors join.
A leg's state (Algebra.chain) is the index of its product so far on a basis
of single-term products where a block has zero products; elsewhere it is its
block, which prunes the same on D^w(G) and K[G], and, since a leg's product
is nonzero only if all its atoms lie in one block, takes each factor's atoms
at once in any order.  Each factor's entries are filtered once per distinct
state of the legs it extends, and the survivors keep the cartesian order
(trees.join()).

Prefix trees.  mult() multiplies both operands whole as prefix trees
(trees.py) at every arity from 1 on, and so does each column of a system of
invert().  On a basis of single-term products every last leg is summed per
output prefix, so that a key is made per output entry, not per pair
(trees.chase()).  At arity 0 it multiplies two scalars.

Scalars in the kernels.  Every accumulation loop runs on Python ints.  Each
input is read as numerators over one denominator (scalars.py); Algebra and
Leg keep such views of their constants, over .den.  The output denominator
is fixed per call (d1*d2*den^k in mult), and _canon() makes one canonical
scalar per output entry.  Over F_p the numerators are residues over 1, left
unreduced until _canon(): reduction mod p is a ring map, so one loop serves
both fields.  Algebra.mono, the rows mono[i] = {j: (k, c)} of a basis whose
products are single terms, selects the index-chasing loops of
trees.chase(), which every such mult() runs, and of the join's index states;
other bases expand each product in trees.py (expand(), fold()).  trees.py is
imported only where it runs: by a product of arity 1 or more, an inverse
that solves a system, or a sum.
"""

from itertools import product as iproduct

from . import linalg
from .errors import ArityMismatch, NotInvertible, ShapeMismatch


class SparseTensor:
    __slots__ = ("field", "arity", "dim", "entries")

    def __init__(self, field, arity, dim, entries):
        # internal constructor; use make() for unchecked input
        self.field = field
        self.arity = arity
        self.dim = dim
        self.entries = entries

    @staticmethod
    def make(field, arity, dim, items):
        """Build a tensor from an iterable/dict of (key, scalar), dropping
        zeros and validating index ranges."""
        entries = {}
        pairs = items.items() if isinstance(items, dict) else items
        for key, val in pairs:
            key = tuple(key)
            if len(key) != arity:
                raise ShapeMismatch("key %r has arity %d, expected %d"
                                    % (key, len(key), arity))
            if any(i < 0 or i >= dim for i in key):
                raise ShapeMismatch("index out of range in %r (dim %d)" % (key, dim))
            val = field.canon(val)
            if val:
                entries[key] = val
        return SparseTensor(field, arity, dim, entries)

    def is_zero(self):
        return not self.entries

    def get(self, key):
        return self.entries.get(tuple(key), self.field.zero)

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_json(self):
        return {"arity": self.arity,
                "entries": [[list(k), str(v)] for k, v in self.sorted_items()]}

    def __eq__(self, other):
        return (isinstance(other, SparseTensor) and self.field == other.field
                and self.arity == other.arity and self.dim == other.dim
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.arity, self.dim, tuple(self.sorted_items())))

    def __repr__(self):
        items = ", ".join("%r: %s" % (k, v)
                          for k, v in self.sorted_items()[:6])
        more = "" if len(self.entries) <= 6 else ", ... (%d entries)" % len(self.entries)
        return "SparseTensor(arity=%d, dim=%d, {%s%s})" % (self.arity, self.dim, items, more)


def vector(field, dim, coeffs):
    """Arity-1 tensor from {index: scalar}."""
    return SparseTensor.make(field, 1, dim, {(i,): c for i, c in coeffs.items()})


def basis_vector(field, dim, i):
    return SparseTensor(field, 1, dim, {(i,): field.one})


def diff_entries(a, b, limit=None):
    """Differing coordinates in lexicographic order, up to `limit`."""
    if a.field != b.field or a.arity != b.arity or a.dim != b.dim:
        return [((), "shape %r" % ((a.arity, a.dim),),
                 "shape %r" % ((b.arity, b.dim),))]
    from heapq import nsmallest
    zero, ea, eb = a.field.zero, a.entries, b.entries
    keys = [k for k in ea.keys() | eb.keys()
            if ea.get(k, zero) != eb.get(k, zero)]
    # the first `limit` of them, at least one, without sorting them all
    keys = sorted(keys) if limit is None else nsmallest(max(limit, 1), keys)
    return [(k, str(ea.get(k, zero)), str(eb.get(k, zero))) for k in keys]


class Algebra:
    """Associative unital algebra: structure constants per basis pair, as a
    sparse list of (basis index, scalar)."""

    __slots__ = ("field", "dim", "struct", "unit_coeffs", "_units", "mono",
                 "block_of", "blocks", "nstruct", "den", "chain")

    def __init__(self, field, dim, struct, unit_coeffs):
        self.field = field
        self.dim = dim
        self.struct = struct
        coeffs = {i: field.canon(c) for i, c in unit_coeffs.items()}
        self.unit_coeffs = {i: c for i, c in coeffs.items() if c}
        self._units = {}
        self.nstruct, self.den = field.numerator_rows(struct)
        # group-like bases have single-term products (module docstring)
        self.mono = None
        if all(len(terms) <= 1 for terms in struct.values()):
            self.mono = [{} for _ in range(dim)]
            for (i, j), terms in self.nstruct.items():
                if terms:
                    self.mono[i][j] = terms[0]
        self.block_of, self.blocks = _block_partition(dim, struct)
        # the leg states of hom_sum's join (module docstring): the index of
        # the product so far where a block has zero products, else the
        # block's first index
        if self.mono and any(len(self.mono[i]) < len(self.blocks[b])
                             for i, b in enumerate(self.block_of)):
            self.chain = self.mono, range(dim)
        else:
            self.chain = ({b[0]: dict.fromkeys(b, (b[0], 1)) for b in self.blocks},
                          [self.blocks[b][0] for b in self.block_of])

    @property
    def unit(self):
        return self.unit_tensor(1)

    def unit_tensor(self, k):
        if k not in self._units:
            f = self.field
            entries = {(): f.one}
            for _ in range(k):
                entries = {key + (i,): f.canon(c * ci)
                           for key, c in entries.items()
                           for i, ci in self.unit_coeffs.items()}
            self._units[k] = SparseTensor(f, k, self.dim, entries)
        return self._units[k]

    def vec_mul(self, a, b):
        """Product of two elements given as {index: scalar} dicts."""
        f = self.field
        (a, da), (b, db) = f.numerators(a), f.numerators(b)
        return _canon(f, _vec_mul(self.nstruct, a, b), da * db * self.den)


def _vec_mul(struct, a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            terms = struct.get((i, j))
            if terms:
                cab = ca * cb
                for k, ck in terms:
                    out[k] = out.get(k, 0) + cab * ck
    return out


def _canon(f, acc, den=1):
    """acc's numerators over den made canonical scalars in place, zeros
    dropped; returns acc."""
    over = f.over
    zeros = []
    for key, v in acc.items():
        v = over(v, den)
        if v:
            acc[key] = v
        else:
            zeros.append(key)
    for key in zeros:
        del acc[key]
    return acc


def _block_partition(dim, struct):
    """(block_of, blocks): the block number of each basis index, and the
    sorted indices of each block, numbered by their smallest index."""
    parent = list(range(dim))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j), terms in struct.items():
        if not terms:
            continue
        r = root(i)
        for x in (j,) + tuple(k for k, _ in terms):
            rx = root(x)
            if rx != r:
                parent[rx] = r
    members = {}
    for i in range(dim):
        members.setdefault(root(i), []).append(i)
    blocks = tuple(tuple(m) for m in members.values())
    block_of = [0] * dim
    for b, m in enumerate(blocks):
        for i in m:
            block_of[i] = b
    return tuple(block_of), blocks


def _buckets(items, legs, block_of):
    """The (key, scalar) items grouped by the blocks of key[l] for l in legs,
    each group in the order of the items."""
    out = {}
    for item in items:
        key = item[0]
        out.setdefault(tuple([block_of[key[l]] for l in legs]), []).append(item)
    return out


def mult(t1, t2, alg):
    """Componentwise product in the k-th tensor power of the algebra."""
    if t1.arity != t2.arity:
        raise ArityMismatch("arity %d vs %d" % (t1.arity, t2.arity))
    if t1.dim != t2.dim:
        raise ShapeMismatch("dim %d vs %d" % (t1.dim, t2.dim))
    t1.field.assert_same(t2.field)
    f, k = alg.field, t1.arity
    (e1, d1), (e2, d2) = f.numerators(t1.entries), f.numerators(t2.entries)
    if k:
        from . import trees
        acc = trees.product(alg, trees.tree(e1.items()),
                            trees.tree(e2.items()), k)
    else:
        acc = {(): e1[()] * e2[()]} if e1 and e2 else {}
    return SparseTensor(f, k, t1.dim, _canon(f, acc, d1 * d2 * alg.den ** k))


def mul_all(alg, *tensors):
    out = tensors[0]
    for t in tensors[1:]:
        out = mult(out, t, alg)
    return out


# ----- leg maps -------------------------------------------------------------

class Leg:
    """Per-leg action for apply_legs: terms[i] = ((key, numerator), ...),
    the image of e_i over den, on width legs; None for the identity."""
    __slots__ = ("terms", "den", "width")

    def __init__(self, terms, den, width):
        self.terms, self.den, self.width = terms, den, width


LEG_ID = Leg(None, 1, 1)


def lin_leg(f, rows):
    """rows: {i: ((j, scalar), ...)} for a linear map sending e_i to sum."""
    return Leg(*f.numerator_rows({i: tuple(((j,), c) for j, c in row)
                                  for i, row in rows.items()}), 1)


def counit_leg(f, values):
    """Drops the leg, scaling e_i by the scalar values[i]."""
    return Leg(*f.numerator_rows({i: (((), c),) for i, c in enumerate(values)
                                  if c}), 0)


def coprod_leg(f, rows):
    """rows: {i: (((j, k), scalar), ...)}; expands one leg into two."""
    return Leg(*f.numerator_rows(rows), 2)


def apply_legs(t, legs):
    """t with legs[i] applied to its i-th leg, one pass per moved leg."""
    if len(legs) != t.arity:
        raise ShapeMismatch("got %d leg maps for arity %d" % (len(legs), t.arity))
    f = t.field
    acc, den = f.numerators(t.entries)
    pos = 0  # the current leg's place in keys whose earlier legs are mapped
    for leg in legs:
        den *= leg.den
        if leg.terms is not None:
            terms, moved = leg.terms, {}
            for key, c in acc.items():
                image = terms.get(key[pos])
                if image:
                    head, tail = key[:pos], key[pos + 1:]
                    for sub, cv in image:
                        kk = head + sub + tail
                        moved[kk] = moved.get(kk, 0) + c * cv
            acc = moved
        pos += leg.width
    acc = dict(acc) if acc is t.entries else acc  # never t's own dict
    return SparseTensor(f, pos, t.dim, _canon(f, acc, den))


# ----- index plumbing -------------------------------------------------------

def flip(t, i, j):
    if i == j or i >= t.arity or j >= t.arity or i < 0 or j < 0:
        raise ShapeMismatch("cannot flip legs %d, %d of arity-%d tensor" % (i, j, t.arity))
    perm = list(range(t.arity))
    perm[i], perm[j] = j, i
    return permute_legs(t, perm)


def permute_legs(t, perm):
    """perm[i] = source position of output leg i."""
    if sorted(perm) != list(range(t.arity)):
        raise ShapeMismatch("bad permutation %r for arity %d" % (perm, t.arity))
    out = {tuple(key[p] for p in perm): c for key, c in t.entries.items()}
    return SparseTensor(t.field, t.arity, t.dim, out)


def concat(t1, t2):
    """Outer product: legs of t1 followed by legs of t2."""
    t1.field.assert_same(t2.field)
    if t1.dim != t2.dim:
        raise ShapeMismatch("dim %d vs %d" % (t1.dim, t2.dim))
    f = t1.field
    out = {}
    for k1, c1 in t1.entries.items():
        for k2, c2 in t2.entries.items():
            out[k1 + k2] = f.canon(c1 * c2)
    return SparseTensor(f, t1.arity + t2.arity, t1.dim, out)


def insert_leg(t, pos, vec):
    """Insert an arity-1 tensor as a new leg at position pos."""
    if vec.arity != 1:
        raise ArityMismatch("inserted leg must have arity 1")
    perm = list(range(t.arity))
    perm.insert(pos, t.arity)
    return permute_legs(concat(t, vec), perm)


def scale(t, c):
    f = t.field
    c = f.canon(c)
    if not c:
        return SparseTensor(f, t.arity, t.dim, {})
    return SparseTensor(f, t.arity, t.dim,
                        {k: f.canon(c * v) for k, v in t.entries.items()})


def add(t1, t2):
    f = t1.field
    (e1, d1), (e2, d2) = f.numerators(t1.entries), f.numerators(t2.entries)
    out = {k: v * d2 for k, v in e1.items()}
    for k, v in e2.items():
        out[k] = out.get(k, 0) + v * d1
    return SparseTensor(f, t1.arity, t1.dim, _canon(f, out, d1 * d2))


def sub(t1, t2):
    return add(t1, scale(t2, -1))


# ----- inversion ------------------------------------------------------------

def invert(t, alg):
    """Two-sided inverse in the k-th tensor power, one block signature that
    the unit reaches at a time (zero on the others); both product checks
    run before returning.  Where t is c times the unit on a signature whose
    blocks the unit acts on as a left identity, the inverse there is c^-1
    times the unit.  Elsewhere it solves the linear system of left
    multiplication against the unit; column j is t e_j, multiplied on
    prefix trees as in mult()."""
    f = alg.field
    k = t.arity
    if t.is_zero():
        raise NotInvertible("the zero tensor has no inverse")
    block_of, blocks = alg.block_of, alg.blocks
    by_sig = _buckets(t.entries.items(), range(k), block_of)
    units = {block_of[i] for i in alg.unit_coeffs}
    # the unit reaches the signatures of units^k; where t has no entry, the
    # system is zero against a nonzero right-hand side
    if sum(units.issuperset(sig) for sig in by_sig) < len(units) ** k:
        raise NotInvertible("left-multiplication system is singular")
    # the blocks on which the unit acts as a left identity
    left = {b for b in units if all(alg.vec_mul(alg.unit_coeffs, {i: f.one})
                                    == {i: f.one} for i in blocks[b])}
    rhs_by_sig = _buckets(alg.unit_tensor(k).entries.items(), range(k), block_of)
    inv_entries = {}
    for sig, rhs_items in rhs_by_sig.items():
        entries = by_sig[sig]
        c = _unit_multiple(f, entries, rhs_items) if left.issuperset(sig) else None
        if c is not None:
            inv_entries.update(sorted((key, f.canon(c * u)) for key, u in rhs_items))
            continue
        from .trees import product, tree
        # this signature's multi-indices in lexicographic order: the order
        # of the rows and columns of its system
        unknowns = list(iproduct(*(blocks[b] for b in sig)))
        index = {key: n for n, key in enumerate(unknowns)}
        nums, den = f.numerators(dict(entries))
        n1 = tree(nums.items())
        rows = [{} for _ in unknowns]
        for jflat, jkey in enumerate(unknowns):
            column = product(alg, n1, tree([(jkey, 1)]), k)
            for ikey, cc in _canon(f, column, den * alg.den ** k).items():
                rows[index[ikey]][jflat] = cc
        rhs = {index[key]: c for key, c in rhs_items}
        x = linalg.solve(f, rows, len(unknowns), rhs)
        if x is None:
            raise NotInvertible("left-multiplication system is singular")
        inv_entries.update((unknowns[j], v) for j, v in x.items())
    return checked_inverse(t, SparseTensor(f, k, t.dim, inv_entries), alg)


def _unit_multiple(f, entries, units):
    """1/c when the (key, scalar) entries are c times the unit's items
    units, c nonzero; else None."""
    values, (key, u) = dict(entries), units[0]
    c = f.canon(values.get(key, 0) * f.inv(u))
    if len(values) == len(units) and all(values.get(key) == f.canon(c * u)
                                         for key, u in units):
        return f.inv(c)
    return None


def checked_inverse(t, inv, alg):
    """inv, once its products with t on both sides are the unit."""
    unit = alg.unit_tensor(t.arity)
    if mult(t, inv, alg) != unit or mult(inv, t, alg) != unit:
        raise NotInvertible("candidate inverse failed the product check")
    return inv


# ----- declarative sums of decomposable expressions -------------------------

def hom_sum(alg, legs, factors, out):
    """Evaluate a sum over the entries of one or more decomposition tensors.

    factors: list of (tensor, names) pairs.  Each entry of each tensor binds
    its indices to the given leg names; the sum ranges over the cartesian
    product of the supports.

    out: one atom list per output leg, multiplied left to right in the
    algebra.  An atom is a leg name (a basis element), an arity-1
    SparseTensor constant, or (map, [name]): the width-1 Leg legs(map), such
    as a datum's antipode "S", applied to a name that occurs once in out
    (ValueError otherwise).  By linearity each map is applied to its leg of
    the factor before the sum; each constant becomes a factor of its own.
    The factors are then joined left to right on the states of the output
    legs (module docstring, trees.join()); the sum and the order of its keys
    are those of the cartesian loop.
    """
    factors, out = _leg_names(legs, factors, out)
    from .trees import join
    acc, den = join(alg, factors, out)
    return SparseTensor(alg.field, len(out), alg.dim, _canon(alg.field, acc, den))


def _leg_names(legs, factors, out):
    """(factors, out) with every atom a leg name: each map applied to its
    leg, each constant a factor named by its position among them."""
    maps, consts, plain = {}, [], []
    for leg in out:
        plain.append([])
        for a in leg:
            if isinstance(a, SparseTensor):
                consts.append((a, (len(consts),)))
                a = len(consts) - 1
            elif not isinstance(a, str):
                m, (a,) = a
                if not isinstance(a, str):
                    raise ValueError("a map atom takes one leg name")
                maps[a] = m
            plain[-1].append(a)
    used = [a for leg in plain for a in leg]
    if any(used.count(a) > 1 for a in maps):
        raise ValueError("a mapped leg name must occur once")
    return [(apply_legs(t, [legs(maps[a]) if a in maps else LEG_ID
                            for a in names]), names)
            if maps.keys() & set(names) else (t, names)
            for t, names in factors] + consts, plain
