"""Builders for the canonical test-bed data: group algebras, function
algebras with a 3-cocycle associator, twisted doubles of finite abelian
groups, and the 4-dimensional Hopf algebra with a one-parameter R-matrix
family (taken at parameter 0).

Twisted-double sign conventions differ between sources.  The double builder
uses one fixed assignment (omega^-1 in the associator, theta and gamma as
written) and runs the full verifier stack once on what it builds.
"""

from itertools import product as iproduct

from .datum import QuasiHopfDatum, verify
from .errors import InternalInconsistency
from .scalars import RationalField
from .tensor import SparseTensor


class FiniteAbelianGroup:
    """Direct product of cyclic groups; elements are tuples, the operation
    is componentwise addition."""

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if not factors or any(n < 1 for n in factors):
            raise ValueError("invariant factors must be positive")
        self.factors = factors
        self.order = 1
        for n in factors:
            self.order *= n
        self.elements = [t for t in iproduct(*[range(n) for n in factors])]
        self._index = {t: i for i, t in enumerate(self.elements)}

    @property
    def identity(self):
        return (0,) * len(self.factors)

    def index(self, el):
        return self._index[tuple(el)]

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def add_i(self, i, j):
        return self._index[self.add(self.elements[i], self.elements[j])]

    def neg_i(self, i):
        return self._index[self.neg(self.elements[i])]

    def __len__(self):
        return self.order

    def __repr__(self):
        return "Z" + "xZ".join(str(n) for n in self.factors)


class Cocycle3:
    """Normalized 3-cocycle on a finite abelian group, as a full value table
    indexed by element indices.  Both invariants are checked exhaustively at
    construction."""

    def __init__(self, group, field, table):
        self.group = group
        self.field = field
        self.table = table
        self._check()

    def value(self, i, j, k):
        return self.table[(i, j, k)]

    def inv_value(self, i, j, k):
        return self.field.inv(self.table[(i, j, k)])

    def is_trivial(self):
        return all(v == self.field.one for v in self.table.values())

    def _check(self):
        g = self.group
        f = self.field
        e = g.index(g.identity)
        n = g.order
        for a in range(n):
            for b in range(n):
                if (self.value(e, a, b) != f.one or self.value(a, e, b) != f.one
                        or self.value(a, b, e) != f.one):
                    raise InternalInconsistency("cocycle is not normalized")
        for a, b, c, d in iproduct(range(n), repeat=4):
            lhs = f.canon(self.value(b, c, d) * self.value(a, g.add_i(b, c), d)
                          * self.value(a, b, c))
            rhs = f.canon(self.value(g.add_i(a, b), c, d)
                          * self.value(a, b, g.add_i(c, d)))
            if lhs != rhs:
                raise InternalInconsistency(
                    "cocycle identity fails at %r" % ((a, b, c, d),))

    @staticmethod
    def trivial(group, field):
        n = group.order
        return Cocycle3(group, field,
                        {(a, b, c): field.one
                         for a, b, c in iproduct(range(n), repeat=3)})


def cocycle_zn(n, q, field):
    """The standard degree-3 class representative on a cyclic group:
    omega(a,b,c) = zeta^(q*a*floor((b+c)/n))."""
    return cocycle_for(FiniteAbelianGroup((n,)), q, field)


def cocycle_for(group, q, field):
    """Product over the invariant factors of the cyclic representative with
    the same exponent q on each factor."""
    q = int(q)
    roots = [field.root_of_unity(n) if q % n else field.one
             for n in group.factors]
    n = group.order
    table = {}
    for a, b, c in iproduct(range(n), repeat=3):
        ea, eb, ec = group.elements[a], group.elements[b], group.elements[c]
        val = field.one
        for m, nm in enumerate(group.factors):
            carry = (eb[m] + ec[m]) // nm
            if carry:
                e = (q * ea[m] * carry) % nm
                val = field.canon(val * roots[m] ** e)
        table[(a, b, c)] = val
    return Cocycle3(group, field, table)


# ----- function algebra ---------------------------------------------------


def function_algebra(group, omega):
    """Functions on the group with the cocycle as associator: orthogonal
    idempotents delta_g, convolution coproduct, inverse-cocycle associator."""
    f = omega.field
    g = group
    n = g.order
    e = g.index(g.identity)
    one = f.one
    product = {(i, i): ((i, one),) for i in range(n)}
    unit = {i: one for i in range(n)}
    # delta(d_i) sums over all decompositions (j, k) with j + k = i
    delta_rows = {i: tuple(((j, g.add_i(g.neg_i(j), i)), one) for j in range(n))
                  for i in range(n)}
    eps = [one if i == e else f.zero for i in range(n)]
    phi = SparseTensor.make(f, 3, n,
                            {(a, b, c): omega.inv_value(a, b, c)
                             for a, b, c in iproduct(range(n), repeat=3)})
    s_rows = {i: ((g.neg_i(i), one),) for i in range(n)}
    alpha = SparseTensor.make(f, 1, n, {(i,): one for i in range(n)})
    beta = SparseTensor.make(f, 1, n,
                             {(i,): omega.value(i, g.neg_i(i), i) for i in range(n)})
    return QuasiHopfDatum(
        f, n, product, unit, delta_rows, eps, phi, s_rows, alpha, beta,
        metadata={"kind": "function_algebra", "group": list(g.factors)})


# ----- twisted double ------------------------------------------------------


def dpr_double(group, omega):
    """Twisted double of a finite abelian group, checked by the full verifier
    stack before it is returned; the conventions are recorded in the
    metadata."""
    f = omega.field
    g = group
    m = g.order
    n = m * m
    one = f.one

    def idx(gi, xi):
        return gi * m + xi

    def w(a, b, c):
        return omega.value(a, b, c)

    def theta(gi, x, y):
        return f.canon(w(gi, x, y) * w(x, y, gi) * f.inv(w(x, gi, y)))

    def gam(x, h, k):
        return f.canon(w(h, k, x) * w(x, h, k) * f.inv(w(h, x, k)))

    e = g.index(g.identity)
    product = {}
    for gi in range(m):
        for x in range(m):
            for y in range(m):
                c = theta(gi, x, y)
                product[(idx(gi, x), idx(gi, y))] = ((idx(gi, g.add_i(x, y)), c),)
    unit = {idx(gi, e): one for gi in range(m)}
    delta_rows = {}
    for gi in range(m):
        for x in range(m):
            row = []
            for h in range(m):
                k = g.add_i(g.neg_i(h), gi)
                row.append(((idx(h, x), idx(k, x)), gam(x, h, k)))
            delta_rows[idx(gi, x)] = tuple(row)
    eps = [f.zero] * n
    for x in range(m):
        eps[idx(e, x)] = one
    phi = SparseTensor.make(f, 3, n, {(idx(a, e), idx(b, e), idx(c, e)):
                                      f.inv(w(a, b, c))
                                      for a, b, c in iproduct(range(m), repeat=3)})
    s_rows = {}
    for gi in range(m):
        for x in range(m):
            ng, nx = g.neg_i(gi), g.neg_i(x)
            c = f.canon(f.inv(theta(ng, x, nx)) * f.inv(gam(x, gi, ng)))
            s_rows[idx(gi, x)] = ((idx(ng, nx), c),)
    alpha = SparseTensor.make(f, 1, n, {(idx(gi, e),): one for gi in range(m)})
    beta = SparseTensor.make(f, 1, n, {(idx(gi, e),): w(gi, g.neg_i(gi), gi)
                                       for gi in range(m)})
    r_entries = {(idx(gi, e), idx(h, gi)): one
                 for gi in range(m) for h in range(m)}
    R = SparseTensor.make(f, 2, n, r_entries)
    metadata = {
        "kind": "dpr_double",
        "group": list(g.factors),
        "trivial_cocycle": omega.is_trivial(),
        "conventions": {"invert_omega_in_phi": False,
                        "invert_theta_gamma": False},
        "blocks": [[idx(gi, x) for x in range(m)] for gi in range(m)],
    }
    d = QuasiHopfDatum(f, n, product, unit, delta_rows, eps, phi, s_rows,
                       alpha, beta, R=R, metadata=metadata)
    if omega.is_trivial():
        # closed-form ribbon element sum_g delta_g (x) g
        from .ribbon import is_ribbon
        v = SparseTensor.make(f, 1, n, {(idx(gi, gi),): one for gi in range(m)})
        if not is_ribbon(d, v).ok:
            raise InternalInconsistency(
                "the closed-form ribbon element of the double of %r fails "
                "the ribbon checks" % (group,))
        d = d.with_changes(v=v)
        d.metadata["closed_form_v"] = True
    if not verify(d, level="qt").ok:
        raise InternalInconsistency(
            "the twisted double of %r fails the verifiers" % (group,))
    return d


# ----- group algebra and the 4-dimensional Hopf algebra --------------------


def group_algebra(group, field, with_R=True):
    """Group algebra of a finite abelian group, with group-like coproduct;
    optionally carries the trivial R-matrix and the unit ribbon element."""
    f = field
    g = group
    n = g.order
    e = g.index(g.identity)
    one = f.one
    product = {(i, j): ((g.add_i(i, j), one),) for i in range(n) for j in range(n)}
    unit = {e: one}
    delta_rows = {i: (((i, i), one),) for i in range(n)}
    eps = [one] * n
    phi = SparseTensor.make(f, 3, n, {(e, e, e): one})
    s_rows = {i: ((g.neg_i(i), one),) for i in range(n)}
    alpha = SparseTensor.make(f, 1, n, {(e,): one})
    beta = SparseTensor.make(f, 1, n, {(e,): one})
    R = SparseTensor.make(f, 2, n, {(e, e): one}) if with_R else None
    v = SparseTensor.make(f, 1, n, {(e,): one}) if with_R else None
    return QuasiHopfDatum(
        f, n, product, unit, delta_rows, eps, phi, s_rows, alpha, beta,
        R=R, v=v, metadata={"kind": "group_algebra", "group": list(g.factors)})


def sweedler():
    """The 4-dimensional Hopf algebra over the rationals: generators g, x
    with g^2 = 1, x^2 = 0, xg = -gx; standard R-matrix at parameter 0.
    Basis order: 1, g, x, gx."""
    f = RationalField()
    one = f.one
    neg = -one
    half = one / 2
    product = {
        (0, 0): ((0, one),), (0, 1): ((1, one),), (0, 2): ((2, one),),
        (0, 3): ((3, one),),
        (1, 0): ((1, one),), (1, 1): ((0, one),), (1, 2): ((3, one),),
        (1, 3): ((2, one),),
        (2, 0): ((2, one),), (2, 1): ((3, neg),),
        (3, 0): ((3, one),), (3, 1): ((2, neg),),
    }
    unit = {0: one}
    delta_rows = {
        0: (((0, 0), one),),
        1: (((1, 1), one),),
        2: (((1, 2), one), ((2, 0), one)),     # x (x) 1 + g (x) x
        3: (((0, 3), one), ((3, 1), one)),     # gx (x) g + 1 (x) gx
    }
    eps = [one, one, f.zero, f.zero]
    phi = SparseTensor.make(f, 3, 4, {(0, 0, 0): one})
    s_rows = {0: ((0, one),), 1: ((1, one),), 2: ((3, neg),), 3: ((2, one),)}
    alpha = SparseTensor.make(f, 1, 4, {(0,): one})
    beta = SparseTensor.make(f, 1, 4, {(0,): one})
    R = SparseTensor.make(f, 2, 4, {(0, 0): half, (0, 1): half,
                                    (1, 0): half, (1, 1): -half})
    return QuasiHopfDatum(
        f, 4, product, unit, delta_rows, eps, phi, s_rows, alpha, beta,
        R=R, metadata={"kind": "sweedler"})
