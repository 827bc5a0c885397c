"""The layered data model of a quasi-Hopf datum, its JSON wire format, and
the verifiers for the defining axioms of each layer.

Layer 1 (quasi-bialgebra): associative unital product, coproduct and counit
algebra maps, invertible associator, quasi-coassociativity, pentagon,
counitality, counit-associator axiom.

Layer 2 (quasi-Hopf): antipode anti-automorphism, evaluation/coevaluation
elements, the two antipode equations and the duality axiom.

Layer 3 (quasitriangular): invertible R-matrix, quasi-cocommutativity, the
two hexagon identities, counit and antipode compatibility of R.
"""

import json

from . import linalg
from .errors import MissingR, NotInvertible, ParseError, ShapeError
from .report import CheckReport, witness_from
from .scalars import field_from_spec
from .tensor import (Algebra, SparseTensor, LEG_ID, apply_legs, basis_vector,
                     concat, coprod_leg, counit_leg, diff_entries, flip,
                     hom_sum, insert_leg, invert, lin_leg, mul_adjacent,
                     mul_all, mult, permute_legs, scale)


class _UnaryMaps(dict):
    """Lazy access to the antipode and its inverse for hom_sum atoms."""

    def __init__(self, datum):
        super().__init__()
        self._datum = datum

    def __missing__(self, key):
        if key == "S":
            v = self._datum.s_rows
        elif key == "Sinv":
            v = self._datum.s_inv_rows
        else:
            raise KeyError(key)
        self[key] = v
        return v


class QuasiHopfDatum:
    """Immutable bundle of all structure elements plus lazy derived caches."""

    def __init__(self, field, dim, product, unit, delta_rows, eps, phi,
                 s_rows, alpha, beta, R=None, v=None, metadata=None,
                 phi_inv=None, R_inv=None):
        self.field = field
        self.dim = dim
        self.algebra = Algebra(field, dim, product, unit)
        self.delta_rows = delta_rows
        self.eps = tuple(eps)
        self.phi = phi
        self.s_rows = s_rows
        self.alpha = alpha
        self.beta = beta
        self.R = R
        self.v = v
        self.metadata = dict(metadata) if metadata else {}
        self._phi_inv = phi_inv
        self._r_inv = R_inv
        self._s_inv_rows = None
        self._legs = {}
        self._store = {}
        self._hash = None

    # ----- basic access ------------------------------------------------

    def basis(self, i):
        return basis_vector(self.field, self.dim, i)

    def unit_tensor(self, k):
        return self.algebra.unit_tensor(k)

    @property
    def unit(self):
        return self.algebra.unit

    def mul(self, *tensors):
        return mul_all(self.algebra, *tensors)

    def eps_of(self, t):
        """Counit applied to an arity-1 tensor, as a scalar."""
        f = self.field
        out = f.zero
        for (i,), c in t.entries.items():
            out = f.add(out, f.mul(c, self.eps[i]))
        return out

    def coproduct(self, t):
        return apply_legs(t, [self.leg("D")])

    def antipode(self, t):
        return apply_legs(t, [self.leg("S")] * t.arity)

    def leg(self, name):
        if name not in self._legs:
            if name == "id":
                leg = LEG_ID
            elif name == "S":
                leg = lin_leg(self.s_rows)
            elif name == "Sinv":
                leg = lin_leg(self.s_inv_rows)
            elif name == "eps":
                leg = counit_leg(self.eps)
            elif name == "D":
                leg = coprod_leg(self.delta_rows)
            elif name == "Dcop":
                rows = {i: tuple(((k, j), c) for (j, k), c in row)
                        for i, row in self.delta_rows.items()}
                leg = coprod_leg(rows)
            else:
                raise KeyError(name)
            self._legs[name] = leg
        return self._legs[name]

    def legs(self, *names):
        return [self.leg(n) for n in names]

    @property
    def phi_inv(self):
        if self._phi_inv is None:
            self._phi_inv = invert(self.phi, self.algebra)
        return self._phi_inv

    @property
    def r_inv(self):
        if self.R is None:
            raise MissingR("datum carries no R-matrix")
        if self._r_inv is None:
            self._r_inv = invert(self.R, self.algebra)
        return self._r_inv

    @property
    def s_inv_rows(self):
        if self._s_inv_rows is None:
            inv = linalg.invert_matrix(self.field, self.s_rows, self.dim)
            if inv is None:
                raise NotInvertible("antipode matrix is singular")
            self._s_inv_rows = inv
        return self._s_inv_rows

    def hsum(self, factors, out):
        return hom_sum(self.algebra, _UnaryMaps(self), factors, out)

    def cache(self, key, build):
        if key not in self._store:
            self._store[key] = build()
        return self._store[key]

    # ----- copies -------------------------------------------------------

    def with_changes(self, **kw):
        args = dict(field=self.field, dim=self.dim,
                    product=self.algebra.struct,
                    unit=self.algebra.unit_coeffs,
                    delta_rows=self.delta_rows, eps=self.eps, phi=self.phi,
                    s_rows=self.s_rows, alpha=self.alpha, beta=self.beta,
                    R=self.R, v=self.v, metadata=self.metadata)
        hints = {}
        if "phi" not in kw:
            hints["phi_inv"] = self._phi_inv
        if "R" not in kw:
            hints["R_inv"] = self._r_inv
        args.update(hints)
        args.update(kw)
        return QuasiHopfDatum(**args)

    # ----- serialization -------------------------------------------------

    def to_json(self):
        f = self.field
        doc = {
            "field": f.spec(),
            "dim": self.dim,
            "product": [[i, j, k, f.to_str(c)]
                        for (i, j), terms in sorted(self.algebra.struct.items())
                        for k, c in sorted(terms)],
            "unit": vector_tensor(f, self.dim, self.algebra.unit_coeffs).to_json(),
            "delta": [[i, j, k, f.to_str(c)]
                      for i, row in sorted(self.delta_rows.items())
                      for (j, k), c in sorted(row)],
            "epsilon": [f.to_str(c) for c in self.eps],
            "phi": self.phi.to_json(),
            "antipode": [[i, j, f.to_str(c)]
                         for i, row in sorted(self.s_rows.items())
                         for j, c in sorted(row)],
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
        }
        if self.R is not None:
            doc["R"] = self.R.to_json()
        if self.v is not None:
            doc["v"] = self.v.to_json()
        if self.metadata:
            doc["metadata"] = self.metadata
        return doc

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ": "),
                          indent=1)

    def content_hash(self):
        if self._hash is None:
            import hashlib
            blob = json.dumps(self.to_json(), sort_keys=True,
                              separators=(",", ":")).encode()
            self._hash = hashlib.sha256(blob).hexdigest()
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, QuasiHopfDatum)
                and self.to_json() == other.to_json())

    def __repr__(self):
        tags = ["dim=%d" % self.dim, repr(self.field)]
        if self.R is not None:
            tags.append("R")
        if self.v is not None:
            tags.append("v")
        return "QuasiHopfDatum(%s)" % ", ".join(tags)


def vector_tensor(field, dim, coeffs):
    return SparseTensor(field, 1, dim, {(i,): c for i, c in coeffs.items()})


# ----- loading ----------------------------------------------------------


def _want(doc, key, where):
    if key not in doc:
        raise ParseError("missing required key %r" % key, where=where)
    return doc[key]


def _tensor_from_json(field, dim, obj, arity, where):
    if (not isinstance(obj, dict) or not isinstance(obj.get("entries"), list)
            or "arity" not in obj):
        raise ParseError("tensor must be an object with 'arity' and 'entries'",
                         where=where)
    if obj["arity"] != arity:
        raise ShapeError("%s: arity %r, expected %d" % (where, obj["arity"], arity))
    items = {}
    for pos, pair in enumerate(obj["entries"]):
        at = "%s.entries[%d]" % (where, pos)
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[0], list)):
            raise ParseError("entry must be [[indices], scalar]", where=at)
        key, s = pair
        if len(key) != arity:
            raise ShapeError("%s: bad key %r" % (at, key))
        key = tuple(_index(i, dim, at) for i in key)
        if key in items:
            raise ShapeError("%s: repeated key %r" % (at, list(key)))
        items[key] = _scalar(field, s, at)
    return SparseTensor.make(field, arity, dim, items)


def _index(value, dim, where):
    if (not isinstance(value, int) or isinstance(value, bool)
            or value < 0 or value >= dim):
        raise ShapeError("%s: index %r out of range [0, %d)" % (where, value, dim))
    return value


def _scalar(field, s, where):
    """A field element written as a string; numbers are rejected rather
    than read as ints or floats."""
    if not isinstance(s, str):
        raise ParseError("scalar %r must be a string" % (s,), where=where)
    try:
        return field.parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad scalar %r (%s)" % (s, exc), where=where)


def _rows(doc, key, field, dim, nidx):
    """The nonzero rows of doc[key], a list of [index, ..., scalar] rows
    with `nidx` indices each, as (indices, scalar) pairs.  An index tuple
    may occur in one row only."""
    rows = _want(doc, key, "$")
    if not isinstance(rows, list):
        raise ParseError("%s must be a list" % key, where="$.%s" % key)
    out = []
    seen = set()
    for pos, row in enumerate(rows):
        where = "$.%s[%d]" % (key, pos)
        if not isinstance(row, list) or len(row) != nidx + 1:
            raise ParseError("%s entry must be [%s, scalar]"
                             % (key, ", ".join("ijk"[:nidx])), where=where)
        idx = tuple(_index(i, dim, where) for i in row[:nidx])
        if idx in seen:
            raise ShapeError("%s: repeated index %r" % (where, list(idx)))
        seen.add(idx)
        c = _scalar(field, row[nidx], where)
        if not field.is_zero(c):
            out.append((idx, c))
    return out


def load(doc):
    """Parse a JSON document (already decoded) into a datum.

    Raises ParseError for malformed content and ShapeError for structural
    problems such as out-of-range indices.
    """
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object", where="$")
    spec = _want(doc, "field", "$")
    if not isinstance(spec, dict):
        raise ParseError("field must be an object", where="$.field")
    try:
        field = field_from_spec(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError("bad field spec (%s)" % exc, where="$.field")
    dim = _want(doc, "dim", "$")
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("dim must be a positive integer", where="$.dim")

    product = {}
    for (i, j, k), c in _rows(doc, "product", field, dim, 3):
        product.setdefault((i, j), []).append((k, c))
    product = {ij: tuple(sorted(terms)) for ij, terms in product.items()}

    unit_t = _tensor_from_json(field, dim, _want(doc, "unit", "$"), 1, "$.unit")
    unit = {i: c for (i,), c in unit_t.entries.items()}

    delta_rows = {}
    for (i, j, k), c in _rows(doc, "delta", field, dim, 3):
        delta_rows.setdefault(i, []).append(((j, k), c))
    delta_rows = {i: tuple(sorted(r)) for i, r in delta_rows.items()}

    eps_doc = _want(doc, "epsilon", "$")
    if not isinstance(eps_doc, list) or len(eps_doc) != dim:
        raise ShapeError("$.epsilon: expected %d scalars" % dim)
    eps = tuple(_scalar(field, s, "$.epsilon[%d]" % pos)
                for pos, s in enumerate(eps_doc))

    s_rows = {}
    for (i, j), c in _rows(doc, "antipode", field, dim, 2):
        s_rows.setdefault(i, []).append((j, c))
    s_rows = {i: tuple(sorted(r)) for i, r in s_rows.items()}

    phi = _tensor_from_json(field, dim, _want(doc, "phi", "$"), 3, "$.phi")
    alpha = _tensor_from_json(field, dim, _want(doc, "alpha", "$"), 1, "$.alpha")
    beta = _tensor_from_json(field, dim, _want(doc, "beta", "$"), 1, "$.beta")
    R = (_tensor_from_json(field, dim, doc["R"], 2, "$.R")
         if doc.get("R") is not None else None)
    v = (_tensor_from_json(field, dim, doc["v"], 1, "$.v")
         if doc.get("v") is not None else None)
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be an object", where="$.metadata")
    return QuasiHopfDatum(field, dim, product, unit, delta_rows, eps, phi,
                          s_rows, alpha, beta, R=R, v=v, metadata=metadata)


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc.msg, line=exc.lineno,
                         column=exc.colno)
    return load(doc)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ----- verifiers ---------------------------------------------------------


def _diffw(lhs, rhs, limit, **extra):
    """Witness dict (or None) with up to `limit` differing coordinates;
    limit None means the full diff."""
    diffs = diff_entries(lhs, rhs, limit)
    if not diffs:
        return None
    w = witness_from(diffs[0], **extra)
    if limit != 1 and len(diffs) > 1:
        w["diffs"] = [{"index": list(k), "lhs": a, "rhs": b}
                      for k, a, b in diffs]
    return w


def _record(rep, name, witness, early_stop):
    if witness is None:
        rep.add_pass(name)
        return False
    rep.add_fail(name, witness)
    return early_stop


def _per_basis(rep, name, d, make_lhs_rhs, early_stop, limit):
    for i in range(d.dim):
        lhs, rhs = make_lhs_rhs(i)
        w = _diffw(lhs, rhs, limit, basis=i)
        if w is not None:
            rep.add_fail(name, w)
            return early_stop
    rep.add_pass(name)
    return False


def verify_quasi_bialgebra(d, early_stop=False, witness_limit=1):
    """Check every axiom of the first layer; failures carry witnesses (the
    first differing coordinate, or the full diff when witness_limit is
    None)."""
    rep = CheckReport()
    alg = d.algebra
    f = d.field
    limit = witness_limit

    # associativity and unitality of the product
    diff = None
    for i in range(d.dim):
        ei = {i: f.one}
        for j in range(d.dim):
            ij = alg.vec_mul(ei, {j: f.one})
            for k in range(d.dim):
                lhs = alg.vec_mul(ij, {k: f.one})
                rhs = alg.vec_mul(ei, alg.vec_mul({j: f.one}, {k: f.one}))
                if lhs != rhs:
                    diff = witness_from(((i, j, k), repr(lhs), repr(rhs)))
                    break
            if diff:
                break
        if diff:
            break
    if _record(rep, "product_associative", diff, early_stop):
        return rep

    diff = None
    u = alg.unit_coeffs
    for i in range(d.dim):
        ei = {i: f.one}
        if alg.vec_mul(u, ei) != ei or alg.vec_mul(ei, u) != ei:
            diff = witness_from(((i,), "1*e_i or e_i*1", "e_i"))
            break
    if _record(rep, "product_unital", diff, early_stop):
        return rep

    # counit is an algebra map
    diff = None
    if d.eps_of(d.unit) != f.one:
        diff = witness_from(((), f.to_str(d.eps_of(d.unit)), "1"))
    else:
        for i in range(d.dim):
            for j in range(d.dim):
                lhs = d.eps_of(d.mul(d.basis(i), d.basis(j)))
                rhs = f.mul(d.eps[i], d.eps[j])
                if lhs != rhs:
                    diff = witness_from(((i, j), f.to_str(lhs), f.to_str(rhs)))
                    break
            if diff:
                break
    if _record(rep, "epsilon_alg_hom", diff, early_stop):
        return rep

    # counitality
    stop = _per_basis(
        rep, "counitality", d,
        lambda i: (concat(apply_legs(d.coproduct(d.basis(i)),
                                     [d.leg("eps"), LEG_ID]),
                          apply_legs(d.coproduct(d.basis(i)),
                                     [LEG_ID, d.leg("eps")])),
                   concat(d.basis(i), d.basis(i))),
        early_stop, limit)
    if stop:
        return rep

    # coproduct is an algebra map
    diff = _diffw(d.coproduct(d.unit), d.unit_tensor(2), limit)
    if diff is None:
        for i in range(d.dim):
            di = d.coproduct(d.basis(i))
            for j in range(d.dim):
                lhs = d.coproduct(d.mul(d.basis(i), d.basis(j)))
                rhs = mult(di, d.coproduct(d.basis(j)), alg)
                diff = _diffw(lhs, rhs, limit, basis=[i, j])
                if diff is not None:
                    break
            if diff:
                break
    if _record(rep, "delta_alg_hom", diff, early_stop):
        return rep

    # counit-associator axiom
    diff = _diffw(apply_legs(d.phi, [LEG_ID, d.leg("eps"), LEG_ID]),
                  d.unit_tensor(2), limit)
    if _record(rep, "counit_associator_axiom", diff, early_stop):
        return rep

    # invertibility of the associator
    try:
        phi_inv = d.phi_inv
        rep.add_pass("phi_invertible")
    except NotInvertible as exc:
        rep.add_fail("phi_invertible", {"reason": str(exc)})
        return rep  # nothing below makes sense without the inverse

    # quasi-coassociativity
    def qc(i):
        dd = d.coproduct(d.basis(i))
        lhs = mult(apply_legs(dd, [LEG_ID, d.leg("D")]), d.phi, alg)
        rhs = mult(d.phi, apply_legs(dd, [d.leg("D"), LEG_ID]), alg)
        return lhs, rhs

    if _per_basis(rep, "quasi_coassociativity", d, qc, early_stop, limit):
        return rep

    # pentagon
    lhs = mult(apply_legs(d.phi, [LEG_ID, LEG_ID, d.leg("D")]),
               apply_legs(d.phi, [d.leg("D"), LEG_ID, LEG_ID]), alg)
    rhs = mul_all(alg,
                  insert_leg(d.phi, 0, d.unit),
                  apply_legs(d.phi, [LEG_ID, d.leg("D"), LEG_ID]),
                  insert_leg(d.phi, 3, d.unit))
    if _record(rep, "pentagon", _diffw(lhs, rhs, limit), early_stop):
        return rep

    # derived property: the counit kills the outer associator legs too
    one2 = d.unit_tensor(2)
    diff = _diffw(apply_legs(d.phi, [d.leg("eps"), LEG_ID, LEG_ID]), one2, limit)
    if diff is None:
        diff = _diffw(apply_legs(d.phi, [LEG_ID, LEG_ID, d.leg("eps")]), one2,
                      limit)
    _record(rep, "counit_associator_property", diff, early_stop)
    return rep


def verify_quasi_hopf(d, early_stop=False, witness_limit=1):
    """Check the antipode layer; assumes the quasi-bialgebra layer holds."""
    rep = CheckReport()
    alg = d.algebra
    f = d.field
    limit = witness_limit

    diff = None
    su = d.antipode(d.unit)
    if su != d.unit:
        diff = witness_from(((), "S(1)", "1"))
    else:
        try:
            d.s_inv_rows
        except NotInvertible:
            diff = witness_from(((), "S is singular", "invertible"))
    if diff is None:
        for i in range(d.dim):
            for j in range(d.dim):
                lhs = d.antipode(d.mul(d.basis(i), d.basis(j)))
                rhs = d.mul(d.antipode(d.basis(j)), d.antipode(d.basis(i)))
                diff = _diffw(lhs, rhs, limit, basis=[i, j])
                if diff is not None:
                    break
            if diff:
                break
    if _record(rep, "antipode_antiautomorphism", diff, early_stop):
        return rep

    def left_eq(i):
        t = apply_legs(d.coproduct(d.basis(i)), [d.leg("S"), LEG_ID])
        lhs = mul_adjacent(mul_adjacent(insert_leg(t, 1, d.alpha), 0, alg), 0, alg)
        return lhs, scale(d.alpha, d.eps[i])

    if _per_basis(rep, "left_antipode_equation", d, left_eq, early_stop, limit):
        return rep

    def right_eq(i):
        t = apply_legs(d.coproduct(d.basis(i)), [LEG_ID, d.leg("S")])
        lhs = mul_adjacent(mul_adjacent(insert_leg(t, 1, d.beta), 0, alg), 0, alg)
        return lhs, scale(d.beta, d.eps[i])

    if _per_basis(rep, "right_antipode_equation", d, right_eq, early_stop, limit):
        return rep

    one = d.unit_tensor(1)
    lhs = d.hsum([(d.phi, ("x", "y", "z"))],
                 [["x", d.beta, ("S", ["y"]), d.alpha, "z"]])
    if _record(rep, "duality_left", _diffw(lhs, one, limit), early_stop):
        return rep

    lhs = d.hsum([(d.phi_inv, ("x", "y", "z"))],
                 [[("S", ["x"]), d.alpha, "y", d.beta, ("S", ["z"])]])
    if _record(rep, "duality_right", _diffw(lhs, one, limit), early_stop):
        return rep

    diff = None
    for i in range(d.dim):
        lhs = d.eps_of(d.antipode(d.basis(i)))
        if lhs != d.eps[i]:
            diff = witness_from(((i,), f.to_str(lhs), f.to_str(d.eps[i])))
            break
    if _record(rep, "counit_antipode", diff, early_stop):
        return rep

    prod = f.mul(d.eps_of(d.alpha), d.eps_of(d.beta))
    diff = None if prod == f.one \
        else witness_from(((), f.to_str(prod), "1"))
    _record(rep, "counit_alpha_beta", diff, early_stop)
    return rep


def verify_quasitriangular(d, early_stop=False, witness_limit=1):
    """Check the R-matrix layer; assumes the quasi-Hopf layer holds."""
    if d.R is None:
        raise MissingR("datum carries no R-matrix")
    rep = CheckReport()
    alg = d.algebra
    limit = witness_limit

    try:
        r_inv = d.r_inv
        rep.add_pass("r_invertible")
    except NotInvertible as exc:
        rep.add_fail("r_invertible", {"reason": str(exc)})
        return rep

    one = d.unit_tensor(1)
    diff = _diffw(apply_legs(d.R, [d.leg("eps"), LEG_ID]), one, limit)
    if _record(rep, "r_counit_left", diff, early_stop):
        return rep
    diff = _diffw(apply_legs(d.R, [LEG_ID, d.leg("eps")]), one, limit)
    if _record(rep, "r_counit_right", diff, early_stop):
        return rep

    def qcc(i):
        dt = d.coproduct(d.basis(i))
        return mult(flip(dt, 0, 1), d.R, alg), mult(d.R, dt, alg)

    if _per_basis(rep, "quasi_cocommutativity", d, qcc, early_stop, limit):
        return rep

    # both hexagons, right-hand sides as fully factored 5-term products
    lhs = apply_legs(d.R, [d.leg("D"), LEG_ID])
    rhs = mul_all(alg,
                  permute_legs(d.phi, (1, 2, 0)),
                  insert_leg(d.R, 1, d.unit),
                  permute_legs(d.phi_inv, (0, 2, 1)),
                  insert_leg(d.R, 0, d.unit),
                  d.phi)
    if _record(rep, "hexagon_left", _diffw(lhs, rhs, limit), early_stop):
        return rep

    lhs = apply_legs(d.R, [LEG_ID, d.leg("D")])
    rhs = mul_all(alg,
                  permute_legs(d.phi_inv, (2, 0, 1)),
                  insert_leg(d.R, 1, d.unit),
                  permute_legs(d.phi, (1, 0, 2)),
                  insert_leg(d.R, 2, d.unit),
                  d.phi_inv)
    if _record(rep, "hexagon_right", _diffw(lhs, rhs, limit), early_stop):
        return rep

    from .derived import big_f  # local import to avoid a module cycle
    de = big_f(d)
    lhs = apply_legs(d.R, [d.leg("S"), d.leg("S")])
    rhs = mul_all(alg, flip(de.F, 0, 1), d.R, de.F_inv)
    _record(rep, "r_antipode", _diffw(lhs, rhs, limit), early_stop)
    return rep


LEVELS = ("bialgebra", "hopf", "qt", "ribbon")


def default_level(d):
    if d.v is not None:
        return "ribbon"
    if d.R is not None:
        return "qt"
    return "hopf"


def verify(d, level=None, early_stop=False, witness_limit=1):
    """Run all verifier layers up to the requested level, merged into one
    report.  The ribbon layer needs a candidate stored in the datum."""
    level = level or default_level(d)
    if level not in LEVELS:
        raise ValueError("unknown level %r" % level)
    rep = verify_quasi_bialgebra(d, early_stop=early_stop,
                                 witness_limit=witness_limit)
    # a layer runs only when its preconditions hold: the antipode and
    # R-matrix layers use the inverse associator, and the ribbon layer's
    # builders assume every axiom below it
    if (level == "bialgebra" or (early_stop and not rep.ok)
            or any(c.name == "phi_invertible" for c in rep.failures())):
        return rep
    rep.extend(verify_quasi_hopf(d, early_stop=early_stop,
                                 witness_limit=witness_limit))
    if level == "hopf" or (early_stop and not rep.ok):
        return rep
    rep.extend(verify_quasitriangular(d, early_stop=early_stop,
                                      witness_limit=witness_limit))
    if level == "qt" or not rep.ok:
        return rep
    from .ribbon import check_main_theorem, check_ribbon_lemma, is_ribbon
    if d.v is None:
        raise MissingR("ribbon level requested but the datum has no candidate v")
    rep.extend(is_ribbon(d, d.v))
    if not (early_stop and not rep.ok):
        rep.extend(check_ribbon_lemma(d, d.v))
        rep.extend(check_main_theorem(d, d.v))
    return rep
