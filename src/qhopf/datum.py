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
from collections import namedtuple

from . import linalg
from .errors import MissingR, NotInvertible, ParseError, ShapeError
from .report import CheckReport
from .scalars import field_from_spec
from .tensor import (Algebra, SparseTensor, LEG_ID, apply_legs, basis_vector,
                     checked_inverse, coprod_leg, counit_leg, flip, hom_sum,
                     invert, lin_leg, mul_all, mult, scale, vector)


def cop_rows(rows):
    """Coproduct rows with the two output legs swapped, each row sorted."""
    return {i: tuple(sorted(((k, j), c) for (j, k), c in row))
            for i, row in rows.items()}


# the one text for each optional part a datum may lack, in skipped identity
# lines and in the errors of whatever needs that part
MISSING = {"R": "datum has no R-matrix", "v": "datum has no ribbon candidate"}

LegMap = namedtuple("LegMap", "width build")
# the leg maps of `QuasiHopfDatum.leg` and of map[...] in the identity
# language: the number of legs each makes of one, and its Leg on a datum
LEGS = {
    "id": LegMap(1, lambda d: LEG_ID),
    "S": LegMap(1, lambda d: lin_leg(d.field, d.s_rows)),
    "Sinv": LegMap(1, lambda d: lin_leg(d.field, d.s_inv_rows)),
    "eps": LegMap(0, lambda d: counit_leg(d.field, d.eps)),
    "D": LegMap(2, lambda d: coprod_leg(d.field, d.delta_rows)),
    "Dcop": LegMap(2, lambda d: coprod_leg(d.field, cop_rows(d.delta_rows))),
}


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
        # every derived value, built once by cache(); inverses given by the
        # caller are stored up front, and verify checks them
        self._store = {key: value for key, value in
                       (("phi_inv", phi_inv), ("R_inv", R_inv))
                       if value is not None}
        self.supplied = frozenset(self._store)

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
        eps = self.eps
        return self.field.canon(sum([c * eps[i]
                                     for (i,), c in t.entries.items()]))

    def coproduct(self, t):
        return apply_legs(t, [self.leg("D")])

    def antipode(self, t):
        return apply_legs(t, [self.leg("S")] * t.arity)

    def leg(self, name):
        return self.cache(("leg", name), lambda: LEGS[name].build(self))

    def legs(self, *names):
        return [self.leg(n) for n in names]

    @property
    def phi_inv(self):
        return self.cache("phi_inv", lambda: invert(self.phi, self.algebra))

    @property
    def p_r(self):
        """Hausser-Nill's p_R = x (x) y beta S(z), summed over the entries
        x (x) y (x) z of the inverse associator; built once per datum."""
        return self.cache("p_r", lambda: self.hsum(
            [(self.phi_inv, ("x", "y", "z"))],
            [["x"], ["y", self.beta, ("S", ["z"])]]))

    @property
    def q_l(self):
        """Hausser-Nill's q_L = S(x) alpha y (x) z over the inverse
        associator, its mirror; built once per datum."""
        return self.cache("q_l", lambda: self.hsum(
            [(self.phi_inv, ("x", "y", "z"))],
            [[("S", ["x"]), self.alpha, "y"], ["z"]]))

    def ev(self, t):
        """The evaluation contraction S(t1) alpha t2 of an arity-2 t: alpha
        of the twist by t^-1, the left antipode equation at t = Delta(a)."""
        return self.hsum([(t, ("a", "b"))], [[("S", ["a"]), self.alpha, "b"]])

    def coev(self, t):
        """The coevaluation contraction t1 beta S(t2) of an arity-2 t: beta
        of the twist by t, the right antipode equation at t = Delta(a)."""
        return self.hsum([(t, ("a", "b"))], [["a", self.beta, ("S", ["b"])]])

    @property
    def r_inv(self):
        if self.R is None:
            raise MissingR(MISSING["R"])
        return self.cache("R_inv", lambda: invert(self.R, self.algebra))

    @property
    def s_inv_rows(self):
        def build():
            inv = linalg.invert_matrix(self.field, self.s_rows, self.dim)
            if inv is None:
                raise NotInvertible("antipode matrix is singular")
            return inv
        return self.cache("s_inv_rows", build)

    def hsum(self, factors, out):
        return hom_sum(self.algebra, self.leg, factors, out)

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
        # an inverse carries over while the product, the unit and what it
        # inverts are unchanged
        for key, source in (("phi_inv", "phi"), ("R_inv", "R")):
            if not kw.keys() & {source, "product", "unit"}:
                args[key] = self._store.get(key)
        args.update(kw)
        return QuasiHopfDatum(**args)

    # ----- serialization -------------------------------------------------

    def to_json(self):
        f = self.field
        doc = {
            "field": f.spec(),
            "dim": self.dim,
            "product": [[i, j, k, str(c)]
                        for (i, j), terms in sorted(self.algebra.struct.items())
                        for k, c in sorted(terms)],
            "unit": vector(f, self.dim, self.algebra.unit_coeffs).to_json(),
            "delta": [[i, j, k, str(c)]
                      for i, row in sorted(self.delta_rows.items())
                      for (j, k), c in sorted(row)],
            "epsilon": [str(c) for c in self.eps],
            "phi": self.phi.to_json(),
            "antipode": [[i, j, str(c)]
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
        def build():
            import hashlib
            blob = json.dumps(self.to_json(), sort_keys=True,
                              separators=(",", ":")).encode()
            return hashlib.sha256(blob).hexdigest()
        return self.cache("hash", build)

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
    if (obj["arity"] != arity or not isinstance(obj["arity"], int)
            or isinstance(obj["arity"], bool)):
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
        if c:
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
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
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
    metadata = doc.get("metadata")  # null, like a missing key, is none
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata must be an object", where="$.metadata")
    return QuasiHopfDatum(field, dim, product, unit, delta_rows, eps, phi,
                          s_rows, alpha, beta, R=R, v=v, metadata=metadata)


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc.msg, line=exc.lineno,
                         column=exc.colno)
    except (RecursionError, ValueError) as exc:
        # nesting past the interpreter's recursion limit, or an integer
        # past its digit limit (whose message ends in advice to Python code)
        raise ParseError("invalid JSON: %s" % str(exc).split(";")[0])
    return load(doc)


def load_path(path):
    return loads(read_text(path))


def read_text(path):
    """The text of a UTF-8 file; one that is not UTF-8 is a ParseError that
    names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s: %s" % (path, exc))


# ----- verifiers ---------------------------------------------------------
# Each identity with a line in the identity corpus is stated there once,
# under the check's name, and run by name (`dsl.check_named`); the checks
# over pairs of basis elements, the antipode equations, duality, the
# invertibility checks and r_antipode (see there) are stated here.


def _named(rep, d, names):
    from .dsl import check_named
    return rep.extend(check_named(d, names))


def _checked(d, key, t, inv):
    """inv, d's inverse of t under key.  One supplied to the constructor is
    a certificate, which changes time, never a verdict: where it fails the
    product check that invert() runs, invert() computes the inverse, which
    d then keeps under key."""
    if key in d.supplied:
        try:
            return checked_inverse(t, inv, d.algebra)
        except NotInvertible:
            inv = d._store[key] = invert(t, d.algebra)
    return inv


def _algebra_map(d, name):
    """The cases of "the leg map `name` is an algebra map", an anti-map for
    S: L(1) = 1, then L(e_i e_j) = L(e_i) L(e_j), the factors swapped for S,
    for every pair i, j.  Each L(e_i) is formed once, and L(e_i e_j) is
    the combination of them that the structure constants of e_i e_j give,
    as L is linear."""
    legs, alg, width = d.legs(name), d.algebra, LEGS[name].width
    yield apply_legs(d.unit, legs), d.unit_tensor(width), {}
    if name == "S":
        d.s_inv_rows  # a singular antipode fails the check with the reason
    images = [apply_legs(d.basis(i), legs) for i in range(d.dim)]
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            lhs = {}
            for k, c in alg.struct.get((i, j), ()):
                for key, v in images[k].entries.items():
                    lhs[key] = lhs.get(key, 0) + c * v
            yield (SparseTensor.make(d.field, width, d.dim, lhs),
                   mult(b, a, alg) if name == "S" else mult(a, b, alg),
                   {"basis": [i, j]})


def verify_quasi_bialgebra(d):
    """Check every axiom of the first layer; a failing check keeps its
    first failing case."""
    rep = CheckReport()
    alg = d.algebra
    f = d.field
    n = d.dim

    # associativity and unitality of the product, on {index: scalar} dicts;
    # only a failing case becomes a pair of tensors.  A triple outside one
    # block is zero on both sides; blocks are sorted, so the order is kept.
    def associativity():
        for i in range(n):
            ei, block = {i: f.one}, alg.blocks[alg.block_of[i]]
            for j in block:
                ij = alg.vec_mul(ei, {j: f.one})
                for k in block:
                    lhs = alg.vec_mul(ij, {k: f.one})
                    rhs = alg.vec_mul(ei, alg.vec_mul({j: f.one}, {k: f.one}))
                    if lhs != rhs:
                        yield (vector(f, n, lhs), vector(f, n, rhs),
                               {"basis": [i, j, k]})
    rep.compare_each("product_associative", associativity())

    # the unit's part on another block multiplies e_i to zero
    def unitality():
        parts = {}
        for j, c in alg.unit_coeffs.items():
            parts.setdefault(alg.block_of[j], {})[j] = c
        for i in range(n):
            ei, u = {i: f.one}, parts.get(alg.block_of[i], {})
            for prod in (alg.vec_mul(u, ei), alg.vec_mul(ei, u)):
                if prod != ei:
                    yield vector(f, n, prod), d.basis(i), {"basis": i}
    rep.compare_each("product_unital", unitality())

    # the counit and the coproduct are algebra maps
    rep.compare_each("epsilon_alg_hom", _algebra_map(d, "eps"))
    _named(rep, d, ("counitality",))
    rep.compare_each("delta_alg_hom", _algebra_map(d, "D"))
    _named(rep, d, ("counit_associator_axiom",))

    if not rep.invertible("phi_invertible",
                          lambda: _checked(d, "phi_inv", d.phi, d.phi_inv)):
        return rep  # nothing below makes sense without the inverse

    # counit_associator_property: the counit kills the outer associator
    # legs too (a consequence of the axioms, checked as well)
    return _named(rep, d, ("quasi_coassociativity", "pentagon",
                           "counit_associator_property"))


def verify_quasi_hopf(d):
    """Check the antipode layer; assumes the quasi-bialgebra layer holds."""
    rep = CheckReport()

    rep.compare_each("antipode_antiautomorphism", _algebra_map(d, "S"))

    # the two antipode equations, per basis element
    for name, contract, elt in (
            ("left_antipode_equation", d.ev, d.alpha),
            ("right_antipode_equation", d.coev, d.beta)):
        rep.compare_each(name, (
            (contract(d.coproduct(d.basis(i))), scale(elt, d.eps[i]),
             {"basis": i})
            for i in range(d.dim)))

    one = d.unit_tensor(1)
    rep.compare("duality_left",
                d.hsum([(d.phi, ("x", "y", "z"))],
                       [["x", d.beta, ("S", ["y"]), d.alpha, "z"]]), one)
    rep.compare("duality_right", d.coev(d.q_l), one)
    return _named(rep, d, ("counit_antipode", "counit_alpha_beta"))


def verify_quasitriangular(d):
    """Check the R-matrix layer; assumes the quasi-Hopf layer holds."""
    if d.R is None:
        raise MissingR(MISSING["R"])
    rep = CheckReport()
    if not rep.invertible("r_invertible",
                          lambda: _checked(d, "R_inv", d.R, d.r_inv)):
        return rep
    _named(rep, d, ("r_counit_left", "r_counit_right", "quasi_cocommutativity",
                    "hexagon_left", "hexagon_right"))

    # stated here, not by its corpus line, which inverts F where this check
    # uses the inverse formula F_inv: on data that break the antipode layer
    # the two differ, and either may fail alone
    from .derived import big_f  # local import to avoid a module cycle
    de = big_f(d)
    return rep.compare("r_antipode", apply_legs(d.R, d.legs("S", "S")),
                       mul_all(d.algebra, flip(de.F, 0, 1), d.R, de.F_inv))


LEVELS = ("bialgebra", "hopf", "qt", "ribbon")


def default_level(d):
    if d.v is not None:
        return "ribbon"
    if d.R is not None:
        return "qt"
    return "hopf"


def verify(d, level=None):
    """Run all verifier layers up to the requested level, merged into one
    report.  The ribbon layer needs a candidate stored in the datum."""
    level = level or default_level(d)
    if level not in LEVELS:
        raise ValueError("unknown level %r" % level)
    rep = verify_quasi_bialgebra(d)
    # a layer runs only when its preconditions hold: the antipode and
    # R-matrix layers use the inverse associator, and the ribbon layer's
    # builders assume every axiom below it
    if (level == "bialgebra"
            or any(c.name == "phi_invertible" for c in rep.failures())):
        return rep
    rep.extend(verify_quasi_hopf(d))
    if level == "hopf":
        return rep
    rep.extend(verify_quasitriangular(d))
    if level == "qt" or not rep.ok:
        return rep
    from .ribbon import verify_ribbon
    if d.v is None:
        raise MissingR(MISSING["v"])
    return rep.extend(verify_ribbon(d, d.v))
