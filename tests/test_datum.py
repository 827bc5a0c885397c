import gc
import json
import tracemalloc

import pytest

from qhopf import (FiniteAbelianGroup, default_level, group_algebra, load,
                   loads, random_twist, twist, verify, verify_quasi_bialgebra,
                   verify_quasi_hopf, verify_quasitriangular)
from qhopf.errors import MissingR, NotInvertible, ParseError, ShapeError
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField
from qhopf.report import CheckReport
from qhopf.datum import LEGS, _algebra_map
from qhopf.tensor import SparseTensor, apply_legs, invert, mult, scale, vector

from mutation import all_layers_of, merge_blocks, mutate


def test_round_trip_all_examples(kz2, fz2w, fz3w, sw, dz2_f5, dz2, dz2w, dz3,
                                 dz3w):
    for d in (kz2, fz2w, fz3w, sw, dz2_f5, dz2, dz2w, dz3, dz3w):
        assert load(d.to_json()) == d
        assert loads(d.dumps()) == d
        assert loads(d.dumps()).content_hash() == d.content_hash()


def test_load_rejects_bad_index(kz2):
    doc = kz2.to_json()
    doc["phi"] = {"arity": 3, "entries": [[[0, 0, 5], "1"]]}
    with pytest.raises(ShapeError):
        load(doc)


def test_load_rejects_bad_scalar(kz2):
    doc = kz2.to_json()
    doc["epsilon"] = ["1", "bogus"]
    with pytest.raises(ParseError):
        load(doc)


def test_load_rejects_number_as_prime_scalar(kz2):
    doc = kz2.to_json()
    doc["epsilon"] = [1, "1"]
    with pytest.raises(ParseError) as err:
        load(doc)
    assert err.value.where == "$.epsilon[0]"


def test_load_rejects_number_as_rational_scalar(sw):
    doc = sw.to_json()
    doc["product"][0][3] = 1
    with pytest.raises(ParseError) as err:
        load(doc)
    assert err.value.where == "$.product[0]"


def test_load_rejects_bool_index(kz2):
    doc = kz2.to_json()
    doc["antipode"][0][1] = True
    with pytest.raises(ShapeError):
        load(doc)


def test_load_rejects_bool_tensor_key(kz2):
    doc = kz2.to_json()
    doc["alpha"] = {"arity": 1, "entries": [[[False], "1"]]}
    with pytest.raises(ShapeError):
        load(doc)


@pytest.mark.parametrize("key, value", [
    ("product", 5), ("antipode", None),
    ("alpha", {"arity": 1, "entries": 5}), ("phi", {"arity": 3, "entries": {}})])
def test_load_rejects_non_list_rows(kz2, key, value):
    doc = kz2.to_json()
    doc[key] = value
    with pytest.raises(ParseError):
        load(doc)


@pytest.mark.parametrize("key", ["product", "delta", "antipode"])
def test_load_rejects_repeated_row_index(kz2, key):
    doc = kz2.to_json()
    doc[key].append(list(doc[key][0]))
    with pytest.raises(ShapeError) as err:
        load(doc)
    assert "repeated index" in str(err.value)
    assert "$.%s[%d]" % (key, len(doc[key]) - 1) in str(err.value)


@pytest.mark.parametrize("key", ["unit", "phi", "alpha", "R"])
def test_load_rejects_repeated_tensor_key(kz2, key):
    doc = kz2.to_json()
    entries = doc[key]["entries"]
    entries.insert(1, [list(entries[0][0]), entries[0][1]])
    with pytest.raises(ShapeError) as err:
        load(doc)
    assert "repeated key" in str(err.value)
    assert "$.%s.entries[1]" % key in str(err.value)


@pytest.mark.parametrize("value", ["p:7", None, 1, 2.5, [], True],
                         ids=["string", "null", "int", "float", "list", "bool"])
def test_load_rejects_non_object_field(kz2, value):
    doc = kz2.to_json()
    doc["field"] = value
    with pytest.raises(ParseError) as err:
        load(doc)
    assert err.value.where == "$.field"


@pytest.mark.parametrize("value", [True, False])
def test_load_rejects_bool_dim(value):
    # true would otherwise load as dim 1: K[Z1] is a valid datum of dim 1
    doc = group_algebra(FiniteAbelianGroup((1,)), PrimeField(5)).to_json()
    doc["dim"] = value
    with pytest.raises(ParseError) as err:
        load(doc)
    assert err.value.where == "$.dim"


@pytest.mark.parametrize("value", [[], 0, "", False, 5, [1], "x"])
def test_load_rejects_non_object_metadata(kz2, value):
    doc = kz2.to_json()
    doc["metadata"] = value
    with pytest.raises(ParseError) as err:
        load(doc)
    assert err.value.where == "$.metadata"


def test_load_reads_null_metadata_as_absent(kz2):
    doc = kz2.to_json()
    doc["metadata"] = None
    assert load(doc).metadata == {}


def test_load_rejects_wrong_arity(kz2):
    doc = kz2.to_json()
    doc["alpha"] = {"arity": 2, "entries": [[[0, 0], "1"]]}
    with pytest.raises(ShapeError):
        load(doc)
    # true and 1.0 equal 1 but are not arities
    for arity in (True, 1.0):
        doc["alpha"] = {"arity": arity, "entries": [[[0], "1"]]}
        with pytest.raises(ShapeError):
            load(doc)


def test_loads_position_on_bad_json():
    with pytest.raises(ParseError) as err:
        loads("{ not json")
    assert err.value.line == 1


def test_load_missing_key(kz2):
    doc = kz2.to_json()
    del doc["delta"]
    with pytest.raises(ParseError):
        load(doc)


def test_content_hash_stable(kz2):
    assert kz2.content_hash() == load(kz2.to_json()).content_hash()


def test_default_level(kz2, fz2w, sw):
    assert default_level(kz2) == "ribbon"  # carries v
    assert default_level(fz2w) == "hopf"
    assert default_level(sw) == "qt"


def test_verify_layers_pass(kz2, fz2w, fz3w, sw):
    for d in (kz2, fz2w, fz3w, sw):
        assert verify_quasi_bialgebra(d).ok
        assert verify_quasi_hopf(d).ok
    assert verify_quasitriangular(kz2).ok
    assert verify_quasitriangular(sw).ok


def test_verify_requires_r(fz2w):
    with pytest.raises(MissingR):
        verify_quasitriangular(fz2w)


def test_counit_associator_axiom_shape(fz3w):
    # the middle-counit contraction of the associator is the unit square
    out = apply_legs(fz3w.phi, [fz3w.leg("id"), fz3w.leg("eps"), fz3w.leg("id")])
    assert out == fz3w.unit_tensor(2)


def test_r_counit_contraction(sw):
    out = apply_legs(sw.R, [sw.leg("eps"), sw.leg("id")])
    assert out == sw.unit_tensor(1)


def test_pentagon_failure_has_witness(fz2w):
    bad = mutate(fz2w, "phi", SplitMix64(11))
    rep = verify_quasi_bialgebra(bad)
    assert not rep.ok
    failing = {c.name for c in rep.failures()}
    assert failing  # at least one named check carries the failure
    for c in rep.failures():
        assert c.witness is not None


def test_counitality_sees_a_negated_counit(kz2):
    # with eps(g) = -1 both sides of the counit axiom give -g for g, and
    # (-g) (x) (-g) = g (x) g: each side is checked on its own
    f = kz2.field
    g = next(i for i in range(kz2.dim) if kz2.basis(i) != kz2.unit)
    eps = list(kz2.eps)
    eps[g] = f.canon(-1)
    rep = verify_quasi_bialgebra(kz2.with_changes(eps=eps))
    status = {c.name: c.status for c in rep.checks}
    assert status["epsilon_alg_hom"] == "pass"
    assert status["counitality"] == "fail"


def test_alpha_zeroed_breaks_duality(sw):
    from qhopf.tensor import SparseTensor
    bad = sw.with_changes(alpha=SparseTensor.make(sw.field, 1, 4, {}))
    rep = verify_quasi_hopf(bad)
    names = {c.name for c in rep.failures()}
    assert "duality_left" in names or "duality_right" in names


def test_verify_combined_level(kz2):
    rep = verify(kz2, level="ribbon")
    assert rep.ok
    # bialgebra + hopf + qt + ribbon checks all present
    names = [c.name for c in rep.checks]
    assert "pentagon" in names and "duality_left" in names
    assert "hexagon_left" in names and "ribbon_coproduct" in names


def test_report_json_round_trip(kz2):
    rep = verify_quasi_bialgebra(kz2)
    encoded = json.dumps(rep.to_dict())
    decoded = json.loads(encoded)
    assert all(c["status"] == "pass" for c in decoded)


def test_coproduct_leg_is_algebra_hom(fz3w):
    # applying the coproduct leg commutes with products, randomized pairs
    rng = SplitMix64(3)
    f = fz3w.field
    for _ in range(10):
        t1 = _random_vec(fz3w, rng)
        t2 = _random_vec(fz3w, rng)
        lhs = apply_legs(mult(t1, t2, fz3w.algebra), [fz3w.leg("D")])
        rhs = mult(apply_legs(t1, [fz3w.leg("D")]),
                   apply_legs(t2, [fz3w.leg("D")]), fz3w.algebra)
        assert lhs == rhs


def _random_vec(d, rng):
    from qhopf.tensor import SparseTensor
    items = {(i,): rng.below(d.field.size) for i in range(d.dim)}
    return SparseTensor.make(d.field, 1, d.dim, items)


@pytest.mark.parametrize("name, reason", [
    ("sw", "the zero tensor has no inverse"),
    ("dz3w", "left-multiplication system is singular")])
def test_singular_associator_stops_before_later_layers(name, reason, request):
    # the antipode and R-matrix layers use the inverse associator, so they
    # do not run; the failure is a check, not an escaped error
    doc = request.getfixturevalue(name).to_json()
    doc["phi"]["entries"][0][1] = "0"
    rep = verify(load(doc))
    assert not rep.ok
    assert rep.checks[-1].name == "phi_invertible"
    assert rep.checks[-1].witness == {"reason": reason}


def test_ribbon_layer_needs_the_layers_below(dz2_f5):
    # a broken evaluation element breaks the quasi-Hopf layer; the ribbon
    # builders assume it and are not run
    bad = mutate(dz2_f5, "alpha", SplitMix64(0))
    rep = verify(bad)
    assert not rep.ok
    names = [c.name for c in rep.checks]
    assert names[-1] == "r_antipode" and "ribbon_nonzero" not in names


def test_supplied_inverses_are_checked(dz3w):
    # an inverse given to the constructor is a certificate: one that fails
    # its product check says nothing of phi or R, so verify computes the
    # inverse as if none were given, keeps it, and the datum passes
    for key, inv in (("phi_inv", dz3w.phi_inv), ("R_inv", dz3w.r_inv)):
        bad = dz3w.with_changes(**{key: scale(inv, 2)})
        assert verify(bad).ok
        assert (bad.phi_inv if key == "phi_inv" else bad.r_inv) == inv
    # the builder supplies no inverse; one that verify computed carries
    # over to a copy as a supplied one
    assert dz3w.supplied == frozenset()
    assert bad.supplied == {"phi_inv", "R_inv"}


def _certificate(d, parent, t, parent_t):
    """The inverse of t on d, or where t has none there, the inverse of
    parent_t on parent: the stale certificate a mutant would carry."""
    try:
        return invert(t, d.algebra)
    except NotInvertible:
        return invert(parent_t, parent.algebra)


def test_copies_keep_only_inverses_that_still_invert(dz3w):
    # an inverse depends on the product and the unit as well as on what it
    # inverts; a copy with a new antipode keeps both
    from qhopf.derived import modify_antipode
    d = load(dz3w.to_json())
    d.phi_inv, d.r_inv
    assert d.supplied == frozenset()
    assert mutate(d, "product", SplitMix64(3)).supplied == frozenset()
    unit = {i: 2 * c for i, c in d.algebra.unit_coeffs.items()}
    assert d.with_changes(unit=unit).supplied == frozenset()
    kept = modify_antipode(d, scale(d.unit, 2))
    assert kept.supplied == {"phi_inv", "R_inv"}
    assert kept.phi_inv is d.phi_inv and kept.r_inv is d.r_inv


def test_a_certificate_changes_no_report(dz3w):
    # verify with the true inverses supplied, with none, and with both
    # scaled by 2 gives one report, on the double, its twist, and each
    # datum's seed-0 mutant of every layer
    twisted = twist(dz3w, random_twist(dz3w, 0))
    for parent in (dz3w, twisted):
        data = [parent] + [mutate(parent, layer, SplitMix64(0))
                           for layer in all_layers_of(parent)]
        for d in data:
            bare = d.with_changes(phi_inv=None, R_inv=None)
            phi_inv = _certificate(bare, parent, bare.phi, parent.phi)
            r_inv = _certificate(bare, parent, bare.R, parent.R)
            reports = [verify(bare.with_changes(phi_inv=p, R_inv=r)).to_dict()
                       for p, r in ((phi_inv, r_inv), (None, None),
                                    (scale(phi_inv, 2), scale(r_inv, 2)))]
            assert reports[0] == reports[1] == reports[2]


def _full_loops(d):
    """The four algebra-map checks over every triple and pair of basis
    indices, each image of a basis element formed per pair:
    product_associative, epsilon_alg_hom, delta_alg_hom and
    antipode_antiautomorphism."""
    alg, f, n = d.algebra, d.field, d.dim

    def associativity():
        for i in range(n):
            ei = {i: f.one}
            for j in range(n):
                ij = alg.vec_mul(ei, {j: f.one})
                for k in range(n):
                    lhs = alg.vec_mul(ij, {k: f.one})
                    rhs = alg.vec_mul(ei, alg.vec_mul({j: f.one}, {k: f.one}))
                    if lhs != rhs:
                        yield (vector(f, n, lhs), vector(f, n, rhs),
                               {"basis": [i, j, k]})

    def counit_multiplicative():
        one = d.unit_tensor(0)
        yield scale(one, d.eps_of(d.unit)), one, {}
        for i in range(n):
            for j in range(n):
                lhs = d.eps_of(d.mul(d.basis(i), d.basis(j)))
                rhs = f.canon(d.eps[i] * d.eps[j])
                if lhs != rhs:
                    yield scale(one, lhs), scale(one, rhs), {"basis": [i, j]}

    def coproduct_multiplicative():
        yield d.coproduct(d.unit), d.unit_tensor(2), {}
        for i in range(n):
            di = d.coproduct(d.basis(i))
            for j in range(n):
                yield (d.coproduct(d.mul(d.basis(i), d.basis(j))),
                       mult(di, d.coproduct(d.basis(j)), alg), {"basis": [i, j]})

    def antiautomorphism():
        yield d.antipode(d.unit), d.unit, {}
        d.s_inv_rows
        for i in range(n):
            for j in range(n):
                yield (d.antipode(d.mul(d.basis(i), d.basis(j))),
                       d.mul(d.antipode(d.basis(j)), d.antipode(d.basis(i))),
                       {"basis": [i, j]})
    rep = CheckReport()
    for name, cases in (("product_associative", associativity()),
                        ("epsilon_alg_hom", counit_multiplicative()),
                        ("delta_alg_hom", coproduct_multiplicative()),
                        ("antipode_antiautomorphism", antiautomorphism())):
        rep.compare_each(name, cases)
    return rep


@pytest.mark.parametrize("name", ["kz2", "fz2w", "fz3w", "sw", "dz2_f5", "dz2",
                                  "dz2w", "dz3", "dz3w"])
def test_block_loops_match_the_full_loops(name, request):
    # associativity runs over the triples of one block, and the counit,
    # coproduct and antipode checks form each image of a basis element
    # once; on seeded mutants of the product, coproduct, counit and
    # antipode, merged blocks included, statuses and witnesses are the full
    # loops'.  The antipode layer runs where the associator is invertible.
    d = request.getfixturevalue(name)
    mutants = [d] + [mutate(d, layer, SplitMix64(seed))
                     for layer in ("product", "delta", "epsilon", "S")
                     for seed in range(5)]
    if len(d.algebra.blocks) > 1:
        mutants += [merge_blocks(d, SplitMix64(seed)) for seed in range(2)]
    failing = set()
    for bad in mutants:
        for limit in (1, None):
            rep = verify_quasi_bialgebra(bad)
            if rep.checks[-1].name != "phi_invertible":
                rep.extend(verify_quasi_hopf(bad))
            got = {c.name: c.to_dict(limit) for c in rep.checks}
            for c in _full_loops(bad).checks:
                if c.name in got:
                    assert got[c.name] == c.to_dict(limit)
                    if c.status == "fail":
                        failing.add(c.name)
    assert failing == {"product_associative", "epsilon_alg_hom",
                       "delta_alg_hom", "antipode_antiautomorphism"}


def _parent_algebra_map(d, name):
    """The cases of _algebra_map(d, name) with L(e_i e_j) formed by applying
    L to the tensor e_i e_j."""
    legs, alg = d.legs(name), d.algebra
    yield apply_legs(d.unit, legs), d.unit_tensor(LEGS[name].width), {}
    if name == "S":
        d.s_inv_rows
    images = [apply_legs(d.basis(i), legs) for i in range(d.dim)]
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            eij = {}
            for k, c in alg.struct.get((i, j), ()):
                eij[(k,)] = eij.get((k,), 0) + c
            yield (apply_legs(SparseTensor.make(d.field, 1, d.dim, eij), legs),
                   mult(b, a, alg) if name == "S" else mult(a, b, alg),
                   {"basis": [i, j]})


def _cases(cases):
    """The cases up to a NotInvertible, and whether one was raised."""
    out = []
    try:
        for case in cases:
            out.append(case)
    except NotInvertible:
        return out, True
    return out, False


def test_algebra_map_cases_follow_by_linearity(dz3w, sw):
    # L(e_i e_j) as the combination of the images L(e_k) that the structure
    # constants of e_i e_j give is L applied to e_i e_j: on products with
    # several terms, on products that are not associative and on mutants of
    # every layer, every case of eps, D and S is the same
    from basis import scaled
    parents = [dz3w, twist(dz3w, random_twist(dz3w, 0)), sw, scaled("dense")[0]]
    for parent in parents:
        data = [parent] + [mutate(parent, layer, SplitMix64(seed))
                           for layer in all_layers_of(parent) for seed in (0, 1)]
        for d in data:
            for name in ("eps", "D", "S"):
                got = _cases(_algebra_map(d, name))
                assert got == _cases(_parent_algebra_map(d, name))
                assert len(got[0]) == 1 + d.dim ** 2 or got[1]


def test_a_singular_antipode_fails_with_its_reason(kz2):
    # S(1) = 1 holds, so the check reaches the inverse of the antipode
    bad = kz2.with_changes(s_rows={0: kz2.s_rows[0]})
    check = verify_quasi_hopf(bad).checks[0]
    assert check.to_dict() == {"name": "antipode_antiautomorphism",
                               "status": "fail",
                               "witness": {"reason":
                                           "antipode matrix is singular"}}


def test_verify_peak_memory_on_a_twist(dz3w):
    # the pentagon's arity-4 products set the peak of verify on twisted
    # data.  A line keeps only the values it reads again, and a product
    # drops its operand trees before it keys its output: the peak is about
    # 3.1 MB here, 3.55 MB with the first alone, and 4.4 MB when every
    # value lived to the end of its line and the trees to the end of the
    # product
    import qhopf.derived, qhopf.drinfeld, qhopf.trees  # compiled untraced
    d = loads(twist(dz3w, random_twist(dz3w, 0)).dumps())
    gc.collect()
    tracemalloc.start()
    try:
        assert verify(d).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6
