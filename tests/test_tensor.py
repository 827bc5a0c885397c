import contextlib
import functools
import json
from itertools import product as iproduct

import pytest

from qhopf import (FiniteAbelianGroup, big_f, check_twist_elements,
                   cocycle_for, dpr_double, drinfeld_u, modify_antipode,
                   random_twist, recover_modifier, rtwist_elements, sweedler,
                   twist, u_tilde, verify, verify_quasi_hopf)
from qhopf import datum, derived, dsl, linalg, ribbon, trees
from qhopf.errors import ArityMismatch, NotInvertible, QhopfError, ShapeMismatch
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField, RationalField
from qhopf import tensor as te
from qhopf.report import diff_witness
from qhopf.tensor import (Algebra, SparseTensor, apply_legs, basis_vector, concat,
                          coprod_leg, counit_leg, flip, hom_sum, insert_leg,
                          invert, lin_leg, mult, permute_legs, scale, LEG_ID)

from basis import REBASED, change_basis, rebased, scaled
from capped import run_capped
from mutation import merge_blocks, mutate
from oracle import (dense_apply_legs, dense_inverse, dense_mult, dense_of,
                    hom_sum_cartesian, mult_pairs, unflatten)

F7 = PrimeField(7)


class FakeDatum:
    """Just enough structure for the dense oracle."""

    def __init__(self, algebra, delta_rows=None, s_rows=None, eps=None):
        self.field = algebra.field
        self.dim = algebra.dim
        self.algebra = algebra
        self.delta_rows = delta_rows or {}
        self.s_rows = s_rows or {}
        self.s_inv_rows = s_rows or {}
        self.eps = eps or []


def group_algebra_z(n, field=F7):
    struct = {(i, j): (((i + j) % n, field.one),) for i in range(n) for j in range(n)}
    return Algebra(field, n, struct, {0: field.one})


def dual_algebra(n, field=F7):
    """Functions on n points: orthogonal idempotents."""
    struct = {(i, i): ((i, field.one),) for i in range(n)}
    return Algebra(field, n, struct, {i: field.one for i in range(n)})


def nilpotent_algebra(field=F7):
    """Basis {1, x} with x^2 = 0."""
    struct = {(0, 0): ((0, field.one),), (0, 1): ((1, field.one),),
              (1, 0): ((1, field.one),)}
    return Algebra(field, 2, struct, {0: field.one})


def random_tensor(rng, field, arity, dim, fill=0.6):
    items = {}
    for key in iproduct(range(dim), repeat=arity):
        if rng.below(100) < int(fill * 100):
            items[key] = field.canon(rng.below(field.size or 7))
    return SparseTensor.make(field, arity, dim, items)


def test_make_validation():
    t = SparseTensor.make(F7, 2, 3, {(0, 1): 3, (1, 1): 0, (2, 2): 7})
    assert t.entries == {(0, 1): 3}  # zeros (incl. 7 = 0 mod 7) dropped
    with pytest.raises(ShapeMismatch):
        SparseTensor.make(F7, 2, 3, {(0, 3): 1})
    with pytest.raises(ShapeMismatch):
        SparseTensor.make(F7, 2, 3, {(0,): 1})


def test_unit_tensor_and_unitality():
    alg = dual_algebra(2)
    one2 = alg.unit_tensor(2)
    assert len(one2.entries) == 4
    rng = SplitMix64(7)
    t = random_tensor(rng, F7, 2, 2)
    assert mult(one2, t, alg) == t
    assert mult(t, one2, alg) == t


def test_orthogonal_idempotents():
    alg = dual_algebra(2)
    d0 = basis_vector(F7, 2, 0)
    d1 = basis_vector(F7, 2, 1)
    assert mult(d0, d0, alg) == d0
    assert mult(d0, d1, alg).is_zero()


def test_mult_arity_mismatch():
    alg = group_algebra_z(2)
    a = alg.unit_tensor(1)
    b = alg.unit_tensor(2)
    with pytest.raises(ArityMismatch):
        mult(a, b, alg)


@pytest.mark.parametrize("make_alg", [group_algebra_z, dual_algebra])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_mult_matches_dense_oracle(make_alg, arity):
    alg = make_alg(3)
    d = FakeDatum(alg)
    rng = SplitMix64(arity * 1000 + alg.struct.get((1, 1), ((0, 0),))[0][0])
    for _ in range(5):
        t1 = random_tensor(rng, F7, arity, 3)
        t2 = random_tensor(rng, F7, arity, 3)
        got = mult(t1, t2, alg)
        assert dense_of(got) == dense_mult(d, t1, t2)


def test_mult_nilpotent_against_oracle():
    alg = nilpotent_algebra()
    d = FakeDatum(alg)
    rng = SplitMix64(99)
    for _ in range(8):
        t1 = random_tensor(rng, F7, 2, 2)
        t2 = random_tensor(rng, F7, 2, 2)
        assert dense_of(mult(t1, t2, alg)) == dense_mult(d, t1, t2)


def test_mult_associative_randomized():
    alg = group_algebra_z(3)
    rng = SplitMix64(5)
    for _ in range(10):
        a = random_tensor(rng, F7, 2, 3)
        b = random_tensor(rng, F7, 2, 3)
        c = random_tensor(rng, F7, 2, 3)
        assert mult(mult(a, b, alg), c, alg) == mult(a, mult(b, c, alg), alg)


def test_apply_legs_identity_and_shapes():
    alg = group_algebra_z(3)
    rng = SplitMix64(11)
    t = random_tensor(rng, F7, 3, 3)
    assert apply_legs(t, [LEG_ID, LEG_ID, LEG_ID]) == t
    with pytest.raises(ShapeMismatch):
        apply_legs(t, [LEG_ID, LEG_ID])


def test_apply_legs_against_oracle():
    n = 3
    alg = group_algebra_z(n)
    # group-like coproduct, inversion antipode, constant-1 counit
    delta_rows = {i: (((i, i), F7.one),) for i in range(n)}
    s_rows = {i: (((-i) % n, F7.one),) for i in range(n)}
    eps = [F7.one] * n
    d = FakeDatum(alg, delta_rows, s_rows, eps)
    S = lin_leg(F7, s_rows)
    D = coprod_leg(F7, delta_rows)
    E = counit_leg(F7, eps)
    rng = SplitMix64(13)
    for _ in range(5):
        t = random_tensor(rng, F7, 2, n)
        assert dense_of(apply_legs(t, [S, D])) == dense_apply_legs(d, t, ["S", "D"])
        assert dense_of(apply_legs(t, [E, LEG_ID])) == dense_apply_legs(d, t, ["eps", "id"])
        assert dense_of(apply_legs(t, [D, S])) == dense_apply_legs(d, t, ["D", "S"])


@pytest.mark.parametrize("name", ["dz3w", "sw"])
def test_apply_legs_shares_no_dict(name, request):
    # over F_p the numerators of t are its entries themselves; a result with
    # no moved leg and one with a moved leg each get a dict of their own
    d = request.getfixturevalue(name)
    t = d.phi
    before = dict(t.entries)
    for legs in ([LEG_ID] * 3, d.legs("id", "S", "id")):
        got = apply_legs(t, legs)
        for key in got.entries:
            got.entries[key] = got.field.canon(got.entries[key] + 1)
        got.entries[(0, 0, 0)] = got.field.one
        assert t.entries == before
        got.entries.clear()
        assert t.entries == before


def test_flip_involution_and_decomposable():
    rng = SplitMix64(17)
    t = random_tensor(rng, F7, 3, 3)
    assert flip(flip(t, 0, 1), 0, 1) == t
    a = SparseTensor.make(F7, 1, 3, {(1,): 2})
    b = SparseTensor.make(F7, 1, 3, {(2,): 3})
    ab = concat(a, b)
    ba = concat(b, a)
    assert flip(ab, 0, 1) == ba
    with pytest.raises(ShapeMismatch):
        flip(t, 0, 0)


def test_permute_and_insert():
    t = SparseTensor.make(F7, 3, 3, {(0, 1, 2): 5})
    assert permute_legs(t, (2, 0, 1)).entries == {(2, 0, 1): 5}
    alg = group_algebra_z(3)
    r = insert_leg(SparseTensor.make(F7, 2, 3, {(1, 2): 4}), 1, alg.unit)
    assert r.entries == {(1, 0, 2): 4}


def test_invert_unit_and_zero():
    alg = dual_algebra(3)
    for k in (1, 2, 3):
        unit = alg.unit_tensor(k)
        assert invert(unit, alg) == unit
    with pytest.raises(NotInvertible):
        invert(SparseTensor.make(F7, 1, 3, {}), alg)


def test_invert_sign_diagonal():
    # diagonal tensor with values +-1 over the idempotent algebra: self-inverse
    alg = dual_algebra(2)
    phi = SparseTensor.make(F7, 3, 2,
                            {k: (6 if sum(k) == 3 else 1)
                             for k in iproduct(range(2), repeat=3)})
    assert invert(phi, alg) == phi
    assert mult(phi, phi, alg) == alg.unit_tensor(3)


def test_invert_nilpotent_fails():
    alg = nilpotent_algebra()
    x = basis_vector(F7, 2, 1)
    with pytest.raises(NotInvertible):
        invert(x, alg)


def test_invert_one_dense_system():
    # dim-7 group algebra, arity 2: a single block, so one dense system of 49
    # unknowns
    alg = group_algebra_z(7)
    rng = SplitMix64(23)
    t = None
    while t is None:
        cand = random_tensor(rng, F7, 2, 7, fill=0.9)
        try:
            ti = invert(cand, alg)
        except NotInvertible:
            continue
        t = cand
    assert mult(t, ti, alg) == alg.unit_tensor(2)
    assert mult(ti, t, alg) == alg.unit_tensor(2)


def test_invert_rational():
    q = RationalField()
    alg = Algebra(q, 2, {(i, j): (((i + j) % 2, q.one),) for i in range(2) for j in range(2)},
                  {0: q.one})
    t = SparseTensor.make(q, 1, 2, {(0,): q.one, (1,): q.canon("1/2")})
    ti = invert(t, alg)
    assert mult(t, ti, alg) == alg.unit_tensor(1)
    assert ti.entries == {(0,): q.canon("4/3"), (1,): q.canon("-2/3")}
    # the projection (1 + g)/2 is idempotent, hence not invertible
    with pytest.raises(NotInvertible):
        invert(SparseTensor.make(q, 1, 2, {(0,): q.canon("1/2"), (1,): q.canon("1/2")}), alg)


def test_hom_sum_basic():
    # sum over R of s*t in the group algebra of Z3
    alg = group_algebra_z(3)
    r = SparseTensor.make(F7, 2, 3, {(1, 1): 2, (2, 0): 3})
    got = hom_sum(alg, None, [(r, ("s", "t"))], [["s", "t"]])
    # 2*(e1*e1) + 3*(e2*e0) = 2*e2 + 3*e2 = 5*e2
    assert got.entries == {(2,): 5}


def test_hom_sum_with_unary_and_constant():
    alg = group_algebra_z(3)
    s_rows = {i: (((-i) % 3, F7.one),) for i in range(3)}
    const = SparseTensor.make(F7, 1, 3, {(1,): 4})
    r = SparseTensor.make(F7, 2, 3, {(1, 2): 1})
    legs = {"S": lin_leg(F7, s_rows)}.__getitem__
    got = hom_sum(alg, legs, [(r, ("s", "t"))],
                  [[("S", ["s"]), const], ["t"]])
    # S(e1) = e2; e2 * 4e1 = 4e0; output (e0, e2) with coefficient 4
    assert got.entries == {(0, 2): 4}


def test_diff_witness():
    a = SparseTensor.make(F7, 2, 3, {(0, 1): 3})
    b = SparseTensor.make(F7, 2, 3, {(0, 1): 4})
    assert diff_witness(a, b) == {"index": [0, 1], "lhs": "3", "rhs": "4"}
    assert diff_witness(a, a) is None


def test_diff_entries_matches_the_sorted_union():
    # the first `limit` differing keys of the sorted key union, on random
    # pairs that share some entries, change some and hold others alone
    rng = SplitMix64(5)
    for _ in range(40):
        k = 1 + rng.below(3)

        def items(count):
            return {tuple(rng.below(4) for _ in range(k)): rng.below(7)
                    for _ in range(count)}
        a_items = items(rng.below(12))
        b_items = {**a_items, **items(rng.below(6))}
        a = SparseTensor.make(F7, k, 4, a_items)
        b = SparseTensor.make(F7, k, 4, b_items)
        want = [(key, str(a.get(key)), str(b.get(key)))
                for key in sorted(set(a.entries) | set(b.entries))
                if a.get(key) != b.get(key)]
        for limit in (1, 3, None):
            assert te.diff_entries(a, b, limit) == want[:limit]


def test_scale_add_sub():
    a = SparseTensor.make(F7, 1, 3, {(0,): 3, (1,): 4})
    b = SparseTensor.make(F7, 1, 3, {(1,): 3})
    assert te.add(a, b).entries == {(0,): 3}  # 4 + 3 = 0 mod 7
    assert te.sub(a, a).is_zero()
    assert te.scale(a, 2).entries == {(0,): 6, (1,): 1}


# ----- block-indexed kernels against the dense oracle -----------------------

def _zero_one_coefficient(alg, ij, pos=0):
    """Product mutant: one structure coefficient set to 0."""
    struct = dict(alg.struct)
    struct[ij] = struct[ij][:pos] + struct[ij][pos + 1:]
    return Algebra(alg.field, alg.dim, struct, alg.unit_coeffs)


def triangular_algebra(field=F7):
    """Upper triangular 2x2 matrices, basis e11, e12, e22: one block."""
    struct = {(0, 0): ((0, field.one),), (0, 1): ((1, field.one),),
              (1, 2): ((1, field.one),), (2, 2): ((2, field.one),)}
    return Algebra(field, 3, struct, {0: field.one, 2: field.one})


# the "rebased" ones are written in a basis whose products have several
# terms, so they run the general loops instead of the monomial ones
BLOCK_ALGEBRAS = ("dw_z3_f7", "dw_z2_f3", "h4_q", "dw_z3_f7_mutant",
                  "h4_q_mutant", "t2_f7_split_mutant") + tuple(
                      "rebased_" + name for name in REBASED)


@functools.lru_cache(maxsize=None)
def block_algebra(name):
    if name.startswith("rebased_"):
        alg = rebased(name[len("rebased_"):]).algebra
        assert alg.mono is None
        return alg
    if name.startswith("dw_z3_f7"):
        z3 = FiniteAbelianGroup((3,))
        alg = dpr_double(z3, cocycle_for(z3, 1, F7)).algebra
        return _zero_one_coefficient(alg, (4, 5)) if "mutant" in name else alg
    if name == "dw_z2_f3":
        z2 = FiniteAbelianGroup((2,))
        return dpr_double(z2, cocycle_for(z2, 1, PrimeField(3))).algebra
    if name.startswith("h4_q"):
        alg = sweedler().algebra
        return _zero_one_coefficient(alg, (1, 2)) if "mutant" in name else alg
    # no single zeroed coefficient splits a block of the three algebras
    # above, so the triangular algebra supplies the mutant that does
    tri = triangular_algebra()
    split = _zero_one_coefficient(tri, (0, 1))
    assert tri.blocks == ((0, 1, 2),) and split.blocks == ((0,), (1, 2))
    return split


def _random_scalar(rng, f):
    return f.canon(rng.below(5) + 1 if rng.below(2) else -1)


def _random_pair(rng, alg, arity, n):
    """Two random tensors, half of whose entries of t2 share a block
    signature with an entry of t1, so both live and skipped pairs occur."""
    f, dim, blocks = alg.field, alg.dim, alg.blocks

    def same_block(i):
        members = blocks[alg.block_of[i]]
        return members[rng.below(len(members))]

    def make(keys):
        return SparseTensor.make(f, arity, dim,
                                 {k: _random_scalar(rng, f) for k in keys})

    keys1 = [tuple(rng.below(dim) for _ in range(arity)) for _ in range(n)]
    keys2 = [tuple(rng.below(dim) for _ in range(arity)) if rng.below(2)
             else tuple(same_block(i) for i in key) for key in keys1]
    return make(keys1), make(keys2)


@pytest.mark.parametrize("name", BLOCK_ALGEBRAS)
@pytest.mark.parametrize("arity", [0, 1, 2, 3, 4])
def test_block_mult_matches_dense_oracle(name, arity):
    alg = block_algebra(name)
    d = FakeDatum(alg)
    rng = SplitMix64(31 * arity + len(name))
    n = 5 if alg.dim ** arity > 1000 else 12
    for _ in range(4):
        t1, t2 = _random_pair(rng, alg, arity, n)
        assert dense_of(mult(t1, t2, alg)) == dense_mult(d, t1, t2)
        assert dense_of(mult(t2, t1, alg)) == dense_mult(d, t2, t1)
    empty = SparseTensor(alg.field, arity, alg.dim, {})
    assert dense_of(mult(t1, empty, alg)) == dense_mult(d, t1, empty)
    assert dense_of(mult(empty, t1, alg)) == dense_mult(d, empty, t1)


@pytest.mark.parametrize("name", BLOCK_ALGEBRAS)
def test_block_invert_passes_oracle_product_checks(name):
    alg = block_algebra(name)
    d = FakeDatum(alg)
    rng = SplitMix64(len(name))
    inverted = 0
    for arity in ((1, 2) if alg.dim ** 3 > 100 else (1, 2, 3)):
        unit = alg.unit_tensor(arity)
        for _ in range(4):
            bump, _ = _random_pair(rng, alg, arity, 3)
            t = te.add(unit, bump)
            try:
                ti = invert(t, alg)
            except NotInvertible:
                continue
            inverted += 1
            assert dense_mult(d, t, ti) == dense_of(unit)
            assert dense_mult(d, ti, t) == dense_of(unit)
    assert inverted > 0


def _dense_inverse(d, t):
    """t^-1 as a dense list: the solution of t x = 1 by the dense inverse of
    the matrix of x -> t x, or None when that matrix is singular."""
    f, n, k = d.field, d.dim, t.arity
    size = n ** k
    cols = [dense_mult(d, t, SparseTensor(f, k, n, {unflatten(j, n, k): f.one}))
            for j in range(size)]
    inv = dense_inverse(f, [[col[i] for col in cols] for i in range(size)], size)
    if inv is None:
        return None
    unit = dense_of(d.unit_tensor(k))
    return [f.canon(sum(a * u for a, u in zip(row, unit))) for row in inv]


def _kron(f, vecs):
    out = [f.one]
    for v in vecs:
        out = [f.canon(x * y) for x in out for y in v]
    return out


@pytest.mark.parametrize("name", REBASED + ("dense_h4",))
def test_invert_matches_the_dense_inverse(name):
    # multi-term bases at arities 0-3: invert builds its columns with
    # trees.expand above arity 0; a singular input keeps its message
    d = (change_basis(sweedler(), seed=3, extra=4) if name == "dense_h4"
         else rebased(name))
    f, alg = d.field, d.algebra
    assert alg.mono is None
    e = [d.basis(i) for i in range(d.dim)]
    # a nonzero element of the ideal ker(eps) has no inverse
    kernel = te.sub(e[-1], scale(d.unit, d.eps[-1]))
    cases = [(t, _dense_inverse(d, t)) for t in (
        SparseTensor.make(f, 0, d.dim, {(): 3}), d.alpha, d.beta, e[0],
        kernel, d.R, concat(e[0], d.beta), concat(kernel, d.alpha))]
    if d.dim ** 3 <= 81:
        cases.append((d.phi, _dense_inverse(d, d.phi)))
    else:
        # dense systems of dim^3 unknowns are too slow here; a decomposable
        # tensor's inverse is the product of its factors' inverses
        cases.append((concat(concat(d.alpha, d.beta), d.alpha), _kron(
            f, [_dense_inverse(d, d.alpha), _dense_inverse(d, d.beta),
                _dense_inverse(d, d.alpha)])))
    singular = 0
    for t, want in cases:
        if want is None:
            singular += 1
            with pytest.raises(NotInvertible,
                               match="^left-multiplication system is singular$"):
                invert(t, alg)
        else:
            assert dense_of(invert(t, alg)) == want
    assert {t.arity for t, want in cases if want is not None} == {0, 1, 2, 3}
    assert singular >= 2


def _inverse_or_reason(t, alg):
    try:
        return invert(t, alg)
    except NotInvertible as exc:
        return str(exc)


def _solves(monkeypatch, run):
    """(value, number of linear systems solved) of run()."""
    calls, real = [], linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda *args: calls.append(1) or real(*args))
    value = run()
    monkeypatch.undo()
    return value, len(calls)


def _idem_doc(n):
    """idem-n over F_7: e_i e_i = e_i, unit sum_i e_i, empty coproduct, zero
    counit, identity antipode, Phi = e_0 (x) e_0 (x) e_0, alpha = beta =
    e_0.  Phi misses all but one of the n^3 signatures that the unit
    reaches."""
    def e0(k):
        return {"arity": k, "entries": [[[0] * k, "1"]]}
    return {"field": {"kind": "prime", "p": 7}, "dim": n,
            "product": [[i, i, i, "1"] for i in range(n)],
            "unit": {"arity": 1, "entries": [[[i], "1"] for i in range(n)]},
            "delta": [], "epsilon": ["0"] * n, "phi": e0(3),
            "antipode": [[i, i, "1"] for i in range(n)],
            "alpha": e0(1), "beta": e0(1)}


@pytest.mark.parametrize("case, systems", [
    ("phi", 0), ("twisted_phi", 6), ("mixed", 1), ("arity_0", 0),
    ("missing_signature", 0), ("singular_signature", 1),
    ("unit_not_an_identity", 7)])
def test_invert_takes_unit_multiples_directly(monkeypatch, dz2w, case,
                                              systems):
    # D^w(Z2)/F7 has blocks {0, 1} and {2, 3} and unit e_0 + e_2; its Phi
    # is a multiple of the unit on each of the 8 signatures, the seed-0
    # twisted Phi on 2.  The inverse equals the dense one and that of a
    # forced system solve on every signature, a singular input keeps its
    # message, and only the signatures that are no unit multiple solve a
    # system.
    d, f = dz2w, dz2w.field
    t = d.phi
    if case == "twisted_phi":
        t = twist(d, random_twist(d, 0)).phi
    elif case in ("mixed", "singular_signature"):
        # on the signature of (0, 0, 0), e_0 + c e_1 with e_1^2 = e_0:
        # invertible for c = 2, a zero divisor for c = 1
        t = te.add(t, SparseTensor.make(
            f, 3, d.dim, {(1, 0, 0): 2 if case == "mixed" else 1}))
    elif case == "arity_0":
        t = SparseTensor.make(f, 0, d.dim, {(): 3})
    elif case == "missing_signature":
        t = SparseTensor.make(f, 3, d.dim, {key: c for key, c in
                                            t.entries.items() if key[0]})
    elif case == "unit_not_an_identity":
        # e_0 e_0 = 3 e_0: Phi is still a multiple of the unit, but the
        # unit acts on block {0, 1} as diag(3, 1), so each signature but
        # that of (2, 2, 2) solves its system
        d = d.with_changes(product={**d.algebra.struct, (0, 0): ((0, 3),)})
    got, solved = _solves(monkeypatch, lambda: _inverse_or_reason(t, d.algebra))
    assert solved == systems
    if t.arity:
        # a nonzero tensor of arity 0 is always a multiple of the unit, and
        # a system has one leg at least
        monkeypatch.setattr(te, "_unit_multiple", lambda *args: None)
        assert _inverse_or_reason(t, d.algebra) == got
        monkeypatch.undo()
    want = _dense_inverse(d, t)
    if want is None:
        assert got == "left-multiplication system is singular"
    else:
        assert dense_of(got) == want


def test_invert_builds_no_system_for_a_multiple_of_the_unit(monkeypatch,
                                                            dz3w):
    # D^w(Z3)/F7: Phi is a multiple of the unit on all 27 signatures, the
    # seed-0 twisted Phi on none; both inverses equal a forced system solve
    phi_t = twist(dz3w, random_twist(dz3w, 0)).phi
    for t, systems in ((dz3w.phi, 0), (phi_t, 27)):
        inv, solved = _solves(monkeypatch, lambda: invert(t, dz3w.algebra))
        assert solved == systems
        monkeypatch.setattr(te, "_unit_multiple", lambda *args: None)
        assert invert(t, dz3w.algebra) == inv
        monkeypatch.undo()


def test_invert_exits_before_the_unit_tensor_on_a_missed_signature(tmp_path):
    # idem-400's unit tensor of arity 3 has 64,000,000 entries: building it
    # under a 1.5 GB address-space cap ends in a MemoryError traceback
    path = tmp_path / "idem-400.json"
    path.write_text(json.dumps(_idem_doc(400)))
    out = run_capped(["verify", str(path), "--format", "json"],
                     address_space=1_500_000_000, timeout=120)
    assert out.returncode == 1 and out.stderr == ""
    assert json.loads(out.stdout)["checks"][-1] == {
        "name": "phi_invertible", "status": "fail",
        "witness": {"reason": "left-multiplication system is singular"}}


def test_block_partition_matches_dpr_metadata():
    for factors, q, p in [((2,), 0, 5), ((2,), 1, 7), ((3,), 0, 7),
                          ((3,), 1, 7), ((4,), 1, 13), ((2, 2), 1, 7)]:
        g = FiniteAbelianGroup(factors)
        d = dpr_double(g, cocycle_for(g, q, PrimeField(p)))
        derived = {frozenset(b) for b in d.algebra.blocks}
        assert derived == {frozenset(b) for b in d.metadata["blocks"]}
        assert len(derived) == g.order


# ----- the plain hom_sum join against the cartesian loop --------------------

def _plain_contractions(d):
    """Plain one- and two-factor contractions shaped like the call sites of
    gamma, delta, F, F_inv and u, over the datum's own tensors."""
    S, D = d.leg("S"), d.leg("D")
    de = big_f(d)
    r4 = apply_legs(d.R, [D, D])
    return [
        ([(apply_legs(d.phi, [S, S, D]), ("sx", "sy", "z1", "z2")),
          (de.gamma, ("g1", "g2"))], [["sy", "g1", "z1"], ["sx", "g2", "z2"]]),
        ([(apply_legs(d.phi, [D, S, S]), ("x1", "x2", "sy", "sz")),
          (de.delta, ("d1", "d2"))], [["x1", "d1", "sz"], ["x2", "d2", "sy"]]),
        ([(apply_legs(r4, [S, S, LEG_ID, LEG_ID]), ("sx1", "sx2", "w1", "w2")),
          (de.gamma, ("g1", "g2"))], [["sx2", "g1", "w1"], ["sx1", "g2", "w2"]]),
        ([(apply_legs(r4, [LEG_ID, LEG_ID, S, S]), ("w1", "w2", "sz1", "sz2")),
          (de.delta, ("d1", "d2"))], [["w1", "d1", "sz2"], ["w2", "d2", "sz1"]]),
        ([(de.F, ("w", "x")), (d.R, ("s", "t"))], [["w", "t", "s", "x"]]),
        ([(d.phi, ("x", "y", "z"))], [["z", "x"], ["y"]]),
        ([(d.phi, ("x", "y", "z"))], [["x", "y", "z"]]),
    ]


def test_hom_sum_join_matches_cartesian_loop(dz3w, sw):
    twisted = twist(dz3w, random_twist(dz3w, 0))
    data = [twisted, dz3w, sw]
    for d in (twisted, dz3w):
        # the twist's mutants have no inverse associator of their own; they
        # keep the twist's as a certificate, since the sums read one
        keep = {"phi_inv": d.phi_inv} if d is twisted else {}
        data += [mutate(d, "product", SplitMix64(seed)).with_changes(**keep)
                 for seed in range(2)]
        merged = [merge_blocks(d, SplitMix64(seed)).with_changes(**keep)
                  for seed in range(2)]
        assert all(len(m.algebra.blocks) < len(d.algebra.blocks)
                   for m in merged)
        data += merged
    data += [twist(sw, random_twist(sw, seed)) for seed in range(3)]
    data += [mutate(sw, "product", SplitMix64(seed)) for seed in range(2)]
    nonzero = 0
    for d in data:
        alg = d.algebra
        assert alg.mono is not None
        for factors, out in _plain_contractions(d):
            got = hom_sum(alg, None, factors, out)
            want = hom_sum_cartesian(alg, None, factors, out)
            assert list(got.entries.items()) == list(want.items())
            nonzero += bool(want)
    assert nonzero > 5 * len(data)


# ----- every hom_sum of the package against the cartesian loop --------------

def _hom_sum_calls(monkeypatch, d):
    """(alg, legs, factors, out, value) of every hom_sum call that the
    verifiers and builders make on d.  A builder that fails on a mutant (an
    inverse that does not exist) leaves the calls it made before."""
    calls = []

    def record(alg, legs, factors, out):
        value = hom_sum(alg, legs, factors, out)
        calls.append((alg, legs, factors, out, value))
        return value
    monkeypatch.setattr(datum, "hom_sum", record)
    builders = (verify_quasi_hopf, big_f, drinfeld_u, u_tilde, rtwist_elements,
                lambda d: check_twist_elements(d, random_twist(d, 0)),
                lambda d: recover_modifier(
                    d, modify_antipode(d, scale(d.unit, 2))))
    for build in builders:
        with contextlib.suppress(QhopfError):
            build(d)
    monkeypatch.undo()
    return calls


def test_every_hom_sum_matches_the_cartesian_loop(monkeypatch, dz3w, sw):
    twisted = twist(dz3w, random_twist(dz3w, 0))
    data = [twisted, sw, scaled("mono")[0], scaled("dense")[0]]
    # the twist's product mutants keep its inverse associator, as above
    data += [mutate(twisted, "product", SplitMix64(seed)).with_changes(
        phi_inv=twisted.phi_inv) for seed in range(2)]
    kinds = set()
    for d in data:
        calls = _hom_sum_calls(monkeypatch, d)
        assert len(calls) > d.dim
        for alg, legs, factors, out, got in calls:
            want = hom_sum_cartesian(alg, legs, factors, out)
            assert got.entries == want
            plain = all(isinstance(a, str) for leg in out for a in leg)
            if plain:
                assert list(got.entries) == list(want)
            kinds.add((plain, len(factors), alg.mono is None))
    # mapped sums of one and two factors and plain ones of two, on both
    # kernel paths
    assert kinds >= {(p, k, m) for p, k in ((False, 1), (False, 2), (True, 2))
                     for m in (True, False)}


def _old_sums(d):
    """(name, new, old) of every element that is written through p_R, q_L,
    ev, coev or the two conjugation sums, or whose sum once mapped a whole
    output leg: new() the package's value, old() the sum as it was written
    out before, evaluated by the cartesian loop."""
    def old(factors, out, legs=d.leg):
        return SparseTensor(d.field, len(out), d.dim, hom_sum_cartesian(
            d.algebra, legs, factors, out))
    S, D = d.leg("S"), d.leg("D")
    phi_inv = [(d.phi_inv, ("x", "y", "z"))]

    def gamma():
        g0 = old(phi_inv, [[("S", ["x"]), d.alpha, "y"], [d.alpha, "z"]])
        p = apply_legs(d.phi, [S, S, D])
        return old([(p, ("sx", "sy", "z1", "z2")), (g0, ("g1", "g2"))],
                   [["sy", "g1", "z1"], ["sx", "g2", "z2"]])

    def delta():
        d0 = old(phi_inv, [["x", d.beta], ["y", d.beta, ("S", ["z"])]])
        p = apply_legs(d.phi, [D, S, S])
        return old([(p, ("x1", "x2", "sy", "sz")), (d0, ("d1", "d2"))],
                   [["x1", "d1", "sz"], ["x2", "d2", "sy"]])

    def big_f_old():
        g, dl = gamma(), delta()
        w = old(phi_inv, [["x"], ["y", d.beta, ("S", ["z"])]])
        w2 = apply_legs(apply_legs(w, [D, D]), [S, S, LEG_ID, LEG_ID])
        F = old([(w2, ("sx1", "sx2", "w1", "w2")), (g, ("g1", "g2"))],
                [["sx2", "g1", "w1"], ["sx1", "g2", "w2"]])
        v = old(phi_inv, [[("S", ["x"]), d.alpha, "y"], ["z"]])
        v2 = apply_legs(apply_legs(v, [D, D]), [LEG_ID, LEG_ID, S, S])
        F_inv = old([(v2, ("w1", "w2", "sz1", "sz2")), (dl, ("d1", "d2"))],
                    [["w1", "d1", "sz2"], ["w2", "d2", "sz1"]])
        return (g, dl, F, F_inv)

    def u():
        w = old(phi_inv, [[("S", ["y", d.beta, ("S", ["z"])])], ["x"]])
        return old([(w, ("w", "x")), (d.R, ("s", "t"))],
                   [["w", ("S", ["t"]), d.alpha, "s", "x"]])

    def u_tilde_old():
        w = old(phi_inv, [["z"], [("S", [("S", ["x"]), d.alpha, "y"])]])
        return old([(w, ("zz", "w")), (d.R, ("s", "t"))],
                   [["zz", "s", d.beta, ("S", ["t"]), "w"]])

    def rtwist_old():
        R, R_inv = d.R, d.r_inv
        el = rtwist_elements(d)
        return (old([(R_inv, ("s", "t"))], [[("S", ["s"]), d.alpha, "t"]]),
                old([(R, ("s", "t"))], [["s", d.beta, ("S", ["t"])]]),
                old([(R, ("s", "t"))], [[("S", ["t"]), d.alpha, "s"]]),
                old([(R_inv, ("s", "t"))], [["t", d.beta, ("S", ["s"])]]),
                old([(d.phi, ("x", "y", "z"))],
                    [[("S", ["z"]), el.alpha_hat, "y", ("Sinv", [d.beta]),
                      ("Sinv", ["x"])]]),
                old([(d.phi, ("x", "y", "z"))],
                    [[("Sinv", ["z"]), ("Sinv", [d.alpha]), "y", el.beta_hat,
                      ("S", ["x"])]]))

    def twisted(which):
        tw = random_twist(d, 0)
        if which == "alpha":
            return old([(tw.T_inv, ("f", "g"))],
                       [[("S", ["f"]), d.alpha, "g"]])
        return old([(tw.T, ("f", "g"))], [["f", d.beta, ("S", ["g"])]])

    def other():
        return modify_antipode(d, scale(d.unit, 2))

    def modifier(d1, d2):
        legs = {"S": d1.leg("S"), "Sp": d2.leg("S")}.__getitem__
        return old(phi_inv, [[("Sp", ["x"]), d2.alpha, "y", d1.beta,
                              ("S", ["z"])]], legs)

    yield "big_f", lambda: tuple(big_f(d)), big_f_old
    yield "u", lambda: drinfeld_u(d), u
    yield "u_tilde", lambda: u_tilde(d), u_tilde_old
    yield "rtwist", lambda: tuple(rtwist_elements(d))[:6], rtwist_old
    for which in ("alpha", "beta"):
        yield ("twisted " + which,
               lambda w=which: getattr(twist(d, random_twist(d, 0)), w),
               lambda w=which: twisted(w))
    yield ("duality_right", lambda: d.coev(d.q_l),
           lambda: old(phi_inv, [[("S", ["x"]), d.alpha, "y", d.beta,
                                  ("S", ["z"])]]))
    for i in range(d.dim):
        di = [(d.coproduct(d.basis(i)), ("a", "b"))]
        yield ("left antipode %d" % i, lambda di=di: d.ev(di[0][0]),
               lambda di=di: old(di, [[("S", ["a"]), d.alpha, "b"]]))
        yield ("right antipode %d" % i, lambda di=di: d.coev(di[0][0]),
               lambda di=di: old(di, [["a", d.beta, ("S", ["b"])]]))
    yield ("recovered x", lambda: recover_modifier(d, other()),
           lambda: modifier(d, other()))
    yield ("x", lambda: d.coev(other().q_l), lambda: modifier(d, other()))
    yield ("x_inv", lambda: other().coev(d.q_l),
           lambda: modifier(other(), d))


def test_rewritten_atoms_match_the_old_ones(dz3w, sw):
    # each element written through p_R, q_L, ev, coev or a conjugation sum,
    # or rewritten earlier by linearity, against its sum as it was written
    # out.  Every element exists on the unmutated data and is compared there.
    twisted = twist(dz3w, random_twist(dz3w, 0))
    for d in (twisted, sw, scaled("dense")[0]):
        for name, new, old in _old_sums(d):
            assert new() == old(), name
    # product mutants break associativity, so a rewrite that moved a bracket
    # would differ there; they keep the inverses of their parent as
    # certificates, and an element that does not exist on a mutant (an
    # inverse, a twist) is skipped
    for d in (mutate(d, "product", SplitMix64(seed)).with_changes(
            phi_inv=d.phi_inv, R_inv=d.r_inv)
              for d in (twisted, sw) for seed in range(2)):
        checked = []
        for name, new, old in _old_sums(d):
            try:
                got = new()
            except QhopfError:
                continue
            assert got == old(), name
            checked.append(name)
        assert len(checked) > 2 * d.dim
        assert {"big_f", "u", "u_tilde", "duality_right", "x",
                "x_inv"} <= set(checked)


def test_two_sums_read_the_inverse_associator(monkeypatch, dz3w, sw):
    # p_R and q_L are built once per datum, and verify, F, u and u_tilde
    # read the inverse associator only through them
    for d in (twist(d0, random_twist(d0, 0)) for d0 in (dz3w, sw)):
        reads = []

        def record(alg, legs, factors, out):
            reads.append(any(t is d.phi_inv for t, _ in factors))
            return hom_sum(alg, legs, factors, out)
        monkeypatch.setattr(datum, "hom_sum", record)
        assert verify(d, level="qt").ok
        big_f(d), drinfeld_u(d), u_tilde(d)
        monkeypatch.undo()
        assert sum(reads) == 2 and len(reads) > 2


def test_a_mapped_name_read_twice_is_refused(dz3w):
    # S applied to the leg that two atoms read would pair S(e_x) with e_x
    # term by term
    r = [(dz3w.R, ("s", "t"))]
    for out in ([[("S", ["s"]), "s"]], [[("S", ["s"])], ["s", "t"]],
                [[("S", ["s"]), ("S", ["s"])]]):
        with pytest.raises(ValueError, match="occur once"):
            dz3w.hsum(r, out)
    with pytest.raises(ValueError):
        dz3w.hsum(r, [[("S", ["s", "t"])]])


# ----- every mult of three commands against the pair loop -------------------

def _mult_calls(monkeypatch, run):
    """(calls, columns, leaves) of run(): calls holds (t1, t2, alg, value,
    trees) of every mult call, trees telling whether the call built prefix
    trees; columns holds (alg, n1, n2, k, value) of every trees.product
    call outside mult, the columns of invert's systems; leaves counts the
    last-leg calls of trees.chase by their first operand: "one" where it
    has one entry, "several" where it has more."""
    calls, built, columns = [], [], []
    leaves = {"one": 0, "several": 0}
    real_mult, real_tree = te.mult, trees.tree
    real_product, real_chase = trees.product, trees.chase

    def record(t1, t2, alg):
        built.append(False)
        value = real_mult(t1, t2, alg)
        calls.append((t1, t2, alg, value, built.pop()))
        return value

    def tree(items):
        if built:
            built[-1] = True
        return real_tree(items)

    def product(alg, n1, n2, k):
        value = real_product(alg, n1, n2, k)
        if not built:
            columns.append((alg, n1, n2, k, dict(value)))
        return value

    def chase(sums, mono, n1, n2, depth, key, c):
        if depth == 1:
            leaves["one" if len(n1) == 1 else "several"] += 1
        real_chase(sums, mono, n1, n2, depth, key, c)
    for mod in (te, datum, derived, dsl, ribbon):
        monkeypatch.setattr(mod, "mult", record)
    monkeypatch.setattr(trees, "tree", tree)
    monkeypatch.setattr(trees, "product", product)
    monkeypatch.setattr(trees, "chase", chase)
    run()
    monkeypatch.undo()
    return calls, columns, leaves


def _entries_of(node, k, key=()):
    """The (key, numerator) items of a prefix tree of k legs."""
    if k == 1:
        return [(key + (i,), c) for i, c in node.items()]
    return [item for i, sub in node.items()
            for item in _entries_of(sub, k - 1, key + (i,))]


def test_every_mult_matches_the_pair_loop(monkeypatch, dz3w):
    twisted = twist(dz3w, random_twist(dz3w, 0))
    dense_h4 = change_basis(sweedler(), seed=3, extra=4)
    z4 = FiniteAbelianGroup((4,))
    dz4w = dpr_double(z4, cocycle_for(z4, 1, PrimeField(13)))
    # the algebra-map checks read e_i e_j off the structure constants, so
    # one dim-4 datum makes fewer than 100 calls: the multi-term run
    # verifies two
    runs = [lambda: datum.verify(twisted),
            lambda: (datum.verify(dense_h4, level="qt"),
                     datum.verify(rebased("dw_z2_f5"), level="qt")),
            lambda: (datum.verify(dz4w, level="qt"),
                     ribbon.find_ribbon(dz4w, 10 ** 6))]
    paths, branches = set(), []
    for run in runs:
        calls, columns, leaves = _mult_calls(monkeypatch, run)
        assert len(calls) > 100
        for t1, t2, alg, got, trees in calls:
            assert got.entries == mult_pairs(t1, t2, alg)
            assert trees == (t1.arity > 0)
            paths.add((alg.mono is None, t1.arity > 1))
        # invert's columns multiply trees of numerators
        for alg, n1, n2, k, got in columns:
            f = alg.field
            t1, t2 = (SparseTensor(f, k, alg.dim, {key: f.canon(c) for key, c
                                                   in _entries_of(n, k)})
                      for n in (n1, n2))
            assert te._canon(f, got, alg.den ** k) == mult_pairs(t1, t2, alg)
        branches.append((len(columns), leaves["one"], leaves["several"]))
    # every call of arity 1 and above builds prefix trees: on single-term
    # and on multi-term bases, at arity 1 and above
    assert paths >= {(False, False), (False, True), (True, False),
                     (True, True)}
    # one last-leg loop serves the twist's dense leaves, whose first operand
    # has several entries, and the untwisted double's, where it has one;
    # the twist solves for its inverse associator column by column
    (columns, _, several), _, (_, one, _) = branches
    assert columns > 0 and several > 0 and one > 0
