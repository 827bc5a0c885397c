from fractions import Fraction
from itertools import product as iproduct
from types import SimpleNamespace

import pytest

from qhopf import (FiniteAbelianGroup, center, check_main_theorem,
                   check_rtwist_relations, check_ribbon_lemma, cocycle_for,
                   dpr_double, drinfeld_u, find_ribbon, is_ribbon, load,
                   rtwist_elements, sweedler)
from qhopf import report, ribbon
from qhopf.errors import BudgetExceeded, NotInvertible, QhopfError, ShapeMismatch
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField
from qhopf.tensor import (Algebra, SparseTensor, basis_vector, flip, invert,
                          lin_leg, mult)

from oracle import (dense_nullspace, dense_of, dense_square_roots,
                    dense_vec_mul, find_ribbon_unfactored, struct_coeff)


def test_rtwist_trivial_r(kz2):
    # R = 1 (x) 1: both twist families collapse onto the plain elements
    el = rtwist_elements(kz2)
    assert el.alpha_hat == kz2.alpha
    assert el.alpha_check == kz2.alpha
    assert el.beta_hat == kz2.beta
    assert el.beta_check == kz2.beta
    assert el.u_hat == el.u_check


def test_rtwist_hopf_general_r(sw):
    # with unit evaluation element, the check-side evaluation element equals
    # the classical canonical element
    el = rtwist_elements(sw)
    assert el.alpha_check == drinfeld_u(sw)


def test_rtwist_relations_all_examples(kz2, sw, dz2, dz2w, dz3, dz3w):
    for d in (kz2, sw, dz2, dz2w, dz3, dz3w):
        rep = check_rtwist_relations(d)
        assert rep.ok, [(c.name, c.witness) for c in rep.failures()]


def test_rtwist_swap_under_r_replacement(dz2w, sw):
    # replacing R by the inverse of its flip swaps the two families
    for d in (dz2w, sw):
        r2 = invert(flip(d.R, 0, 1), d.algebra)
        d2 = d.with_changes(R=r2)
        a, b = rtwist_elements(d), rtwist_elements(d2)
        assert b.alpha_hat == a.alpha_check
        assert b.beta_hat == a.beta_check
        assert b.alpha_check == a.alpha_hat
        assert b.beta_check == a.beta_hat
        assert b.u_hat == a.u_check
        assert b.u_check == a.u_hat


def test_comparison_elements_inverse_formulas(kz2, sw, dz2, dz2w, dz3, dz3w,
                                              dz2_f5):
    # the inverse formulas of u_hat and u_check, both ways round
    for d in (kz2, sw, dz2, dz2w, dz3, dz3w, dz2_f5):
        el = rtwist_elements(d)
        one = d.unit_tensor(1)
        for a, b in ((el.u_hat, el.u_hat_inv), (el.u_check, el.u_check_inv)):
            assert mult(a, b, d.algebra) == one
            assert mult(b, a, d.algebra) == one


def test_r_prime_inverse_is_r_matrix(dz2w, dz3w):
    from qhopf import verify_quasitriangular
    for d in (dz2w, dz3w):
        r2 = invert(flip(d.R, 0, 1), d.algebra)
        assert verify_quasitriangular(d.with_changes(R=r2)).ok


def test_is_ribbon_trivial(kz2):
    assert is_ribbon(kz2, kz2.unit).ok


def test_is_ribbon_rejects_zero(kz2):
    rep = is_ribbon(kz2, SparseTensor.make(kz2.field, 1, kz2.dim, {}))
    assert not rep.ok
    assert rep.checks[0].name == "ribbon_nonzero"
    assert rep.checks[0].status == "fail"


def test_is_ribbon_shape_check(kz2):
    with pytest.raises(ShapeMismatch):
        is_ribbon(kz2, kz2.unit_tensor(2))


def test_is_ribbon_closed_form(dz2_f5, dz3):
    for d in (dz2_f5, dz3):
        assert is_ribbon(d, d.v).ok
        assert check_ribbon_lemma(d, d.v).ok
        assert check_main_theorem(d, d.v).ok


def test_is_ribbon_records_a_singular_candidate(dz2_f5, monkeypatch):
    # a candidate that passes the defining checks but does not invert gives
    # a failing check, not an exception
    def singular(t, alg):
        raise NotInvertible("singular")
    monkeypatch.setattr(ribbon, "invert", singular)
    rep = is_ribbon(dz2_f5, dz2_f5.v)
    assert [c.name for c in rep.failures()] == ["ribbon_invertible"]
    assert rep.checks[-1].witness == {"reason": "singular"}


def test_non_ribbon_candidate_fails(sw):
    # g is not central, so it cannot be a ribbon element
    rep = is_ribbon(sw, sw.basis(1))
    assert not rep.ok
    assert any(c.name == "ribbon_central" and c.status == "fail"
               for c in rep.checks)


def test_center_commutative_double(dz2_f5, dz3w):
    assert len(center(dz2_f5)) == dz2_f5.dim
    assert len(center(dz3w)) == dz3w.dim


def test_center_dim_one(f7):
    from qhopf import FiniteAbelianGroup, group_algebra
    d = group_algebra(FiniteAbelianGroup((1,)), f7, with_R=False)
    assert len(center(d)) == 1


def test_center_symmetric_group_class_sums(q):
    # group algebra of the symmetric group on three letters over Q:
    # three conjugacy classes, so the center has dimension 3
    import itertools
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, r):
        return tuple(p[r[i]] for i in range(3))

    def inv(p):
        out = [0] * 3
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    one = q.one
    product = {(i, j): ((index[compose(p, r)], one),)
               for i, p in enumerate(perms) for j, r in enumerate(perms)}
    from qhopf import QuasiHopfDatum
    e = index[(0, 1, 2)]
    delta_rows = {i: (((i, i), one),) for i in range(6)}
    eps = [one] * 6
    phi = SparseTensor.make(q, 3, 6, {(e, e, e): one})
    s_rows = {index[p]: ((index[inv(p)], one),) for p in perms}
    unit_vec = SparseTensor.make(q, 1, 6, {(e,): one})
    d = QuasiHopfDatum(q, 6, product, {e: one}, delta_rows, eps, phi,
                       s_rows, unit_vec, unit_vec)
    from qhopf import verify_quasi_hopf
    assert verify_quasi_hopf(d).ok
    assert len(center(d)) == 3


def test_center_matches_dense_commutator_nullspace(dz3w, sw):
    # the block centers together span the nullspace of the commutator system
    # of the whole algebra (coordinate k of e_j e_i - e_i e_j, column j),
    # also when a relabelling interleaves the blocks
    shuffled = load(_relabel(dz3w.to_json(), _shuffle(dz3w.dim, 5)))
    for d in (dz3w, shuffled, sw, _h4(5)):
        f, n = d.field, d.dim
        rows = [[f.canon(struct_coeff(d, j, i, k) - struct_coeff(d, i, j, k))
                 for j in range(n)] for i in range(n) for k in range(n)]
        assert (sorted(dense_of(z) for z in center(d))
                == sorted(dense_nullspace(f, rows, n)))


def test_find_ribbon_enumeration(dz2_f5):
    res = find_ribbon(dz2_f5, 10 ** 6)
    assert res.candidates
    assert any(c.v == dz2_f5.v for c in res.candidates)
    assert all(c.provenance == "solver" for c in res.candidates)
    assert res.region == "blockwise over 2 blocks, 50 points"
    for c in res.candidates:
        assert is_ribbon(dz2_f5, c.v).ok


def test_find_ribbon_blockwise(dz3w):
    res = find_ribbon(dz3w, 10 ** 6)
    assert res.candidates
    for c in res.candidates:
        assert is_ribbon(dz3w, c.v).ok
        assert check_main_theorem(dz3w, c.v).ok
        assert check_ribbon_lemma(dz3w, c.v).ok


def test_find_ribbon_twisted_z2_double(dz2w):
    # nontrivial cocycle: the solver finds candidates and each one satisfies
    # the square lemma and the main theorem
    res = find_ribbon(dz2w, 10 ** 6)
    assert res.candidates
    for c in res.candidates:
        assert check_ribbon_lemma(dz2w, c.v).ok
        assert check_main_theorem(dz2w, c.v).ok


def test_find_ribbon_auto_uses_blocks(dz3w):
    res = find_ribbon(dz3w, 10 ** 6)
    assert "block" in res.region
    assert res.candidates


def test_find_ribbon_trivial_case(kz2):
    res = find_ribbon(kz2, 10 ** 6)
    assert any(c.v == kz2.unit for c in res.candidates)


def test_find_ribbon_budget_exceeded(dz3w):
    # the first block's center spans 7^3 points
    with pytest.raises(BudgetExceeded) as err:
        find_ribbon(dz3w, 10)
    assert err.value.required == 343


def test_find_ribbon_rational_needs_blocks(sw):
    # not a budget: none was set or spent
    with pytest.raises(QhopfError, match="needs a finite field") as err:
        find_ribbon(sw, 10 ** 6)
    assert not isinstance(err.value, BudgetExceeded)


def test_ribbon_square_consistency(dz3w):
    # every returned candidate satisfies the square identity through the
    # comparison elements
    el = rtwist_elements(dz3w)
    rhs = mult(el.u_hat, el.u_check_inv, dz3w.algebra)
    for c in find_ribbon(dz3w, 10 ** 6).candidates:
        assert mult(c.v, c.v, dz3w.algebra) == rhs


def _relabel(doc, perm):
    """The same datum document with basis element i renamed perm[i]."""
    out = dict(doc)
    for key in ("product", "delta", "antipode"):
        out[key] = sorted([perm[i] for i in row[:-1]] + [row[-1]]
                          for row in doc[key])
    out["epsilon"] = [None] * len(doc["epsilon"])
    for i, c in enumerate(doc["epsilon"]):
        out["epsilon"][perm[i]] = c
    for key in ("unit", "phi", "alpha", "beta", "R"):
        out[key] = {"arity": doc[key]["arity"],
                    "entries": sorted([[perm[i] for i in idx], c]
                                      for idx, c in doc[key]["entries"])}
    out["metadata"] = dict(doc["metadata"], blocks=[
        sorted(perm[i] for i in block) for block in doc["metadata"]["blocks"]])
    return out


def _shuffle(n, seed):
    """A seeded permutation of range(n)."""
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.fixture(scope="module")
def z4w():
    """D^w(Z4)/F13: S swaps blocks 1 and 3 and fixes blocks 0 and 2."""
    z4 = FiniteAbelianGroup((4,))
    return dpr_double(z4, cocycle_for(z4, 1, PrimeField(13)))


@pytest.fixture(scope="module")
def z4w_relabelled(z4w):
    return load(_relabel(z4w.to_json(), _shuffle(z4w.dim, 21)))


def test_find_ribbon_relabelled_z4_double(z4w, z4w_relabelled):
    perm = _shuffle(z4w.dim, 21)
    dr = z4w_relabelled
    res = find_ribbon(dr, 10 ** 6)
    assert res.region == "blockwise over 4 blocks, 114244 points"
    assert len(res.candidates) == 2
    for cand in res.candidates:
        assert is_ribbon(dr, cand.v).ok
    moved = {tuple(sorted(((perm[i],), c) for (i,), c in cand.v.entries.items()))
             for cand in find_ribbon(z4w, 10 ** 6).candidates}
    assert moved == {tuple(cand.v.sorted_items()) for cand in res.candidates}


# ----- pruning by S-orbits of blocks against the unfactored search -----------


def _named(name, request):
    if name.startswith("h4_f"):
        return _h4(int(name[4:]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["dz2_f5", "dz2w", "dz3w", "kz2", "h4_f3",
                                  "h4_f5", "z4w_relabelled"])
def test_find_ribbon_against_unfactored_search(name, request):
    # dropping the candidates with S(v) != v or eps(v) != 1 before is_ribbon
    # changes neither the candidates, nor their order, nor the region
    d = _named(name, request)
    assert find_ribbon(d, 10 ** 6) == find_ribbon_unfactored(d)


def _count_checks(monkeypatch):
    """The candidates find_ribbon passes to is_ribbon, from now on."""
    seen = []
    real = ribbon.is_ribbon

    def counted(d, v):
        seen.append(v)
        return real(d, v)
    monkeypatch.setattr(ribbon, "is_ribbon", counted)
    return seen


def test_find_ribbon_builds_no_witness(dz2_f5, monkeypatch):
    # is_ribbon rejects some of the combinations; their failing cases are
    # kept, never diffed, since no report of them is printed
    want = find_ribbon_unfactored(dz2_f5)
    diffed = []
    real = report.diff_witness

    def counted(*args, **kw):
        diffed.append(args)
        return real(*args, **kw)
    monkeypatch.setattr(report, "diff_witness", counted)
    res = find_ribbon(dz2_f5, 10 ** 6)
    assert diffed == []
    assert len(res.candidates) == 4
    assert res == want


def test_find_ribbon_checks_only_orbit_candidates(z4w, monkeypatch):
    checked = _count_checks(monkeypatch)
    # 4^4 combinations of one root per block; 32 are fixed by S with eps 1
    assert len(find_ribbon(z4w, 10 ** 6).candidates) == 2
    assert len(checked) == 32
    # the untwisted double: 16^4 combinations, 1024 over the orbits of S,
    # 512 of them with eps 1
    z4 = FiniteAbelianGroup((4,))
    d = dpr_double(z4, cocycle_for(z4, 0, PrimeField(13)))
    checked.clear()
    res = find_ribbon(d, 10 ** 6)
    assert len(checked) == 512
    assert len(res.candidates) == 4
    assert d.v in [cand.v for cand in res.candidates]


@pytest.mark.parametrize("name", ["dz3w", "z4w_relabelled"])
def test_find_ribbon_without_block_image(name, request, monkeypatch):
    # when S does not permute the blocks, each block is its own orbit and
    # only the counit prunes
    d = request.getfixturevalue(name)
    want = find_ribbon_unfactored(d)
    monkeypatch.setattr(ribbon, "_block_image", lambda d: None)
    checked = _count_checks(monkeypatch)
    assert find_ribbon(d, 10 ** 6) == want
    assert all(d.eps_of(v) == 1 for v in checked)


def test_block_image(z4w):
    assert ribbon._block_image(z4w) == {0: 0, 1: 3, 2: 2, 3: 1}
    z2z2 = FiniteAbelianGroup((2, 2))
    d = dpr_double(z2z2, cocycle_for(z2z2, 0, PrimeField(5)))
    assert ribbon._block_image(d) == {b: b for b in range(4)}
    # an antipode that sends a block across two blocks, or two blocks into
    # one, does not permute the blocks
    f, alg = z4w.field, z4w.algebra
    first = alg.blocks[0][0]
    for rows in ({i: ((i, 1), (first, 1)) for i in range(z4w.dim)},
                 {i: ((first, 1),) for i in range(z4w.dim)}):
        fake = SimpleNamespace(algebra=alg, leg=lambda name: lin_leg(f, rows))
        assert ribbon._block_image(fake) is None


def test_find_ribbon_budget_counts_orbit_combinations():
    # D(Z2xZ2)/F5: 2500 points, and S fixes every block and every one of
    # the 16 roots of each, so all 16^4 combinations are formed
    z2z2 = FiniteAbelianGroup((2, 2))
    d = dpr_double(z2z2, cocycle_for(z2z2, 0, PrimeField(5)))
    with pytest.raises(BudgetExceeded, match="combining block roots") as err:
        find_ribbon(d, 10 ** 4)
    assert err.value.required == 16 ** 4


# ----- the square-root kernel against the dense oracle -----------------------


def _check_roots(alg, gens, target):
    """The kernel's roots, after checking them, order included, against
    squaring every point with the dense oracle."""
    fake = SimpleNamespace(field=alg.field, dim=alg.dim, algebra=alg)
    got = [dense_of(v) for v in ribbon._square_roots(alg, gens, target)]
    assert got == dense_square_roots(fake, gens, target)
    return got


def _ribbon_target(d):
    u = drinfeld_u(d)
    return invert(mult(u, d.antipode(u), d.algebra), d.algebra)


def _restrict(t, block):
    return SparseTensor(t.field, 1, t.dim,
                        {k: c for k, c in t.entries.items() if k[0] in block})


def _targets(rng, alg, gens, count=3):
    """Squares of `count` seeded random points of the span of gens (each
    has a root), the zero vector and one random vector."""
    f, n = alg.field, alg.dim
    fake = SimpleNamespace(field=f, dim=n, algebra=alg)
    out = [SparseTensor(f, 1, n, {}),
           SparseTensor.make(f, 1, n, {(i,): rng.below(f.p) for i in range(n)})]
    for _ in range(count):
        v = [f.zero] * n
        for g in gens:
            x = rng.below(f.p)
            for (i,), c in g.entries.items():
                v[i] = f.canon(v[i] + x * c)
        sq = dense_vec_mul(fake, v, v)
        out.append(SparseTensor.make(f, 1, n, {(i,): c for i, c in enumerate(sq)}))
    return out


def _zero_one_coefficient(alg, ij):
    """Product mutant: the first structure coefficient of e_i e_j set to 0."""
    struct = dict(alg.struct)
    struct[ij] = struct[ij][1:]
    return Algebra(alg.field, alg.dim, struct, alg.unit_coeffs)


def _h4(p):
    """Sweedler's H4 (one non-commutative block, center spanned by 1) with
    its rational scalars read in F_p, p odd."""
    def mod_p(text):
        x = Fraction(text)
        return str(x.numerator * pow(x.denominator, -1, p) % p)

    doc = sweedler().to_json()
    out = dict(doc, field={"kind": "prime", "p": p},
               epsilon=[mod_p(c) for c in doc["epsilon"]])
    for key in ("product", "delta", "antipode"):
        out[key] = [row[:-1] + [mod_p(row[-1])] for row in doc[key]]
    for key in ("unit", "phi", "alpha", "beta", "R"):
        out[key] = dict(doc[key], entries=[[idx, mod_p(c)]
                                           for idx, c in doc[key]["entries"]])
    return load(out)


def _random_algebra(rng, p, n):
    """A seeded random structure table on n basis elements over F_p; it need
    not be associative or unital."""
    f = PrimeField(p)
    struct = {}
    for ij in ((i, j) for i in range(n) for j in range(n)):
        ks = sorted({rng.below(n) for _ in range(rng.below(3))})
        struct[ij] = tuple((k, rng.below(p - 1) + 1) for k in ks)
    return Algebra(f, n, struct, {0: f.one})


def _basis(alg, block):
    return [basis_vector(alg.field, alg.dim, i) for i in block]


def test_square_roots_double_blocks(dz2_f5, dz3w):
    for d in (dz2_f5, dz3w):
        c = _ribbon_target(d)
        for block in d.algebra.blocks:
            assert _check_roots(d.algebra, _basis(d.algebra, block),
                                _restrict(c, block))


@pytest.mark.parametrize("p", [3, 5])
def test_square_roots_h4(p):
    alg = _h4(p).algebra
    gens = _basis(alg, range(4))
    roots = [_check_roots(alg, gens, t)
             for t in _targets(SplitMix64(p), alg, gens)]
    # x^2 = 0: the zero target has the roots a x + b gx besides 0
    assert len(roots[0]) == p * p
    assert all(roots[2:])


@pytest.mark.parametrize("name", ["dw_z3_f7", "h4_f5"])
def test_square_roots_zeroed_coefficient_mutants(dz3w, name):
    if name == "dw_z3_f7":
        alg = _zero_one_coefficient(dz3w.algebra, (4, 5))
    else:
        alg = _zero_one_coefficient(_h4(5).algebra, (1, 2))
    rng = SplitMix64(len(name))
    for block in alg.blocks:
        gens = _basis(alg, block)
        for t in _targets(rng, alg, gens, count=2):
            _check_roots(alg, gens, t)


@pytest.mark.parametrize("seed", range(4))
def test_square_roots_random_tables(seed):
    rng = SplitMix64(seed)
    alg = _random_algebra(rng, 5, 3)
    spans = [_basis(alg, range(3)),
             [SparseTensor.make(alg.field, 1, 3,
                                {(i,): rng.below(5) for i in range(3)})
              for _ in range(2)]]
    for gens in spans:
        for t in _targets(rng, alg, gens):
            _check_roots(alg, gens, t)


def test_square_roots_edge_cases(fz2w, dz2_f5):
    f = fz2w.field
    idem = fz2w.algebra
    e0 = _basis(idem, [0])
    # a block of size 1 spanned by an idempotent: x^2 = x only for x = 1, 6
    assert _check_roots(idem, e0, e0[0]) == [[1, 0], [6, 0]]
    assert _check_roots(idem, e0, SparseTensor(f, 1, 2, {})) == [[0, 0]]
    # no generators: the one point is zero
    assert _check_roots(idem, [], SparseTensor(f, 1, 2, {})) == [[0, 0]]
    assert _check_roots(idem, [], e0[0]) == []
    # a target outside the span of the products has no root
    alg = dz2_f5.algebra
    first, second = dz2_f5.algebra.blocks
    assert _check_roots(alg, _basis(alg, first), _basis(alg, second)[0]) == []


def test_square_roots_center_path(dz2_f5, kz2):
    # the generators find_ribbon passes: a basis of each block's center
    for d in (dz2_f5, kz2, _h4(5)):
        c = _ribbon_target(d)
        alg = d.algebra
        for block in alg.blocks:
            assert _check_roots(alg, ribbon._block_center(alg, block),
                                _restrict(c, block))


@pytest.mark.parametrize("name", ["dz2_f5", "dz3w", "kz2", "h4_f3", "h4_f5"])
def test_find_ribbon_against_dense_block_roots(name, request):
    # the dense oracle's square roots over each block's full basis, combined
    # and filtered by is_ribbon, are exactly the candidates of find_ribbon
    if name.startswith("h4_f"):
        d = _h4(int(name[4:]))
    else:
        d = request.getfixturevalue(name)
    f, alg = d.field, d.algebra
    fake = SimpleNamespace(field=f, dim=d.dim, algebra=alg)
    c = _ribbon_target(d)
    per_block = [dense_square_roots(fake, _basis(alg, block), _restrict(c, block))
                 for block in alg.blocks]
    want = []
    for pick in iproduct(*per_block):
        v = SparseTensor.make(f, 1, d.dim, {
            (i,): sum(xs) for i, xs in enumerate(zip(*pick))})
        if is_ribbon(d, v).ok:
            want.append(tuple(v.sorted_items()))
    res = find_ribbon(d, 10 ** 6)
    got = [tuple(cand.v.sorted_items()) for cand in res.candidates]
    assert want and got == sorted(want)
    if name.startswith("h4_f"):
        # one block, whose center is spanned by 1
        assert res.region == "blockwise over 1 blocks, %d points" % f.p
