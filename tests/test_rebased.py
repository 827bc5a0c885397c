"""The general kernel loops against the dense oracle, on whole data written
in a basis whose products have several terms (tests/basis.py), so that
Algebra.mono is None.  mult and invert on these algebras are covered in
test_tensor.py, gamma, delta and F in test_derived.py and the Drinfel'd
element in test_drinfeld.py.  The last section runs every integer kernel
on H4/Q in bases whose structure constants have denominators."""

import json
from fractions import Fraction
from math import gcd

import pytest

from qhopf.cli import main
from qhopf.rng import SplitMix64
from qhopf.tensor import (SparseTensor, add, apply_legs, concat, hom_sum,
                          invert, mult, sub)

from basis import REBASED, SCALED, rebased, scaled
from oracle import (dense_apply_legs, dense_basis, dense_mult, dense_of,
                    dense_s, dense_vec_mul, hom_sum_cartesian)


def _random_items(rng, f, dim, arity, n):
    return {tuple(rng.below(dim) for _ in range(arity)):
            f.canon(rng.below(f.size or 7) - 3) for _ in range(n)}


@pytest.mark.parametrize("name", REBASED)
def test_rebased_datum_verifies(name, tmp_path, capsys):
    d = rebased(name)
    assert d.algebra.mono is None
    path = tmp_path / "rebased.json"
    path.write_text(d.dumps())
    rc = main(["verify", str(path), "--level", "qt", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["checks"] and all(c["status"] == "pass" for c in out["checks"])


@pytest.mark.parametrize("name", REBASED)
def test_rebased_vec_mul_matches_dense_oracle(name):
    d = rebased(name)
    f, n = d.field, d.dim
    rng = SplitMix64(len(name))
    vectors = [{i: f.one} for i in range(n)]
    vectors += [{i: c for (i,), c in _random_items(rng, f, n, 1, 3).items()
                 if c} for _ in range(4)]
    for a in vectors:
        for b in vectors:
            got = d.algebra.vec_mul(a, b)
            dense = [[v.get(i, f.zero) for i in range(n)] for v in (a, b)]
            assert [got.get(i, f.zero) for i in range(n)] == dense_vec_mul(d, *dense)
            assert all(got.values())


# with the shapes the callers use: ("D", "D") in big_f and the twist laws,
# ("id", "id", "D") and ("D", "id", "id") in gamma, delta and the pentagon,
# S on two of four legs in the conjugation and mirror sums, and no moved leg
LEG_NAMES = {2: (("S", "D"), ("eps", "id"), ("Sinv", "Dcop"), ("D", "S"),
                 ("D", "D"), ("id", "id")),
             3: (("id", "D", "S"), ("eps", "Sinv", "id"), ("D", "id", "eps"),
                 ("id", "id", "D"), ("D", "id", "id"), ("id", "id", "id")),
             4: (("S", "S", "id", "id"), ("id", "id", "S", "S"),
                 ("id", "id", "id", "id"))}


@pytest.mark.parametrize("name", REBASED)
def test_rebased_apply_legs_matches_dense_oracle(name):
    d = rebased(name)
    f = d.field
    rng = SplitMix64(3 * len(name))
    for base in (d.phi, d.R, concat(d.R, d.R)):
        k = base.arity
        tensors = [base, SparseTensor.make(f, k, d.dim,
                                           _random_items(rng, f, d.dim, k, 6))]
        for t in tensors:
            for names in LEG_NAMES[k]:
                got = apply_legs(t, d.legs(*names))
                assert dense_of(got) == dense_apply_legs(d, t, list(names))


# ----- structure constants with denominators ---------------------------------

def _assert_exact(t):
    assert all(type(c) is Fraction and c and gcd(c.numerator, c.denominator) == 1
               for c in t.entries.values())


@pytest.mark.parametrize("name", SCALED)
def test_scaled_mult_and_invert_match_dense_oracle(name):
    d, (T, T_inv, R) = scaled(name)
    alg = d.algebra
    assert alg.den > 1 and (alg.mono is not None) == (name == "mono")
    rng = SplitMix64(5)
    small = [SparseTensor.make(d.field, k, d.dim, _random_items(rng, d.field, d.dim, k, 4))
             for k in (1, 3)]
    pairs = [(a, b) for a in (T, T_inv, R) for b in (T, T_inv, R)]
    pairs += [(small[0], d.alpha), (d.beta, small[0]), (small[1], d.phi)]
    for a, b in pairs:
        got = mult(a, b, alg)
        _assert_exact(got)
        assert dense_of(got) == dense_mult(d, a, b)
        for total in (add(a, b), sub(a, b)):
            _assert_exact(total)
        assert dense_of(add(a, b)) == [x + y for x, y in zip(dense_of(a), dense_of(b))]
    for t, want in ((T, T_inv), (T_inv, T)):
        got = invert(t, alg)
        _assert_exact(got)
        assert got == want
        assert dense_mult(d, t, got) == dense_of(d.unit_tensor(2))


@pytest.mark.parametrize("name", SCALED)
def test_scaled_apply_legs_and_vec_mul_match_dense_oracle(name):
    d, tensors = scaled(name)
    for t in tensors + [d.phi, concat(tensors[0], tensors[2])]:
        for names in LEG_NAMES[t.arity]:
            got = apply_legs(t, d.legs(*names))
            _assert_exact(got)
            assert dense_of(got) == dense_apply_legs(d, t, list(names))
    f, n = d.field, d.dim
    vectors = [{i: f.one} for i in range(n)]
    vectors += [{i: c for (i,), c in apply_legs(t, d.legs("id", "eps")).entries.items()}
                for t in tensors]
    for a in vectors:
        for b in vectors:
            got = d.algebra.vec_mul(a, b)
            assert all(type(c) is Fraction and c for c in got.values())
            dense = [[v.get(i, f.zero) for i in range(n)] for v in (a, b)]
            assert [got.get(i, f.zero) for i in range(n)] == dense_vec_mul(d, *dense)


@pytest.mark.parametrize("name", SCALED)
def test_scaled_hom_sum_matches_oracles(name):
    d, (T, T_inv, R) = scaled(name)
    alg, f, n = d.algebra, d.field, d.dim
    # plain contractions: the join on "mono", the general loop on "dense"
    plain = [([(T, ("a", "b")), (T_inv, ("c", "d"))], [["a", "c"], ["b", "d"]]),
             ([(R, ("a", "b")), (T, ("c", "d"))], [["a", "d", "b"], ["c"]]),
             ([(T_inv, ("a", "b"))], [["b", "a"]])]
    for factors, out in plain:
        got = hom_sum(alg, None, factors, out)
        _assert_exact(got)
        if name == "mono":
            assert list(got.entries.items()) == list(
                hom_sum_cartesian(alg, None, factors, out).items())
    got = hom_sum(alg, None, *plain[0])
    assert dense_of(got) == dense_mult(d, T, T_inv)
    # maps and constants, g read twice
    s_beta = apply_legs(d.beta, d.legs("S"))
    got = d.hsum([(T_inv, ("f", "g"))],
                 [[("S", ["f"]), d.alpha, "g"], ["g", s_beta]])
    _assert_exact(got)
    alpha, beta = dense_of(d.alpha), dense_of(d.beta)
    want = [f.zero] * (n * n)
    for (a, b), c in T_inv.entries.items():
        left = dense_vec_mul(d, dense_vec_mul(d, dense_s(d, dense_basis(d, a)), alpha),
                             dense_basis(d, b))
        right = dense_vec_mul(d, dense_basis(d, b), dense_s(d, beta))
        for i in range(n):
            for j in range(n):
                want[i * n + j] += c * left[i] * right[j]
    assert dense_of(got) == want
