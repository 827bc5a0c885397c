"""The general kernel loops against the dense oracle, on whole data written
in a basis whose products have several terms (tests/basis.py), so that
Algebra.mono is None.  mult and invert on these algebras are covered in
test_tensor.py, gamma, delta and F in test_derived.py and the Drinfel'd
element in test_drinfeld.py."""

import json

import pytest

from qhopf.cli import main
from qhopf.rng import SplitMix64
from qhopf.tensor import SparseTensor, apply_legs

from basis import REBASED, rebased
from oracle import dense_apply_legs, dense_of, dense_vec_mul


def _random_items(rng, f, dim, arity, n):
    return {tuple(rng.below(dim) for _ in range(arity)):
            f.from_int(rng.below(f.size or 7) - 3) for _ in range(n)}


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
                 if not f.is_zero(c)} for _ in range(4)]
    for a in vectors:
        for b in vectors:
            got = d.algebra.vec_mul(a, b)
            dense = [[v.get(i, f.zero) for i in range(n)] for v in (a, b)]
            assert [got.get(i, f.zero) for i in range(n)] == dense_vec_mul(d, *dense)
            assert not any(f.is_zero(c) for c in got.values())


LEG_NAMES = {2: (("S", "D"), ("eps", "id"), ("Sinv", "Dcop"), ("D", "S")),
             3: (("id", "D", "S"), ("eps", "Sinv", "id"), ("D", "id", "eps"))}


@pytest.mark.parametrize("name", REBASED)
def test_rebased_apply_legs_matches_dense_oracle(name):
    d = rebased(name)
    f = d.field
    rng = SplitMix64(3 * len(name))
    for base in (d.phi, d.R):
        k = base.arity
        tensors = [base, SparseTensor.make(f, k, d.dim,
                                           _random_items(rng, f, d.dim, k, 6))]
        for t in tensors:
            for names in LEG_NAMES[k]:
                got = apply_legs(t, d.legs(*names))
                assert dense_of(got) == dense_apply_legs(d, t, list(names))
