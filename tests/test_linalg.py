"""Differential tests: the sparse elimination behind solve, invert_matrix and
nullspace against the textbook dense Gauss-Jordan of tests/oracle.py, on
seeded random and structured systems over F_7, F_13 and Q; and bounds on
the elimination's work on an arrowhead and a monomial matrix."""

import time

import pytest

from qhopf import linalg
from qhopf.rng import SplitMix64
from qhopf.scalars import PrimeField, RationalField

from oracle import dense_inverse, dense_nullspace, dense_solve

FIELDS = {"F7": PrimeField(7), "F13": PrimeField(13), "Q": RationalField()}


def _scalar(rng, f):
    if f.kind == "prime":
        return rng.below(f.p)
    return f.parse("%d/%d" % (rng.below(9) - 4, 1 + rng.below(3)))


def _nonzero(rng, f):
    while True:
        v = _scalar(rng, f)
        if v:
            return v


def _arrowhead(rng, f, n):
    """A dense first row, then the rows e_i + a_i e_0: in input order each
    row would be reduced by the first one and fill in completely."""
    rows = [[_nonzero(rng, f) for _ in range(n)]]
    for i in range(1, n):
        row = [f.zero] * n
        row[0], row[i] = _nonzero(rng, f), f.one
        rows.append(row)
    return rows


def _monomial(rng, f, n):
    """A scaled permutation matrix: one nonzero entry per row and column."""
    cols = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        cols[i], cols[j] = cols[j], cols[i]
    rows = [[f.zero] * n for _ in range(n)]
    for i, j in enumerate(cols):
        rows[i][j] = _nonzero(rng, f)
    return rows


# (rows, columns, rank bound or None, share of nonzero entries or a builder
# of structured rows)
SHAPES = {
    "square": (6, 6, None, 0.5),
    "square-sparse": (9, 9, None, 0.25),
    "wide": (4, 7, None, 0.5),
    "tall": (8, 5, None, 0.5),
    "singular": (7, 7, 4, 0.5),
    "deficient-wide": (5, 8, 3, 0.6),
    "deficient-tall": (9, 6, 2, 0.4),
    "arrowhead": (8, 8, None, _arrowhead),
    "monomial": (7, 7, None, _monomial),
}
SEEDS = range(10)
INVERTIBLE_SHAPES = ["arrowhead", "monomial", "square", "square-sparse",
                     "singular"]


def _matrix(rng, f, m, n, rank, fill):
    """Dense m x n rows; with a rank bound, every row past the first `rank`
    is a random combination of those."""
    free = m if rank is None else rank
    rows = [[_scalar(rng, f) if rng.below(100) < fill * 100 else f.zero
             for _ in range(n)] for _ in range(free)]
    for _ in range(m - free):
        row = [f.zero] * n
        for src in rows[:free]:
            c = _scalar(rng, f)
            row = [f.canon(a + c * b) for a, b in zip(row, src)]
        rows.append(row)
    return rows


def _sparse(f, rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def _apply(f, rows, x):
    out = []
    for r in rows:
        out.append(f.canon(sum(r[j] * v for j, v in x.items())))
    return out


def _systems(fname, shape):
    f = FIELDS[fname]
    m, n, rank, fill = SHAPES[shape]
    for seed in SEEDS:
        rng = SplitMix64(1000 * seed + len(fname) + 17 * len(shape))
        rows = (fill(rng, f, n) if callable(fill)
                else _matrix(rng, f, m, n, rank, fill))
        yield f, rng, rows, n


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_solve_matches_dense_rref(fname, shape):
    inconsistent = 0
    for f, rng, rows, n in _systems(fname, shape):
        x0 = {j: _scalar(rng, f) for j in range(n)}
        b = _apply(f, rows, x0)
        candidates = [b, [_scalar(rng, f) for _ in rows]]
        if SHAPES[shape][2] is not None:
            # break the relation that ties the last row to the first ones
            candidates.append(b[:-1] + [f.canon(b[-1] + 1)])
        for rhs in candidates:
            got = linalg.solve(f, _sparse(f, rows), n,
                               {i: v for i, v in enumerate(rhs) if v})
            assert got == dense_solve(f, rows, n, rhs)
            if got is None:
                inconsistent += 1
            else:
                assert _apply(f, rows, got) == rhs
        assert linalg.solve(f, _sparse(f, rows), n, {}) == {}
    if SHAPES[shape][2] is not None:
        assert inconsistent >= len(SEEDS)


@pytest.mark.parametrize("shape", INVERTIBLE_SHAPES)
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_invert_matrix_matches_dense_rref(fname, shape):
    singular = 0
    for f, rng, rows, n in _systems(fname, shape):
        got = linalg.invert_matrix(
            f, {i: tuple((j, v) for j, v in enumerate(r) if v)
                for i, r in enumerate(rows)}, n)
        want = dense_inverse(f, rows, n)
        if want is None:
            assert got is None
            singular += 1
            continue
        assert got == {i: tuple((j, v) for j, v in enumerate(r) if v)
                       for i, r in enumerate(want)}
    if shape == "singular":
        assert singular == len(SEEDS)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_nullspace_matches_dense_rref(fname, shape):
    for f, rng, rows, n in _systems(fname, shape):
        basis = linalg.nullspace(f, _sparse(f, rows), n)
        assert basis == dense_nullspace(f, rows, n)
        for v in basis:
            x = {j: c for j, c in enumerate(v) if c}
            assert not any(_apply(f, rows, x))


def test_empty_and_zero_systems():
    f = FIELDS["F7"]
    assert linalg.solve(f, [{}, {}], 2, {}) == {}
    assert linalg.solve(f, [{}, {}], 2, {1: 3}) is None
    assert linalg.nullspace(f, [{}], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.invert_matrix(f, {0: ((0, 2),), 1: ()}, 2) is None


class CountingModulus(int):
    """A prime modulus that counts the reductions by it, x % p: one per
    entry that a row operation or a pivot scaling writes, whether inline or
    through the field's canon."""

    def __new__(cls, p):
        m = super().__new__(cls, p)
        m.reductions = 0
        return m

    def __rmod__(self, x):
        self.reductions += 1
        return int.__rmod__(self, x)


def test_arrowhead_solve_work_is_quadratic():
    # sparsest rows first: each e_i + a_i e_0 row is reduced along a chain
    # of two-entry pivots, about n^2 reductions in all, and the dense row
    # comes last; in input order the dense row would fill every other row,
    # for about 100 n^2 reductions here
    n = 300
    f = PrimeField(CountingModulus(10007))
    dense = _arrowhead(SplitMix64(5), f, n)
    f.p.reductions = 0
    x = linalg.solve(f, _sparse(f, dense), n, {0: 1})
    assert n * n // 2 <= f.p.reductions <= 2 * n * n
    assert _apply(f, dense, x) == [1] + [0] * (n - 1)


def _monomial_inverse_seconds(n):
    f = FIELDS["F13"]
    rows = {i: tuple((j, v) for j, v in enumerate(r) if v)
            for i, r in enumerate(_monomial(SplitMix64(n), f, n))}
    times = []
    for _ in range(3):
        t = time.perf_counter()
        inv = linalg.invert_matrix(f, rows, n)
        times.append(time.perf_counter() - t)
    assert inv is not None and all(len(r) == 1 for r in inv.values())
    return min(times)


def test_monomial_inverse_time_is_linear():
    # linear work gives about 4x from n = 1000 to 4000; a scan over every
    # row for each column would give 16x
    assert _monomial_inverse_seconds(4000) < 8 * _monomial_inverse_seconds(1000)
