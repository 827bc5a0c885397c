"""Exact linear algebra used by tensor inversion, the antipode inverse
and the center computation.

Three code paths, all exact:
  * a sparse dict-of-dicts elimination, near-linear on the monomial
    systems that dominate in practice,
  * a dense pure-Python elimination over any Field (used for rationals
    and small prime systems),
  * a dense numpy int64 elimination mod p for big dense prime systems
    (products fit in 64 bits because p < 2^31).

tensor.invert sends one system per block signature, so on an algebra with
several blocks the systems are small: the 27-unknown systems of an arity-3
inversion over D^w(Z3) go to the sparse path, not to numpy.
"""

import numpy as np


def solve_dense(field, rows, rhs):
    """Solve A x = b for one x; rows is a list of row lists.  Returns a list
    or None if the system is inconsistent.  Free variables are set to 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if not field.is_zero(aug[i][c]):
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, v) for v in aug[r]]
        for i in range(m):
            if i != r and not field.is_zero(aug[i][c]):
                f = aug[i][c]
                aug[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not field.is_zero(aug[i][n]):
            return None
    x = [field.zero] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def _solve_mod_numpy(p, a, b):
    """Same contract as solve_dense but vectorized mod p."""
    m, n = a.shape
    aug = np.concatenate([a % p, (b % p)[:, None]], axis=1).astype(np.int64)
    pivots = []
    r = 0
    for c in range(n):
        col = aug[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            aug[[r, pr]] = aug[[pr, r]]
        inv = pow(int(aug[r, c]), p - 2, p)
        aug[r] = (aug[r] * inv) % p
        f = aug[:, c].copy()
        f[r] = 0
        aug -= np.outer(f, aug[r])
        aug %= p
        pivots.append(c)
        r += 1
        if r == m:
            break
    if r < m and np.any(aug[r:, n]):
        return None
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = int(aug[i, n])
    return x


def solve_sparse(field, n, cols, rhs):
    """Solve A x = b where A is given column-wise as {col: {row: val}}.

    Chooses sparse elimination when every column is near-monomial,
    otherwise falls back to the dense paths.  Returns {col: val} or None.
    """
    total = sum(len(c) for c in cols.values())
    dense_enough = total > 4 * n and n >= 48
    if dense_enough and field.kind == "prime":
        a = np.zeros((n, n), dtype=np.int64)
        for j, col in cols.items():
            for i, v in col.items():
                a[i, j] = v
        b = np.zeros(n, dtype=np.int64)
        for i, v in rhs.items():
            b[i] = v
        x = _solve_mod_numpy(field.p, a, b)
        if x is None:
            return None
        return {j: v for j, v in enumerate(x) if v}
    if dense_enough:
        rows = [[field.zero] * n for _ in range(n)]
        for j, col in cols.items():
            for i, v in col.items():
                rows[i][j] = v
        b = [rhs.get(i, field.zero) for i in range(n)]
        x = solve_dense(field, rows, b)
        if x is None:
            return None
        return {j: v for j, v in enumerate(x) if not field.is_zero(v)}
    return _eliminate_sparse(field, n, cols, rhs)


def _eliminate_sparse(field, n, cols, rhs):
    # row-wise working copy plus column occupancy for pivot lookup
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    for i, v in rhs.items():
        if i not in rows and not field.is_zero(v):
            return None  # zero row with nonzero right-hand side
    occupancy = {}
    for i, row in rows.items():
        for j in row:
            occupancy.setdefault(j, set()).add(i)
    b = dict(rhs)
    solved = {}
    active = set(rows)
    while active:
        r = min(active, key=lambda i: (len(rows[i]), i))
        row = rows[r]
        if not row:
            if not field.is_zero(b.get(r, field.zero)):
                return None
            active.discard(r)
            continue
        c = min(row, key=lambda j: (len(occupancy.get(j, ())), j))
        inv = field.inv(row[c])
        for j in list(row):
            row[j] = field.mul(inv, row[j])
        if r in b:
            b[r] = field.mul(inv, b[r])
        # Jordan-style: clear the pivot column from every other row, so no
        # back-substitution pass is needed afterwards
        for i in list(occupancy.get(c, ())):
            if i == r:
                continue
            other = rows[i]
            f = other.get(c)
            if f is None:
                continue
            for j, v in row.items():
                newv = field.sub(other.get(j, field.zero), field.mul(f, v))
                if field.is_zero(newv):
                    if j in other:
                        del other[j]
                        occupancy[j].discard(i)
                else:
                    if j not in other:
                        occupancy.setdefault(j, set()).add(i)
                    other[j] = newv
            bv = field.sub(b.get(i, field.zero), field.mul(f, b.get(r, field.zero)))
            if field.is_zero(bv):
                b.pop(i, None)
            else:
                b[i] = bv
        solved[c] = r
        active.discard(r)
    # solved rows hold their pivot plus possibly free columns; free
    # variables are fixed at zero, so x[pivot] is simply the row's rhs
    x = {}
    for c, r in solved.items():
        v = b.get(r, field.zero)
        if not field.is_zero(v):
            x[c] = v
    return x


def invert_matrix(field, rows, n):
    """Invert an n x n matrix given as {i: ((j, v), ...)} of rows.
    Returns rows of the inverse in the same format, or None if singular."""
    dense = [[field.zero] * n for _ in range(n)]
    for i, row in rows.items():
        for j, v in row:
            dense[i][j] = v
    aug = [dense[i] + [field.one if k == i else field.zero for k in range(n)]
           for i in range(n)]
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, n):
            if not field.is_zero(aug[i][c]):
                pr = i
                break
        if pr is None:
            return None
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, v) for v in aug[r]]
        for i in range(n):
            if i != r and not field.is_zero(aug[i][c]):
                f = aug[i][c]
                aug[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(aug[i], aug[r])]
        r += 1
    out = {}
    for i in range(n):
        row = tuple((j, aug[i][n + j]) for j in range(n)
                    if not field.is_zero(aug[i][n + j]))
        out[i] = row
    return out


def nullspace(field, rows, n):
    """Basis of the right nullspace of the given matrix (list of row lists,
    n columns).  Deterministic: reduced echelon form, free columns in
    increasing order, pivot coordinates normalized."""
    m = len(rows)
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if not field.is_zero(a[i][c]):
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, v) for v in a[r]]
        for i in range(m):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [field.zero] * n
        v[free] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(a[i][free])
        basis.append(v)
    return basis
