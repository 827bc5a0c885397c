"""Exact linear algebra over any Field: one sparse elimination and the three
solves built on it.

`_eliminate_sparse` brings rows given as {col: value} dicts to reduced row
echelon form (RREF) in two passes over the rows.  The forward pass takes
the rows sparsest first (ties keep input order) and reduces each at its
leftmost entry by that column's pivot row until the leftmost column has
none; scaled to 1 there, the row becomes that column's pivot.
Back-substitution then takes the pivots in decreasing column order and
clears each at its later pivot columns with rows already reduced.  The RREF
of the rows is unique, whichever rows serve as pivots; the sparsest-first
order only keeps fill-in low.

  * `solve` augments A with b as column n: a pivot there means the system
    is inconsistent, and free variables are 0.
  * `invert_matrix` augments with the identity: the matrix is singular when
    a pivot lands past column n-1.
  * `nullspace` reads one basis vector off each free column, in increasing
    order.

tensor.invert sends one system per block signature to `solve`, so on an
algebra with several blocks the systems are small (27 unknowns for an
arity-3 inversion over D^w(Z3)).
"""


def _subtract(canon, row, f, p):
    """row -= f * p in place, dropping the entries that become zero (f is
    nonzero, so only entries already in row can)."""
    get = row.get
    for j, v in p.items():
        new = canon(get(j, 0) - f * v)
        if new:
            row[j] = new
        else:
            del row[j]


def _eliminate_sparse(field, rows):
    """RREF of `rows`, a list of {col: value} dicts holding only nonzero
    values.  The dicts are reduced in place.
    Returns the nonzero rows as (pivot column, row) pairs in increasing
    pivot order, each row scaled to 1 at its pivot."""
    canon = field.canon
    pivot = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            if c not in pivot:
                inv = field.inv(row[c])
                for j, v in row.items():
                    row[j] = canon(inv * v)
                pivot[c] = row
                break
            _subtract(canon, row, row[c], pivot[c])
    order = sorted(pivot)
    for c in reversed(order):
        row = pivot[c]
        for k in [j for j in row if j != c and j in pivot]:
            _subtract(canon, row, row[k], pivot[k])
    return [(c, pivot[c]) for c in order]


def solve(field, rows, n, rhs):
    """Solve A x = b for one x.  `rows` lists the rows of A as {col: value}
    dicts of nonzero values with columns in range(n); `rhs` is b as
    {row: value}.  Returns x as {col: value} with free variables set to 0,
    or None if the system is inconsistent."""
    aug = [dict(row) for row in rows]
    for i, v in rhs.items():
        if v:
            aug[i][n] = v
    x = {}
    for c, row in _eliminate_sparse(field, aug):
        if c == n:
            return None
        if n in row:
            x[c] = row[n]
    return x


def invert_matrix(field, rows, n):
    """Invert an n x n matrix given as {i: ((j, v), ...)} of rows.
    Returns rows of the inverse in the same format, or None if singular."""
    aug = [{n + i: field.one} for i in range(n)]
    for i, row in rows.items():
        for j, v in row:
            if v:
                aug[i][j] = v
    # [A | I] has rank n, so A is invertible iff its pivots are 0..n-1
    rref = _eliminate_sparse(field, aug)
    if any(c >= n for c, _ in rref):
        return None
    return {c: tuple(sorted((j - n, v) for j, v in row.items() if j >= n))
            for c, row in rref}


def nullspace(field, rows, n):
    """Basis of the right nullspace of the matrix whose rows are given as
    {col: value} dicts of nonzero values, with n columns.  Deterministic:
    one vector per free column of the RREF, in increasing order, with 1 at
    its free column and 0 at the other free columns."""
    rref = _eliminate_sparse(field, [dict(row) for row in rows])
    pivots = {c for c, _ in rref}
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [field.zero] * n
        v[free] = field.one
        for c, row in rref:
            if free in row:
                v[c] = field.canon(-row[free])
        basis.append(v)
    return basis
