"""Exact linear algebra over a field object from :mod:`repstable.fields`.

Matrices are plain lists of row lists.  An ``r x c`` matrix with ``r == 0``
is ``[]`` and with ``c == 0`` is ``[[], ..., []]``; all routines accept these
degenerate shapes, which arise constantly from zero-dimensional vertex
spaces.

All elimination runs through one sparse core, :func:`_eliminate`, over rows
stored as ``{column: nonzero entry}``: the systems this package solves are
almost empty, so work is done only on nonzeros.  The core returns the
reduced row echelon form, which is unique, so results do not depend on the
order it eliminates in.  :func:`rref`, :func:`rank`, :func:`nullspace`,
:func:`solve` and :func:`column_space_basis` are the dense boundary: they
take and return plain matrices, and reach the core through :func:`rref`.
Callers that build their systems as sparse rows use :func:`nullspace_rows`
and :func:`solve_rows`.

Entries are only added, subtracted, multiplied and compared; the one
division, scaling a pivot row to a leading one, goes through ``field.div``.
Over QQ the entries are ``int`` values, and the systems of this package
almost always have pivots of +-1, so elimination runs on Python integers
and falls back to ``Fraction`` only where a pivot does not divide its row.
"""

from __future__ import annotations


def zeros(field, rows: int, cols: int):
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(field, n: int):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def mat_mul(field, a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra == 0 or cb == 0:
        return zeros(field, ra, cb)
    if ca != rb:
        # A 0 x n matrix is stored as [] and forgets n; such factors can
        # only arise from genuinely zero spaces, so the product vanishes.
        if ca == 0 or rb == 0:
            return zeros(field, ra, cb)
        raise ValueError("shape mismatch %sx%s @ %sx%s" % (ra, ca, rb, cb))
    out = zeros(field, ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if not x:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j]:
                    orow[j] = orow[j] + x * brow[j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def mat_eq(a, b) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def copy(a):
    return [list(row) for row in a]


def transpose(field, a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def _subtract(dst: dict, f, src: dict, skip: int, fills=None):
    """``dst -= f * src`` over the nonzeros of ``src`` other than column
    ``skip``, dropping the entries that cancel.  The columns where ``dst``
    gains an entry are appended to ``fills`` when it is given."""
    for k, y in src.items():
        if k != skip:
            x = dst.get(k)
            if x is None:
                dst[k] = -f * y
                if fills is not None:
                    fills.append(k)
            else:
                x = x - f * y
                if x:
                    dst[k] = x
                else:
                    del dst[k]


def _eliminate(field, rows):
    """Reduced row echelon form of sparse rows ``{column: nonzero}``, as a
    list of (pivot column, row) sorted by pivot column; zero rows vanish.

    Each incoming row is reduced by the pivot rows whose pivot columns it
    touches, over their nonzeros only.  What is left, if anything, becomes
    a pivot row at its first column, is scaled to a leading one and is
    eliminated out of the earlier pivot rows, so every pivot row stays
    zero in every other pivot column and starts at its own.

    ``holders`` maps each non-pivot column to the pivot rows that may hold
    it (a cancelled entry leaves its row listed), so a new pivot visits
    only those rows instead of every earlier pivot row."""
    one = field.one()
    pivots = {}
    holders = {}
    for src in rows:
        row = dict(src)
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead != one:
            inv = field.div(one, lead)
            row = {k: x * inv for k, x in row.items()}
        for k in row:
            if k != c:
                holders.setdefault(k, []).append(c)
        for pc in holders.pop(c, ()):
            prow = pivots[pc]
            f = prow.pop(c, None)
            if f is not None:
                fills = []
                _subtract(prow, f, row, c, fills)
                for k in fills:
                    holders[k].append(pc)
        pivots[c] = row
    return sorted(pivots.items())


def _sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _kernel(field, reduced, ncols):
    """Nullspace basis from a reduced echelon form: one vector per free
    column, that column set to one."""
    z, o = field.zero(), field.one()
    pivot_cols = {pc for pc, _ in reduced}
    basis = {}
    for fc in range(ncols):
        if fc not in pivot_cols:
            vec = basis[fc] = [z] * ncols
            vec[fc] = o
    for pc, row in reduced:
        for k, x in row.items():
            if k != pc:
                basis[k][pc] = -x
    return list(basis.values())


def rref(field, a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    rows, cols = shape(a)
    z = field.zero()
    red = [[z] * cols for _ in range(rows)]
    pivots = []
    for r, (pc, row) in enumerate(_eliminate(field, _sparse(a))):
        out = red[r]
        for k, x in row.items():
            out[k] = x
        pivots.append(pc)
    return red, pivots


def rank(field, a) -> int:
    return len(rref(field, a)[1])


def nullspace(field, a):
    """Basis of the right kernel of ``a``, as a list of column vectors."""
    red, pivots = rref(field, a)
    return _kernel(field, list(zip(pivots, _sparse(red[:len(pivots)]))),
                   shape(a)[1])


def nullspace_rows(field, rows, ncols: int):
    """:func:`nullspace` of the matrix with ``ncols`` columns whose rows
    are the sparse ``rows``; dense basis vectors."""
    return _kernel(field, _eliminate(field, rows), ncols)


def solve(field, a, b):
    """One solution ``x`` of ``a @ x = b`` with ``b`` a matrix, or None.
    Free variables are set to zero."""
    rows, cols = shape(a)
    rb, cb = shape(b)
    if rb != rows:
        raise ValueError("rhs has %d rows, expected %d" % (rb, rows))
    red, pivots = rref(field, [list(a[i]) + list(b[i]) for i in range(rows)])
    if pivots and pivots[-1] >= cols:
        return None
    z = field.zero()
    x = [[z] * cb for _ in range(cols)]
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols:]
    return x


def solve_rows(field, rows, rhs, ncols: int):
    """One solution, as a list of ``ncols`` values, of the system whose
    equations are the sparse ``rows`` with right-hand sides ``rhs``, or
    None.  Free variables are set to zero."""
    aug = []
    for row, y in zip(rows, rhs):
        if y:
            row = dict(row)
            row[ncols] = y
        aug.append(row)
    reduced = _eliminate(field, aug)
    if reduced and reduced[-1][0] == ncols:
        return None
    z = field.zero()
    x = [z] * ncols
    for pc, row in reduced:
        x[pc] = row.get(ncols, z)
    return x


def inverse(field, a):
    n, c = shape(a)
    if n != c:
        return None
    x = solve(field, a, identity(field, n))
    if x is None:
        return None
    if not mat_eq(mat_mul(field, a, x), identity(field, n)):
        return None
    return x


def is_invertible(field, a) -> bool:
    n, c = shape(a)
    return n == c and rank(field, a) == n


def hstack(blocks):
    if not blocks:
        return []
    rows = len(blocks[0])
    return [sum((list(b[i]) for b in blocks), []) for i in range(rows)]


def vstack(blocks):
    out = []
    for b in blocks:
        out.extend(copy(b))
    return out


def column_space_basis(field, a):
    """A matrix whose columns are a basis of the column space of ``a``."""
    r, c = shape(a)
    _, pivots = rref(field, a)
    return [[a[i][j] for j in pivots] for i in range(r)]


def trace(field, a):
    t = field.zero()
    for i in range(len(a)):
        t = t + a[i][i]
    return t
