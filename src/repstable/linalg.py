"""Dense exact linear algebra over a field object from :mod:`repstable.fields`.

Matrices are plain lists of row lists.  An ``r x c`` matrix with ``r == 0``
is ``[]`` and with ``c == 0`` is ``[[], ..., []]``; all routines accept these
degenerate shapes, which arise constantly from zero-dimensional vertex
spaces.
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


def mat_neg(a):
    return [[-x for x in row] for row in a]


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


def rref(field, a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = copy(a)
    rows, cols = shape(m)
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one() / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field, a) -> int:
    return len(rref(field, a)[1])


def nullspace(field, a):
    """Basis of the right kernel of ``a``, as a list of column vectors."""
    rows, cols = shape(a)
    red, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    z, o = field.zero(), field.one()
    for fc in free:
        vec = [z] * cols
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(field, a, b):
    """One solution ``x`` of ``a @ x = b`` with ``b`` a matrix, or None."""
    rows, cols = shape(a)
    rb, cb = shape(b)
    if rb != rows:
        raise ValueError("rhs has %d rows, expected %d" % (rb, rows))
    aug = [list(a[i]) + list(b[i]) for i in range(rows)]
    red, pivots = rref(field, aug)
    for r in range(len(pivots)):
        if pivots[r] >= cols:
            return None
    # Rows beyond the pivot count must be identically zero on the rhs too.
    for r in range(len(pivots), rows):
        if any(red[r][cols + j] for j in range(cb)):
            return None
    z = field.zero()
    x = [[z] * cb for _ in range(cols)]
    for r, pc in enumerate(pivots):
        for j in range(cb):
            x[pc][j] = red[r][cols + j]
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
