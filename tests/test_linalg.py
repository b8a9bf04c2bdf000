"""The exact linear-algebra kernel against a dense reference.

``reference_rref`` is the plain dense Gauss-Jordan elimination the kernel
started from.  The reduced row echelon form of a matrix is unique, so
every routine of :mod:`repstable.linalg` must agree with it exactly, in
every field, whatever order the kernel eliminates in; the sparse-row entry
points must agree with the dense ones.  Rational entries are drawn both as
``int`` values and as non-integral ``Fraction`` values, so the integer path
of the kernel and its ``Fraction`` fallback are both checked.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repstable import linalg
from repstable.fields import PrimeField, QQ

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(101)]


def reference_rref(field, a):
    """Dense reduced row echelon form; returns (matrix, pivot columns)."""
    m = [list(row) for row in a]
    rows, cols = linalg.shape(m)
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
        inv = field.div(field.one(), m[r][c])
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


def reference_nullspace(field, a):
    cols = linalg.shape(a)[1]
    red, pivots = reference_rref(field, a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [field.zero()] * cols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def reference_solve(field, a, b):
    rows, cols = linalg.shape(a)
    cb = linalg.shape(b)[1]
    red, pivots = reference_rref(
        field, [list(a[i]) + list(b[i]) for i in range(rows)])
    if any(pc >= cols for pc in pivots):
        return None
    x = [[field.zero()] * cb for _ in range(cols)]
    for r, pc in enumerate(pivots):
        for j in range(cb):
            x[pc][j] = red[r][cols + j]
    return x


def reference_inverse(field, a):
    n, c = linalg.shape(a)
    if n != c:
        return None
    x = reference_solve(field, a, linalg.identity(field, n))
    if x is None or not linalg.mat_eq(linalg.mat_mul(field, a, x),
                                      linalg.identity(field, n)):
        return None
    return x


def element(field, rng):
    """A random scalar; over QQ half of them are ``int`` values and half
    non-integral ``Fraction`` values."""
    if field is QQ:
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        d = rng.randint(2, 4)
        return Fraction(rng.choice([n for n in range(-9, 10) if n % d]), d)
    return field.of_int(rng.randrange(field.characteristic))


def random_matrix(field, rng, rows, cols, density):
    z = field.zero()
    return [[element(field, rng) if rng.random() < density else z
             for _ in range(cols)] for _ in range(rows)]


def with_dependent_rows(field, rng, a):
    """``a`` with zero rows, duplicates and multiples of its rows mixed in."""
    out = [list(row) for row in a]
    cols = linalg.shape(a)[1]
    for _ in range(rng.randint(0, 3)):
        pick = rng.randrange(3)
        if pick == 0 or not a:
            out.insert(rng.randint(0, len(out)), [field.zero()] * cols)
        elif pick == 1:
            out.insert(rng.randint(0, len(out)), list(rng.choice(a)))
        else:
            c = element(field, rng)
            out.insert(rng.randint(0, len(out)),
                       [c * x for x in rng.choice(a)])
    return out


def check_all(field, a, b):
    """Every kernel routine on ``a`` (and ``a x = b``) equals the reference."""
    cols = linalg.shape(a)[1]
    red, pivots = reference_rref(field, a)
    assert linalg.rref(field, a) == (red, pivots)
    assert linalg.rank(field, a) == len(pivots)
    assert linalg.nullspace(field, a) == reference_nullspace(field, a)
    assert linalg.column_space_basis(field, a) == [
        [row[j] for j in pivots] for row in a]
    assert linalg.solve(field, a, b) == reference_solve(field, a, b)
    assert linalg.inverse(field, a) == reference_inverse(field, a)
    assert linalg.is_invertible(field, a) == (
        len(a) == cols and len(pivots) == cols)
    for vec in linalg.nullspace(field, a):
        prod = linalg.mat_mul(field, a, [[x] for x in vec])
        assert linalg.is_zero(prod)
    check_sparse_rows(field, a, b)


def check_sparse_rows(field, a, b):
    """The sparse-row entry points agree with the dense ones column by
    column, whatever the row order."""
    cols = linalg.shape(a)[1]
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    kernel = linalg.nullspace(field, a)
    assert linalg.nullspace_rows(field, rows, cols) == kernel
    assert linalg.nullspace_rows(field, rows[::-1], cols) == kernel
    for j in range(linalg.shape(b)[1]):
        rhs = [row[j] for row in b]
        dense = linalg.solve(field, a, [[y] for y in rhs])
        want = None if dense is None else [row[0] for row in dense]
        assert linalg.solve_rows(field, rows, rhs, cols) == want
        assert linalg.solve_rows(field, rows[::-1], rhs[::-1], cols) == want


@st.composite
def systems(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.02, 0.1, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = random_matrix(field, rng, rows, cols, density)
    if draw(st.booleans()):
        a = with_dependent_rows(field, rng, a)
    # Half of the right-hand sides lie in the column space.
    width = draw(st.integers(1, 3))
    if draw(st.booleans()) and cols:
        x = random_matrix(field, rng, cols, width, 0.5)
        b = linalg.mat_mul(field, a, x) if a else []
    else:
        b = random_matrix(field, rng, len(a), width, density)
    return field, a, b


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(systems())
def test_kernel_matches_dense_reference(system):
    field, a, b = system
    check_all(field, a, b)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("density", [0.02, 0.05, 0.2, 1.0])
def test_larger_sparse_systems(field, density):
    rng = random.Random(7)
    # Dense rational elimination grows its entries fast; keep it small.
    shapes = ((40, 30), (30, 45), (60, 12)) if density < 0.2 else \
        ((16, 12), (12, 18), (24, 6))
    for rows, cols in shapes:
        a = with_dependent_rows(field, rng,
                                random_matrix(field, rng, rows, cols, density))
        b = random_matrix(field, rng, len(a), 2, density)
        check_all(field, a, b)


def test_rational_division_is_int_when_integral():
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(Fraction(3, 2), Fraction(3, 4))) is int
    assert QQ.div(Fraction(3, 2), Fraction(3, 4)) == 2
    assert type(QQ.div(-3, 3)) is int and QQ.div(-3, 3) == -1
    assert (QQ.zero(), QQ.one(), QQ.of_int(-5)) == (0, 1, -5)
    assert all(type(x) is int for x in (QQ.zero(), QQ.one(), QQ.of_int(7)))
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_prime_field_division():
    gf = PrimeField(101)
    assert gf.div(gf.of_int(1), gf.of_int(2)) == gf.of_int(51)
    assert gf.div(gf.of_int(6), gf.of_int(3)) == gf.of_int(2)
    with pytest.raises(ZeroDivisionError, match=r"GF\(101\)"):
        gf.div(gf.one(), gf.zero())


def as_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


@pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
def test_int_matrices_and_their_fraction_copies_agree(density):
    # One integer matrix given as ints and as Fractions: the kernel stays
    # on ints for the first wherever the quotients are integral, runs on
    # Fractions for the second, and both equal the dense reference.
    rng = random.Random(11)
    for rows, cols in ((6, 5), (5, 8), (9, 4)):
        a = [[rng.randint(-3, 3) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(rows)]
        check_all(QQ, a, b)
        check_all(QQ, as_fractions(a), as_fractions(b))
        assert linalg.rref(QQ, a) == linalg.rref(QQ, as_fractions(a))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_degenerate_shapes(field):
    z, o = field.zero(), field.one()
    # 0 x n: a matrix without rows is stored as [] and forgets n.
    check_all(field, [], [])
    # n x 0
    check_all(field, [[], [], []], [[o], [z], [o]])
    assert linalg.nullspace(field, [[], []]) == []
    assert linalg.solve(field, [[], []], [[z], [z]]) == []
    assert linalg.solve(field, [[], []], [[z], [o]]) is None
    # Sparse rows: no rows at all, and rows without variables.
    assert linalg.nullspace_rows(field, [], 2) == [[o, z], [z, o]]
    assert linalg.nullspace_rows(field, [], 0) == []
    assert linalg.solve_rows(field, [], [], 2) == [z, z]
    assert linalg.solve_rows(field, [{}, {}], [z, z], 0) == []
    assert linalg.solve_rows(field, [{}, {}], [z, o], 0) is None
    assert linalg.solve_rows(field, [{0: o}, {}], [o, o], 1) is None
    # 1 x 1
    for x in (z, o, field.of_int(2)):
        check_all(field, [[x]], [[o]])
    assert linalg.rref(field, [[z]]) == ([[z]], [])
    assert linalg.rref(field, [[field.of_int(2) + o]])[1] == (
        [] if field.characteristic == 3 else [0])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inconsistent_right_hand_side(field):
    z, o = field.zero(), field.one()
    a = [[o, o, z], [o, o, z], [z, z, z]]
    assert linalg.solve(field, a, [[o], [z], [z]]) is None
    assert linalg.solve(field, a, [[z], [z], [o]]) is None
    assert linalg.solve(field, a, [[o], [o], [z]]) == [[o], [z], [z]]
    rows = [{0: o, 1: o}, {0: o, 1: o}, {}]
    assert linalg.solve_rows(field, rows, [o, z, z], 3) is None
    assert linalg.solve_rows(field, rows, [z, z, o], 3) is None
    assert linalg.solve_rows(field, rows, [o, o, z], 3) == [o, z, z]
    check_all(field, a, [[o], [z], [z]])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_and_duplicate_rows(field):
    z, o = field.zero(), field.one()
    t = field.of_int(2)
    a = [[z, z, z, z], [o, t, z, o], [z, z, z, z], [o, t, z, o],
         [z, o, o, z], [t, t + t, z, t]]
    check_all(field, a, [[o]] * len(a))
    assert linalg.rank(field, a) == 2
