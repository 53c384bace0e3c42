"""Exact linear algebra kernel: ranks, kernels, solves, certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgkit.errors import FieldMismatchError, ShapeError
from dgkit.fields import GF, QQ, same_field
from dgkit.matrix import Mat, concat_columns, extend_columns_to_basis, invert, kron, kron_product


def rand_mat(rng, field, rows, cols, density=0.7, span=5):
    def entry():
        if rng.random() > density:
            return 0
        return field.from_int(rng.randint(-span, span))
    return Mat(field, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def reduced(p: int, values) -> list:
    """The values mod p over F_p (p > 0), unchanged over Q (p = 0); the
    references reduce each step themselves, apart from ``Mat``."""
    return [v % p for v in values] if p else list(values)


def oracle_rank(m: Mat) -> int:
    """Independent elimination: first-nonzero pivoting, forward-only, on a copy."""
    fld = m.field
    p = fld.char
    rows = [list(r) for r in m.entries]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.cols:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][col])
        rows[rank] = reduced(p, [inv * v for v in rows[rank]])
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = reduced(p, [a - f * b for a, b in zip(rows[i], rows[rank])])
        rank += 1
        col += 1
    return rank


def test_identity_rank():
    m = Mat.identity(QQ, 2)
    rank, ker, img = m.rank(), m.kernel_basis(), m.image_basis()
    assert rank == 2 and ker.cols == 0 and img.cols == 2


def test_zero_matrix_kernel():
    m = Mat.zero(QQ, 1, 1)
    rank, ker, img = m.rank(), m.kernel_basis(), m.image_basis()
    assert rank == 0 and ker.cols == 1 and img.cols == 0


def test_rank_matches_independent_oracle_f7(rng):
    for _ in range(25):
        m = rand_mat(rng, GF(7), 5, 7)
        rank, ker, img = m.rank(), m.kernel_basis(), m.image_basis()
        assert rank == oracle_rank(m)
        assert rank + ker.cols == m.cols
        assert (m @ ker).is_zero()
        assert img.rank() == rank


def test_rank_transpose_invariance(rng, field):
    for _ in range(20):
        m = rand_mat(rng, field, rng.randint(0, 5), rng.randint(0, 5))
        assert m.rank() == m.transpose().rank()


def test_solve_identity():
    b = Mat(QQ, 2, 1, [[Fraction(3)], [Fraction(-5, 2)]])
    assert Mat.identity(QQ, 2).solve(b) == b


def test_solve_construct_roundtrip(rng, field):
    for _ in range(20):
        m = rand_mat(rng, field, 4, 3)
        x0 = rand_mat(rng, field, 3, 1)
        b = m @ x0
        x = m.solve(b)
        assert x is not None
        assert m @ x == b


def test_mixed_field_rejected():
    a = Mat.identity(QQ, 2)
    b = Mat.identity(GF(7), 2)
    with pytest.raises(FieldMismatchError):
        _ = a @ b


def test_fields_compare_by_identity():
    assert GF(7) is GF(7)
    assert GF(7) != GF(5) and GF(7) != QQ
    assert len({QQ, GF(7), GF(7), GF(5)}) == 3
    assert Mat.zero(QQ, 2, 2) != Mat.zero(GF(7), 2, 2)
    assert Mat.identity(GF(5), 1) != Mat.identity(GF(7), 1)
    assert same_field(GF(7), GF(7), GF(7)) is GF(7)
    with pytest.raises(FieldMismatchError):
        same_field(QQ, GF(7))


def test_exactness_roundtrip_through_strings(rng):
    m = rand_mat(rng, QQ, 4, 4, span=50)
    m2 = Mat(QQ, 4, 4, [[QQ.parse(QQ.render(v)) for v in row] for row in m.entries])
    assert m == m2
    # a denominator-heavy solve stays exact
    scaled = m.scale(Fraction(1, 97))
    if scaled.rank() == 4:
        x = scaled.solve(Mat.identity(QQ, 4).col(0))
        assert scaled @ x == Mat.identity(QQ, 4).col(0)


def test_extend_columns_to_basis(rng):
    m = rand_mat(rng, QQ, 5, 2)
    # a dependent column changes neither the completing indices nor T
    for cols in (m, m.hstack(m.col(0) + m.col(1))):
        comp, T = extend_columns_to_basis(cols)
        full = m.image_basis().hstack(
            Mat.from_columns(QQ, 5, [Mat.basis_column(QQ, 5, i).column_values(0) for i in comp]))
        assert full.rank() == 5
        assert T == invert(full)


def test_invert(rng):
    for _ in range(10):
        m = rand_mat(rng, QQ, 3, 3, density=1.0)
        if m.rank() == 3:
            assert m @ invert(m) == Mat.identity(QQ, 3)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_invert_rejects_a_singular_matrix(field):
    with pytest.raises(ShapeError, match="matrix is singular"):
        invert(Mat(field, 2, 2, [[1, 2], [2, 4]]))


def test_kron_row_major_vec_identity(rng):
    # vec(A X B^t) == (A kron B) vec(X) with row-major vec
    a = rand_mat(rng, QQ, 2, 3)
    b = rand_mat(rng, QQ, 2, 2)
    x = rand_mat(rng, QQ, 3, 2)
    prod = a @ x @ b.transpose()
    vec_x = Mat.column(QQ, [x.entries[i][j] for i in range(3) for j in range(2)])
    vec_p = Mat.column(QQ, [prod.entries[i][j] for i in range(2) for j in range(2)])
    assert kron(a, b) @ vec_x == vec_p


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_plus_nullity_property(rows):
    m = Mat(QQ, len(rows), 3, [[Fraction(v) for v in r] for r in rows])
    rank, ker, img = m.rank(), m.kernel_basis(), m.image_basis()
    assert rank + ker.cols == 3
    assert (m @ ker).is_zero()


# -- sympy oracle: Q through sympy.Matrix, GF(p) through DomainMatrix -------------

@st.composite
def grids(draw, entry, zero):
    """A grid of at most 10x20 with about 60% zeros, a drawn right-hand side,
    and whether to solve for a vector of the image instead."""
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 20))
    cell = st.tuples(st.integers(0, 9), zero, entry).map(lambda t: t[1] if t[0] < 6 else t[2])
    grid = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    rhs = draw(st.lists(cell, min_size=rows, max_size=rows))
    return grid, rhs, draw(st.booleans())


Q_ENTRY = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
Q_ZERO = st.sampled_from([0, Fraction(0)])


def reference_rref(m: Mat):
    """Elementwise Gauss-Jordan on native numbers, reduced mod p at each step,
    with the kernel's pivot rule: the first nonzero entry, over Q the first of
    least numerator-plus-denominator bit length."""
    fld = m.field
    p = fld.char
    R = [list(row) for row in m.entries]
    T = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    pivots = []
    r = 0
    def size(a):
        a = Fraction(a)
        return abs(a.numerator).bit_length() + a.denominator.bit_length()

    for c in range(m.cols):
        if r >= m.rows:
            break
        candidates = [i for i in range(r, m.rows) if R[i][c]]
        if not candidates:
            continue
        best = candidates[0] if p else min(candidates, key=lambda i: size(R[i][c]))
        R[r], R[best], T[r], T[best] = R[best], R[r], T[best], T[r]
        pv = fld.inv(R[r][c])
        R[r] = reduced(p, [pv * a for a in R[r]])
        T[r] = reduced(p, [pv * a for a in T[r]])
        for i in range(m.rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = reduced(p, [a - f * b for a, b in zip(R[i], R[r])])
                T[i] = reduced(p, [a - f * b for a, b in zip(T[i], T[r])])
        pivots.append((r, c))
        r += 1
    return Mat(fld, m.rows, m.cols, R), Mat(fld, m.rows, m.rows, T), tuple(pivots)


def reference_kernel(m: Mat) -> Mat:
    """The kernel basis read off the echelon form entry by entry: one column
    per free column f, one at f and minus column f of the echelon form at the
    pivot columns."""
    fld = m.field
    R, _, pivots = reference_rref(m)
    pivot_cols = {c: r for r, c in pivots}
    cols = []
    for f in (c for c in range(m.cols) if c not in pivot_cols):
        v = [1 if c == f else 0 for c in range(m.cols)]
        for c, r in pivot_cols.items():
            v[c] = -R.entries[r][f]
        cols.append(v)
    return Mat.from_columns(fld, m.cols, cols)


def assert_matches_oracle(m: Mat, rref_ref, pivots_ref, null_ref, rhs: Mat, solvable: bool):
    R, T, pivots = m.rref()
    assert T @ m == R
    assert (R, T, pivots) == reference_rref(m)
    assert m.kernel_basis() == reference_kernel(m)
    assert [list(row) for row in R.entries] == rref_ref
    assert [c for _, c in pivots] == list(pivots_ref)
    assert [r for r, _ in pivots] == list(range(len(pivots)))
    assert m.rank() == len(pivots_ref)
    ker = m.kernel_basis()
    assert ker.cols == len(null_ref) == m.cols - m.rank()
    assert (m @ ker).is_zero() and ker.rank() == ker.cols
    if null_ref:
        assert ker.hstack(Mat.from_columns(m.field, m.cols, null_ref)).rank() == ker.cols
    x = m.solve(rhs)
    assert (x is not None) == solvable
    if x is not None:
        assert m @ x == rhs


def image_or_drawn_rhs(m: Mat, rhs, use_image: bool) -> Mat:
    if use_image:
        return m @ Mat.from_columns(m.field, m.cols, [[(3 * j + 1) % 5 - 2 for j in range(m.cols)]])
    return Mat.column(m.field, rhs)


@settings(max_examples=60, deadline=None)
@given(grids(Q_ENTRY, Q_ZERO))
def test_kernel_matches_sympy_over_q(case):
    import sympy

    grid, rhs, use_image = case
    m = Mat(QQ, len(grid), len(grid[0]), grid)
    b = image_or_drawn_rhs(m, rhs, use_image)

    def to_sympy(mat):
        return sympy.Matrix(mat.rows, mat.cols, [sympy.Rational(v.numerator, v.denominator)
                                                 for row in mat.entries for v in row])

    a = to_sympy(m)
    rref_ref, pivots_ref = a.rref()
    rref_ref = [[Fraction(int(v.p), int(v.q)) for v in rref_ref.row(i)] for i in range(m.rows)]
    null_ref = [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in a.nullspace()]
    solvable = a.rank() == a.row_join(to_sympy(b)).rank()
    assert_matches_oracle(m, rref_ref, pivots_ref, null_ref, b, solvable)


@st.composite
def fp_cases(draw):
    p = draw(st.sampled_from([2, 7, 101]))
    entry = st.one_of(st.sampled_from([-1, p, 2 * p + 3]), st.integers(-2 * p, 3 * p))
    zero = st.sampled_from([0, p, -p, 2 * p])
    return p, draw(grids(entry, zero))


@settings(max_examples=60, deadline=None)
@given(fp_cases())
def test_kernel_matches_sympy_domain_matrix_over_gf_p(case):
    from sympy import GF as SymGF
    from sympy.polys.matrices import DomainMatrix

    p, (grid, rhs, use_image) = case
    fld = GF(p)
    m = Mat(fld, len(grid), len(grid[0]), grid)
    assert all(0 <= v < p for row in m.entries for v in row)
    assert m == Mat(fld, m.rows, m.cols, [[v % p for v in row] for row in grid])
    b = image_or_drawn_rhs(m, rhs, use_image)
    k = SymGF(p)

    def to_domain(mat):
        return DomainMatrix([[k(v) for v in row] for row in mat.entries], (mat.rows, mat.cols), k)

    a = to_domain(m)
    rref_ref, pivots_ref = a.rref()
    rref_ref = [[int(v) % p for v in row] for row in rref_ref.to_list()]
    null_ref = [[int(v) % p for v in row] for row in a.nullspace().to_list()]
    solvable = a.rank() == a.hstack(to_domain(b)).rank()
    assert_matches_oracle(m, rref_ref, pivots_ref, null_ref, b, solvable)


# -- kron and kron_product against the entrywise Kronecker product ----------------

def reference_kron(a: Mat, b: Mat) -> Mat:
    """Entry (i*p + k, j*q + l) is a[i][j] * b[k][l], for b of shape p x q."""
    p, q = b.rows, b.cols
    return Mat(a.field, a.rows * p, a.cols * q,
               [[a.entries[i][j] * b.entries[k][l] for j in range(a.cols) for l in range(q)]
                for i in range(a.rows) for k in range(p)])


def built_identity(field, n: int, one=1) -> Mat:
    """An identity entered entry by entry: equal to, but not, the shared one."""
    return Mat(field, n, n, [[one if i == j else 0 for j in range(n)] for i in range(n)])


class CountingFraction(Fraction):
    """A Fraction that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return super().__mul__(other)

    def __rmul__(self, other):
        CountingFraction.products += 1
        return super().__rmul__(other)


def identity_kind_cases(field):
    """Factor pairs with the shared identity on the left, on the right, on
    both sides and on neither, including 0-row and 0-column shapes."""
    q_entry = (lambda v: Fraction(v, 3)) if not field.char else (lambda v: v)
    drawn = [Mat(field, r, c, [[q_entry((3 * i + 2 * j) % 11 - 5) for j in range(c)] for i in range(r)])
             for r, c in ((2, 3), (1, 1), (0, 2), (2, 0), (0, 0), (3, 2))]
    eyes = [Mat.identity(field, n) for n in (0, 1, 2, 3)]
    return ([(e, m) for e in eyes for m in drawn] + [(m, e) for e in eyes for m in drawn]
            + [(e, f) for e in eyes for f in eyes] + [(m, n) for m in drawn for n in drawn]
            + [(built_identity(field, n), m) for n in (1, 3) for m in drawn]
            + [(m, built_identity(field, n)) for n in (1, 3) for m in drawn])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_kron_matches_the_entrywise_reference(field):
    for a, b in identity_kind_cases(field):
        out = kron(a, b)
        assert out.field is field and (out.rows, out.cols) == (a.rows * b.rows, a.cols * b.cols)
        assert len(out.entries) == out.rows and all(len(row) == out.cols for row in out.entries)
        assert out == reference_kron(a, b)
        if field.char:
            assert all(0 <= v < field.char for row in out.entries for v in row)


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_kron_with_the_shared_identity_multiplies_nothing(left):
    b = Mat(QQ, 2, 3, [[CountingFraction(v, 2) for v in row] for row in ([1, 0, -3], [5, 7, 0])])
    for eye, placed in ((Mat.identity(QQ, 3), True), (built_identity(QQ, 3, CountingFraction(1)), False)):
        CountingFraction.products = 0
        out = kron(eye, b) if left else kron(b, eye)
        # the shared identity places b; a built one takes the generic path
        assert (CountingFraction.products == 0) == placed
        assert out == (reference_kron(eye, b) if left else reference_kron(b, eye))


@st.composite
def kron_cases(draw):
    """(a, b, c) with a.cols == b.rows * c.rows over Q or GF(7).  b and c are
    each the shared identity, an identity built entry by entry or a drawn
    matrix; every shape may be empty, and about half the rows of a are zero."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    entry = st.one_of(st.just(0), st.integers(-9, 9) if field.char else Q_ENTRY)

    def grid(rows, cols):
        return [[0] * cols if draw(st.booleans()) else draw(st.lists(entry, min_size=cols, max_size=cols))
                for _ in range(rows)]

    def factor():
        kind, n = draw(st.sampled_from(["shared", "built", "drawn"])), draw(st.integers(0, 3))
        if kind == "shared":
            return Mat.identity(field, n)
        if kind == "built":
            return Mat(field, n, n, [[int(i == j) for j in range(n)] for i in range(n)])
        cols = draw(st.integers(0, 3))
        return Mat(field, n, cols, grid(n, cols))

    b, c = factor(), factor()
    rows = draw(st.integers(0, 4))
    return Mat(field, rows, b.rows * c.rows, grid(rows, b.rows * c.rows)), b, c


@settings(max_examples=200, deadline=None)
@given(kron_cases())
def test_kron_product_matches_formed_kron(case):
    a, b, c = case
    out = kron_product(a, b, c)
    assert (out.rows, out.cols) == (a.rows, b.cols * c.cols)
    assert out == a @ reference_kron(b, c)
    if a.field.char:
        assert all(0 <= v < a.field.char for row in out.entries for v in row)


@pytest.mark.parametrize("a_rows, b, c", [
    ([[1, 2, 0, 0], [0, 0, 0, 0], [3, 0, 0, -1]], "eye2", [[1, 0, 2], [0, -1, 1]]),
    ([[0, 0, 0, 0], [5, 0, -2, 1]], [[1, 2], [0, 3]], "eye2"),
    ([[4, 0, 1, 2]], "eye2", "eye2"),
    ([], [[1, 2], [3, 4]], [[1], [2]]),
    ([[0, 0], [0, 0]], [[1, 1]], [[2], [0]]),
    ([[1, 0, 2, 3]], [[1], [0]], [[0, 1], [1, 1]]),
    ([[7]], [[]], [[]]),
])
def test_kron_product_named_shapes(field, a_rows, b, c):
    def mat(spec, cols=None):
        if spec == "eye2":
            return Mat.identity(field, 2)
        return Mat(field, len(spec), len(spec[0]) if spec else cols, spec)

    b, c = mat(b), mat(c)
    a = mat(a_rows, b.rows * c.rows)
    out = kron_product(a, b, c)
    assert out == a @ kron(b, c)
    if b is Mat.identity(field, 2) and c is b:
        assert out is a


@settings(max_examples=50, deadline=None)
@given(kron_cases(), st.integers(1, 3))
def test_kron_product_rejects_mismatched_shapes(case, extra):
    a, b, c = case
    with pytest.raises(ShapeError):
        kron_product(a.hstack(Mat.zero(a.field, a.rows, extra)), b, c)
    other = QQ if a.field.char else GF(7)
    with pytest.raises(FieldMismatchError):
        kron_product(Mat.zero(other, a.rows, a.cols), b, c)


# -- the Q representation boundary: int and the equal Fraction are interchangeable --

@pytest.mark.parametrize("value, fraction", [(0, Fraction(0)), (3, Fraction(3)),
                                             (-2, Fraction(-4, 2)), (5, Fraction(10, 2))])
def test_int_and_equal_fraction_are_interchangeable(value, fraction):
    assert QQ.render(value) == QQ.render(fraction)
    a = Mat(QQ, 2, 2, [[value, 0], [Fraction(1, 2), value]])
    b = Mat(QQ, 2, 2, [[fraction, Fraction(0)], [Fraction(1, 2), fraction]])
    assert a == b and b == a
    assert not a.is_zero() and not b.is_zero()
    assert Mat(QQ, 1, 1, [[value]]).is_zero() == Mat(QQ, 1, 1, [[fraction]]).is_zero() == (value == 0)
    assert repr(a) == repr(b)


# -- the elimination memo: one elimination per distinct matrix --------------------

@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_a_memo_hit_returns_what_a_fresh_elimination_returns(rng, field):
    for _ in range(40):
        a = rand_mat(rng, field, rng.randint(1, 8), rng.randint(1, 10), span=50)
        b = Mat(field, a.rows, a.cols, a.entries)
        assert b is not a and b._rref is None
        assert b.rref() is a.rref()
        for m in (a, b):
            R, T, pivots = m.rref()
            assert T @ m == R
            assert (R, T, pivots) == reference_rref(m)


def test_equal_integer_entries_over_q_and_f_p_are_eliminated_apart():
    # det = -5: invertible over Q, rank 1 over F_5
    for first, second in ((QQ, GF(5)), (GF(5), QQ)):
        grid = [[1, 2], [3, 1]] if first is QQ else [[2, 1], [1, 3]]
        ms = [Mat(first, 2, 2, grid), Mat(second, 2, 2, grid)]
        results = [m.rref() for m in ms]
        assert results[0] is not results[1]
        assert [m.rank() for m in ms] == ([2, 1] if first is QQ else [1, 2])
        for m, result in zip(ms, results):
            assert result == reference_rref(m)


def test_an_int_matrix_and_its_fraction_twin_share_a_value_equal_elimination(rng):
    for k in range(30):
        grid = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(5)] for _ in range(4)]
        ints, fracs = Mat(QQ, 4, 5, grid), Mat(QQ, 4, 5, [[Fraction(v) for v in row] for row in grid])
        for m in (ints, fracs) if k % 2 else (fracs, ints):
            m.rref()
        for a, b in zip(ints.rref(), fracs.rref()):
            assert a == b
            if isinstance(a, Mat):
                assert [QQ.render(x) for row in a.entries for x in row] == \
                    [QQ.render(x) for row in b.entries for x in row]
        for m in (ints, fracs):
            assert m.rref() == reference_rref(m)


# -- the product memo: one product per distinct operand triple -------------------

def twin(m: Mat) -> Mat:
    """An equal matrix held by a new object."""
    return Mat(m.field, m.rows, m.cols, m.entries)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_a_product_memo_hit_returns_what_a_fresh_product_returns(rng, field):
    def factor(kind):
        n = rng.randint(0, 3)
        if kind == "shared":
            return Mat.identity(field, n)
        if kind == "built":
            return Mat(field, n, n, [[int(i == j) for j in range(n)] for i in range(n)])
        return rand_mat(rng, field, n, rng.randint(0, 3), span=50)

    for k in range(80):
        b, c = factor(rng.choice(["shared", "built", "drawn"])), factor(rng.choice(["shared", "built", "drawn"]))
        a = rand_mat(rng, field, k % 4, b.rows * c.rows, span=50)
        first = kron_product(a, b, c)
        hit = kron_product(twin(a), twin(b), twin(c))
        if first is not a:
            assert hit is first
        for out in (first, hit):
            assert (out.rows, out.cols) == (a.rows, b.cols * c.cols)
            assert out == a @ kron(b, c)


def test_zero_row_factors_of_other_widths_get_products_of_their_own_shapes(field):
    # a zero-row matrix has the entries () whatever its width, so only the
    # column counts in the key tell these products apart
    c = Mat(field, 1, 2, [[1, 1]])
    for width in (1, 3, 0, 2):
        out = kron_product(Mat.zero(field, 2, 0), Mat.zero(field, 0, width), c)
        assert (out.rows, out.cols) == (2, 2 * width) and out.is_zero()
        out = kron_product(Mat.zero(field, 2, 0), c, Mat.zero(field, 0, width))
        assert (out.rows, out.cols) == (2, 2 * width) and out.is_zero()
        out = kron_product(Mat.zero(field, 0, 2), Mat(field, 2, width, [[1] * width] * 2), c)
        assert (out.rows, out.cols) == (0, 2 * width)


def test_an_int_product_and_its_fraction_twin_are_value_equal_and_render_equal(rng):
    for k in range(30):
        grids = [[[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
                 for rows, cols in ((3, 4), (2, 2), (2, 3))]
        ints = [Mat(QQ, len(g), len(g[0]), g) for g in grids]
        fracs = [Mat(QQ, len(g), len(g[0]), [[Fraction(v) for v in row] for row in g]) for g in grids]
        results = [kron_product(*ops) for ops in ((ints, fracs) if k % 2 else (fracs, ints))]
        assert results[0] == results[1] == ints[0] @ kron(ints[1], ints[2])
        assert [QQ.render(x) for row in results[0].entries for x in row] == \
            [QQ.render(x) for row in results[1].entries for x in row]


def test_equal_integer_entries_over_q_and_f_5_get_products_apart():
    grids = ([[3, 4]], [[2], [1]], [[4]])
    for fields in ((QQ, GF(5)), (GF(5), QQ)):
        results = [kron_product(*(Mat(f, len(g), len(g[0]), g) for g in grids)) for f in fields]
        assert results[0] is not results[1]
        for f, out in zip(fields, results):
            assert out.field is f and out.entries == ((0 if f.char else 40,),)


def test_mismatched_operands_raise_after_an_equal_entries_product(field):
    b, c = Mat(field, 2, 1, [[1], [2]]), Mat(field, 2, 2, [[1, 0], [1, 1]])
    a = Mat(field, 2, 4, [[1, 0, 2, 0], [0, 3, 0, 1]])
    assert kron_product(a, b, c) == a @ kron(b, c)
    other = QQ if field.char else GF(7)
    with pytest.raises(FieldMismatchError):
        kron_product(Mat(other, 2, 4, a.entries), b, c)
    with pytest.raises(FieldMismatchError):
        kron_product(a, b, Mat(other, 2, 2, c.entries))
    # a zero-row a has the same (empty) entries at every width
    kron_product(Mat.zero(field, 0, 4), b, c)
    with pytest.raises(ShapeError):
        kron_product(Mat.zero(field, 0, 5), b, c)
    with pytest.raises(ShapeError):
        kron_product(Mat.zero(field, 0, 4), b, Mat.zero(field, 0, 2))


# -- shape operations against per-entry references ---------------------------------

INDEX_LISTS = [[2, 0, 3], [1, 1, 4, 1], [3], [], [4, 3, 2, 1, 0], range(1, 4), range(0, 5), range(2, 2),
               range(0, 5, 2)]


@pytest.mark.parametrize("indices", INDEX_LISTS, ids=str)
def test_take_columns_and_rows_match_per_entry_references(rng, field, indices):
    m = rand_mat(rng, field, 5, 5)
    cols = m.take_columns(indices)
    assert (cols.rows, cols.cols) == (5, len(indices))
    assert cols.entries == tuple(tuple(m.entries[i][j] for j in indices) for i in range(5))
    rows = m.take_rows(indices)
    assert (rows.rows, rows.cols) == (len(indices), 5)
    assert rows.entries == tuple(tuple(m.entries[i][j] for j in range(5)) for i in indices)
    if len(indices) == 1:
        assert m.col(indices[0]) == cols
    empty = Mat.zero(field, 0, 5).take_columns(indices)
    assert (empty.rows, empty.cols, empty.entries) == (0, len(indices), ())


def test_hstack_and_concat_columns_match_per_entry_references(rng, field):
    for rows in (0, 1, 3):
        parts = [rand_mat(rng, field, rows, cols) for cols in (2, 0, 3, 1)]
        want = tuple(tuple(v for part in parts for v in part.entries[i]) for i in range(rows))
        joined = concat_columns(field, rows, parts)
        assert (joined.rows, joined.cols, joined.entries) == (rows, 6, want)
        pair = parts[0].hstack(parts[2])
        assert (pair.rows, pair.cols) == (rows, 5)
        assert pair.entries == tuple(parts[0].entries[i] + parts[2].entries[i] for i in range(rows))
        assert concat_columns(field, rows, parts[2:3]) is parts[2]
        assert concat_columns(field, rows, []) == Mat.zero(field, rows, 0)


def test_sums_and_differences_keep_f_p_residues(rng):
    fld = GF(7)
    for _ in range(20):
        a, b = rand_mat(rng, fld, 3, 4), rand_mat(rng, fld, 3, 4)
        for out, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
            assert out.entries == tuple(tuple(op(x, y) % 7 for x, y in zip(ra, rb))
                                        for ra, rb in zip(a.entries, b.entries))
        assert (a - a).is_zero() and a + Mat.zero(fld, 3, 4) == a


# -- the kernel's shape and invertibility errors ------------------------------------

def test_negative_shapes_are_rejected(field):
    with pytest.raises(ShapeError, match="negative shape -1x2"):
        Mat(field, -1, 2, [])
    with pytest.raises(ShapeError, match="negative shape 2x-3"):
        Mat.zero(field, 2, -3)
    with pytest.raises(ShapeError, match="negative shape -2x-2"):
        Mat.identity(field, -2)


def test_an_entry_grid_of_another_shape_is_rejected(field):
    with pytest.raises(ShapeError, match="entry grid does not match shape 2x2"):
        Mat(field, 2, 2, [[1, 2], [3]])
    with pytest.raises(ShapeError, match="entry grid does not match shape 1x2"):
        Mat(field, 1, 2, [[1, 2], [3, 4]])


def test_operands_of_mismatched_shapes_are_rejected(field):
    a, b = Mat.zero(field, 2, 3), Mat.zero(field, 3, 2)
    with pytest.raises(ShapeError, match="shape mismatch 2x3 vs 3x2"):
        a + b
    with pytest.raises(ShapeError, match="shape mismatch 2x3 vs 3x2"):
        a - b
    with pytest.raises(ShapeError, match="cannot multiply 2x3 by 2x3"):
        a @ a
    with pytest.raises(ShapeError, match="cannot multiply 2x3 by a kron of 2x2 and 1x1"):
        kron_product(a, Mat.identity(field, 2), Mat.identity(field, 1))
    with pytest.raises(ShapeError, match="hstack row mismatch"):
        a.hstack(b)
    with pytest.raises(ShapeError, match="vstack col mismatch"):
        a.vstack(b)
    with pytest.raises(ShapeError, match="rhs row mismatch"):
        a.solve(Mat.zero(field, 3, 1))


def test_invert_needs_a_square_matrix(field):
    with pytest.raises(ShapeError, match="only square matrices invert"):
        invert(Mat.zero(field, 2, 3))
