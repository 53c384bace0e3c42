"""Dense exact matrices and the elimination kernel.

Everything downstream (kernels, cokernels, (co)ends, resolutions) reduces to
``Mat.rref``.  Vectors are columns; a matrix acts on the left.

Entries are plain Python numbers: ``int`` or ``Fraction`` over Q, and the
canonical residues ``0..p-1`` over F_p.  The public constructor ``Mat(...)``
checks the shape and is the one place where F_p entries from outside (``-1``,
``p + 3``) are reduced to their residues.  So the kernel (products,
elimination, Kronecker products, zero and equality tests) runs on the native
``+ - *`` operators and truthiness, with one ``% p`` per computed entry over
F_p and no ``Field`` call per entry.  Results the kernel has already shaped
and reduced are wrapped by the unchecked internal constructor ``Mat._wrap``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .errors import ShapeError
from .fields import Field, same_field


def _canonical(p: int, rows) -> tuple:
    """Rows as a tuple of tuples, reduced mod p when p is nonzero."""
    if p:
        return tuple(tuple(a % p for a in row) for row in rows)
    return tuple(map(tuple, rows))


class Mat:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        ents = _canonical(field.char, entries)
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise ShapeError(f"entry grid does not match shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = ents
        self._rref = None

    @staticmethod
    def _wrap(field: Field, rows: int, cols: int, entries: tuple) -> "Mat":
        """Unchecked constructor: ``entries`` is already a tuple of ``rows``
        tuples of ``cols`` canonical entries."""
        m = object.__new__(Mat)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._rref = None
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=4096)
    def zero(field: Field, rows: int, cols: int) -> "Mat":
        """The zero matrix of a shape; one shared immutable instance per shape."""
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        return Mat._wrap(field, rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    @lru_cache(maxsize=4096)
    def identity(field: Field, n: int) -> "Mat":
        """The identity of a size; one shared immutable instance per size."""
        if n < 0:
            raise ShapeError(f"negative shape {n}x{n}")
        return Mat._wrap(field, n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_function(field: Field, rows: int, cols: int, fn: Callable[[int, int], object]) -> "Mat":
        return Mat(field, rows, cols, [[fn(i, j) for j in range(cols)] for i in range(rows)])

    @staticmethod
    def column(field: Field, values: Sequence) -> "Mat":
        return Mat(field, len(values), 1, [[v] for v in values])

    @staticmethod
    def basis_column(field: Field, n: int, i: int) -> "Mat":
        col = [0] * n
        col[i] = 1
        return Mat._wrap(field, n, 1, tuple((v,) for v in col))

    @staticmethod
    def from_columns(field: Field, n: int, columns: Iterable[Sequence]) -> "Mat":
        cols = list(columns)
        return Mat(field, n, len(cols), [[c[i] for c in cols] for i in range(n)])

    # -- basic algebra -------------------------------------------------

    def _check_same_shape(self, other: "Mat"):
        same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.field, self.rows, self.cols,
                   [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.field, self.rows, self.cols,
                   [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.rows, self.cols, [[-a for a in row] for row in self.entries])

    def scale(self, c) -> "Mat":
        return Mat(self.field, self.rows, self.cols, [[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        """Row-sparse product: zero entries of either factor are skipped."""
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n = other.cols
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * n
            for a, brow in zip(row, sparse):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(acc)
        return Mat._wrap(self.field, self.rows, n, _canonical(self.field.char, out))

    def transpose(self) -> "Mat":
        ents = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Mat._wrap(self.field, self.cols, self.rows, ents)

    def hstack(self, other: "Mat") -> "Mat":
        same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ShapeError("hstack row mismatch")
        return Mat._wrap(self.field, self.rows, self.cols + other.cols,
                         tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))

    def vstack(self, other: "Mat") -> "Mat":
        same_field(self.field, other.field)
        if self.cols != other.cols:
            raise ShapeError("vstack col mismatch")
        return Mat._wrap(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_columns(self, indices: Sequence[int]) -> "Mat":
        return Mat._wrap(self.field, self.rows, len(indices),
                         tuple(tuple(row[j] for j in indices) for row in self.entries))

    def take_rows(self, indices: Sequence[int]) -> "Mat":
        return Mat._wrap(self.field, len(indices), self.cols, tuple(self.entries[i] for i in indices))

    def col(self, j: int) -> "Mat":
        return self.take_columns([j])

    def column_values(self, j: int) -> list:
        return [row[j] for row in self.entries]

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field != self.field or other.rows != self.rows or other.cols != self.cols:
            return False
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.rows, self.cols))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render(a) for a in row) for row in self.entries)
        return f"Mat({self.rows}x{self.cols} over {self.field}: [{body}])"

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form with transformation: returns (R, T, pivots)
        satisfying T @ self == R, T invertible, pivots = list of (row, col).

        The pivot of a column is its first nonzero entry at or below the
        current row; over Q, the first of least size (numerator plus
        denominator bit length), which keeps rational coefficients small.
        """
        if self._rref is not None:
            return self._rref
        fld = self.field
        p = fld.char
        m = self.rows
        R = [list(row) for row in self.entries]
        T = [[0] * m for _ in range(m)]
        for i in range(m):
            T[i][i] = 1
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= m:
                break
            best = None
            best_w = None
            for i in range(r, m):
                a = R[i][c]
                if a:
                    if p:
                        best = i
                        break
                    w = abs(a.numerator).bit_length() + a.denominator.bit_length()
                    if best is None or w < best_w:
                        best, best_w = i, w
            if best is None:
                continue
            if best != r:
                R[r], R[best] = R[best], R[r]
                T[r], T[best] = T[best], T[r]
            pv = fld.inv(R[r][c])
            if pv != 1:
                if p:
                    R[r] = [pv * a % p for a in R[r]]
                    T[r] = [pv * a % p for a in T[r]]
                else:
                    R[r] = [pv * a for a in R[r]]
                    T[r] = [pv * a for a in T[r]]
            r_nz = [(j, a) for j, a in enumerate(R[r]) if a]
            t_nz = [(j, a) for j, a in enumerate(T[r]) if a]
            for i in range(m):
                factor = R[i][c]
                if i == r or not factor:
                    continue
                ri, ti = R[i], T[i]
                if p:
                    for j, a in r_nz:
                        ri[j] = (ri[j] - factor * a) % p
                    for j, a in t_nz:
                        ti[j] = (ti[j] - factor * a) % p
                else:
                    for j, a in r_nz:
                        ri[j] -= factor * a
                    for j, a in t_nz:
                        ti[j] -= factor * a
            pivots.append((r, c))
            r += 1
        result = (Mat._wrap(fld, m, self.cols, tuple(map(tuple, R))),
                  Mat._wrap(fld, m, m, tuple(map(tuple, T))), tuple(pivots))
        self._rref = result
        return result

    def rank(self) -> int:
        return len(self.rref()[2])

    def pivot_columns(self) -> tuple:
        return tuple(c for _, c in self.rref()[2])

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the exact null space."""
        fld = self.field
        R, _, pivots = self.rref()
        pivot_cols = {c: r for r, c in pivots}
        free = [c for c in range(self.cols) if c not in pivot_cols]
        cols = []
        for f in free:
            v = [fld.zero()] * self.cols
            v[f] = fld.one()
            for c, r in pivot_cols.items():
                v[c] = fld.neg(R.entries[r][f])
            cols.append(v)
        return Mat.from_columns(fld, self.cols, cols)

    def image_basis(self) -> "Mat":
        """Columns of the original matrix spanning the column space."""
        return self.take_columns(list(self.pivot_columns()))

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """Exact solution of self @ x == b (b may have several columns)."""
        same_field(self.field, b.field)
        if b.rows != self.rows:
            raise ShapeError("rhs row mismatch")
        fld = self.field
        R, T, pivots = self.rref()
        tb = T @ b
        x = [[fld.zero()] * b.cols for _ in range(self.cols)]
        pivot_rows = {r: c for r, c in pivots}
        for i in range(self.rows):
            if i in pivot_rows:
                for k in range(b.cols):
                    x[pivot_rows[i]][k] = tb.entries[i][k]
            else:
                if any(not fld.is_zero(tb.entries[i][k]) for k in range(b.cols)):
                    return None
        xm = Mat(fld, self.cols, b.cols, x)
        # The echelon back-substitution above is only valid when free columns
        # carry zero coefficients; verify and repair via full check.
        if (self @ xm) == b:
            return xm
        return None

    def solve_with_certificate(self, b: "Mat"):
        """Either (x, None) with self @ x == b, or (None, y) with
        y @ self == 0 and y @ b != 0 (y a row vector certifying b is
        outside the column space)."""
        x = self.solve(b)
        if x is not None:
            return x, None
        fld = self.field
        _, T, pivots = self.rref()
        tb = T @ b
        pivot_rows = {r for r, _ in pivots}
        for i in range(self.rows):
            if i not in pivot_rows and any(not fld.is_zero(v) for v in tb.entries[i]):
                y = Mat(fld, 1, self.rows, [T.entries[i]])
                return None, y
        raise AssertionError("solve failed but no certificate row found")


def rank_kernel_image(m: Mat):
    """(rank, kernel basis, image basis); rank + kernel-dim == cols exactly."""
    return m.rank(), m.kernel_basis(), m.image_basis()


def extend_columns_to_basis(m: Mat) -> tuple:
    """Indices of standard basis vectors completing col(m) to the full space.

    Returns (complement_indices,) such that [m | e_idx...] is invertible on
    the column space dimension.
    """
    fld = m.field
    aug = m.hstack(Mat.identity(fld, m.rows))
    pivots = aug.pivot_columns()
    complement = [c - m.cols for c in pivots if c >= m.cols]
    return tuple(complement)


def invert(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ShapeError("only square matrices invert")
    R, T, pivots = m.rref()
    if len(pivots) != m.rows:
        raise ShapeError("matrix is singular")
    return T


def concat_columns(field: Field, rows: int, parts: Sequence[Mat]) -> Mat:
    """The matrices of ``parts``, each with ``rows`` rows, side by side."""
    if len(parts) == 1:
        return parts[0]
    if not parts or not rows:
        return Mat.zero(field, rows, sum(p.cols for p in parts))
    return Mat._wrap(field, rows, sum(p.cols for p in parts),
                     tuple(tuple(chain.from_iterable(row)) for row in zip(*(p.entries for p in parts))))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product in row-major vec convention: vec(A X B^t) = (A kron B) vec(X)."""
    fld = same_field(a.field, b.field)
    zeros = [0] * b.cols
    out = []
    for arow in a.entries:
        for brow in b.entries:
            row = []
            for x in arow:
                row.extend([x * y for y in brow] if x else zeros)
            out.append(row)
    return Mat._wrap(fld, a.rows * b.rows, a.cols * b.cols, _canonical(fld.char, out))


def kron_product(a: Mat, b: Mat, c: Mat) -> Mat:
    """a @ kron(b, c) without forming the Kronecker product: the columns of a
    come in b.rows groups of c.rows, and group i adds b[i][j] * (a_i @ c) to
    column group j of the result."""
    fld = same_field(a.field, b.field, c.field)
    if a.cols != b.rows * c.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by a kron of "
                         f"{b.rows}x{b.cols} and {c.rows}x{c.cols}")
    width = c.cols
    out = [[0] * (b.cols * width) for _ in range(a.rows)]
    for i, brow in enumerate(b.entries):
        coeffs = [(j * width, v) for j, v in enumerate(brow) if v]
        if not coeffs:
            continue
        part = a.take_columns(range(i * c.rows, (i + 1) * c.rows)) @ c
        for orow, prow in zip(out, part.entries):
            for l, pv in enumerate(prow):
                if pv:
                    for off, v in coeffs:
                        orow[off + l] += v * pv
    return Mat._wrap(fld, a.rows, b.cols * width, _canonical(fld.char, out))
