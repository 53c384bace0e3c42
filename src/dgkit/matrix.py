"""Dense exact matrices and the elimination kernel.

Everything downstream (kernels, cokernels, (co)ends, resolutions) reduces to
``Mat.rref``.  Vectors are columns; a matrix acts on the left.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import ShapeError
from .fields import Field, same_field


class Mat:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        ents = tuple(tuple(row) for row in entries)
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise ShapeError(f"entry grid does not match shape {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = ents
        self._rref = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero()
        return Mat(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero(), field.one()
        return Mat(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_function(field: Field, rows: int, cols: int, fn: Callable[[int, int], object]) -> "Mat":
        return Mat(field, rows, cols, [[fn(i, j) for j in range(cols)] for i in range(rows)])

    @staticmethod
    def column(field: Field, values: Sequence) -> "Mat":
        return Mat(field, len(values), 1, [[v] for v in values])

    @staticmethod
    def basis_column(field: Field, n: int, i: int) -> "Mat":
        col = [field.zero()] * n
        col[i] = field.one()
        return Mat(field, n, 1, [[v] for v in col])

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
        add = self.field.add
        return Mat(self.field, self.rows, self.cols,
                   [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        sub = self.field.sub
        return Mat(self.field, self.rows, self.cols,
                   [[sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        neg = self.field.neg
        return Mat(self.field, self.rows, self.cols, [[neg(a) for a in row] for row in self.entries])

    def scale(self, c) -> "Mat":
        mul = self.field.mul
        return Mat(self.field, self.rows, self.cols, [[mul(c, a) for a in row] for row in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        fld = self.field
        z = fld.zero()
        out = []
        ot = [tuple(other.entries[k][j] for k in range(other.rows)) for j in range(other.cols)]
        for row in self.entries:
            out_row = []
            for col in ot:
                acc = z
                for a, b in zip(row, col):
                    if not fld.is_zero(a) and not fld.is_zero(b):
                        acc = fld.add(acc, fld.mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Mat(fld, self.rows, other.cols, out)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def hstack(self, other: "Mat") -> "Mat":
        same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ShapeError("hstack row mismatch")
        return Mat(self.field, self.rows, self.cols + other.cols,
                   [ra + rb for ra, rb in zip(self.entries, other.entries)])

    def vstack(self, other: "Mat") -> "Mat":
        same_field(self.field, other.field)
        if self.cols != other.cols:
            raise ShapeError("vstack col mismatch")
        return Mat(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_columns(self, indices: Sequence[int]) -> "Mat":
        return Mat(self.field, self.rows, len(indices),
                   [[row[j] for j in indices] for row in self.entries])

    def take_rows(self, indices: Sequence[int]) -> "Mat":
        return Mat(self.field, len(indices), self.cols, [self.entries[i] for i in indices])

    def col(self, j: int) -> "Mat":
        return self.take_columns([j])

    def column_values(self, j: int) -> list:
        return [row[j] for row in self.entries]

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(a) for row in self.entries for a in row)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field != self.field or other.rows != self.rows or other.cols != self.cols:
            return False
        z = self.field.is_zero
        sub = self.field.sub
        return all(z(sub(a, b))
                   for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render(a) for a in row) for row in self.entries)
        return f"Mat({self.rows}x{self.cols} over {self.field}: [{body}])"

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form with transformation: returns (R, T, pivots)
        satisfying T @ self == R, T invertible, pivots = list of (row, col).

        Pivot choice uses the field's magnitude heuristic to keep rational
        coefficients small.
        """
        if self._rref is not None:
            return self._rref
        fld = self.field
        R = [list(row) for row in self.entries]
        T = [list(row) for row in Mat.identity(fld, self.rows).entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            best = None
            best_w = None
            for i in range(r, self.rows):
                if not fld.is_zero(R[i][c]):
                    w = fld.pivot_weight(R[i][c])
                    if best is None or w < best_w:
                        best, best_w = i, w
            if best is None:
                continue
            if best != r:
                R[r], R[best] = R[best], R[r]
                T[r], T[best] = T[best], T[r]
            pv = fld.inv(R[r][c])
            R[r] = [fld.mul(pv, a) for a in R[r]]
            T[r] = [fld.mul(pv, a) for a in T[r]]
            for i in range(self.rows):
                if i != r and not fld.is_zero(R[i][c]):
                    factor = R[i][c]
                    R[i] = [fld.sub(a, fld.mul(factor, b)) for a, b in zip(R[i], R[r])]
                    T[i] = [fld.sub(a, fld.mul(factor, b)) for a, b in zip(T[i], T[r])]
            pivots.append((r, c))
            r += 1
        result = (Mat(fld, self.rows, self.cols, R), Mat(fld, self.rows, self.rows, T), tuple(pivots))
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


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product in row-major vec convention: vec(A X B^t) = (A kron B) vec(X)."""
    fld = same_field(a.field, b.field)
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[fld.zero()] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entries[i][j]
            if fld.is_zero(aij):
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = fld.mul(aij, b.entries[k][l])
    return Mat(fld, rows, cols, out)


def kron_product(a: Mat, b: Mat, c: Mat) -> Mat:
    """a @ kron(b, c) without forming the Kronecker product: the columns of a
    come in b.rows groups of c.rows, and group i adds b[i][j] * (a_i @ c) to
    column group j of the result."""
    fld = same_field(a.field, b.field, c.field)
    if a.cols != b.rows * c.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by a kron of "
                         f"{b.rows}x{b.cols} and {c.rows}x{c.cols}")
    width = c.cols
    out = [[fld.zero()] * (b.cols * width) for _ in range(a.rows)]
    for i, brow in enumerate(b.entries):
        coeffs = [(j * width, v) for j, v in enumerate(brow) if not fld.is_zero(v)]
        if not coeffs:
            continue
        part = a.take_columns(range(i * c.rows, (i + 1) * c.rows)) @ c
        for orow, prow in zip(out, part.entries):
            for l, pv in enumerate(prow):
                if fld.is_zero(pv):
                    continue
                for off, v in coeffs:
                    orow[off + l] = fld.add(orow[off + l], fld.mul(v, pv))
    return Mat(fld, a.rows, b.cols * width, out)
