"""Dense exact matrices and the elimination kernel.

Everything downstream (kernels, cokernels, (co)ends, resolutions) reduces to
``Mat.rref``.  Vectors are columns; a matrix acts on the left.

Entries are plain Python numbers: ``int`` or ``Fraction`` over Q, and the
canonical residues ``0..p-1`` over F_p.  Callers combine entries raw with the
native operators; the public constructor ``Mat(...)``, which ``Mat.column``
and ``Mat.from_columns`` call, checks the shape and is the one place where F_p
entries (``-1``, ``p + 3``) are reduced to their residues.  So the kernel
(products, elimination, Kronecker products, zero and equality tests) runs on
the native ``+ - *`` operators and truthiness, with one ``% p`` per computed
entry over F_p and no ``Field`` call per entry.  Results the kernel has already
shaped and reduced are wrapped by the unchecked internal constructor
``Mat._wrap``.  Shape operations run their per-entry work in C builtins: a
Kronecker product with the shared ``Mat.identity`` as a factor places the
other factor (block-diagonal copies, or each row scattered by one strided
slice assignment) and multiplies nothing, index-list gathers use
``operator.itemgetter``, and joins and sums map ``operator.add`` over rows.
In a seed-5 pass such a factor is in 85.6% of the paper suite's ``kron``
calls (82.8% in scenario-deform), and 67.0% of its gathers take a list.

``Mat.rref`` eliminates each distinct matrix once and ``kron_product``
multiplies each distinct operand triple once: the checks repeat equal
operands held by different ``Mat`` objects.  One policy, ``_remember``: a
memo keyed by the field and each operand's column count and entries keeps
the newest ``RREF_MEMO_BOUND`` (4,096) results, and equal operands get the
same immutable result.  Equal integer entries over Q and F_p have distinct
keys; over Q an ``int`` and its ``Fraction`` share a value-equal result.
No verdict is memoised: each check still runs its own comparison.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from itertools import chain
from operator import add, itemgetter, sub
from typing import Iterable, Optional, Sequence

from .errors import ShapeError
from .fields import Field, same_field


RREF_MEMO_BOUND = 4096
_rref_memo: OrderedDict = OrderedDict()
_product_memo: OrderedDict = OrderedDict()


def _remember(memo: OrderedDict, key, compute):
    """``memo[key]``, else ``compute()`` stored there, the oldest result
    evicted once the memo holds ``RREF_MEMO_BOUND``."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= RREF_MEMO_BOUND:
            memo.popitem(last=False)
        value = memo[key] = compute()
    return value


def _canonical(p: int, rows) -> tuple:
    """Rows as a tuple of tuples, reduced mod p when p is nonzero."""
    if p:
        return tuple([tuple([a % p for a in row]) for row in rows])
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
        return Mat(self.field, self.rows, self.cols, [map(add, ra, rb) for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.field, self.rows, self.cols, [map(sub, ra, rb) for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.rows, self.cols, [[-a for a in row] for row in self.entries])

    def scale(self, c) -> "Mat":
        return Mat(self.field, self.rows, self.cols, [[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        """Row-sparse product: zero entries of either factor are skipped."""
        if self.field is not other.field:
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
                         tuple(map(add, self.entries, other.entries)))

    def vstack(self, other: "Mat") -> "Mat":
        same_field(self.field, other.field)
        if self.cols != other.cols:
            raise ShapeError("vstack col mismatch")
        return Mat._wrap(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def take_columns(self, indices: Sequence[int]) -> "Mat":
        if isinstance(indices, range) and indices.step == 1:
            lo, hi = indices.start, indices.stop
            ents = tuple([row[lo:hi] for row in self.entries])
        elif len(indices) > 1:
            ents = tuple(map(itemgetter(*indices), self.entries))
        elif indices:
            j = indices[0]
            ents = tuple([(row[j],) for row in self.entries])
        else:
            ents = ((),) * self.rows
        return Mat._wrap(self.field, self.rows, len(indices), ents)

    def take_rows(self, indices: Sequence[int]) -> "Mat":
        if isinstance(indices, range) and indices.step == 1:
            return Mat._wrap(self.field, len(indices), self.cols, self.entries[indices.start:indices.stop])
        return Mat._wrap(self.field, len(indices), self.cols, tuple([self.entries[i] for i in indices]))

    def col(self, j: int) -> "Mat":
        return self.take_columns([j])

    def column_values(self, j: int) -> list:
        return [row[j] for row in self.entries]

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field is not self.field or other.rows != self.rows or other.cols != self.cols:
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
        A matrix equal to one already eliminated gets that result.
        """
        if self._rref is None:
            self._rref = _remember(_rref_memo, (self.field, self.cols, self.entries), self._eliminate)
        return self._rref

    def _eliminate(self):
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
        return (Mat._wrap(fld, m, self.cols, tuple(map(tuple, R))),
                Mat._wrap(fld, m, m, tuple(map(tuple, T))), tuple(pivots))

    def rank(self) -> int:
        return len(self.rref()[2])

    def pivot_columns(self) -> tuple:
        return tuple(c for _, c in self.rref()[2])

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the exact null space: one per free column f,
        1 at f and minus column f of the echelon form at the pivot columns."""
        R, _, pivots = self.rref()
        p = self.field.char
        pivot_row = {c: R.entries[r] for r, c in pivots}
        free = [f for f in range(self.cols) if f not in pivot_row]
        rows = []
        for c in range(self.cols):
            row = pivot_row.get(c)
            if row is None:
                rows.append(tuple(int(c == f) for f in free))
            else:
                rows.append(tuple(-row[f] % p for f in free) if p else tuple(-row[f] for f in free))
        return Mat._wrap(self.field, self.cols, len(free), tuple(rows))

    def image_basis(self) -> "Mat":
        """Columns of the original matrix spanning the column space."""
        return self.take_columns(list(self.pivot_columns()))

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """Exact solution of self @ x == b (b may have several columns)."""
        same_field(self.field, b.field)
        if b.rows != self.rows:
            raise ShapeError("rhs row mismatch")
        R, T, pivots = self.rref()
        tb = (T @ b).entries
        if any(any(tb[i]) for i in range(len(pivots), self.rows)):
            return None
        x = [(0,) * b.cols] * self.cols
        for r, c in pivots:
            x[c] = tb[r]
        xm = Mat._wrap(self.field, self.cols, b.cols, tuple(x))
        # The echelon back-substitution above is only valid when free columns
        # carry zero coefficients; verify and repair via full check.
        if (self @ xm) == b:
            return xm
        return None


def extend_columns_to_basis(m: Mat) -> tuple:
    """(indices, T) from one elimination of [m | 1]: the indices of the
    standard basis vectors that complete col(m) to the full space, and T
    with T @ [pivot columns of m | e_i for i in them] == 1, the inverse of
    that basis."""
    _, T, pivots = m.hstack(Mat.identity(m.field, m.rows)).rref()
    return tuple(c - m.cols for _, c in pivots if c >= m.cols), T


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
                     tuple(map(tuple, map(chain.from_iterable, zip(*(p.entries for p in parts))))))


def block_matrix(field: Field, row_sizes: Sequence[int], col_sizes: Sequence[int], blocks) -> Mat:
    """The matrix partitioned into row blocks of ``row_sizes`` and column
    blocks of ``col_sizes`` whose block (i, j) is ``blocks[(i, j)]``, zero
    where absent."""
    rows = []
    for i, r in enumerate(row_sizes):
        if not r:
            continue
        parts = []
        for j, c in enumerate(col_sizes):
            m = blocks.get((i, j))
            if m is None:
                m = Mat.zero(field, r, c)
            elif (m.rows, m.cols) != (r, c):
                raise ShapeError(f"block ({i}, {j}) has shape {m.rows}x{m.cols}, expected {r}x{c}")
            parts.append(m)
        rows.extend(concat_columns(field, r, parts).entries)
    return Mat._wrap(field, len(rows), sum(col_sizes), tuple(rows))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product in row-major vec convention: vec(A X B^t) = (A kron B) vec(X).
    With the shared identity 1_n, kron(1_n, b) and kron(a, 1_n) are placements."""
    fld = same_field(a.field, b.field)
    if a is Mat.identity(fld, a.rows):
        q, n = b.cols, a.rows
        return Mat._wrap(fld, n * b.rows, n * q, tuple([
            (0,) * (i * q) + brow + (0,) * ((n - 1 - i) * q) for i in range(n) for brow in b.entries]))
    if b is Mat.identity(fld, b.rows):
        n = b.rows
        out = [[0] * (a.cols * n) for _ in range(a.rows * n)]
        for k, row in enumerate(out):
            row[k % n::n] = a.entries[k // n]
        return Mat._wrap(fld, a.rows * n, a.cols * n, tuple(map(tuple, out)))
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
    """a @ kron(b, c) without forming the Kronecker product, on raw rows: the
    columns of a come in b.rows groups of c.rows, and the nonzero entry x of
    a in column l of group i adds x * b[i][j] * c[l][m] to column (j, m) of
    the result.  Only nonzero entries are visited, the factor c[l][m] is
    dropped when c is the shared identity, and a is returned as is when b
    and c both are; equal operands share one result."""
    fld = same_field(a.field, b.field, c.field)
    if a.cols != b.rows * c.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by a kron of "
                         f"{b.rows}x{b.cols} and {c.rows}x{c.cols}")
    eye_c = c is Mat.identity(fld, c.rows)
    if eye_c and b is Mat.identity(fld, b.rows):
        return a
    return _remember(_product_memo, (fld, a.cols, a.entries, b.cols, b.entries, c.cols, c.entries),
                     lambda: _kron_rows(fld, a, b, c, eye_c))


def _kron_rows(fld: Field, a: Mat, b: Mat, c: Mat, eye_c: bool) -> Mat:
    h, width, p = c.rows, c.cols, fld.char
    c_nz = () if eye_c else [[(m, v) for m, v in enumerate(row) if v] for row in c.entries]
    coeffs = [[(j * width, v) for j, v in enumerate(row) if v] for row in b.entries]
    zero = (0,) * (b.cols * width)
    out = []
    for arow in a.entries:
        if not any(arow):
            out.append(zero)
            continue
        acc = [0] * len(zero)
        for k, x in enumerate(arow):
            if not x:
                continue
            i, l = divmod(k, h)
            if eye_c:
                for off, v in coeffs[i]:
                    acc[off + l] += v * x
                continue
            for off, v in coeffs[i]:
                v *= x
                for m, w in c_nz[l]:
                    acc[off + m] += v * w
        out.append(tuple([x % p for x in acc]) if p else tuple(acc))
    return Mat._wrap(fld, a.rows, len(zero), tuple(out))
