"""Complexes of finite-dimensional vector spaces, chain maps, and the
graded tensor/hom calculus.

Sign conventions, fixed once and enforced by construction-time checks:

* differentials raise degree by one; d(x tensor y) = dx tensor y + (-1)^|x| x tensor dy
* hom-complex degree-n component is prod_i Hom(c^i, d^{i+n}) with
  (delta phi) = d_target o phi - (-1)^n phi o d_source
* (f tensor g)(x tensor y) = (-1)^{|g||x|} f(x) tensor g(y)
* swap(x tensor y) = (-1)^{|x||y|} y tensor x
* c[k]^i = c^{i+k} with differential (-1)^k d
* cone(f)^i = target^i + source^{i+1},  D(y, x) = (dy + fx, -dx)

Every Complex asserts d o d = 0 and every ChainMap asserts commutation with
the differentials (up to the Koszul sign of its degree) when constructed.
"""

from __future__ import annotations

import itertools
import os
from functools import reduce
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DegreeCapError, ScenarioError, ShapeError, ValidationError
from .fields import Field, same_field
from .matrix import Mat, concat_columns, extend_columns_to_basis, kron, kron_product

DEFAULT_DEGREE_CAP = 16


def degree_cap() -> int:
    """Support bound for graded objects; override with DGKIT_DEGREE_CAP."""
    raw = os.environ.get("DGKIT_DEGREE_CAP")
    if not raw:
        return DEFAULT_DEGREE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"must be an integer, got {raw!r}", "DGKIT_DEGREE_CAP") from None


class GradedSpace:
    """Finitely supported degree -> dimension table with optional basis labels."""

    __slots__ = ("dims", "labels")

    def __init__(self, dims: Dict[int, int], labels: Optional[Dict[int, Tuple[str, ...]]] = None):
        clean = {}
        cap = degree_cap()
        for deg, dim in dims.items():
            if dim < 0:
                raise ValidationError(f"negative dimension {dim} in degree {deg}")
            if dim == 0:
                continue
            if abs(deg) > cap:
                raise DegreeCapError(f"degree {deg} exceeds the configured cap {cap}")
            clean[int(deg)] = int(dim)
        self.dims = clean
        self.labels = {}
        if labels:
            for deg, names in labels.items():
                if deg in clean:
                    if len(names) != clean[deg]:
                        raise ValidationError(f"label count mismatch in degree {deg}")
                    self.labels[deg] = tuple(names)

    def dim(self, deg: int) -> int:
        return self.dims.get(deg, 0)

    def degrees(self) -> List[int]:
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def label(self, deg: int, idx: int) -> str:
        if deg in self.labels:
            return self.labels[deg][idx]
        return f"e{deg}_{idx}"

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class Complex:
    """Bounded complex with exact differentials; d o d == 0 is asserted."""

    __slots__ = ("field", "spaces", "d", "name", "_cohomology")

    def __init__(self, field: Field, dims, differentials: Dict[int, Mat],
                 labels=None, name: str = "complex"):
        self.field = field
        self.spaces = dims if isinstance(dims, GradedSpace) else GradedSpace(dims, labels)
        self.name = name
        self._cohomology = None
        d = {}
        for deg, mat in differentials.items():
            deg = int(deg)
            rows = self.dim(deg + 1)
            cols = self.dim(deg)
            if rows == 0 or cols == 0:
                if mat is not None and not mat.is_zero():
                    raise ValidationError(f"{name}: differential at degree {deg} hits a zero space")
                continue
            if mat.field != field:
                raise ValidationError(f"{name}: differential field mismatch at degree {deg}")
            if (mat.rows, mat.cols) != (rows, cols):
                raise ValidationError(
                    f"{name}: differential at degree {deg} has shape {mat.rows}x{mat.cols}, expected {rows}x{cols}")
            if not mat.is_zero():
                d[deg] = mat
        self.d = d
        for deg, mat in d.items():
            nxt = d.get(deg + 1)
            if nxt is not None and not (nxt @ mat).is_zero():
                raise ValidationError(f"{name}: d o d != 0 between degrees {deg} and {deg + 2}")

    # -- shape ----------------------------------------------------------

    def dim(self, deg: int) -> int:
        return self.spaces.dim(deg)

    def degrees(self) -> List[int]:
        return self.spaces.degrees()

    def total_dim(self) -> int:
        return self.spaces.total_dim()

    def min_degree(self) -> Optional[int]:
        degs = self.degrees()
        return degs[0] if degs else None

    def max_degree(self) -> Optional[int]:
        degs = self.degrees()
        return degs[-1] if degs else None

    def diff(self, deg: int) -> Mat:
        mat = self.d.get(deg)
        if mat is None:
            return Mat.zero(self.field, self.dim(deg + 1), self.dim(deg))
        return mat

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        if self.field != other.field or self.spaces != other.spaces:
            return False
        return all(self.diff(i) == other.diff(i) for i in self.degrees())

    def __repr__(self):
        return f"Complex({self.name}: {self.spaces.dims})"

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "Complex":
        return Complex(field, {}, {}, name="0")

    @staticmethod
    def one_dim(field: Field, degree: int = 0, label: Optional[str] = None) -> "Complex":
        labels = {degree: (label,)} if label else None
        return Complex(field, {degree: 1}, {}, labels=labels, name=label or "k")

    @staticmethod
    def concentrated(field: Field, degree: int, dim: int) -> "Complex":
        return Complex(field, {degree: dim}, {})

    # -- cohomology --------------------------------------------------------

    def cohomology(self) -> "CohomologyReport":
        if self._cohomology is None:
            self._cohomology = CohomologyReport(self)
        return self._cohomology

    def is_acyclic(self, degrees: Optional[Iterable[int]] = None) -> bool:
        coh = self.cohomology()
        if degrees is None:
            return all(v == 0 for v in coh.dims.values())
        return all(coh.dim(i) == 0 for i in degrees)


class CohomologyReport:
    """Per-degree cohomology dimensions with chosen cocycle representatives.

    ``reps[i]`` has the representative cocycles as columns; classes are
    coordinates with respect to those columns modulo the image of d.
    """

    def __init__(self, cx: Complex):
        self.complex = cx
        self.dims: Dict[int, int] = {}
        self.reps: Dict[int, Mat] = {}
        self._images: Dict[int, Mat] = {}
        degs = set(cx.degrees())
        for deg in sorted(degs):
            z = cx.diff(deg).kernel_basis()
            b = cx.diff(deg - 1).image_basis()
            self._images[deg] = b
            aug = b.hstack(z)
            pivots = aug.pivot_columns()
            chosen = [c - b.cols for c in pivots if c >= b.cols]
            reps = z.take_columns(chosen)
            if reps.cols:
                self.reps[deg] = reps
            self.dims[deg] = reps.cols

    def dim(self, deg: int) -> int:
        return self.dims.get(deg, 0)

    def support(self) -> List[int]:
        return sorted(d for d, v in self.dims.items() if v)

    def rep(self, deg: int) -> Mat:
        mat = self.reps.get(deg)
        if mat is None:
            return Mat.zero(self.complex.field, self.complex.dim(deg), 0)
        return mat

    def image(self, deg: int) -> Mat:
        mat = self._images.get(deg)
        if mat is None:
            return Mat.zero(self.complex.field, self.complex.dim(deg), 0)
        return mat

    def class_of(self, deg: int, vector: Mat) -> Mat:
        """Coordinates of a cocycle's class in the chosen representative basis."""
        reps = self.rep(deg)
        img = self.image(deg)
        sol = reps.hstack(img).solve(vector)
        if sol is None:
            raise ValidationError("vector is not a cocycle of the stated degree")
        return sol.take_rows(list(range(reps.cols)))

    def as_dict(self) -> Dict[int, int]:
        return {d: v for d, v in sorted(self.dims.items()) if v}


def _product(a: Optional[Mat], b: Optional[Mat]) -> Optional[Mat]:
    """a @ b, or None when either factor is structurally absent."""
    if a is None or b is None:
        return None
    return a @ b


class ChainMap:
    """Graded map of complexes commuting with d up to (-1)^degree."""

    __slots__ = ("source", "target", "degree", "components")

    def __init__(self, source: Complex, target: Complex, degree: int,
                 components: Dict[int, Mat], check: bool = True):
        same_field(source.field, target.field)
        self.source = source
        self.target = target
        self.degree = int(degree)
        comps = {}
        for deg, mat in components.items():
            deg = int(deg)
            rows = target.dim(deg + self.degree)
            cols = source.dim(deg)
            if rows == 0 or cols == 0:
                continue
            if (mat.rows, mat.cols) != (rows, cols):
                raise ShapeError(
                    f"chain map component at degree {deg}: shape {mat.rows}x{mat.cols}, expected {rows}x{cols}")
            if not mat.is_zero():
                comps[deg] = mat
        self.components = comps
        if check:
            self._check_commutes()

    def _check_commutes(self):
        """d f = (-1)^degree f d in every degree.  A product with a
        structurally absent factor (zero differential or component) is
        skipped, and the other side must then be zero."""
        comps, d_target, d_source = self.components, self.target.d, self.source.d
        for deg in self.source.degrees():
            left = _product(d_target.get(deg + self.degree), comps.get(deg))
            right = _product(comps.get(deg + 1), d_source.get(deg))
            if left is None:
                ok = right is None or right.is_zero()
            elif right is None:
                ok = left.is_zero()
            else:
                ok = left == (-right if self.degree % 2 else right)
            if not ok:
                raise ValidationError(
                    f"chain map does not commute with differentials at degree {deg}")

    def component(self, deg: int) -> Mat:
        mat = self.components.get(deg)
        if mat is None:
            return Mat.zero(self.source.field, self.target.dim(deg + self.degree), self.source.dim(deg))
        return mat

    # -- algebra -----------------------------------------------------------

    @staticmethod
    def identity(cx: Complex) -> "ChainMap":
        comps = {deg: Mat.identity(cx.field, cx.dim(deg)) for deg in cx.degrees()}
        return ChainMap(cx, cx, 0, comps, check=False)

    @staticmethod
    def zero_map(source: Complex, target: Complex, degree: int = 0) -> "ChainMap":
        return ChainMap(source, target, degree, {}, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        if other.target is not self.source and other.target != self.source:
            raise ShapeError("composition target/source mismatch")
        comps = {}
        for deg in other.source.degrees():
            mat = self.component(deg + other.degree) @ other.component(deg)
            if not mat.is_zero():
                comps[deg] = mat
        return ChainMap(other.source, self.target, self.degree + other.degree, comps, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise ShapeError("cannot add chain maps of different degrees")
        comps = {}
        for deg in set(self.components) | set(other.components):
            comps[deg] = self.component(deg) + other.component(deg)
        return ChainMap(self.source, self.target, self.degree, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree,
                        {d: -m for d, m in self.components.items()}, check=False)

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target, self.degree,
                        {d: m.scale(c) for d, m in self.components.items()}, check=False)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.degree != other.degree:
            return False
        degs = set(self.components) | set(other.components)
        return all(self.component(d) == other.component(d) for d in degs)

    def apply(self, deg: int, vector: Mat) -> Mat:
        return self.component(deg) @ vector

    # -- cohomology-level behaviour -----------------------------------------

    def cohomology_map(self, deg: int) -> Mat:
        """Induced matrix H^deg(source) -> H^{deg+degree}(target) in the chosen bases."""
        hs = self.source.cohomology()
        ht = self.target.cohomology()
        src_reps = hs.rep(deg)
        out_deg = deg + self.degree
        cols = []
        for j in range(src_reps.cols):
            img = self.component(deg) @ src_reps.col(j)
            cols.append(ht.class_of(out_deg, img).column_values(0))
        return Mat.from_columns(self.source.field, ht.dim(out_deg), cols)

    def is_quasi_iso(self) -> bool:
        if self.degree == 0:
            return cone(self)[0].is_acyclic()
        degs = set(self.source.degrees()) | set(d - self.degree for d in self.target.degrees())
        for deg in degs:
            m = self.cohomology_map(deg)
            if m.rows != m.cols or m.rank() != m.rows:
                return False
        return True


# -- shifts, sums, cones ------------------------------------------------------


def shift_complex(cx: Complex, k: int) -> Complex:
    dims = {deg - k: cx.dim(deg) for deg in cx.degrees()}
    sign = -1 if k % 2 else 1
    diffs = {}
    for deg in cx.degrees():
        mat = cx.diff(deg)
        if mat.is_zero():
            continue
        diffs[deg - k] = mat if sign > 0 else -mat
    return Complex(cx.field, dims, diffs, name=f"{cx.name}[{k}]")


def direct_sum(summands: Sequence[Complex]):
    """Returns (sum, injections, projections)."""
    if not summands:
        raise ShapeError("direct sum of nothing; use Complex.zero")
    field = same_field(*[c.field for c in summands])
    degs = sorted({d for c in summands for d in c.degrees()})
    dims = {d: sum(c.dim(d) for c in summands) for d in degs}
    per_degree_offsets = {}
    for d in degs:
        offs = []
        acc = 0
        for c in summands:
            offs.append(acc)
            acc += c.dim(d)
        per_degree_offsets[d] = offs

    diffs = {}
    for d in degs:
        rows = dims.get(d + 1, 0)
        cols = dims[d]
        if rows == 0 or cols == 0:
            continue
        block = [[field.zero()] * cols for _ in range(rows)]
        for idx, c in enumerate(summands):
            mat = c.diff(d)
            ro = per_degree_offsets.get(d + 1, [0] * len(summands))[idx] if d + 1 in per_degree_offsets else 0
            co = per_degree_offsets[d][idx]
            for i in range(mat.rows):
                for j in range(mat.cols):
                    block[ro + i][co + j] = mat.entries[i][j]
        diffs[d] = Mat(field, rows, cols, block)
    total = Complex(field, dims, diffs, name="+".join(c.name for c in summands))

    injections = []
    projections = []
    for idx, c in enumerate(summands):
        inj = {}
        proj = {}
        for d in c.degrees():
            off = per_degree_offsets[d][idx]
            n, m = total.dim(d), c.dim(d)
            inj[d] = Mat.from_function(field, n, m,
                                       lambda i, j, off=off: field.one() if i == j + off else field.zero())
        for d in degs:
            off = per_degree_offsets[d][idx]
            n, m = total.dim(d), c.dim(d)
            if m:
                proj[d] = Mat.from_function(field, m, n,
                                            lambda i, j, off=off: field.one() if j == i + off else field.zero())
        injections.append(ChainMap(c, total, 0, inj))
        projections.append(ChainMap(total, c, 0, proj))
    return total, injections, projections


def cone(f: ChainMap):
    """Mapping cone of a degree-0 map; returns (cone, include_target, project_to_shifted_source)."""
    if f.degree != 0:
        raise ValidationError("cone requires a degree-0 chain map")
    X, Y = f.source, f.target
    field = X.field
    degs = sorted(set(Y.degrees()) | {d - 1 for d in X.degrees()})
    dims = {d: Y.dim(d) + X.dim(d + 1) for d in degs}
    diffs = {}
    for d in degs:
        rows = dims.get(d + 1, 0)
        cols = dims.get(d, 0)
        if rows == 0 or cols == 0:
            continue
        ydim, xdim = Y.dim(d), X.dim(d + 1)
        ydim1, xdim1 = Y.dim(d + 1), X.dim(d + 2)
        block = [[field.zero()] * cols for _ in range(rows)]
        dy = Y.diff(d)
        fx = f.component(d + 1)
        dx = X.diff(d + 1)
        for i in range(ydim1):
            for j in range(ydim):
                block[i][j] = dy.entries[i][j]
            for j in range(xdim):
                block[i][ydim + j] = fx.entries[i][j]
        for i in range(xdim1):
            for j in range(xdim):
                block[ydim1 + i][ydim + j] = field.neg(dx.entries[i][j])
        diffs[d] = Mat(field, rows, cols, block)
    C = Complex(field, dims, diffs, name=f"cone({f.source.name}->{f.target.name})")
    incl = {}
    for d in Y.degrees():
        n, m = C.dim(d), Y.dim(d)
        incl[d] = Mat.from_function(field, n, m,
                                    lambda i, j: field.one() if i == j else field.zero())
    proj = {}
    shifted = shift_complex(X, 1)
    for d in degs:
        m = X.dim(d + 1)
        if m:
            n = C.dim(d)
            ydim = Y.dim(d)
            proj[d] = Mat.from_function(field, m, n,
                                        lambda i, j, ydim=ydim: field.one() if j == i + ydim else field.zero())
    return C, ChainMap(Y, C, 0, incl), ChainMap(C, shifted, 0, proj)


# -- smart truncations ---------------------------------------------------------


def subcomplex(cx: Complex, columns: Dict[int, Mat], name: str = "sub"):
    """Subcomplex spanned by the given independent columns; must be d-stable.

    Returns (sub, inclusion).
    """
    field = cx.field
    dims = {}
    for deg, mat in columns.items():
        if mat.cols:
            if mat.rank() != mat.cols:
                raise ValidationError(f"{name}: generating columns dependent in degree {deg}")
            dims[deg] = mat.cols
    diffs = {}
    for deg in sorted(dims):
        k = columns[deg]
        dk = cx.diff(deg) @ k
        nxt = columns.get(deg + 1)
        if nxt is None or nxt.cols == 0:
            if not dk.is_zero():
                raise ValidationError(f"{name}: not closed under d at degree {deg}")
            continue
        sol = nxt.solve(dk)
        if sol is None:
            raise ValidationError(f"{name}: not closed under d at degree {deg}")
        diffs[deg] = sol
    sub = Complex(field, dims, diffs, name=name)
    incl = ChainMap(sub, cx, 0, {deg: columns[deg] for deg in dims})
    return sub, incl


def quotient_complex(cx: Complex, killed: Dict[int, Mat], name: str = "quot"):
    """Quotient by the span of the given columns; must be d-stable.

    Returns (quotient, projection, section) where section is a degreewise
    linear (not chain) right inverse used to lift representatives.
    """
    field = cx.field
    proj_mats: Dict[int, Mat] = {}
    sect_mats: Dict[int, Mat] = {}
    dims = {}
    for deg in cx.degrees():
        b = killed.get(deg, Mat.zero(field, cx.dim(deg), 0))
        if b.rows != cx.dim(deg):
            raise ShapeError(f"{name}: killed columns wrong ambient dimension at degree {deg}")
        comp_idx = extend_columns_to_basis(b.image_basis())
        q = len(comp_idx)
        if q:
            dims[deg] = q
        bb = b.image_basis()
        section = Mat.from_columns(field, cx.dim(deg),
                                   [Mat.basis_column(field, cx.dim(deg), i).column_values(0) for i in comp_idx])
        change = bb.hstack(section)
        from .matrix import invert
        inv = invert(change)
        proj = inv.take_rows(list(range(bb.cols, bb.cols + q)))
        proj_mats[deg] = proj
        sect_mats[deg] = section
    diffs = {}
    for deg in sorted(dims):
        if dims.get(deg + 1, 0) == 0:
            # the quotient differential must vanish; verify d maps into killed span
            b1 = killed.get(deg + 1, Mat.zero(field, cx.dim(deg + 1), 0))
            img = cx.diff(deg) @ sect_mats[deg]
            if not img.is_zero() and b1.solve(img) is None:
                raise ValidationError(f"{name}: killed span not d-stable at degree {deg}")
            continue
        diffs[deg] = proj_mats[deg + 1] @ cx.diff(deg) @ sect_mats[deg]
    quot = Complex(field, dims, diffs, name=name)
    proj = ChainMap(cx, quot, 0, {deg: proj_mats[deg] for deg in dims})
    section = {deg: sect_mats[deg] for deg in dims}
    return quot, proj, section


def constrained_subcomplex(ambient: Complex, constraints: Dict[int, Mat], name: str = "sub"):
    """Subcomplex cut out by per-degree linear constraints (rows); returns
    (sub, inclusion).  The constraint kernel must be d-stable (verified)."""
    cols = {}
    for deg in ambient.degrees():
        rows = constraints.get(deg)
        if rows is None or rows.rows == 0:
            ker = Mat.identity(ambient.field, ambient.dim(deg))
        else:
            ker = rows.kernel_basis()
        if ker.cols:
            cols[deg] = ker
    return subcomplex(ambient, cols, name=name)


class Term(NamedTuple):
    """``sign * (-1)^(twist * n) * left o phi[slot] o right`` for phi of degree n;
    ``left`` and ``right`` are action families ``(degree, {i: Mat out of
    degree i})``, and None is the identity."""

    slot: Hashable
    left: Optional[Tuple[int, Dict[int, Mat]]] = None
    right: Optional[Tuple[int, Dict[int, Mat]]] = None
    sign: int = 1
    twist: int = 0


class Equation(NamedTuple):
    """The sum of ``terms`` vanishes as a map domain -> codomain."""

    domain: Complex
    codomain: Complex
    terms: Sequence[Term]


def _family_degree(family) -> int:
    return family[0] if family is not None else 0


def naturality_subcomplex(layouts: Dict[Hashable, HomLayout], equations: Sequence[Equation],
                          name: str = "sub"):
    """Families phi = (phi_slot) in the product of the slot hom-complexes, in
    the order of ``layouts``, that satisfy every equation.

    On phi of degree n and degree i of the domain, a term is the map
    ``sign * (-1)^(twist * n) * left_{j+n} o phi[slot]_j o right_i`` with
    j = i + deg(right), from domain^i to codomain^{i+n+deg(left)+deg(right)}.
    Matrices are vectorised row-major, as in HomLayout (entry (r, t) of a
    matrix with c columns sits at r * c + t), so vec(L X R) = kron(L, R^t)
    vec(X), and each term writes that block once, straight into the degree-n
    constraint matrix.

    Returns (ambient, injections, projections, sub, inclusion), with the
    injections and projections keyed by slot.
    """
    slots = list(layouts)
    ambient, injs, projs = direct_sum([layouts[s].complex for s in slots])
    field = ambient.field
    constraints = {}
    for n in ambient.degrees():
        dim_n = ambient.dim(n)
        offsets = dict(zip(slots, itertools.accumulate((layouts[s].complex.dim(n) for s in slots),
                                                       initial=0)))
        grid: List[List] = []
        for eq in equations:
            shift = n + _family_degree(eq.terms[0].left) + _family_degree(eq.terms[0].right)
            for i in eq.domain.degrees():
                p, q = eq.domain.dim(i), eq.codomain.dim(i + shift)
                if q == 0:
                    continue
                top = len(grid)
                grid.extend([field.zero()] * dim_n for _ in range(q * p))
                for term in eq.terms:
                    lay = layouts[term.slot]
                    j = i + _family_degree(term.right)
                    tdim = lay.target.dim(j + n)
                    if lay.source.dim(j) == 0 or tdim == 0:
                        continue
                    right = Mat.identity(field, p) if term.right is None else term.right[1].get(i)
                    left = Mat.identity(field, tdim) if term.left is None else term.left[1].get(j + n)
                    if right is None or left is None:
                        continue
                    block = kron(left, right.transpose())
                    if block.rows != q * p:
                        raise ShapeError(f"{name}: a term on slot {term.slot!r} misses its codomain")
                    col0 = offsets[term.slot] + lay.block_offset(n, j)[0]
                    negate = (term.sign < 0) != bool(term.twist * n % 2)
                    for r, row in enumerate(block.entries):
                        out = grid[top + r]
                        for c, v in enumerate(row):
                            if not field.is_zero(v):
                                out[col0 + c] = field.add(out[col0 + c], field.neg(v) if negate else v)
        if grid:
            constraints[n] = Mat(field, len(grid), dim_n, grid)
    sub, incl = constrained_subcomplex(ambient, constraints, name=name)
    return ambient, dict(zip(slots, injs)), dict(zip(slots, projs)), sub, incl


def truncate_le(cx: Complex, n: int):
    """Smart truncation keeping cohomology in degrees <= n.

    Returns (truncated, comparison) with comparison the canonical inclusion
    into ``cx``.
    """
    field = cx.field
    cols = {}
    for deg in cx.degrees():
        if deg < n:
            cols[deg] = Mat.identity(field, cx.dim(deg))
        elif deg == n:
            ker = cx.diff(n).kernel_basis()
            if ker.cols:
                cols[deg] = ker
    sub, incl = subcomplex(cx, cols, name=f"tle{n}({cx.name})")
    return sub, incl


def truncate_ge(cx: Complex, n: int):
    """Smart truncation keeping cohomology in degrees >= n.

    Returns (truncated, comparison) with comparison the canonical projection
    from ``cx``.
    """
    field = cx.field
    killed = {}
    for deg in cx.degrees():
        if deg < n:
            killed[deg] = Mat.identity(field, cx.dim(deg))
        elif deg == n:
            img = cx.diff(n - 1).image_basis()
            if img.cols:
                killed[deg] = img
    quot, proj, _ = quotient_complex(cx, killed, name=f"tge{n}({cx.name})")
    return quot, proj


# -- tensor layout --------------------------------------------------------------


def _koszul_sign_for_maps(map_degrees: Sequence[int], element_degrees: Sequence[int]) -> int:
    """Sign of (f_1 tensor ... tensor f_k) applied to (x_1 tensor ... tensor x_k)."""
    sign = 0
    for j, fdeg in enumerate(map_degrees):
        if fdeg % 2:
            sign += sum(element_degrees[:j]) % 2
    return -1 if sign % 2 else 1


def permutation_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """Koszul sign for reordering graded elements: perm[i] is the source slot
    placed at position i of the result."""
    sign = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                if degrees[perm[i]] % 2 and degrees[perm[j]] % 2:
                    sign += 1
    return -1 if sign % 2 else 1


class TensorLayout:
    """Basis bookkeeping for an n-fold graded tensor product.

    Degree-n blocks are indexed by degree tuples in lexicographic order;
    inside a block the multi-index is row-major over the factors.
    """

    def __init__(self, factors: Sequence[Complex]):
        if not factors:
            raise ShapeError("tensor of no factors; use Complex.one_dim")
        self.factors = list(factors)
        self.field = same_field(*[c.field for c in factors])
        blocks: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        degs = [c.degrees() for c in self.factors]
        if all(degs):
            for combo in itertools.product(*degs):
                size = 1
                for c, d in zip(self.factors, combo):
                    size *= c.dim(d)
                if size:
                    blocks.setdefault(sum(combo), []).append((combo, size))
        self._blocks: Dict[int, List[Tuple[Tuple[int, ...], int, int]]] = {}
        for n, lst in blocks.items():
            lst.sort(key=lambda t: t[0])
            off = 0
            entries = []
            for combo, size in lst:
                entries.append((combo, off, size))
                off += size
            self._blocks[n] = entries
        self._complex: Optional[Complex] = None

    def dim(self, n: int) -> int:
        blocks = self._blocks.get(n)
        if not blocks:
            return 0
        _, off, size = blocks[-1]
        return off + size

    def dims(self) -> Dict[int, int]:
        return {n: self.dim(n) for n in self._blocks}

    def blocks(self, n: int) -> List[Tuple[Tuple[int, ...], int, int]]:
        return self._blocks.get(n, [])

    def block_offset(self, combo: Tuple[int, ...]) -> Tuple[int, int]:
        n = sum(combo)
        for c, off, size in self.blocks(n):
            if c == combo:
                return off, size
        raise ShapeError(f"no block {combo} in tensor layout")

    def position(self, combo: Tuple[int, ...], indices: Tuple[int, ...]) -> int:
        off, _ = self.block_offset(combo)
        pos = 0
        for c, d, i in zip(self.factors, combo, indices):
            pos = pos * c.dim(d) + i
        return off + pos

    def decompose(self, n: int, position: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Inverse of ``position``: block degree tuple and factor indices."""
        for combo, off, size in self.blocks(n):
            if off <= position < off + size:
                rel = position - off
                idx = []
                for c, d in zip(reversed(self.factors), reversed(combo)):
                    rel, i = divmod(rel, c.dim(d))
                    idx.append(i)
                return combo, tuple(reversed(idx))
        raise ShapeError(f"position {position} out of range in degree {n}")

    def block(self, pairing: ChainMap, combo: Tuple[int, ...]) -> Mat:
        """The columns of ``pairing`` (a map out of this tensor) on the block
        ``combo``, row-major over the factors; a zero matrix of that shape when
        the block or its target is empty."""
        n = sum(combo)
        rows = pairing.target.dim(n + pairing.degree)
        size = 1
        for c, d in zip(self.factors, combo):
            size *= c.dim(d)
        if rows == 0 or size == 0:
            return Mat.zero(self.field, rows, size)
        off, _ = self.block_offset(combo)
        return pairing.component(n).take_columns(range(off, off + size))

    def place(self, combo: Tuple[int, ...], mat: Mat) -> Mat:
        """``mat``, whose rows index the block ``combo``, as a matrix into the
        whole degree ``sum(combo)``; zero when the block is empty."""
        return self._stack(sum(combo), mat.cols, [(combo, mat)])

    def _stack(self, n: int, cols: int, pieces) -> Mat:
        """The (combo, mat) pieces, on distinct blocks of degree n, as one
        matrix into the whole degree."""
        rows = [(0,) * cols] * self.dim(n)
        for combo, mat in pieces:
            if mat.rows:
                off, _ = self.block_offset(combo)
                rows[off:off + mat.rows] = mat.entries
        return Mat._wrap(self.field, len(rows), cols, tuple(rows))

    def _components(self, rows_of, block_fn) -> Dict[int, Mat]:
        """Per degree n with ``rows_of(n)`` rows, the blocks ``block_fn(combo)``
        side by side (a zero block for None)."""
        comps = {}
        for n in sorted(self._blocks):
            rows = rows_of(n)
            if rows == 0:
                continue
            parts = []
            for combo, _, size in self._blocks[n]:
                mat = block_fn(combo)
                parts.append(Mat.zero(self.field, rows, size) if mat is None else mat)
            comps[n] = concat_columns(self.field, rows, parts)
        return comps

    @property
    def complex(self) -> Complex:
        """d on a block is the signed sum over the factors of
        kron(1, ..., d_j, ..., 1), with the sign (-1)^(degrees before slot j)."""
        if self._complex is None:
            field = self.field

            def block(combo):
                # the terms land on distinct target blocks
                pieces = []
                for j, factor in enumerate(self.factors):
                    dmat = factor.d.get(combo[j])
                    if dmat is None:
                        continue
                    if sum(combo[:j]) % 2:
                        dmat = -dmat
                    term = reduce(kron, [dmat if t == j else Mat.identity(field, c.dim(combo[t]))
                                         for t, c in enumerate(self.factors)])
                    pieces.append((combo[:j] + (combo[j] + 1,) + combo[j + 1:], term))
                return self._stack(sum(combo) + 1, self.block_offset(combo)[1], pieces) if pieces else None

            diffs = self._components(lambda n: self.dim(n + 1), block)
            self._complex = Complex(field, self.dims(), diffs,
                                    name="(" + "@".join(c.name for c in self.factors) + ")")
        return self._complex

    # -- map builders ---------------------------------------------------------

    def map_from_blocks(self, target: Complex, degree: int, block_fn, check=True) -> ChainMap:
        """Build a chain map out of the tensor blockwise: block_fn(combo)
        returns its matrix on the block ``combo`` (rows in target at degree
        sum(combo)+degree, columns row-major over the factors), or None for
        zero."""
        comps = self._components(lambda n: target.dim(n + degree), block_fn)
        return ChainMap(self.complex, target, degree, comps, check=check)

    def map_from_entries(self, target: Complex, degree: int, entry_fn, check=True) -> ChainMap:
        """Build a chain map out of the tensor: entry_fn(combo, indices) returns
        the image vector (Mat column in target at degree sum(combo)+degree), or None."""
        field = self.field

        def block(combo):
            zero = (0,) * target.dim(sum(combo) + degree)
            ranges = [range(c.dim(d)) for c, d in zip(self.factors, combo)]
            cols = [entry_fn(combo, idx) for idx in itertools.product(*ranges)]
            cols = [zero if c is None else next(zip(*c.entries)) for c in cols]
            return Mat._wrap(field, len(zero), len(cols), tuple(zip(*cols)))

        return self.map_from_blocks(target, degree, block, check=check)

    def tensor_map(self, target_layout: "TensorLayout", maps: Sequence[ChainMap]) -> ChainMap:
        """f_1 tensor ... tensor f_k with the Koszul sign convention: on a block,
        the signed kron of the components."""
        if len(maps) != len(self.factors):
            raise ShapeError("tensor_map factor count mismatch")
        mdegs = [f.degree for f in maps]

        def block(combo):
            comps = [f.components.get(d) for f, d in zip(maps, combo)]
            if any(c is None for c in comps):
                return None
            out = target_layout.place(tuple(d + m for d, m in zip(combo, mdegs)), reduce(kron, comps))
            return -out if _koszul_sign_for_maps(mdegs, combo) < 0 else out

        return self.map_from_blocks(target_layout.complex, sum(mdegs), block)

    def permute(self, perm: Sequence[int]) -> Tuple["TensorLayout", ChainMap]:
        """Reorder tensor factors with the Koszul sign; perm[i] = source slot at position i."""
        target = TensorLayout([self.factors[p] for p in perm])

        def block(combo):
            tcombo = tuple(combo[p] for p in perm)
            dims = [c.dim(d) for c, d in zip(self.factors, combo)]
            eye = Mat.identity(self.field, target.block_offset(tcombo)[1])
            out = target.place(tcombo, reorder_factors(eye, dims, perm))
            return -out if permutation_sign(combo, perm) < 0 else out

        return target, self.map_from_blocks(target.complex, 0, block)


def pair_elements(pairing: ChainMap, lay: TensorLayout, dx: int, x: Mat, dy: int, y: Mat) -> Mat:
    """pairing(x tensor y) for homogeneous x of degree dx and y of degree dy,
    summed over their nonzero coefficients."""
    field = lay.field
    comp = pairing.component(dx + dy)
    xs = [(i, v) for i, v in enumerate(x.column_values(0)) if not field.is_zero(v)]
    ys = [(j, v) for j, v in enumerate(y.column_values(0)) if not field.is_zero(v)]
    acc = [field.zero()] * comp.rows
    if xs and ys:
        off, _ = lay.block_offset((dx, dy))
        ydim = lay.factors[1].dim(dy)
        for i, xv in xs:
            for j, yv in ys:
                coeff = field.mul(xv, yv)
                pos = off + i * ydim + j
                for r, row in enumerate(comp.entries):
                    if not field.is_zero(row[pos]):
                        acc[r] = field.add(acc[r], field.mul(coeff, row[pos]))
    return Mat.column(field, acc)


# -- structure laws ---------------------------------------------------------------
#
# A structure map (composition, an action, a ring product) is passed with the
# layout of its source as a (layout, pairing) pair.  Each law is an equality
# of two block composites per degree tuple; a defect is reported as the
# (degree tuple, factor indices) of the first basis tensor on which it fails.


def first_difference(lhs: Mat, rhs: Mat) -> Optional[int]:
    """Index of the first column where lhs and rhs differ, or None."""
    if lhs == rhs:
        return None
    diff = lhs - rhs
    zero = lhs.field.is_zero
    return next(c for c in range(diff.cols) if any(not zero(row[c]) for row in diff.entries))


def unit_defect(pair, unit: Mat, slot: int):
    """First basis vector v of the other factor with mu(e tensor v) != v
    (slot 0) or mu(v tensor e) != v (slot 1), for e of degree 0."""
    lay, mu = pair
    field = lay.field
    other = lay.factors[1 - slot]
    for d in other.degrees():
        eye = Mat.identity(field, other.dim(d))
        combo, factors = ((0, d), (unit, eye)) if slot == 0 else ((d, 0), (eye, unit))
        col = first_difference(kron_product(lay.block(mu, combo), *factors), eye)
        if col is not None:
            return d, col
    return None


def associativity_defect(outer_left, inner_left, outer_right, inner_right):
    """First basis tensor x (x) y (x) z on which
    mu1(mu2(x (x) y) (x) z) != mu3(x (x) mu4(y (x) z)), i.e. where the blocks
    mu1 . kron(mu2, 1) and mu3 . kron(1, mu4) differ; the four pairs are
    (mu1, mu2, mu3, mu4), all of degree 0."""
    (l1, m1), (l2, m2), (l3, m3), (l4, m4) = outer_left, inner_left, outer_right, inner_right
    triple = TensorLayout([l2.factors[0], l2.factors[1], l4.factors[1]])
    x, _, z = triple.factors
    for n in sorted(triple.dims()):
        if m1.target.dim(n) == 0:
            continue
        for (dx, dy, dz), off, _ in triple.blocks(n):
            lhs = kron_product(l1.block(m1, (dx + dy, dz)), l2.block(m2, (dx, dy)),
                               Mat.identity(triple.field, z.dim(dz)))
            rhs = kron_product(l3.block(m3, (dx, dy + dz)), Mat.identity(triple.field, x.dim(dx)),
                               l4.block(m4, (dy, dz)))
            col = first_difference(lhs, rhs)
            if col is not None:
                return triple.decompose(n, off + col)
    return None


def morphism_defect(source, target, outer: ChainMap, first: ChainMap, second: ChainMap):
    """First basis tensor x (x) y of the source pairing mu on which
    outer(mu(x (x) y)) != mu'(first(x) (x) second(y)), i.e. where the blocks
    outer . mu and mu' . kron(first, second) differ; ``second`` has degree 0,
    so no Koszul sign arises."""
    (lay, mu), (tlay, tmu) = source, target
    for n in sorted(lay.dims()):
        for (dx, dy), off, _ in lay.blocks(n):
            lhs = outer.component(n) @ lay.block(mu, (dx, dy))
            rhs = kron_product(tlay.block(tmu, (dx + first.degree, dy)),
                               first.component(dx), second.component(dy))
            col = first_difference(lhs, rhs)
            if col is not None:
                return lay.decompose(n, off + col)
    return None


def reorder_factors(m: Mat, dims: Sequence[int], perm: Sequence[int]) -> Mat:
    """m precomposed with the unsigned reordering of tensor factors: the
    columns of m are indexed row-major by the factors in the order ``perm``
    (position i holds factor perm[i], of size dims[perm[i]]); the result's
    columns are indexed row-major in the order 0, 1, ...  The Koszul sign is
    the caller's ``permutation_sign``."""
    strides = [0] * len(dims)
    acc = 1
    for p in reversed(perm):
        strides[p] = acc
        acc *= dims[p]
    return m.take_columns([sum(i * s for i, s in zip(multi, strides))
                           for multi in itertools.product(*map(range, dims))])


def swap_leading_factors(m: Mat, p: int, q: int) -> Mat:
    """m precomposed with the unsigned swap of the two leading tensor factors:
    the columns of m, indexed row-major by (j, i, k) with j < q and i < p,
    reordered to (i, j, k).  The Koszul sign is the caller's
    ``permutation_sign``."""
    rest = m.cols // (p * q) if p * q else 0
    return reorder_factors(m, (p, q, rest), (1, 0, 2))


# -- actions on tensor factors and the balanced tensor --------------------------------
#
# An action is given by its blocks, as for the structure laws.  Every map out
# of a tensor of plain complexes, plain tensors and balanced tensors is
# written once on the flat degree tuples and then lifted through the sections
# (``lifted_map``); a map into a balanced tensor ends with its projection.


class Action(NamedTuple):
    """The blocks of a degree-0 action: ``block(combo)`` is its matrix on the
    degree tuple ``combo`` of ``factors``, the acting factor first for a left
    action and last for a right one."""

    factors: Tuple[Complex, Complex]
    block: Callable[[Tuple[int, int]], Mat]


def pair_action(pair) -> Action:
    """The action of a (layout, pairing) pair."""
    lay, pairing = pair
    return Action(tuple(lay.factors), lambda combo: lay.block(pairing, combo))


def swapped(action: Action) -> Action:
    """The action from the other side, b (x) a |-> (-1)^{|a||b|} act(a (x) b):
    a right action as a left one, or a left one as a right one."""
    a, b = action.factors

    def block(combo):
        db, da = combo
        out = swap_leading_factors(action.block((da, db)), b.dim(db), a.dim(da))
        return -out if permutation_sign((da, db), (1, 0)) < 0 else out

    return Action((b, a), block)


def factor_action(action: Action, slot: int, target: "TensorLayout", left: bool = True):
    """The flat blocks of an action on factor ``slot`` of a binary tensor,
    into the plain tensor ``target``: h (x) a (x) b |-> (h.a) (x) b or
    (-1)^{|h||a|} a (x) (h.b) for a left action, and a (x) b (x) h |->
    (-1)^{|b||h|} (a.h) (x) b or a (x) (b.h) for a right one.  For
    ``lifted_map`` with the parts [H, source] (left) or [source, H] (right)."""
    a, b = target.factors
    h = action.factors[0 if left else 1]
    field = target.field

    def block(flat):
        if left:
            dh, da, db = flat
            if slot == 0:
                return target.place((dh + da, db), kron(action.block((dh, da)), Mat.identity(field, b.dim(db))))
            out = swap_leading_factors(kron(Mat.identity(field, a.dim(da)), action.block((dh, db))),
                                       h.dim(dh), a.dim(da))
            out, sign = target.place((da, dh + db), out), permutation_sign((dh, da), (1, 0))
        else:
            da, db, dh = flat
            if slot == 1:
                return target.place((da, db + dh), kron(Mat.identity(field, a.dim(da)), action.block((db, dh))))
            dims = (action.factors[0].dim(da), b.dim(db), h.dim(dh))
            out = reorder_factors(kron(action.block((da, dh)), Mat.identity(field, b.dim(db))), dims, (0, 2, 1))
            out, sign = target.place((da + dh, db), out), permutation_sign((db, dh), (1, 0))
        return -out if sign < 0 else out

    return block


class BalancedTensor(NamedTuple):
    """X (x)_R Y: the quotient of the plain tensor ``layout`` = X (x) Y by the
    relations (x.r) (x) y - x (x) (r.y), with the projection from the plain
    tensor and degreewise linear sections of it."""

    complex: Complex
    layout: "TensorLayout"
    projection: ChainMap
    sections: Dict[int, Mat]


def balanced_tensor(right: Action, left: Action, name: str = "bal") -> BalancedTensor:
    """X (x)_R Y for a right R-action on X and a left R-action on Y.  The
    relations on the degree tuple (dx, dr, dy) are the one block
    place(kron(rho, 1_Y)) - place(kron(1_X, lambda)); the quotient depends only
    on their span."""
    x, ring = right.factors
    y = left.factors[1]
    lay = TensorLayout([x, y])
    field = lay.field
    relations: Dict[int, List[Mat]] = {}
    for dx, dr, dy in itertools.product(x.degrees(), ring.degrees(), y.degrees()):
        if not lay.complex.dim(dx + dr + dy):
            continue
        pushed = lay.place((dx + dr, dy), kron(right.block((dx, dr)), Mat.identity(field, y.dim(dy))))
        pulled = lay.place((dx, dr + dy), kron(Mat.identity(field, x.dim(dx)), left.block((dr, dy))))
        relations.setdefault(dx + dr + dy, []).append(pushed - pulled)
    quot, proj, sections = quotient_by_relations(lay.complex, relations, name=name)
    return BalancedTensor(quot, lay, proj, sections)


def quotient_by_relations(cx: Complex, relations: Dict[int, List[Mat]], name: str = "quot"):
    """``quotient_complex`` by the span of the columns of the relation blocks."""
    killed = {n: concat_columns(cx.field, cx.dim(n), blocks) for n, blocks in relations.items()}
    return quotient_complex(cx, killed, name=name)


Part = Union[Complex, "TensorLayout", BalancedTensor]


def _lifts(part: Part, deg: int):
    """(flat degree tuple, lift) for each plain block under degree ``deg`` of a
    tensor factor that a lift reaches: the identity of a plain complex, the
    row blocks of the identity of a plain tensor, the nonzero row blocks of
    the section of a balanced tensor."""
    if isinstance(part, Complex):
        return [((deg,), Mat.identity(part.field, part.dim(deg)))]
    if isinstance(part, BalancedTensor):
        lay, lift = part.layout, part.sections[deg]
    else:
        lay, lift = part, Mat.identity(part.field, part.complex.dim(deg))
    pieces = [(combo, lift.take_rows(range(off, off + size))) for combo, off, size in lay.blocks(deg)]
    return [(combo, rows) for combo, rows in pieces if not rows.is_zero()]


def lifted_block(parts: Sequence[Part], combo: Tuple[int, ...], flat_block) -> Optional[Mat]:
    """The block on ``combo`` of the map out of the tensor of ``parts`` that is
    ``flat_block`` on the flat degree tuples: the sum over the flat blocks
    under ``combo`` of flat_block(flat) @ kron(lifts); None when all vanish."""
    out = None
    for choice in itertools.product(*(_lifts(p, d) for p, d in zip(parts, combo))):
        flat = flat_block(sum((c for c, _ in choice), ()))
        if flat is None:
            continue
        lifts = [lift for _, lift in choice]
        term = kron_product(flat, *lifts) if len(lifts) == 2 else flat @ lifts[0]
        out = term if out is None else out + term
    return out


def _complex_of(part: Part) -> Complex:
    return part if isinstance(part, Complex) else part.complex


def lifted_map(parts: Sequence[Part], target: Part, flat_block) -> ChainMap:
    """The degree-0 chain map out of the tensor of one or two ``parts`` into
    ``target`` that is ``flat_block`` on the flat degree tuples: projection of
    a balanced target o flat map o lift through the sections of the balanced
    parts.  ``flat_block(flat)`` has its rows in the plain target (the layout
    of a balanced one) at degree sum(flat), or is None for zero."""
    sources = [_complex_of(p) for p in parts]
    tcx = _complex_of(target)

    def block(combo):
        out = lifted_block(parts, combo, flat_block)
        if out is None or not isinstance(target, BalancedTensor):
            return out
        return target.projection.component(sum(combo)) @ out

    if len(parts) == 1:
        comps = {d: block((d,)) for d in sources[0].degrees() if tcx.dim(d)}
        return ChainMap(sources[0], tcx, 0, {d: m for d, m in comps.items() if m is not None})
    return TensorLayout(sources).map_from_blocks(tcx, 0, block)


def tensor_field(a: Complex, b: Complex) -> Complex:
    """Tensor product over the ground field."""
    return TensorLayout([a, b]).complex


def regroup(flat: TensorLayout, grouping: Sequence[Sequence[int]]):
    """Signless reindexing from a flat n-ary tensor onto nested groups.

    ``grouping`` partitions range(n) into consecutive runs, e.g. [[0,1],[2]].
    Returns (grouped_layout, iso ChainMap flat -> grouped).
    """
    expect = [i for grp in grouping for i in grp]
    if expect != list(range(len(flat.factors))):
        raise ShapeError("grouping must list factor slots in order")
    inner = [TensorLayout([flat.factors[i] for i in grp]) for grp in grouping]
    outer = TensorLayout([lay.complex for lay in inner])
    field = flat.field

    def entry(combo, idx):
        gcombos = []
        gpos = []
        k = 0
        for lay, grp in zip(inner, grouping):
            sub_combo = tuple(combo[k:k + len(grp)])
            sub_idx = tuple(idx[k:k + len(grp)])
            k += len(grp)
            gcombos.append(sum(sub_combo))
            gpos.append(lay.position(sub_combo, sub_idx))
        pos = outer.position(tuple(gcombos), tuple(gpos))
        col = [field.zero()] * outer.complex.dim(sum(combo))
        col[pos] = field.one()
        return Mat.column(field, col)

    return outer, flat.map_from_entries(outer.complex, 0, entry)


def insert_factor(cx: Complex, element_degree: int, element: Mat, holder: Complex,
                  side: str) -> ChainMap:
    """Chain map c -> holder tensor c (side="left") or c -> c tensor holder
    (side="right") inserting a fixed closed vector of even degree 0."""
    if element_degree != 0:
        raise ValidationError("insertions only supported for degree-0 closed elements")
    if not (holder.diff(0) @ element).is_zero():
        raise ValidationError("inserted element must be closed")
    field = cx.field
    lay = TensorLayout([holder, cx] if side == "left" else [cx, holder])
    comps = {}
    for deg in cx.degrees():
        rows = lay.complex.dim(deg)
        cols = cx.dim(deg)
        grid = [[field.zero()] * cols for _ in range(rows)]
        for j in range(cols):
            for i, v in enumerate(element.column_values(0)):
                if field.is_zero(v):
                    continue
                if side == "left":
                    pos = lay.position((0, deg), (i, j))
                else:
                    pos = lay.position((deg, 0), (j, i))
                grid[pos][j] = v
        comps[deg] = Mat(field, rows, cols, grid)
    return ChainMap(cx, lay.complex, 0, comps)


# -- hom layout -------------------------------------------------------------------


class HomLayout:
    """Basis bookkeeping for the hom-complex Hom(source, target).

    Degree-n blocks are indexed by the source degree i (ascending); inside a
    block, the matrix entry (row r of target^{i+n}, column t of source^i) sits
    at position r * dim(source^i) + t.
    """

    def __init__(self, source: Complex, target: Complex):
        self.source = source
        self.target = target
        self.field = same_field(source.field, target.field)
        self._blocks: Dict[int, List[Tuple[int, int, int]]] = {}
        for i in source.degrees():
            for j in target.degrees():
                n = j - i
                size = source.dim(i) * target.dim(j)
                if size:
                    self._blocks.setdefault(n, []).append((i, 0, size))
        blocks = {}
        for n, lst in self._blocks.items():
            lst.sort()
            acc = 0
            entries = []
            for i, _, size in lst:
                entries.append((i, acc, size))
                acc += size
            blocks[n] = entries
        self._blocks = blocks
        self._complex: Optional[Complex] = None

    def dims(self) -> Dict[int, int]:
        return {n: sum(size for _, _, size in blocks) for n, blocks in self._blocks.items()}

    def blocks(self, n: int):
        return self._blocks.get(n, [])

    def block_offset(self, n: int, i: int) -> Tuple[int, int]:
        for src_deg, off, size in self.blocks(n):
            if src_deg == i:
                return off, size
        raise ShapeError(f"no hom block at source degree {i}, map degree {n}")

    def position(self, n: int, i: int, row: int, col: int) -> int:
        off, _ = self.block_offset(n, i)
        return off + row * self.source.dim(i) + col

    @property
    def complex(self) -> Complex:
        if self._complex is None:
            field = self.field
            dims = self.dims()
            diffs = {}
            for n in sorted(dims):
                rows = dims.get(n + 1, 0)
                cols = dims[n]
                if rows == 0 or cols == 0:
                    continue
                grid = [[field.zero()] * cols for _ in range(rows)]
                sgn = -1 if n % 2 else 1
                for i, off, size in self.blocks(n):
                    sdim = self.source.dim(i)
                    tdim = self.target.dim(i + n)
                    # postcomposition with d_target: block i -> block i (degree n+1)
                    dmat = self.target.diff(i + n)
                    if not dmat.is_zero() and self.target.dim(i + n + 1):
                        for r in range(dmat.rows):
                            for q in range(dmat.cols):
                                v = dmat.entries[r][q]
                                if field.is_zero(v):
                                    continue
                                for t in range(sdim):
                                    dst = self.position(n + 1, i, r, t)
                                    src = off + q * sdim + t
                                    grid[dst][src] = field.add(grid[dst][src], v)
                    # precomposition with d_source: block i -> block i-1 (degree n+1)
                    dsrc = self.source.diff(i - 1)
                    if not dsrc.is_zero() and self.source.dim(i - 1) and tdim:
                        for r in range(tdim):
                            for s in range(dsrc.rows):
                                for t in range(dsrc.cols):
                                    v = dsrc.entries[s][t]
                                    if field.is_zero(v):
                                        continue
                                    dst = self.position(n + 1, i - 1, r, t)
                                    src = off + r * sdim + s
                                    val = field.neg(v) if sgn > 0 else v
                                    grid[dst][src] = field.add(grid[dst][src], val)
                diffs[n] = Mat(field, rows, cols, grid)
            self._complex = Complex(field, dims, diffs,
                                    name=f"Hom({self.source.name},{self.target.name})")
        return self._complex

    # -- converting between vectors and map families ---------------------------

    def family_from_vector(self, n: int, vec: Mat) -> Dict[int, Mat]:
        """Raw per-degree matrices of an element of hom^n (not necessarily closed)."""
        field = self.field
        fam = {}
        for i, off, size in self.blocks(n):
            sdim = self.source.dim(i)
            tdim = self.target.dim(i + n)
            grid = [[vec.entries[off + r * sdim + t][0] for t in range(sdim)] for r in range(tdim)]
            fam[i] = Mat(field, tdim, sdim, grid)
        return fam

    def vector_from_family(self, n: int, fam: Dict[int, Mat]) -> Mat:
        field = self.field
        total = self.complex.dim(n)
        col = [field.zero()] * total
        for i, off, size in self.blocks(n):
            mat = fam.get(i)
            if mat is None:
                continue
            sdim = self.source.dim(i)
            for r in range(mat.rows):
                for t in range(sdim):
                    col[off + r * sdim + t] = mat.entries[r][t]
        return Mat.column(field, col)

    def chainmap_from_cocycle(self, n: int, vec: Mat) -> ChainMap:
        fam = self.family_from_vector(n, vec)
        return ChainMap(self.source, self.target, n, fam)

    def vector_from_chainmap(self, f: ChainMap) -> Mat:
        return self.vector_from_family(f.degree, dict(f.components))


def hom_complex(c: Complex, d: Complex) -> HomLayout:
    return HomLayout(c, d)


def evaluation_map(h: HomLayout) -> ChainMap:
    """ev: Hom(c,d) tensor c -> d, phi tensor x |-> phi(x)."""
    lay = TensorLayout([h.complex, c := h.source])
    field = h.field
    d = h.target

    def entry_dispatch(combo, idx):
        n, i = combo
        for src_deg, off, size in h.blocks(n):
            if src_deg == i:
                rel = idx[0] - off
                if 0 <= rel < size:
                    sdim = c.dim(i)
                    r, t = divmod(rel, sdim)
                    if t == idx[1]:
                        out = [field.zero()] * d.dim(n + i)
                        out[r] = field.one()
                        return Mat.column(field, out)
        return None

    return lay.map_from_entries(d, 0, entry_dispatch)


def composition_map(x: Complex, y: Complex, z: Complex) -> ChainMap:
    """Hom(y,z) tensor Hom(x,y) -> Hom(x,z), psi tensor phi |-> psi o phi."""
    hyz = hom_complex(y, z)
    hxy = hom_complex(x, y)
    hxz = hom_complex(x, z)
    lay = TensorLayout([hyz.complex, hxy.complex])
    field = lay.field

    def entry(combo, idx):
        m, n = combo
        psi = hyz.family_from_vector(m, Mat.basis_column(field, hyz.complex.dim(m), idx[0]))
        phi = hxy.family_from_vector(n, Mat.basis_column(field, hxy.complex.dim(n), idx[1]))
        fam = {}
        for i, pm in phi.items():
            top = psi.get(i + n)
            if top is None:
                continue
            prod = top @ pm
            if not prod.is_zero():
                fam[i] = prod
        if not fam:
            return None
        return hxz.vector_from_family(m + n, fam)

    return lay.map_from_entries(hxz.complex, 0, entry)


def curry(f: ChainMap, lay: TensorLayout) -> ChainMap:
    """Adjoint of f: (X tensor Y) -> Z along Hom(X, Hom(Y,Z)); no signs with
    these conventions (asserted by the ChainMap constructor)."""
    if len(lay.factors) != 2:
        raise ShapeError("curry expects a binary tensor source")
    X, Y = lay.factors
    Z = f.target
    hyz = hom_complex(Y, Z)
    field = lay.field
    comps = {}
    for a in X.degrees():
        xdim = X.dim(a)
        tgt_dim = hyz.complex.dim(a + f.degree)
        if xdim == 0 or tgt_dim == 0:
            continue
        cols = []
        for xi in range(xdim):
            fam = {}
            for b in Y.degrees():
                ydim = Y.dim(b)
                zdim = Z.dim(a + b + f.degree)
                if ydim == 0 or zdim == 0:
                    continue
                mat = [[field.zero()] * ydim for _ in range(zdim)]
                for yi in range(ydim):
                    pos = lay.position((a, b), (xi, yi))
                    img = f.component(a + b).col(pos)
                    for r in range(zdim):
                        mat[r][yi] = img.entries[r][0]
                m = Mat(field, zdim, ydim, mat)
                if not m.is_zero():
                    fam[b] = m
            cols.append(hyz.vector_from_family(a + f.degree, fam).column_values(0))
        comps[a] = Mat.from_columns(field, tgt_dim, cols)
    return ChainMap(X, hyz.complex, f.degree, comps)


def element_action(pairing: ChainMap, lay: TensorLayout, slot: int,
                   deg: int, vector: Mat) -> Dict[int, Mat]:
    """Partial evaluation of a pairing at a fixed element in the given slot.

    Returns the raw per-degree matrix family of the induced map on the other
    factor (a chain map only when the element is a closed even-degree cycle;
    callers own that bookkeeping).  Binary layouts only.
    """
    if len(lay.factors) != 2:
        raise ShapeError("element_action expects a binary tensor source")
    field = lay.field
    other = lay.factors[1 - slot]
    target = pairing.target
    fam = {}
    for b in other.degrees():
        odim = other.dim(b)
        total = deg + b
        tdim = target.dim(total + pairing.degree)
        if odim == 0:
            continue
        cols = []
        for oi in range(odim):
            acc = [field.zero()] * tdim
            for vi, v in enumerate(vector.column_values(0)):
                if field.is_zero(v):
                    continue
                combo = (deg, b) if slot == 0 else (b, deg)
                idx = (vi, oi) if slot == 0 else (oi, vi)
                pos = lay.position(combo, idx)
                img = pairing.component(total).col(pos)
                for r in range(tdim):
                    acc[r] = field.add(acc[r], field.mul(v, img.entries[r][0]))
            cols.append(acc)
        fam[b] = Mat.from_columns(field, tdim, cols)
    return fam
