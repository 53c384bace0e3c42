"""Complexes of finite-dimensional vector spaces, chain maps, and the
graded tensor/hom calculus.

Sign conventions, fixed once and enforced by construction-time checks:

* differentials raise degree by one; d(x tensor y) = dx tensor y + (-1)^|x| x tensor dy
* hom-complex degree-n component is prod_i Hom(c^i, d^{i+n}) with
  (delta phi) = d_target o phi - (-1)^n phi o d_source
* the dual c^ has (c^)^{-i} = (c^i)^* and d^{-i} = (-1)^{i+1} (d^{i-1})^t,
  so that Hom(c, d) is the tensor d tensor c^, a map phi: c^i -> d^{i+n}
  sitting in its block (i+n, -i)
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
from functools import cached_property, lru_cache, reduce
from math import prod
from typing import Callable, Dict, FrozenSet, Hashable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DegreeCapError, ScenarioError, ShapeError, ValidationError
from .fields import Field, same_field
from .matrix import Mat, block_matrix, concat_columns, extend_columns_to_basis, invert, kron, kron_product, left_inverse

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
    """Finitely supported degree -> dimension table with optional basis labels;
    ``key`` is the table as sorted (degree, dimension) pairs, so equal spaces
    share it whatever order their degrees were given in."""

    __slots__ = ("dims", "labels", "key")

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
        self.key = tuple(sorted(clean.items()))
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
        return [deg for deg, _ in self.key]

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

    # -- cohomology --------------------------------------------------------

    def cohomology(self) -> "CohomologyReport":
        if self._cohomology is None:
            self._cohomology = CohomologyReport(self)
        return self._cohomology

    def is_acyclic(self) -> bool:
        return all(v == 0 for v in self.cohomology().dims.values())


class CohomologyReport:
    """Per-degree cohomology dimensions with chosen cocycle representatives.

    ``rep(i)`` has the representative cocycles as columns, chosen by
    ``cohomology_at``; classes are coordinates with respect to those columns
    modulo the image of d.  ``known`` holds, by degree, results of
    ``cohomology_at`` on ``cx`` already computed.
    """

    def __init__(self, cx: Complex, known: Optional[Dict[int, Tuple[Mat, Mat]]] = None):
        self.complex = cx
        known = known or {}
        self._at = {deg: known.get(deg) or cohomology_at(cx, deg) for deg in cx.degrees()}
        self.dims: Dict[int, int] = {deg: reps.cols for deg, (reps, _) in self._at.items()}

    def dim(self, deg: int) -> int:
        return self.dims.get(deg, 0)

    def support(self) -> List[int]:
        return sorted(d for d, v in self.dims.items() if v)

    def rep(self, deg: int) -> Mat:
        return (self._at.get(deg) or cohomology_at(self.complex, deg))[0]

    def image(self, deg: int) -> Mat:
        return (self._at.get(deg) or cohomology_at(self.complex, deg))[1]

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


def cohomology_at(cx: Complex, deg: int) -> Tuple[Mat, Mat]:
    """(reps, image) of a CohomologyReport in degree ``deg``: a basis of the
    image of d, and the kernel basis columns that extend it, in order."""
    z = cx.diff(deg).kernel_basis()
    b = cx.diff(deg - 1).image_basis()
    chosen = [c - b.cols for c in b.hstack(z).pivot_columns() if c >= b.cols]
    return z.take_columns(chosen), b


def _product(a: Optional[Mat], b: Optional[Mat]) -> Optional[Mat]:
    """a @ b, or None when either factor is structurally absent."""
    if a is None or b is None:
        return None
    return a @ b


class ChainMap:
    """Graded map of complexes commuting with d up to (-1)^degree.

    ``slices`` memoises the column blocks ``Pairing.block`` takes of a
    component, keyed by (degree, offset, size), and the matrix of ``_flat``,
    keyed by the number of factors; the components are
    never mutated after construction and matrices are immutable, so both
    stay valid for the life of the map."""

    __slots__ = ("source", "target", "degree", "components", "slices")

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
        self.slices = {}
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

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.degree != other.degree:
            return False
        degs = set(self.components) | set(other.components)
        return all(self.component(d) == other.component(d) for d in degs)

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
            return cone_complex(self).is_acyclic()
        degs = set(self.source.degrees()) | set(d - self.degree for d in self.target.degrees())
        for deg in degs:
            m = self.cohomology_map(deg)
            if m.rows != m.cols or m.rank() != m.rows:
                return False
        return True


# -- shifts, sums, cones ------------------------------------------------------


def shift_complex(cx: Complex, k: int) -> Complex:
    return block_sum([(cx, k)], name=f"{cx.name}[{k}]")


def block_sum(summands: Sequence[Tuple[Complex, int]], twist=None, name: Optional[str] = None) -> Complex:
    """The degreewise direct sum of the shifted complexes plain[shift], one
    per (plain, shift) in ``summands``, with the block differential diag(d_i)
    plus ``twist(deg)``, a dict {(i, j): block from summand j in degree deg
    to summand i in degree deg + 1}.  Each shift is read in place: degree d
    of plain[k] is degree d + k of plain, its differential signed (-1)^k."""
    if not summands:
        raise ShapeError("direct sum of nothing; use Complex.zero")
    field = same_field(*[c.field for c, _ in summands])
    degs = sorted({d - k for c, k in summands for d in c.degrees()})
    sizes = {d: [c.dim(d + k) for c, k in summands] for d in {*degs, *(d + 1 for d in degs)}}
    diffs = {}
    for d in degs:
        blocks = {(i, i): -c.d[d + k] if k % 2 else c.d[d + k] for i, (c, k) in enumerate(summands) if d + k in c.d}
        if twist is not None:
            blocks.update(twist(d))
        if blocks:
            diffs[d] = block_matrix(field, sizes[d + 1], sizes[d], blocks)
    return Complex(field, {d: sum(sizes[d]) for d in degs}, diffs,
                   name=name or "+".join(f"{c.name}[{k}]" if k else c.name for c, k in summands))


def twisted_sum(summands: Sequence[Tuple[Complex, int]], twist=None, name: Optional[str] = None) -> "Retract":
    """The ``block_sum`` of ``summands`` as a Retract whose piece i is
    summand i: its coordinate projection in, its injection out."""
    total = block_sum(summands, twist, name)
    slices = [({}, {}) for _ in summands]
    for d in total.degrees():
        eye = Mat.identity(total.field, total.dim(d))
        sizes = [c.dim(d + k) for c, k in summands]
        for (proj, inj), off, size in zip(slices, itertools.accumulate(sizes, initial=0), sizes):
            if size:
                inj[d] = eye.take_columns(range(off, off + size))
                proj[d] = eye.take_rows(range(off, off + size))
    return Retract(total, tuple(Piece(c, k, proj, inj) for (c, k), (proj, inj) in zip(summands, slices)))


def direct_sum(summands: Sequence[Complex]):
    """Returns (sum, injections, projections)."""
    total = twisted_sum([(c, 0) for c in summands])
    return (total.complex, [ChainMap(c, total.complex, 0, p.outward) for c, p in zip(summands, total.pieces)],
            [ChainMap(total.complex, c, 0, p.inward) for c, p in zip(summands, total.pieces)])


def _cone(f: ChainMap, build):
    """The mapping cone of a degree-0 map, target + source[1] twisted by f,
    made by ``build``: ``block_sum`` or ``twisted_sum``."""
    if f.degree != 0:
        raise ValidationError("cone requires a degree-0 chain map")
    return build([(f.target, 0), (f.source, 1)], lambda d: {(0, 1): f.component(d + 1)},
                 name=f"cone({f.source.name}->{f.target.name})")


def cone_complex(f: ChainMap) -> Complex:
    """Mapping cone of a degree-0 map, the complex alone."""
    return _cone(f, block_sum)


def cone_retract(f: ChainMap) -> "Retract":
    """Mapping cone of a degree-0 map as a Retract: piece 0 is the target,
    piece 1 the source one degree up."""
    return _cone(f, twisted_sum)


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
        bb = b.image_basis()
        comp_idx = extend_columns_to_basis(bb)
        if comp_idx:
            dims[deg] = len(comp_idx)
        sect_mats[deg] = Mat.identity(field, b.rows).take_columns(comp_idx)
        proj_mats[deg] = invert(bb.hstack(sect_mats[deg])).take_rows(range(bb.cols, b.rows))
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


class HomSystem:
    """Families phi = (phi_slot) in the product of the slot hom-complexes, in
    the order of ``layouts``, that satisfy every equation.

    On phi of degree n and degree i of the domain, a term is the map
    ``sign * (-1)^(twist * n) * left_{j+n} o phi[slot]_j o right_i`` with
    j = i + deg(right), from domain^i to codomain^{i+n+deg(left)+deg(right)}.
    Matrices are vectorised row-major, as in HomLayout (entry (r, t) of a
    matrix with c columns sits at r * c + t), so vec(L X R) = kron(L, R^t)
    vec(X), and each term writes that block once, straight into the degree-n
    constraint matrix ``constraints[n]``.

    ``ambient`` is the direct sum of the slot complexes (the slots start at
    ``offsets[n]`` in degree n), ``complex`` the subcomplex of the families
    and ``inclusion`` its inclusion; ``projs`` is built on first read.
    """

    def __init__(self, layouts: Dict[Hashable, HomLayout], equations: Sequence[Equation], name: str = "sub"):
        self.layouts = layouts
        slots = list(layouts)
        self.ambient = ambient = block_sum([(layouts[s].complex, 0) for s in slots])
        field = ambient.field
        constraints, self.offsets = {}, {}
        for n in ambient.degrees():
            dim_n = ambient.dim(n)
            offsets = self.offsets[n] = dict(zip(slots, itertools.accumulate(
                (layouts[s].complex.dim(n) for s in slots), initial=0)))
            grid: List[List] = []
            for eq in equations:
                shift = n + _family_degree(eq.terms[0].left) + _family_degree(eq.terms[0].right)
                for i in eq.domain.degrees():
                    p, q = eq.domain.dim(i), eq.codomain.dim(i + shift)
                    if q == 0:
                        continue
                    top = len(grid)
                    grid.extend([0] * dim_n for _ in range(q * p))
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
                        for out, row in zip(grid[top:], block.entries):
                            for c, v in enumerate(row, col0):
                                if v:
                                    out[c] = out[c] - v if negate else out[c] + v
            if grid:
                constraints[n] = Mat(field, len(grid), dim_n, grid)
        self.constraints = constraints
        self.complex, self.inclusion = constrained_subcomplex(ambient, constraints, name=name)

    @cached_property
    def projs(self) -> Dict[Hashable, ChainMap]:
        """The coordinate projections of the ambient onto the slots, checked."""
        eye = {n: Mat.identity(self.ambient.field, self.ambient.dim(n)) for n in self.offsets}
        return {s: ChainMap(self.ambient, lay.complex, 0, {n: eye[n].take_rows(range(at[s], at[s] + lay.complex.dim(n)))
                                                           for n, at in self.offsets.items()})
                for s, lay in self.layouts.items()}

    def retract(self) -> "Retract":
        """The subcomplex through the ambient, read off the echelon form R of
        each degree's constraints: in by the kernel basis, out by the
        coordinates at the free columns, where the kernel basis is the
        identity; a map lands in it when R kills it."""
        outward, sub = {}, {}
        for n in self.ambient.degrees():
            eye = Mat.identity(self.ambient.field, self.ambient.dim(n))
            echelon, _, pivots = self.constraints[n].rref() if n in self.constraints else (None, None, ())
            if pivots:
                sub[n] = echelon.take_rows(range(len(pivots)))
            outward[n] = eye.take_rows(sorted(set(range(eye.rows)) - {c for _, c in pivots}))
        return Retract(self.complex, (Piece(self.ambient, 0, self.inclusion.components, outward, sub),))


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
    quot, proj, _ = truncation_quotient(cx, n)
    return quot, proj


def truncation_quotient(cx: Complex, n: int):
    """``truncate_ge`` with the sections of its projection: (truncated,
    projection, sections) as returned by ``quotient_complex``."""
    field = cx.field
    killed = {}
    for deg in cx.degrees():
        if deg < n:
            killed[deg] = Mat.identity(field, cx.dim(deg))
        elif deg == n:
            img = cx.diff(n - 1).image_basis()
            if img.cols:
                killed[deg] = img
    return quotient_complex(cx, killed, name=f"tge{n}({cx.name})")


# -- tensor layout --------------------------------------------------------------


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


class TensorShape(NamedTuple):
    """The block bookkeeping of a graded tensor product, which depends on the
    factors' dimension tables alone: per degree n its blocks (degree tuple,
    offset, size) in lexicographic order, each block's (offset, size), and
    the dimension of each degree.  Shared by every layout over equal tables,
    so nothing may mutate it."""

    blocks: Dict[int, Tuple[Tuple[Tuple[int, ...], int, int], ...]]
    offsets: Dict[Tuple[int, ...], Tuple[int, int]]
    dims: Dict[int, int]


# The bound keeps memory flat: 256 shapes hold every tuple of tables a deformation
# scenario meets, while holding up to 4096 of the paper suite's 4,570 tuples
# raised its peak RSS from about 66 to 74 MiB.
@lru_cache(maxsize=256)
def tensor_shape(tables: Tuple[Tuple[Tuple[int, int], ...], ...]) -> TensorShape:
    """The shape over factors with these ``GradedSpace.key`` tables; one shared
    instance per tuple of tables.  The product of the sorted tables runs in
    lexicographic order, and every dimension in a table is positive."""
    blocks: Dict[int, List[Tuple[Tuple[int, ...], int, int]]] = {}
    offsets, dims = {}, {}
    for items in itertools.product(*tables):
        combo = tuple(deg for deg, _ in items)
        n = sum(combo)
        off, size = dims.get(n, 0), prod(dim for _, dim in items)
        blocks.setdefault(n, []).append((combo, off, size))
        offsets[combo] = (off, size)
        dims[n] = off + size
    return TensorShape({n: tuple(lst) for n, lst in blocks.items()}, offsets, dims)


class TensorLayout:
    """Basis bookkeeping for an n-fold graded tensor product.

    Degree-n blocks are indexed by degree tuples in lexicographic order;
    inside a block the multi-index is row-major over the factors.
    """

    __slots__ = ("factors", "field", "shape", "_complex")

    def __init__(self, factors: Sequence[Complex]):
        if not factors:
            raise ShapeError("tensor of no factors")
        self.factors = tuple(factors)
        self.field = same_field(*[c.field for c in factors])
        self.shape = tensor_shape(tuple(c.spaces.key for c in self.factors))
        self._complex: Optional[Complex] = None

    def dim(self, n: int) -> int:
        return self.shape.dims.get(n, 0)

    def dims(self) -> Dict[int, int]:
        return dict(self.shape.dims)

    def blocks(self, n: int) -> Tuple[Tuple[Tuple[int, ...], int, int], ...]:
        return self.shape.blocks.get(n, ())

    def block_offset(self, combo: Tuple[int, ...]) -> Tuple[int, int]:
        try:
            return self.shape.offsets[combo]
        except KeyError:
            raise ShapeError(f"no block {combo} in tensor layout") from None

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
        side by side (a zero block for None); a degree whose blocks are all
        None is left out, which ``Complex`` and ``ChainMap`` read as zero."""
        comps = {}
        for n in sorted(self.shape.blocks):
            rows = rows_of(n)
            if rows == 0:
                continue
            blocks = [(block_fn(combo), size) for combo, _, size in self.shape.blocks[n]]
            if any(mat is not None for mat, _ in blocks):
                comps[n] = concat_columns(self.field, rows, [Mat.zero(self.field, rows, size) if mat is None
                                                             else mat for mat, size in blocks])
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
        """Build a chain map out of the tensor one basis tensor at a time:
        entry_fn(combo, indices) returns the image vector (Mat column in target
        at degree sum(combo)+degree), or None.  The package builds every map
        from blocks; this is the elementwise reference the tests hold them to."""
        field = self.field

        def block(combo):
            zero = (0,) * target.dim(sum(combo) + degree)
            ranges = [range(c.dim(d)) for c, d in zip(self.factors, combo)]
            cols = [entry_fn(combo, idx) for idx in itertools.product(*ranges)]
            cols = [zero if c is None else next(zip(*c.entries)) for c in cols]
            return Mat._wrap(field, len(zero), len(cols), tuple(zip(*cols)))

        return self.map_from_blocks(target, degree, block, check=check)


class Pairing:
    """A structure map out of a binary tensor, held with the layout of its
    source: a ring's product, a category's composition or base action, a
    module's or bimodule's action.  ``factors`` and ``block`` make it an
    ``Action``.  Building one checks that the map has degree 0, starts at
    the layout's degree table and lands in that of ``target``, the space it
    must land in, and names a stray map by ``what`` where it enters; only
    the tables are compared, so the check builds no tensor complex."""

    __slots__ = ("layout", "map")

    def __init__(self, layout: TensorLayout, cmap: ChainMap, target: Complex, what: str):
        if cmap.degree or cmap.source.spaces.dims != layout.shape.dims or \
                cmap.target.spaces.dims != target.spaces.dims:
            raise ValidationError(
                f"{what} is not a degree-0 map from dimensions {dict(sorted(layout.shape.dims.items()))} "
                f"to {dict(target.spaces.key)}: it has degree {cmap.degree} and runs from "
                f"{dict(cmap.source.spaces.key)} to {dict(cmap.target.spaces.key)}")
        self.layout = layout
        self.map = cmap

    @classmethod
    def of(cls, factors: Sequence[Complex], cmap: Optional[ChainMap], target: Complex, what: str) -> "Pairing":
        """The pairing of ``cmap`` out of the tensor of ``factors``, or of the
        zero map when ``cmap`` is None."""
        layout = TensorLayout(factors)
        return cls(layout, ChainMap.zero_map(layout.complex, target) if cmap is None else cmap, target, what)

    @property
    def factors(self) -> Tuple[Complex, ...]:
        return self.layout.factors

    def block(self, combo: Tuple[int, ...]) -> Mat:
        """The columns of the map on the block ``combo``, row-major over the
        factors; a zero matrix of that shape when the block or its target is
        empty.  Memoised on the map."""
        n = sum(combo)
        off, size = self.layout.shape.offsets.get(combo, (0, 0))
        key = (n, off, size)
        cmap = self.map
        mat = cmap.slices.get(key)
        if mat is None:
            rows = cmap.target.dim(n)
            if rows == 0 or size == 0:
                mat = Mat.zero(self.layout.field, rows, size)
            else:
                mat = cmap.component(n).take_columns(range(off, off + size))
            cmap.slices[key] = mat
        return mat

    @property
    def flat(self) -> Mat:
        """The map as one matrix on the flat bases (see ``_flat``)."""
        return _flat(self.map, self.layout.factors)

    def apply(self, dx: int, x: Mat, dy: int, y: Mat) -> Mat:
        """The image of x tensor y for homogeneous x of degree dx and y of
        degree dy: the block of (dx, dy) applied to kron(x, y)."""
        return kron_product(self.block((dx, dy)), x, y)

    def at(self, slot: int, deg: int, vector: Mat) -> Dict[int, Mat]:
        """Partial evaluation at a fixed element of degree ``deg`` in the
        given slot: per degree b of the other factor, the block of (deg, b)
        applied to kron(v, 1) (slot 0), or of (b, deg) applied to kron(1, v)
        (slot 1).  The raw per-degree matrix family of the induced map on the
        other factor (a chain map only when the element is a closed
        even-degree cycle; callers own that bookkeeping)."""
        other = self.layout.factors[1 - slot]
        fam = {}
        for b in other.degrees():
            eye = Mat.identity(self.layout.field, other.dim(b))
            if slot == 0:
                fam[b] = kron_product(self.block((deg, b)), vector, eye)
            else:
                fam[b] = kron_product(self.block((b, deg)), eye, vector)
        return fam


# -- structure laws ---------------------------------------------------------------
#
# A structure map (composition, an action, a ring product) is passed as a
# ``Pairing``, the map with the layout of its source, and checked whole, as
# one matrix on the flat bases (``Pairing.flat``): a composite through unmatched
# degrees is a structural zero, so each side of a law is one ``kron_product``.
# A defect is the (degree tuple, factor indices) of the first basis tensor the
# law fails on in the tensor's (degree, block, index) order, into which only a
# failing check sorts its columns.


def flat_basis(table) -> List[Tuple[int, int]]:
    """The (degree, index) of each flat basis element of a ``GradedSpace.key`` table."""
    return [(deg, i) for deg, dim in table for i in range(dim)]


# One column index per tensor shape; the bound matches ``tensor_shape``.
@lru_cache(maxsize=256)
def _flat_columns(tables: Tuple[Tuple[Tuple[int, int], ...], ...]) -> Dict[int, Tuple[int, ...]]:
    """Per degree n of the tensor over factors with these tables, the entry
    of a degree-n component row, with a 0 appended, that each flat column
    reads: its position in degree n, or the appended 0 for a column lying in
    another degree."""
    shape, dims, located = tensor_shape(tables), [dict(table) for table in tables], []
    for elems in itertools.product(*map(flat_basis, tables)):
        combo, indices = zip(*elems)
        pos = 0
        for dim, deg, i in zip(dims, combo, indices):
            pos = pos * dim[deg] + i
        located.append((sum(combo), shape.offsets[combo][0] + pos))
    return {n: tuple(pos if m == n else size for m, pos in located) for n, size in shape.dims.items()}


def _flat(f: ChainMap, factors: Sequence[Complex]) -> Mat:
    """``f``, a map out of the tensor of ``factors``, as one matrix: the rows
    are its target's degrees in order, the columns row-major over the
    factors' flat bases.  Memoised on the map under the number of factors;
    a chain map is a map out of the tensor of its source alone
    (``flat_map``)."""
    k = len(factors)
    flat = f.slices.get(k)
    if flat is None:
        columns = _flat_columns(tuple(c.spaces.key for c in factors))
        zero, rows = (0,) * prod(c.total_dim() for c in factors), []
        for m, dim in f.target.spaces.key:
            mat = f.components.get(m - f.degree)
            rows.extend([zero] * dim if mat is None else [
                tuple(map((row + (0,)).__getitem__, columns[m - f.degree])) for row in mat.entries])
        flat = f.slices[k] = Mat._wrap(f.source.field, len(rows), len(zero), tuple(rows))
    return flat


def flat_map(f: ChainMap) -> Mat:
    """The chain map as one matrix on the flat bases of its source and target."""
    return _flat(f, (f.source,))


def first_defect(factors: Sequence[Complex], lhs: Mat, rhs: Mat):
    """The first basis tensor, in (degree, block, index) order, on whose
    flat column ``lhs`` and ``rhs`` differ, as (degree tuple, factor
    indices); None when they agree."""
    if lhs == rhs:
        return None
    failing = {c for row in (lhs - rhs).entries for c, x in enumerate(row) if x}
    tensors = enumerate(itertools.product(*(flat_basis(c.spaces.key) for c in factors)))
    return min((tuple(zip(*elems)) for c, elems in tensors if c in failing), key=lambda t: (sum(t[0]), t))


def _vacuous(factors: Sequence[Complex], fields: Sequence[Field], joins) -> bool:
    """Whether a law on the tensor of ``factors`` holds with nothing to
    compare: the tensor is empty, so no basis tensor can fail, and the maps
    join up, all over one field and each pair of spaces in ``joins`` (a map's
    target and the factor it feeds, say) with one degree table, so each side
    would be the empty matrix into one space.  Maps that do not join up go on
    to the products, which reject them."""
    return (not all(c.spaces.key for c in factors) and all(f is fields[0] for f in fields)
            and all(a.spaces.key == b.spaces.key for a, b in joins))


def unit_defect(mu: Pairing, unit: Mat, slot: int):
    """First basis vector v, as (degree, index), of the other factor with
    mu(e tensor v) != v (slot 0) or mu(v tensor e) != v (slot 1), for e of
    degree 0: mu . kron(e, 1) against 1 on the flat bases."""
    lay = mu.layout
    own, other = lay.factors[slot], lay.factors[1 - slot]
    if unit.rows == own.dim(0) and _vacuous([other], [lay.field], [(mu.map.target, other)]):
        return None
    below = sum(dim for deg, dim in own.spaces.key if deg < 0)
    e = Mat._wrap(lay.field, own.total_dim(), 1,
                  ((0,),) * below + unit.entries + ((0,),) * (own.total_dim() - below - unit.rows))
    eye = Mat.identity(lay.field, other.total_dim())
    defect = first_defect([other], kron_product(mu.flat, *((e, eye) if slot == 0 else (eye, e))), eye)
    return None if defect is None else (defect[0][0], defect[1][0])


def associativity_defect(mu1: Pairing, mu2: Pairing, mu3: Pairing, mu4: Pairing):
    """First basis tensor x (x) y (x) z on which
    mu1(mu2(x (x) y) (x) z) != mu3(x (x) mu4(y (x) z)), i.e. where
    mu1 . kron(mu2, 1) and mu3 . kron(1, mu4) differ on the flat bases."""
    (l1, m1), (l2, m2), (l3, m3), (l4, m4) = ((mu.layout, mu.map) for mu in (mu1, mu2, mu3, mu4))
    x, y, z = l2.factors[0], l2.factors[1], l4.factors[1]
    if _vacuous([x, y, z], [l1.field, l2.field, l3.field, l4.field],
                [(m2.target, l1.factors[0]), (l1.factors[1], z), (l3.factors[0], x),
                 (m4.target, l3.factors[1]), (l4.factors[0], y), (m1.target, m3.target)]):
        return None
    field = l1.field
    lhs = kron_product(mu1.flat, mu2.flat, Mat.identity(field, z.total_dim()))
    rhs = kron_product(mu3.flat, Mat.identity(field, x.total_dim()), mu4.flat)
    return first_defect([x, y, z], lhs, rhs)


def morphism_defect(source: Pairing, target: Pairing, outer: ChainMap, first: Optional[ChainMap],
                    second: Optional[ChainMap]):
    """First basis tensor x (x) y of the source pairing mu on which
    outer(mu(x (x) y)) != mu'(first(x) (x) second(y)), i.e. where
    outer . mu and mu' . kron(first, second) differ on the flat bases;
    ``second`` has degree 0, so no Koszul sign arises.  ``first`` or
    ``second`` None is the identity of its factor, as the shared
    ``Mat.identity``."""
    (lay, mu), (tlay, tmu) = (source.layout, source.map), (target.layout, target.map)
    x, y = lay.factors
    lhs = flat_map(outer), source.flat
    rhs = [target.flat]
    fields = [lay.field, tlay.field, outer.source.field]
    joins = [(outer.source, mu.target), (outer.target, tmu.target)]
    for factor, fed, f in ((x, tlay.factors[0], first), (y, tlay.factors[1], second)):
        if f is None:
            rhs.append(Mat.identity(lay.field, factor.total_dim()))
            joins.append((factor, fed))
        else:
            rhs.append(flat_map(f))
            fields.append(f.source.field)
            joins += [(f.source, factor), (f.target, fed)]
    if _vacuous([x, y], fields, joins):
        return None
    return first_defect([x, y], lhs[0] @ lhs[1], kron_product(*rhs))


def reorder_factors(m: Mat, dims: Sequence[int], perm: Sequence[int]) -> Mat:
    """m precomposed with the unsigned reordering of tensor factors: the
    columns of m are indexed row-major by the factors in the order ``perm``
    (position i holds factor perm[i], of size dims[perm[i]]); the result's
    columns are indexed row-major in the order 0, 1, ...  The Koszul sign is
    the caller's ``permutation_sign``."""
    return m.take_columns(_reordering(tuple(dims), tuple(perm)))


# One pass of the paper suite meets 100 (dims, perm) pairs and a deformation
# scenario pass 15, so 256 holds them all.
@lru_cache(maxsize=256)
def _reordering(dims: Tuple[int, ...], perm: Tuple[int, ...]) -> Tuple[int, ...]:
    """The column of m that ``reorder_factors`` puts at each position."""
    strides = [0] * len(dims)
    acc = 1
    for p in reversed(perm):
        strides[p] = acc
        acc *= dims[p]
    return tuple(sum(i * s for i, s in zip(multi, strides))
                 for multi in itertools.product(*map(range, dims)))


def swap_leading_factors(m: Mat, p: int, q: int) -> Mat:
    """m precomposed with the unsigned swap of the two leading tensor factors:
    the columns of m, indexed row-major by (j, i, k) with j < q and i < p,
    reordered to (i, j, k).  The Koszul sign is the caller's
    ``permutation_sign``."""
    rest = m.cols // (p * q) if p * q else 0
    return reorder_factors(m, (p, q, rest), (1, 0, 2))


def koszul_swap(m: Mat, first: Complex, second: Complex) -> Mat:
    """m precomposed with the signed swap a (x) b (x) k |-> (-1)^{|a||b|}
    b (x) a (x) k on the flat bases: the columns of m are row-major over
    (second, first, rest), those of the result over (first, second, rest)."""
    p, q = first.total_dim(), second.total_dim()
    out = swap_leading_factors(m, p, q)
    odd = _odd_columns(first.spaces.key, second.spaces.key, m.cols // (p * q) if p * q else 0)
    if not odd:
        return out
    return Mat(m.field, out.rows, out.cols, [[-x if j in odd else x for j, x in enumerate(row)] for row in out.entries])


# One set per pair of factor tables and trailing size; the bound matches ``tensor_shape``.
@lru_cache(maxsize=256)
def _odd_columns(first, second, rest: int) -> FrozenSet[int]:
    """The columns (a, b, k), row-major, of a ``koszul_swap`` with |a| and |b| odd."""
    q = sum(dim for _, dim in second)
    return frozenset((i * q + j) * rest + k for i, (da, _) in enumerate(flat_basis(first)) if da % 2
                     for j, (db, _) in enumerate(flat_basis(second)) if db % 2 for k in range(rest))


# -- actions on tensor factors, the balanced tensor and the retract transfer ----------
#
# An action is given by its blocks, as for the structure laws.  Every map out
# of a tensor of parts (plain complexes, plain tensors, balanced tensors and
# other retracts: direct sums, shifts, subcomplexes, quotients) into another
# part is written once on the flat degree tuples of their plain pieces and
# then transferred along the retracts (``lifted_map``): out o plain o kron(in).


class Action(NamedTuple):
    """The blocks of a degree-0 action: ``block(combo)`` is its matrix on the
    degree tuple ``combo`` of ``factors``, the acting factor first for a left
    action and last for a right one.  A stored action is a ``Pairing``,
    which answers the same two names; an ``Action`` is one computed from
    others."""

    factors: Tuple[Complex, Complex]
    block: Callable[[Tuple[int, int]], Mat]


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

    @property
    def pieces(self) -> Tuple["Piece", ...]:
        """Its one piece as a quotient of the plain tensor."""
        return quotient_retract(self.complex, self.projection, self.sections, self.layout).pieces


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


class Piece(NamedTuple):
    """One plain piece of a complex: degree d of the complex goes to degree
    d + ``shift`` of ``plain`` by ``inward[d]`` and comes back by
    ``outward[d]``; None is the identity and a missing degree is zero.
    ``sub`` marks a subcomplex of the plain complex that a map into the
    piece must land in: in each degree d it lists, the kernel of ``sub[d]``;
    that is checked."""

    plain: Union[Complex, "TensorLayout"]
    shift: int = 0
    inward: Optional[Dict[int, Mat]] = None
    outward: Optional[Dict[int, Mat]] = None
    sub: Optional[Dict[int, Mat]] = None


class Retract(NamedTuple):
    """``complex`` written through plain pieces, sum_i out_i o in_i = 1: a
    direct sum (per summand its projection in, its injection out), a shift
    (the identity, shifted), a subcomplex (inclusion in, a retraction out) or
    a quotient (section in, projection out).  A source part needs only
    ``inward``, which may be any degree-0 map into the plain piece."""

    complex: Complex
    pieces: Tuple[Piece, ...]


def sub_retract(sub: Complex, inclusion: ChainMap) -> Retract:
    """A subcomplex through its ambient, retracted by a left inverse of the
    inclusion computed once per degree.  In each degree of the ambient the
    subcomplex is the kernel of 1 - inclusion o retraction, or of 1 where it
    is zero."""
    amb, incl = inclusion.target, inclusion.components
    out = {d: left_inverse(m) for d, m in incl.items()}
    eye = {d: Mat.identity(amb.field, amb.dim(d)) for d in amb.degrees()}
    escape = {d: e - incl[d] @ out[d] if d in incl else e for d, e in eye.items()}
    return Retract(sub, (Piece(amb, 0, incl, out, escape),))


def h0_retract(report: "CohomologyReport") -> Retract:
    """H^0 of a complex in the report's representative basis, through the
    complex: in sends a class to its representative, out reads a cycle's
    class (``class_of`` as a matrix), and a map into it must land in the
    degree-0 cycles, the kernel of d^0."""
    cx, reps = report.complex, report.rep(0)
    inward, outward = {}, {}
    if reps.cols:
        inward[0] = reps
        outward[0] = left_inverse(reps.hstack(report.image(0))).take_rows(range(reps.cols))
    h0 = Complex(cx.field, {0: reps.cols}, {}, name=f"H0({cx.name})")
    return Retract(h0, (Piece(cx, 0, inward, outward, {0: cx.d[0]} if 0 in cx.d else None),))


def quotient_retract(quot: Complex, projection: ChainMap, sections: Dict[int, Mat],
                     plain: Optional[Union[Complex, "TensorLayout"]] = None) -> Retract:
    """A quotient through its ambient, or through ``plain``, the ambient as
    a tensor layout: lifted by the sections, projected back."""
    return Retract(quot, (Piece(projection.source if plain is None else plain, 0, sections,
                                projection.components),))


def through(f: ChainMap) -> Retract:
    """The source of a degree-0 chain map read through it: a source part
    whose one piece is the target, reached by ``f`` (restriction along a
    ring map, s |-> s . 1_a, an embedding)."""
    return Retract(f.source, (Piece(f.target, 0, f.components),))


# a plain complex or tensor, or a retract (a balanced tensor is a quotient retract)
Part = Union[Complex, "TensorLayout", Retract, BalancedTensor]


def _piece(part: Part, index: int) -> Piece:
    """Piece ``index`` of a retract; a plain part is its own piece at every index."""
    return Piece(part) if isinstance(part, (Complex, TensorLayout)) else part.pieces[index]


def _lifts(piece: Piece, deg: int):
    """(flat degree tuple, lift) for each plain block under degree ``deg``
    that the inward map reaches: a plain complex is one block, whose lift
    None is the identity; a plain tensor has the nonzero row blocks of the
    lift, one per degree tuple."""
    pdeg = deg + piece.shift
    lift = None
    if piece.inward is not None:
        lift = piece.inward.get(deg)
        if lift is None:
            return []
    if isinstance(piece.plain, Complex):
        return [((pdeg,), lift)]
    lay = piece.plain
    if lift is None:
        lift = Mat.identity(lay.field, lay.dim(pdeg))
    rows = [(combo, lift.take_rows(range(off, off + size))) for combo, off, size in lay.blocks(pdeg)]
    return [(combo, r) for combo, r in rows if not r.is_zero()]


def _lifted(flat: Mat, lifts) -> Mat:
    """flat @ kron(lifts), a None lift standing for the identity."""
    if len(lifts) == 1:
        return flat if lifts[0] is None else flat @ lifts[0]
    a, b = lifts
    if a is None and b is None:
        return flat
    if a is None:
        a = Mat.identity(flat.field, flat.cols // b.rows)
    elif b is None:
        b = Mat.identity(flat.field, flat.cols // a.rows)
    return kron_product(flat, a, b)


def lifted_block(parts: Sequence[Part], combo: Tuple[int, ...], flat_block, index: int = 0) -> Optional[Mat]:
    """The block on ``combo`` of the map out of the tensor of ``parts`` that is
    ``flat_block`` on the flat degree tuples of their pieces ``index``: the
    sum over the flat blocks under ``combo`` of flat_block(flat) @
    kron(lifts); None when all vanish."""
    pieces = [_piece(p, index) for p in parts]
    out = None
    for choice in itertools.product(*(_lifts(p, d) for p, d in zip(pieces, combo))):
        flat = flat_block(sum((c for c, _ in choice), ()))
        if flat is None:
            continue
        term = _lifted(flat, [lift for _, lift in choice])
        out = term if out is None else out + term
    return out


def _outward(piece: Piece, n: int, plain: Mat, rows: int) -> Optional[Mat]:
    """The out map, onto ``rows`` dimensions, of degree n of a target piece,
    None for the identity, for a map ``plain`` into the piece; into a
    subcomplex, checked once per block as sub[n] o plain == 0."""
    if piece.sub is not None and n in piece.sub and not (piece.sub[n] @ plain).is_zero():
        raise ValidationError(f"a map into a subcomplex leaves it in degree {n}")
    if piece.outward is None:
        return None
    return piece.outward.get(n, Mat.zero(plain.field, rows, plain.rows))


def _complex_of(part: Part) -> Complex:
    return part if isinstance(part, Complex) else part.complex


def lifted_map(parts: Sequence[Part], target: Part, plains: Sequence[Callable]) -> ChainMap:
    """The degree-0 chain map out of the tensor of one or two ``parts`` into
    ``target``: sum_i out_i o plain_i o kron(in_i) over the pieces i, where
    ``plains[i]`` is the plain map plain_i on the flat degree tuples.  The
    i-th pieces of the target and of every retract part belong together.
    ``plains[i](flat)`` has its rows in the i-th plain piece of the target
    at degree sum(flat) plus its shift, or is None for zero.  A map into a
    subcomplex is also checked in the degrees where the target is zero."""
    sources = [_complex_of(p) for p in parts]
    tcx = _complex_of(target)

    def block(combo):
        n = sum(combo)
        terms = [(i, lifted_block(parts, combo, plain, i)) for i, plain in enumerate(plains)]
        pairs = [(_outward(_piece(target, i), n, t, tcx.dim(n)), t) for i, t in terms if t is not None]
        if len(pairs) <= 1:
            return next((t if out is None else out @ t for out, t in pairs), None)
        # sum_i out_i o t_i as the one product [out_1 ... out_k] @ [t_1; ...; t_k]
        outs = [Mat.identity(t.field, t.rows) if out is None else out for out, t in pairs]
        return concat_columns(tcx.field, tcx.dim(n), outs) @ reduce(Mat.vstack, [t for _, t in pairs])

    checked = {n for i in range(len(plains)) for n in _piece(target, i).sub or ()}
    if len(parts) == 1:
        comps = {d: block((d,)) for d in sources[0].degrees() if tcx.dim(d) or d in checked}
        return ChainMap(sources[0], tcx, 0, {d: m for d, m in comps.items() if m is not None})
    lay = TensorLayout(sources)
    for n in lay.dims():
        if n in checked and not tcx.dim(n):
            for combo, _, _ in lay.blocks(n):
                block(combo)
    return lay.map_from_blocks(tcx, 0, block)


# -- hom layout -------------------------------------------------------------------


def dual_complex(cx: Complex) -> Complex:
    """The graded dual c^: degree -i is (c^i)^*, with d^{-i} = (-1)^(i+1)
    (d^{i-1})^t, the sign that makes d (x) c^ the hom complex Hom(c, d)."""
    diffs = {-i - 1: mat.transpose() if i % 2 == 0 else -mat.transpose() for i, mat in cx.d.items()}
    return Complex(cx.field, {-i: dim for i, dim in cx.spaces.dims.items()}, diffs, name=f"{cx.name}^")


class HomLayout:
    """The hom-complex Hom(source, target) as the tensor target (x) source^.

    Degree-n blocks are the tensor blocks (i + n, -i), indexed by the source
    degree i (ascending); inside a block, the matrix entry (row r of
    target^{i+n}, column t of source^i) sits row-major at r * dim(source^i) + t.
    """

    __slots__ = ("source", "target", "field", "tensor")

    def __init__(self, source: Complex, target: Complex):
        self.source = source
        self.target = target
        self.tensor = TensorLayout([target, dual_complex(source)])
        self.field = self.tensor.field

    def dims(self) -> Dict[int, int]:
        return self.tensor.dims()

    def blocks(self, n: int) -> List[Tuple[int, int, int]]:
        return [(-k, off, size) for (_, k), off, size in self.tensor.blocks(n)]

    def block_offset(self, n: int, i: int) -> Tuple[int, int]:
        try:
            return self.tensor.shape.offsets[(i + n, -i)]
        except KeyError:
            raise ShapeError(f"no hom block at source degree {i}, map degree {n}") from None

    @property
    def complex(self) -> Complex:
        return self.tensor.complex

    # -- converting between vectors and map families ---------------------------

    def family_from_vector(self, n: int, vec: Mat) -> Dict[int, Mat]:
        """Raw per-degree matrices of an element of hom^n (not necessarily closed):
        each block of the column, reshaped row-major."""
        col = [row[0] for row in vec.entries]
        fam = {}
        for i, off, size in self.blocks(n):
            sdim = self.source.dim(i)
            fam[i] = Mat._wrap(self.field, self.target.dim(i + n), sdim,
                               tuple(tuple(col[r:r + sdim]) for r in range(off, off + size, sdim)))
        return fam

    def chainmap_from_cocycle(self, n: int, vec: Mat) -> ChainMap:
        fam = self.family_from_vector(n, vec)
        return ChainMap(self.source, self.target, n, fam)


def hom_complex(c: Complex, d: Complex) -> HomLayout:
    return HomLayout(c, d)


def hom_postcompose(source: Complex, f: ChainMap) -> ChainMap:
    """Hom(source, f): phi |-> f o phi for a degree-0 f, the block
    kron(f, 1) on each hom block."""
    src, tgt = hom_complex(source, f.source), hom_complex(source, f.target)
    comps = {}
    for n in src.dims():
        rows = {i: k for k, (i, _, _) in enumerate(tgt.blocks(n))}
        comps[n] = block_matrix(src.field, [size for _, _, size in tgt.blocks(n)],
                                [size for _, _, size in src.blocks(n)],
                                {(rows[i], k): kron(f.component(i + n), Mat.identity(src.field, source.dim(i)))
                                 for k, (i, _, _) in enumerate(src.blocks(n)) if i in rows})
    return ChainMap(src.complex, tgt.complex, 0, comps)


# -- maps between the ambients of Hom systems ---------------------------------------
#
# A Hom system (a HomSystem: a ModuleHomComplex or BimoduleHomComplex) has
# ``layouts``, one HomLayout per slot, and ``ambient``, the direct sum of their
# complexes in that order.  Its complex is a subcomplex of the ambient, which
# ``HomSystem.retract`` reads off the echelon forms of the constraints; an action
# on it is one ``slotwise_action`` block on the ambient per degree tuple.


def slotwise_action(src, tgt, acting: Complex, flat, source_degree, act_block, left: bool) -> Mat:
    """The flat block on flat = (dh, m) of h (x) phi |-> L_h o phi (``left``)
    or phi o R_h, h in ``acting``, from degree m of the ambient of ``src`` to
    degree m + dh of that of ``tgt``: in each slot x it sends the hom block of
    source degree source_degree(i) to that of source degree i by kron(L_h, 1)
    or kron(1, R_h^t), as vec(L X R) = kron(L, R^t) vec(X), where
    act_block(x, i) holds the L_h or R_h of the basis elements h side by
    side.  Its columns run row-major over (h, ambient), all h in one pass."""
    (dh, m), count, field = flat, acting.dim(flat[0]), src.ambient.field
    cols, col_of = [], {}
    for x, lay in src.layouts.items():
        for j, _, size in lay.blocks(m):
            col_of[(x, j)] = len(cols)
            cols.append(size)
    rows, placed = [], {}
    for x, lay in tgt.layouts.items():
        for i, _, size in lay.blocks(m + dh):
            col = col_of.get((x, source_degree(i)))
            if col is not None:
                lam = act_block(x, i)
                width = lam.cols // count
                eye = Mat.identity(field, lay.source.dim(i) if left else lay.target.dim(i + m + dh))
                for k in range(count):
                    part = lam.take_columns(range(k * width, (k + 1) * width))
                    placed[(len(rows), k * len(cols) + col)] = kron(part, eye) if left else kron(eye, part.transpose())
            rows.append(size)
    return block_matrix(field, rows, cols * count, placed)


def postcomposition(src, tgt, acting: Complex, act_block) -> Callable:
    """The flat blocks of h (x) phi |-> L_h o phi, slot by slot from the
    ambient of ``src`` to that of ``tgt``, for h in ``acting``:
    act_block(x, dh, j) is the block of h (x) y |-> L_h(y) on the degree-j
    target of slot x, columns row-major over (h, y)."""
    return lambda flat: slotwise_action(src, tgt, acting, flat, lambda i: i,
                                        lambda x, i: act_block(x, flat[0], i + flat[1]), True)
