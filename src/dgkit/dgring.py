"""Finitely based graded-commutative dg-rings, morphisms, ideals, quotients,
the dual-numbers family, and the deformation-setup assumption checker.

A ring is presented by a flat basis list (one degree per basis element, all
degrees <= 0), a unit vector in degree 0, and a multiplication tensor given
as a chain map out of the graded tensor square.  The chain-map property of
that tensor *is* the Leibniz rule, so it is enforced by construction; unit,
associativity and graded commutativity are checked on the whole pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Sequence

from .complexes import (
    ChainMap,
    Complex,
    Pairing,
    TensorLayout,
    associativity_defect,
    first_defect,
    flat_basis,
    flat_map,
    koszul_swap,
    lifted_map,
    morphism_defect,
    quotient_complex,
    quotient_retract,
    subcomplex,
    unit_defect,
)
from .errors import ValidationError
from .fields import Field
from .matrix import Mat, kron_product
from .verdict import CERTIFIED, FAILED, UNCHECKED, Verdict


class DgRing:
    """Graded-commutative dg-ring strictly concentrated in nonpositive degrees."""

    def __init__(self, underlying: Complex, unit: Mat, mult: ChainMap,
                 name: str = "R", check: bool = True):
        self.underlying = underlying
        self.unit = unit
        self.name = name
        self.field = underlying.field
        self.product = Pairing(TensorLayout([underlying, underlying]), mult, underlying, f"{name}: product")
        # the product must also be a chain map out of R@R itself: that is the Leibniz rule
        if mult.source != self.product.layout.complex or mult.target != underlying:
            raise ValidationError(f"{name}: multiplication must be a degree-0 map R@R -> R")
        if check:
            self._check()

    # -- basic access ---------------------------------------------------------

    def dim(self, deg: int) -> int:
        return self.underlying.dim(deg)

    def degrees(self) -> List[int]:
        return self.underlying.degrees()

    def total_dim(self) -> int:
        return self.underlying.total_dim()

    def basis(self):
        return iter(flat_basis(self.underlying.spaces.key))

    def basis_vector(self, deg: int, i: int) -> Mat:
        return Mat.basis_column(self.field, self.dim(deg), i)

    def label(self, deg: int, i: int) -> str:
        return self.underlying.spaces.label(deg, i)

    def mul(self, dx: int, x: Mat, dy: int, y: Mat) -> Mat:
        """Product of two homogeneous elements; returns a vector in degree dx+dy."""
        return self.product.apply(dx, x, dy, y)

    def mul_basis(self, dx: int, i: int, dy: int, j: int) -> Mat:
        return self.mul(dx, self.basis_vector(dx, i), dy, self.basis_vector(dy, j))

    # -- invariants -----------------------------------------------------------

    def _check(self):
        name = self.name
        if any(d > 0 for d in self.degrees()):
            raise ValidationError(f"{name}: ring has positive-degree elements")
        if self.dim(0) == 0:
            raise ValidationError(f"{name}: no degree-0 component to hold the unit")
        if (self.unit.rows, self.unit.cols) != (self.dim(0), 1) or self.unit.is_zero():
            raise ValidationError(f"{name}: unit must be a nonzero degree-0 vector")
        if not (self.underlying.diff(0) @ self.unit).is_zero():
            raise ValidationError(f"{name}: unit is not closed")
        mu = self.product
        for slot, side in ((0, "left"), (1, "right")):
            defect = unit_defect(mu, self.unit, slot)
            if defect is not None:
                raise ValidationError(f"{name}: {side} unit fails on basis element {self.label(*defect)}")
        flat = mu.flat
        for law, defect in (("graded commutativity", first_defect(mu.factors, flat, koszul_swap(flat, *mu.factors))),
                            ("associativity", associativity_defect(mu, mu, mu, mu))):
            if defect is not None:
                labels = ", ".join(self.label(d, i) for d, i in zip(*defect))
                raise ValidationError(f"{name}: {law} fails on ({labels})")
        # Leibniz holds automatically: mult is a chain map out of the tensor
        # square, whose differential carries the Koszul sign.

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_table(field: Field, basis_degrees: Sequence[int], labels: Sequence[str],
                   unit_index: int, mult_table, differential=None, name: str = "R") -> "DgRing":
        """Ring from a flat basis: ``mult_table(i, j) -> {k: coeff}`` with
        matching degrees; ``differential`` likewise maps i -> {k: coeff}."""
        degs = list(basis_degrees)
        by_degree: Dict[int, List[int]] = {}
        for idx, d in enumerate(degs):
            by_degree.setdefault(d, []).append(idx)
        dims = {d: len(ix) for d, ix in by_degree.items()}
        position = {}
        for d, ix in by_degree.items():
            for p, idx in enumerate(ix):
                position[idx] = (d, p)
        lab = {d: tuple(labels[i] for i in ix) for d, ix in by_degree.items()}
        diffs: Dict[int, List[List]] = {}
        if differential:
            for i, image in differential.items():
                di, pi = position[i]
                rows = dims.get(di + 1, 0)
                if rows == 0:
                    if image:
                        raise ValidationError(f"{name}: differential of {labels[i]} lands in empty degree")
                    continue
                grid = diffs.setdefault(di, [[0] * dims[di] for _ in range(rows)])
                for k, coeff in image.items():
                    dk, pk = position[k]
                    if dk != di + 1:
                        raise ValidationError(f"{name}: differential of {labels[i]} has wrong degree")
                    grid[pk][pi] += coeff
        diff_mats = {d: Mat(field, dims[d + 1], dims[d], g) for d, g in diffs.items()}
        cx = Complex(field, dims, diff_mats, labels=lab, name=name)
        du, pu = position[unit_index]
        if du != 0:
            raise ValidationError(f"{name}: unit must sit in degree 0")
        unit = Mat.basis_column(field, dims[0], pu)
        # checked here: the blocks below skip a degree with no basis, and would drop an entry there
        products = {(i, j): mult_table(i, j) for i in range(len(degs)) for j in range(len(degs))}
        for (i, j), image in products.items():
            if any(position[k][0] != degs[i] + degs[j] for k in image):
                raise ValidationError(f"{name}: product {labels[i]}*{labels[j]} has wrong degree")

        def block(combo):
            # one column per pair of basis elements of degrees d1, d2, row-major
            d1, d2 = combo
            pairs = list(itertools.product(by_degree[d1], by_degree[d2]))
            grid = [[0] * len(pairs) for _ in range(cx.dim(d1 + d2))]
            for col, pair in enumerate(pairs):
                for k, coeff in products[pair].items():
                    grid[position[k][1]][col] += coeff
            return Mat(field, len(grid), len(pairs), grid)

        return DgRing(cx, unit, TensorLayout([cx, cx]).map_from_blocks(cx, 0, block), name=name)

    @staticmethod
    def ground_field(field: Field) -> "DgRing":
        return DgRing.from_table(field, [0], ["1"], 0, lambda i, j: {0: 1}, name="k")

    def is_ground_field(self) -> bool:
        return self.total_dim() == 1

    def __eq__(self, other):
        if not isinstance(other, DgRing):
            return NotImplemented
        return (self.underlying == other.underlying and self.unit == other.unit
                and self.product.map == other.product.map)

    def __hash__(self):
        return hash((self.field, self.underlying.spaces.key))


class DgRingMorphism:
    """Unital multiplicative chain map of dg-rings."""

    def __init__(self, source: DgRing, target: DgRing, chain_map: ChainMap,
                 name: str = "theta", check: bool = True):
        self.source = source
        self.target = target
        self.map = chain_map
        self.name = name
        if chain_map.source != source.underlying or chain_map.target != target.underlying:
            raise ValidationError(f"{name}: morphism endpoints do not match the rings")
        if chain_map.degree != 0:
            raise ValidationError(f"{name}: ring morphisms have degree 0")
        if check:
            self._check()

    def _check(self):
        if self.map.component(0) @ self.source.unit != self.target.unit:
            raise ValidationError(f"{self.name}: morphism is not unital")
        src, tgt = self.source, self.target
        defect = morphism_defect(src.product, tgt.product, self.map, self.map, self.map)
        if defect is not None:
            labels = ", ".join(src.label(d, i) for d, i in zip(*defect))
            raise ValidationError(f"{self.name}: morphism not multiplicative on ({labels})")

    def apply(self, deg: int, vec: Mat) -> Mat:
        return self.map.component(deg) @ vec

    def surjectivity_by_degree(self) -> Dict[int, bool]:
        out = {}
        for deg in self.target.degrees():
            out[deg] = self.map.component(deg).rank() == self.target.dim(deg)
        return out

    def kernel_ideal(self) -> "DgIdeal":
        cols = {}
        for deg in self.source.degrees():
            ker = self.map.component(deg).kernel_basis()
            if ker.cols:
                cols[deg] = ker
        sub, incl = subcomplex(self.source.underlying, cols, name=f"ker({self.name})")
        return DgIdeal(self.source, incl, name=f"ker({self.name})")

    def compose(self, other: "DgRingMorphism") -> "DgRingMorphism":
        """self o other (other first)."""
        return DgRingMorphism(other.source, self.target, self.map.compose(other.map),
                              name=f"{self.name}o{other.name}", check=False)

    @staticmethod
    def identity(ring: DgRing) -> "DgRingMorphism":
        return DgRingMorphism(ring, ring, ChainMap.identity(ring.underlying),
                              name=f"id_{ring.name}", check=False)


class DgIdeal:
    """Sub-dg-module of the ring closed under multiplication, given by inclusion."""

    def __init__(self, ambient: DgRing, inclusion: ChainMap, name: str = "I", check: bool = True):
        self.ambient = ambient
        self.inclusion = inclusion
        self.sub = inclusion.source
        self.name = name
        if inclusion.target != ambient.underlying:
            raise ValidationError(f"{name}: inclusion does not land in the ambient ring")
        if check:
            self._check()

    def _check(self):
        amb = self.ambient
        for deg in self.sub.degrees():
            cols = self.inclusion.component(deg)
            if cols.rank() != cols.cols:
                raise ValidationError(f"{self.name}: inclusion not injective in degree {deg}")
        # closure under the ring action: every product r x of a ring basis
        # element with an ideal basis element lies in the ideal
        span = flat_map(self.inclusion)
        prods = kron_product(amb.product.flat, Mat.identity(amb.field, amb.total_dim()), span)
        if span.hstack(prods).rank() > span.rank():
            pairs = list(itertools.product(amb.basis(), flat_basis(self.sub.spaces.key)))
            (dr, i), _ = min((pairs[c] for c in range(prods.cols) if span.hstack(prods.col(c)).rank() > span.rank()),
                             key=lambda pair: (pair[0][0], pair[1][0], pair[0][1], pair[1][1]))
            raise ValidationError(f"{self.name}: not closed under multiplication by {amb.label(dr, i)}")

    def dim(self, deg: int) -> int:
        return self.sub.dim(deg)

    def is_zero(self) -> bool:
        return self.sub.total_dim() == 0

    def column_span(self, deg: int) -> Mat:
        return self.inclusion.component(deg)

    def squares_to_zero(self) -> bool:
        span = flat_map(self.inclusion)
        return kron_product(self.ambient.product.flat, span, span).is_zero()

    @staticmethod
    def zero(ring: DgRing) -> "DgIdeal":
        sub = Complex.zero(ring.field)
        incl = ChainMap(sub, ring.underlying, 0, {}, check=False)
        return DgIdeal(ring, incl, name="0")


# -- operations -----------------------------------------------------------------


def make_dual_numbers(n: int, eps_degree: int, field: Field):
    """k[e]/(e^n) with |e| = eps_degree <= 0 and zero differential, together
    with the augmentation onto the ground field.

    For odd eps_degree away from characteristic 2, graded commutativity forces
    e^2 = 0, so n must be 2; other combinations are rejected.
    """
    if n < 2:
        raise ValidationError("dual-numbers family needs n >= 2")
    if eps_degree > 0:
        raise ValidationError("eps must sit in nonpositive degree")
    if eps_degree % 2 and field.char != 2 and n > 2:
        raise ValidationError(
            "odd-degree eps squares to zero by graded commutativity outside characteristic 2; "
            f"n={n} > 2 is inconsistent (use even eps_degree or n=2)")
    degrees = [eps_degree * j for j in range(n)]
    labels = ["1"] + [("e" if j == 1 else f"e^{j}") for j in range(1, n)]

    def mult(i, j):
        if i + j < n:
            return {i + j: 1}
        return {}

    ring = DgRing.from_table(field, degrees, labels, 0, mult, name=f"k[e]/(e^{n})")
    ground = DgRing.ground_field(field)
    comps = {}
    zero_deg_dim = ring.dim(0)
    row = [0] * zero_deg_dim
    # coefficient of the unit basis vector
    for i, v in enumerate(ring.unit.column_values(0)):
        if v:
            row[i] = field.inv(v)
            break
    comps[0] = Mat(field, 1, zero_deg_dim, [row])
    aug = DgRingMorphism(ring, ground, ChainMap(ring.underlying, ground.underlying, 0, comps),
                         name="aug")
    return ring, aug


def ideal_power(ideal: DgIdeal, k: int) -> DgIdeal:
    """Span of k-fold products of ideal elements."""
    if k < 1:
        raise ValidationError("ideal powers need k >= 1")
    return next(itertools.islice(ideal_powers(ideal), k - 1, None))


def ideal_powers(ideal: DgIdeal) -> Iterator[DgIdeal]:
    """I, I^2, I^3, ...: each power formed once, as the products of the one
    before with I."""
    power = ideal
    for k in itertools.count(2):
        yield power
        power = _next_power(power, ideal, k)


def _next_power(prev: DgIdeal, ideal: DgIdeal, k: int) -> DgIdeal:
    """I^k from I^(k-1).  ``ideal`` must be a checked ``DgIdeal``: it is
    closed under the ring action and the ring is associative, so r(xy) =
    (rx)y keeps the span closed with no saturation."""
    amb = ideal.ambient
    # The nonzero products x_i y_j of the bases of I^(k-1) and I, one degree
    # pair at a time, in the order of a loop over (dx, i, dy, j): a degree's
    # columns run by dx, i, j, which fixes the ones image_basis keeps, and the
    # degrees come in the order of their first product.
    spans: Dict[int, List] = {}
    first = {}
    for dx in prev.sub.degrees():
        for dy in ideal.sub.degrees():
            prods = kron_product(amb.product.block((dx, dy)), prev.column_span(dx), ideal.column_span(dy))
            nonzero = [(c, col) for c, col in enumerate(zip(*prods.entries)) if any(col)]
            if nonzero:
                spans.setdefault(dx + dy, []).extend(col for _, col in nonzero)
                # dx ascends, so a degree's first pair holds its first product
                first.setdefault(dx + dy, (dx, *divmod(nonzero[0][0], ideal.dim(dy)), dy))
    cols = {deg: Mat.from_columns(amb.field, amb.dim(deg), spans[deg]).image_basis()
            for deg in sorted(spans, key=first.get)}
    if not cols:
        return DgIdeal.zero(amb)
    sub, incl = subcomplex(amb.underlying, cols, name=f"{ideal.name}^{k}")
    return DgIdeal(amb, incl, name=f"{ideal.name}^{k}")


def quotient(ring: DgRing, ideal: DgIdeal):
    """Quotient dg-ring and the strictly surjective projection morphism."""
    if ideal.is_zero():
        return ring, DgRingMorphism.identity(ring)
    killed = {deg: ideal.column_span(deg) for deg in ideal.sub.degrees()}
    quot, proj, sections = quotient_complex(ring.underlying, killed, name=f"{ring.name}/{ideal.name}")
    # well-definedness of the induced product: I * R and R * I land in I
    span, eye = flat_map(ideal.inclusion), Mat.identity(ring.field, ring.total_dim())
    mult = ring.product.flat
    if span.hstack(kron_product(mult, span, eye)).hstack(kron_product(mult, eye, span)).rank() > span.rank():
        raise ValidationError("quotient multiplication not well defined")
    unit_q = proj.component(0) @ ring.unit
    # [x][y] = [xy], read through the sections and the projection
    classes = quotient_retract(quot, proj, sections)
    mult_q = lifted_map([classes, classes], classes, [ring.product.block])
    qring = DgRing(quot, unit_q, mult_q, name=f"{ring.name}/{ideal.name}")
    morphism = DgRingMorphism(ring, qring, proj, name=f"proj_{ideal.name}")
    return qring, morphism


@dataclass
class AssumptionReport:
    """Verdicts for the deformation-setup conditions on a ring surjection."""

    morphism: str
    strictly_surjective: Dict[int, bool]
    surjective: Verdict
    source_H: Dict[int, int]
    target_H: Dict[int, int]
    homotopically_coherent: Verdict
    target_hfp_over_source: Verdict
    nilpotency_order: Optional[int]
    cohomologically_nilpotent: Verdict
    power_H: Dict[int, Dict[int, int]]
    powers_hfp: Verdict
    kernel_powers: List[DgIdeal] = dc_field(repr=False)  # the kernel I, then I^2, ... as formed


# hfp asks for cohomology finitely presented over H^0 in the derived sense;
# the package computes only dimensions, which do not decide it
HFP_UNCHECKED = Verdict(UNCHECKED, "hfp is not decided: only cohomology dimensions are computed")


def check_setup_assumptions(theta: DgRingMorphism) -> AssumptionReport:
    """Verdicts for strict surjectivity, coherence, hfp of the target, the
    least power with acyclic kernel power, and hfp of the lower powers.

    Failed assumptions are verdicts in the report, not errors.
    """
    surj = theta.surjectivity_by_degree()
    missed = sorted(d for d, ok in surj.items() if not ok)
    ideal = theta.kernel_ideal()
    order = None
    nilpotent = Verdict(CERTIFIED, "the kernel is zero")
    power_h: Dict[int, Dict[int, int]] = {}
    powers: List[DgIdeal] = []
    if ideal.is_zero():
        order, powers = 1, [ideal]
    else:
        prev_dims = None
        # the powers are nested, so equal dimensions mean they stay constant: within dim I + 1 steps
        for k, power in enumerate(ideal_powers(ideal), 1):
            powers.append(power)
            h = power.sub.cohomology().as_dict()
            if not h:
                order = k
                nilpotent = Verdict(CERTIFIED, f"the kernel's power {k} is acyclic")
                break
            power_h[k] = h
            dims = {d: power.dim(d) for d in power.sub.degrees()}
            if dims == prev_dims:
                nilpotent = Verdict(FAILED, f"kernel powers stabilized at k={k} with nonvanishing cohomology")
                break
            prev_dims = dims
    return AssumptionReport(
        morphism=theta.name,
        strictly_surjective=surj,
        surjective=Verdict.of(not missed, f"not surjective in degrees {missed}" if missed
                              else "surjective in every degree"),
        source_H=theta.source.underlying.cohomology().as_dict(),
        target_H=theta.target.underlying.cohomology().as_dict(),
        homotopically_coherent=Verdict(CERTIFIED, "H^0 finite-dimensional => Noetherian => coherent"),
        target_hfp_over_source=HFP_UNCHECKED,
        nilpotency_order=order,
        cohomologically_nilpotent=nilpotent,
        power_H=power_h,
        powers_hfp=HFP_UNCHECKED,
        kernel_powers=powers,
    )
