"""Complexes: cohomology, truncations, cones, hom/tensor calculus, signs."""

import functools
import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from dgkit.errors import ShapeError, ValidationError
from dgkit.fields import GF, QQ
from dgkit.instances import random_cocycle, random_complex, small_random_category, unit_functional
from dgkit import complexes
from dgkit.matrix import Mat, extend_columns_to_basis, invert, kron
from dgkit.complexes import (
    ChainMap,
    Complex,
    Equation,
    GradedSpace,
    HomSystem,
    Pairing,
    TensorLayout,
    Term,
    cone_complex,
    cone_retract,
    direct_sum,
    flat_map,
    hom_complex,
    koszul_swap,
    reorder_factors,
    shift_complex,
    swap_leading_factors,
    swapped,
    truncate_ge,
    truncate_le,
)

from hom_calculus import composition_map, evaluation_map, random_chain_map, vector_from_chainmap


def two_term_identity(field=QQ, deg=0):
    return Complex(field, {deg: 1, deg + 1: 1}, {deg: Mat.identity(field, 1)})


def oracle_cohomology_dims(cx):
    """Independent computation: ranks via transpose elimination only."""
    dims = {}
    for i in cx.degrees():
        rk_i = cx.diff(i).transpose().rank()
        rk_prev = cx.diff(i - 1).transpose().rank()
        dims[i] = cx.dim(i) - rk_i - rk_prev
    return {d: v for d, v in dims.items() if v}


def test_a_negative_dimension_is_rejected():
    with pytest.raises(ValidationError, match="negative dimension -1 in degree 2"):
        GradedSpace({0: 1, 2: -1})


def test_a_differential_into_a_zero_space_is_rejected():
    # degree 1 has no basis, so a nonzero d^0 has nowhere to go
    with pytest.raises(ValidationError, match="differential at degree 0 hits a zero space"):
        Complex(QQ, {0: 1}, {0: Mat(QQ, 1, 1, [[1]])})
    # a zero matrix there is the zero differential
    assert not Complex(QQ, {0: 1}, {0: Mat.zero(QQ, 1, 1)}).d


def test_d_squared_enforced():
    bad = Mat.identity(QQ, 1)
    with pytest.raises(ValidationError):
        Complex(QQ, {0: 1, 1: 1, 2: 1}, {0: bad, 1: bad})


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_chain_map_checks_the_side_opposite_an_absent_factor(field):
    one = Mat.identity(field, 1)
    point = Complex(field, {0: 1}, {})
    arrow = Complex(field, {0: 1, 1: 1}, {0: one})
    top = Complex(field, {1: 1}, {})
    # d f != 0 while f d vanishes for want of a differential, and the mirror
    with pytest.raises(ValidationError):
        ChainMap(point, arrow, 0, {0: one})
    with pytest.raises(ValidationError):
        ChainMap(arrow, top, 0, {1: one})
    # both sides structurally absent, or both present and equal up to sign
    ChainMap(arrow, point, 0, {0: one})
    ChainMap(arrow, arrow, 0, {0: one, 1: one})


def test_zero_complex_cohomology():
    assert Complex.zero(QQ).cohomology().as_dict() == {}


def test_two_term_acyclic():
    c = two_term_identity()
    assert c.cohomology().as_dict() == {}


def test_cohomology_matches_transpose_rank_oracle():
    rng = random.Random(7)
    for _ in range(12):
        cx, hdims = random_complex(rng, QQ, pieces=6)
        assert cx.cohomology().as_dict() == hdims
        assert oracle_cohomology_dims(cx) == hdims


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_cohomology_at_makes_the_reports_choice_in_every_degree(field):
    # a resolution reads single degrees and must choose the representatives
    # the full report chooses, also where the complex is zero
    rng = random.Random(29)
    for _ in range(12):
        cx, hdims = random_complex(rng, field, pieces=6)
        report = cx.cohomology()
        for d in range(cx.min_degree() - 2, cx.max_degree() + 3):
            reps, image = complexes.cohomology_at(cx, d)
            assert reps == report.rep(d)
            assert image == report.image(d)
            assert reps.cols == report.dim(d) == hdims.get(d, 0)
            # cocycles, independent modulo the image of d
            assert (cx.diff(d) @ reps).is_zero()
            assert image.hstack(reps).rank() == image.cols + reps.cols == image.rank() + reps.cols


def test_truncate_le_forced_zero():
    c = two_term_identity()
    t, incl = truncate_le(c, 0)
    assert t.total_dim() == 0


def test_truncate_below_window_identity():
    c = Complex(QQ, {-2: 3}, {})
    t, incl = truncate_le(c, 0)
    assert t == c


def test_truncations_preserve_cohomology():
    rng = random.Random(11)
    for _ in range(10):
        cx, _ = random_complex(rng, QQ, pieces=6)
        n = rng.randint(-3, 2)
        t, incl = truncate_le(cx, n)
        full = cx.cohomology().as_dict()
        trunc = t.cohomology().as_dict()
        for d, v in full.items():
            if d <= n:
                assert trunc.get(d, 0) == v
        assert all(d <= n for d in trunc)
        g, proj = truncate_ge(cx, n)
        gh = g.cohomology().as_dict()
        for d, v in full.items():
            if d >= n:
                assert gh.get(d, 0) == v
        assert all(d >= n for d in gh)


def test_truncations_commute_on_cohomology():
    rng = random.Random(13)
    for _ in range(6):
        cx, _ = random_complex(rng, GF(7), pieces=5)
        le, _ = truncate_le(cx, 1)
        both, _ = truncate_ge(le, -1)
        expect = {d: v for d, v in cx.cohomology().as_dict().items() if -1 <= d <= 1}
        assert both.cohomology().as_dict() == expect


def test_cone_of_identity_acyclic():
    rng = random.Random(17)
    cx, _ = random_complex(rng, QQ, pieces=5)
    c = cone_complex(ChainMap.identity(cx))
    assert c.is_acyclic()


def test_cone_of_zero_splits():
    rng = random.Random(19)
    src, _ = random_complex(rng, QQ, pieces=4)
    tgt, _ = random_complex(rng, QQ, pieces=4)
    c = cone_complex(ChainMap.zero_map(src, tgt))
    expect = {}
    for d, v in tgt.cohomology().as_dict().items():
        expect[d] = expect.get(d, 0) + v
    for d, v in src.cohomology().as_dict().items():
        expect[d - 1] = expect.get(d - 1, 0) + v
    assert c.cohomology().as_dict() == {d: v for d, v in expect.items() if v}


def test_cone_long_exact_sequence_ranks():
    rng = random.Random(23)
    for _ in range(8):
        src, _ = random_complex(rng, QQ, pieces=4)
        tgt, _ = random_complex(rng, QQ, pieces=4)
        f = random_chain_map(rng, src, tgt)
        # the triangle tgt -> cone -> src[1], from the cone's two pieces as cone_module builds it
        cone = cone_retract(f)
        c, (target, source) = cone.complex, cone.pieces
        incl = ChainMap(tgt, c, 0, target.outward)
        proj = ChainMap(c, shift_complex(src, 1), 0, source.inward)
        hs, ht, hc = src.cohomology(), tgt.cohomology(), c.cohomology()
        for i in set(list(hs.dims) + list(ht.dims) + list(hc.dims)):
            rank_hf = f.cohomology_map(i).rank()
            rank_hincl = incl.cohomology_map(i).rank()
            # exactness at target: ker(H(incl)) = im(H(f))
            assert ht.dim(i) - rank_hincl == rank_hf
        # exactness everywhere: Euler characteristic of the triangle vanishes
        degrees = sorted(set(list(hs.dims) + list(ht.dims) + list(hc.dims)))
        for i in degrees:
            rank_proj = proj.cohomology_map(i).rank()
            rank_incl = incl.cohomology_map(i).rank()
            assert hc.dim(i) == rank_incl + rank_proj


def test_quasi_iso_of_truncation_inclusion():
    rng = random.Random(29)
    for _ in range(6):
        cx, _ = random_complex(rng, QQ, pieces=5)
        top = max(cx.cohomology().support(), default=0)
        t, incl = truncate_le(cx, top)
        assert incl.is_quasi_iso()


def test_quasi_isos_compose():
    rng = random.Random(31)
    for _ in range(6):
        cx, _ = random_complex(rng, QQ, pieces=4)
        t1, i1 = truncate_le(cx, (cx.max_degree() or 0) + 1)
        t2, i2 = truncate_le(t1, (t1.max_degree() or 0) + 1)
        comp = i1.compose(i2)
        assert i1.is_quasi_iso() and i2.is_quasi_iso() and comp.is_quasi_iso()


def test_quasi_iso_is_asked_of_degree_0_maps_only(field):
    # the identity of k, read as a map k -> k[-1] of degree 1: iso on cohomology,
    # but a quasi-isomorphism is a degree-0 notion, decided by its cone
    shifted = ChainMap(Complex(field, {0: 1}, {}), Complex(field, {1: 1}, {}), 1, {0: Mat.identity(field, 1)})
    with pytest.raises(ValidationError, match="cone requires a degree-0 chain map"):
        shifted.is_quasi_iso()


def test_hom_complex_unit():
    rng = random.Random(37)
    d, _ = random_complex(rng, QQ, pieces=4)
    unit = Complex(QQ, {0: 1}, {})
    h = hom_complex(unit, d)
    assert h.complex.cohomology().as_dict() == d.cohomology().as_dict()
    assert {n: h.complex.dim(n) for n in h.complex.degrees()} == \
        {n: d.dim(n) for n in d.degrees()}


def test_tensor_unit():
    rng = random.Random(41)
    c, _ = random_complex(rng, QQ, pieces=4)
    unit = Complex(QQ, {0: 1}, {})
    lay = TensorLayout([c, unit])
    assert {n: lay.complex.dim(n) for n in lay.complex.degrees()} == \
        {n: c.dim(n) for n in c.degrees()}
    assert lay.complex.cohomology().as_dict() == c.cohomology().as_dict()


def test_tensor_kunneth_dims():
    rng = random.Random(43)
    for _ in range(5):
        a, ha = random_complex(rng, QQ, pieces=3)
        b, hb = random_complex(rng, QQ, pieces=3)
        lay = TensorLayout([a, b])
        expect = {}
        for i, u in ha.items():
            for j, v in hb.items():
                expect[i + j] = expect.get(i + j, 0) + u * v
        assert lay.complex.cohomology().as_dict() == {d: v for d, v in expect.items() if v}


def reference_blocks(factors):
    """The linear-scan bookkeeping the interned shape replaces: per degree,
    the (degree tuple, offset, size) of every nonzero block in lexicographic
    order, offsets accumulated."""
    grouped = {}
    for combo in itertools.product(*[c.degrees() for c in factors]):
        size = prod(c.dim(d) for c, d in zip(factors, combo))
        if size:
            grouped.setdefault(sum(combo), []).append((combo, size))
    out = {}
    for n, lst in grouped.items():
        off, out[n] = 0, []
        for combo, size in sorted(lst):
            out[n].append((combo, off, size))
            off += size
    return out


dimension_tables = st.lists(st.dictionaries(st.integers(-3, 2), st.integers(0, 3), max_size=4),
                            min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(dimension_tables)
def test_tensor_shape_matches_linear_scan(tables):
    factors = [Complex(QQ, dims, {}) for dims in tables]
    lay = TensorLayout(factors)
    ref = reference_blocks(factors)
    assert lay.dims() == {n: sum(size for _, _, size in blocks) for n, blocks in ref.items()}
    for n in set(ref) | {min(ref, default=0) - 1, max(ref, default=0) + 1}:
        blocks = ref.get(n, [])
        assert lay.blocks(n) == tuple(blocks)
        assert lay.dim(n) == sum(size for _, _, size in blocks)
        positions = []
        for combo, off, size in blocks:
            assert lay.block_offset(combo) == (off, size)
            for idx in itertools.product(*[range(c.dim(d)) for c, d in zip(factors, combo)]):
                positions.append(lay.position(combo, idx))
                assert lay.decompose(n, positions[-1]) == (combo, idx)
        assert sorted(positions) == list(range(lay.dim(n)))
    with pytest.raises(ShapeError):
        lay.block_offset((99,) * len(factors))
    # equal spaces given in another degree order share the shape
    reordered = [Complex(GF(7), dict(reversed(list(dims.items()))), {}) for dims in tables]
    assert TensorLayout(reordered).shape is lay.shape


def test_layouts_over_equal_dimensions_share_an_immutable_shape():
    rng = random.Random(44)
    a, _ = random_complex(rng, QQ, pieces=3)
    b, _ = random_complex(rng, QQ, pieces=3)
    lay = TensorLayout([a, b])
    twin = TensorLayout([Complex(QQ, {d: a.dim(d) for d in a.degrees()}, {}),
                         Complex(QQ, {d: b.dim(d) for d in b.degrees()}, {})])
    assert twin.shape is lay.shape
    n = max(lay.dims())
    with pytest.raises(AttributeError):
        lay.blocks(n).append(((0, 0), 0, 1))
    with pytest.raises(TypeError):
        lay.blocks(n)[0] = ((0, 0), 0, 1)
    assert lay.blocks(n) == twin.blocks(n)


def test_tensor_block_is_the_memoised_column_slice():
    rng = random.Random(45)
    a, _ = random_complex(rng, QQ, pieces=3)
    b, _ = random_complex(rng, QQ, pieces=3)
    lay = TensorLayout([a, b])
    for f in (ChainMap.identity(lay.complex), random_chain_map(rng, lay.complex, lay.complex)):
        pairing = Pairing(lay, f, lay.complex, "f")
        for n in lay.dims():
            for combo, off, size in lay.blocks(n):
                first = pairing.block(combo)
                assert first == f.component(n).take_columns(range(off, off + size))
                assert pairing.block(combo) is first


def test_hom_cocycles_are_chain_maps_roundtrip():
    rng = random.Random(47)
    c, _ = random_complex(rng, QQ, pieces=4)
    d, _ = random_complex(rng, QQ, pieces=4)
    h = hom_complex(c, d)
    for degree in [-1, 0, 1]:
        v = random_cocycle(rng, h.complex, degree)
        if v is None:
            continue
        f = h.chainmap_from_cocycle(degree, v)  # constructor re-checks commutation
        assert vector_from_chainmap(h, f) == v


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_hom_differential_is_its_definition(field):
    # d phi = d_T o phi - (-1)^n phi o d_S, read off the layout's d on random
    # elements of every degree, computed as matrix products
    rng = random.Random(71)
    unclosed = 0
    for _ in range(12):
        s, _ = random_complex(rng, field, lo=-2, hi=2, pieces=rng.randint(1, 5))
        t, _ = random_complex(rng, field, lo=-2, hi=2, pieces=rng.randint(1, 5))
        h = hom_complex(s, t)
        for n, dim in h.dims().items():
            vec = Mat(field, dim, 1, [[rng.randint(-3, 3)] for _ in range(dim)])
            phi = h.family_from_vector(n, vec)

            def at(i):
                return phi.get(i, Mat.zero(field, t.dim(i + n), s.dim(i)))

            sign = -1 if n % 2 else 1
            expect = {i: t.diff(i + n) @ at(i) - (at(i + 1) @ s.diff(i)).scale(sign)
                      for i, _, _ in h.blocks(n + 1)}
            dvec = h.complex.diff(n) @ vec
            assert h.family_from_vector(n + 1, dvec) == expect
            unclosed += not dvec.is_zero()
    assert unclosed > 10


def test_evaluation_and_composition_are_chain_maps():
    rng = random.Random(53)
    x, _ = random_complex(rng, QQ, pieces=3)
    y, _ = random_complex(rng, QQ, pieces=3)
    z, _ = random_complex(rng, QQ, pieces=3)
    evaluation_map(hom_complex(x, y))  # constructor asserts chain-map property
    composition_map(x, y, z)


def test_composition_map_agrees_with_matrix_composition():
    rng = random.Random(59)
    x, _ = random_complex(rng, QQ, pieces=3)
    y, _ = random_complex(rng, QQ, pieces=3)
    z, _ = random_complex(rng, QQ, pieces=3)
    hxy, hyz, hxz = hom_complex(x, y), hom_complex(y, z), hom_complex(x, z)
    comp = composition_map(x, y, z)
    lay = TensorLayout([hyz.complex, hxy.complex])
    f = random_chain_map(rng, x, y)
    g = random_chain_map(rng, y, z)
    vf = vector_from_chainmap(hxy, f)
    vg = vector_from_chainmap(hyz, g)
    # tensor vector of vg (x) vf in degree 0, built via positions
    vec = [0] * lay.complex.dim(0)
    for gi, gval in enumerate(vg.column_values(0)):
        if not gval:
            continue
        for fi, fval in enumerate(vf.column_values(0)):
            if fval:
                vec[lay.position((0, 0), (gi, fi))] += gval * fval
    tv = Mat.column(QQ, vec)
    composed_vec = comp.component(0) @ tv
    expect = vector_from_chainmap(hxz, g.compose(f))
    assert composed_vec == expect


def test_swap_involution_and_sign():
    rng = random.Random(67)
    a, _ = random_complex(rng, QQ, pieces=3)
    b, _ = random_complex(rng, QQ, pieces=3)
    lay = TensorLayout([a, b])
    action = Pairing(lay, random_chain_map(rng, lay.complex, a), a, "action")
    once, twice = swapped(action), swapped(swapped(action))
    assert once.factors == (b, a) and twice.factors == (a, b)
    odd_blocks = 0
    for combo in itertools.product(a.degrees(), b.degrees()):
        # swapping twice gives the action back
        assert twice.block(combo) == action.block(combo)
        # once: the columns reordered to b (x) a, negated when both degrees are odd
        da, db = combo
        unsigned = swap_leading_factors(action.block(combo), b.dim(db), a.dim(da))
        assert once.block((db, da)) == (-unsigned if da % 2 and db % 2 else unsigned)
        odd_blocks += da % 2 and db % 2 and not unsigned.is_zero()
    assert odd_blocks


def test_pairing_at_extracts_columns():
    rng = random.Random(73)
    a, _ = random_complex(rng, QQ, pieces=2)
    b, _ = random_complex(rng, QQ, pieces=2)
    lay = TensorLayout([a, b])
    f = random_chain_map(rng, lay.complex, a)
    for deg in a.degrees():
        v = random_cocycle(rng, a, deg)
        if v is None:
            continue
        fam = Pairing(lay, f, a, "f").at(0, deg, v)
        for bdeg in b.degrees():
            for bi in range(b.dim(bdeg)):
                acc = Mat.zero(QQ, a.dim(deg + bdeg), 1)
                for vi, val in enumerate(v.column_values(0)):
                    if not val:
                        continue
                    pos = lay.position((deg, bdeg), (vi, bi))
                    acc = acc + f.component(deg + bdeg).col(pos).scale(val)
                assert fam[bdeg].col(bi) == acc
        break


def test_shift_conventions():
    c = two_term_identity(QQ, 0)
    s = shift_complex(c, 1)
    assert s.dim(-1) == 1 and s.dim(0) == 1
    assert s.diff(-1) == -Mat.identity(QQ, 1)


def test_direct_sum_roundtrip():
    rng = random.Random(79)
    a, ha = random_complex(rng, QQ, pieces=3)
    b, hb = random_complex(rng, QQ, pieces=3)
    total, injs, projs = direct_sum([a, b])
    assert projs[0].compose(injs[0]) == ChainMap.identity(a)
    assert projs[1].compose(injs[1]) == ChainMap.identity(b)
    assert not projs[1].compose(injs[0]).components
    expect = {}
    for d, v in list(ha.items()) + list(hb.items()):
        expect[d] = expect.get(d, 0) + v
    assert total.cohomology().as_dict() == {d: v for d, v in expect.items() if v}


@pytest.mark.parametrize("target_degree, twist", [(0, 0), (1, 0), (1, 1)])
def test_naturality_subcomplex_matches_sympy_solution_count(target_degree, twist):
    """phi o A - (-1)^(twist n) B o phi = 0 on Hom(V, W), V in degree 0 and W
    in the given degree, against sympy's solution of the same system."""
    import sympy

    rng = random.Random(31 + target_degree + twist)
    pairs = [(Mat.identity(QQ, 2), Mat.identity(QQ, 1))]   # the twist decides: 2 solutions or none
    for _ in range(6):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        pairs.append((Mat(QQ, p, p, [[QQ.from_int(rng.randint(-1, 1)) for _ in range(p)] for _ in range(p)]),
                      Mat(QQ, q, q, [[QQ.from_int(rng.randint(-1, 1)) for _ in range(q)] for _ in range(q)])))
    for a, b in pairs:
        p, q = a.rows, b.rows
        v = Complex(QQ, {0: p}, {})
        w = Complex(QQ, {target_degree: q}, {})
        eq = Equation(v, w, (Term("phi", right=(0, {0: a})),
                             Term("phi", left=(0, {target_degree: b}), sign=-1, twist=twist)))
        sub = HomSystem({"phi": hom_complex(v, w)}, [eq]).complex
        phi = sympy.Matrix(q, p, sympy.symbols(f"x0:{p * q}"))
        sign = -1 if twist and target_degree % 2 else 1
        system = phi * sympy.Matrix(a.entries) - sign * sympy.Matrix(b.entries) * phi
        solution, = sympy.linsolve(list(system), list(phi))
        free = set().union(*(sympy.sympify(e).free_symbols for e in solution))
        assert sub.dim(target_degree) == len(free)


def reference_constraints(layouts, equations):
    """The degree-n constraint matrices of a HomSystem written one
    entry at a time through the field's own is_zero, add and neg."""
    slots = list(layouts)
    ambient = direct_sum([layouts[s].complex for s in slots])[0]
    field = ambient.field
    out = {}
    for n in ambient.degrees():
        offsets = dict(zip(slots, itertools.accumulate((layouts[s].complex.dim(n) for s in slots), initial=0)))
        grid = []
        for eq in equations:
            first = eq.terms[0]
            shift = n + sum(fam[0] for fam in (first.left, first.right) if fam is not None)
            for i in eq.domain.degrees():
                p, q = eq.domain.dim(i), eq.codomain.dim(i + shift)
                if q == 0:
                    continue
                top = len(grid)
                grid.extend([0] * ambient.dim(n) for _ in range(q * p))
                for term in eq.terms:
                    lay = layouts[term.slot]
                    j = i + (term.right[0] if term.right else 0)
                    tdim = lay.target.dim(j + n)
                    if lay.source.dim(j) == 0 or tdim == 0:
                        continue
                    right = Mat.identity(field, p) if term.right is None else term.right[1].get(i)
                    left = Mat.identity(field, tdim) if term.left is None else term.left[1].get(j + n)
                    if right is None or left is None:
                        continue
                    negate = (term.sign < 0) != bool(term.twist * n % 2)
                    col0 = offsets[term.slot] + lay.block_offset(n, j)[0]
                    for r, row in enumerate(kron(left, right.transpose()).entries):
                        for c, v in enumerate(row):
                            if v:
                                grid[top + r][col0 + c] += -v if negate else v
        if grid:
            out[n] = Mat(field, len(grid), ambient.dim(n), grid)
    return out


def test_naturality_constraints_match_the_entry_loop(field):
    """Two slots on complexes with zero differential (every solution set is
    d-stable), odd Hom degrees, and a sign-twisted term in both equations."""
    rng = random.Random(37)

    def scalar():
        v = rng.randint(-3, 3)
        return Fraction(v, 2) if field is QQ and rng.random() < 0.3 else field.from_int(v)

    def family(src, tgt, deg):
        return deg, {i: Mat(field, tgt.dim(i + deg), src.dim(i),
                             [[scalar() for _ in range(src.dim(i))] for _ in range(tgt.dim(i + deg))])
                     for i in src.degrees()}

    v = Complex(field, {0: 2, 1: 1}, {})
    w = Complex(field, {-1: 1, 0: 2, 2: 1}, {})
    layouts = {"phi": hom_complex(v, w), "psi": hom_complex(v, w)}
    assert any(n % 2 for n in layouts["phi"].complex.degrees())
    equations = [
        Equation(v, w, (Term("phi", right=family(v, v, 0)),
                        Term("psi", left=family(w, w, 0), sign=-1, twist=1))),
        Equation(v, w, (Term("phi", left=family(w, w, 1)),
                        Term("psi", right=family(v, v, 1), twist=1),
                        Term("phi", right=family(v, v, 1), sign=-1))),
    ]
    expect = reference_constraints(layouts, equations)
    assert HomSystem(layouts, equations).constraints == expect
    assert [n for n in expect if n % 2 and not expect[n].is_zero()]


# -- reordering tensor factors against an elementwise column permutation -------------


def reordered_by_hand(m: Mat, dims, perm) -> Mat:
    """Column j of the result, j row-major over the factors in the order
    0, 1, ..., is the column of m at the same multi-index read row-major in
    the order ``perm``."""
    cols = []
    for j in range(prod(dims)):
        index, rest = [], j
        for d in reversed(dims):
            rest, i = divmod(rest, d)
            index.append(i)
        index.reverse()
        source = 0
        for p in perm:
            source = source * dims[p] + index[p]
        cols.append(m.column_values(source))
    return Mat(m.field, m.rows, len(cols), [[col[r] for col in cols] for r in range(m.rows)])


@st.composite
def reorder_cases(draw):
    """A matrix whose columns index the factors of dims (sizes 0-3) in the
    order perm, for every perm of 2 or 3 factors."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=3)))
    perm = draw(st.sampled_from(list(itertools.permutations(range(len(dims))))))
    rows = draw(st.integers(0, 3))
    grid = draw(st.lists(st.lists(st.integers(-9, 9), min_size=prod(dims), max_size=prod(dims)),
                         min_size=rows, max_size=rows))
    return Mat(field, rows, prod(dims), grid), dims, perm


@settings(max_examples=150, deadline=None)
@given(reorder_cases())
def test_reorder_factors_matches_elementwise_permutation(case):
    m, dims, perm = case
    assert reorder_factors(m, dims, perm) == reordered_by_hand(m, dims, perm)
    assert reorder_factors(m, list(dims), list(perm)) == reordered_by_hand(m, dims, perm)


@pytest.mark.parametrize("dims", [(2, 3), (0, 2), (1, 1), (2, 1, 3), (3, 0, 2), (2, 2, 2)])
def test_reorder_factors_covers_every_permutation(rng, dims):
    m = Mat(QQ, 2, prod(dims), [[rng.randint(-5, 5) for _ in range(prod(dims))] for _ in range(2)])
    for perm in itertools.permutations(range(len(dims))):
        assert reorder_factors(m, dims, perm) == reordered_by_hand(m, dims, perm)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2), st.randoms(use_true_random=False))
def test_swap_leading_factors_matches_elementwise_permutation(field, p, q, rest, rows, rnd):
    # the columns of m run row-major over (j, i, k) with j < q, i < p, k < rest
    m = Mat(field, rows, q * p * rest, [[rnd.randint(-9, 9) for _ in range(q * p * rest)]
                                         for _ in range(rows)])
    expected = reordered_by_hand(m, (p, q, rest), (1, 0, 2))
    assert swap_leading_factors(m, p, q) == expected


# -- flat pairings ---------------------------------------------------------------


def flat_offsets(cx: Complex):
    """Each degree's first index in the flat basis of cx (degrees in order)."""
    offsets, total = {}, 0
    for deg in cx.degrees():
        offsets[deg] = total
        total += cx.dim(deg)
    return offsets


def flat_by_hand(lay: TensorLayout, pairing: ChainMap) -> Mat:
    """The flat matrix of a map out of the tensor of ``lay``, entry by entry
    from its blocks."""
    field, target = lay.field, pairing.target
    rows_at, cols_at = flat_offsets(target), [flat_offsets(c) for c in lay.factors]
    sizes = [c.total_dim() for c in lay.factors]
    grid = [[0] * prod(sizes) for _ in range(target.total_dim())]
    for n in lay.dims():
        for combo, off, size in lay.blocks(n):
            blk = pairing.component(n).take_columns(range(off, off + size))
            for pos, idx in enumerate(itertools.product(*[range(c.dim(d)) for c, d in zip(lay.factors, combo)])):
                col = 0
                for size, at, d, i in zip(sizes, cols_at, combo, idx):
                    col = col * size + at[d] + i
                for r in range(blk.rows):
                    grid[rows_at[n + pairing.degree] + r][col] = blk.entries[r][pos]
    return Mat(field, len(grid), prod(sizes), grid)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_flat_matrices_agree_with_the_blocks(rng, field):
    # a chain map of any degree is flat on its source alone, a pairing of
    # degree 0 on its two factors; the first cases have an empty factor,
    # then a zero target
    for case in range(30):
        count = rng.randint(1, 2)
        factors = [random_complex(rng, field, lo=-2, hi=1, pieces=0 if case == 0 and k == count - 1
                                  else rng.randint(0, 3))[0] for k in range(count)]
        target = random_complex(rng, field, lo=-3, hi=1, pieces=0 if case == 1 else rng.randint(0, 4))[0]
        lay, degree = TensorLayout(factors), rng.randint(-1, 1) if count == 1 else 0

        def block(combo):
            rows, size = target.dim(sum(combo) + degree), lay.block_offset(combo)[1]
            return Mat(field, rows, size, [[rng.randint(-3, 3) for _ in range(size)] for _ in range(rows)])

        f = lay.map_from_blocks(target, degree, block, check=False)
        flat = flat_map(f) if count == 1 else Pairing(lay, f, target, "f").flat
        assert (flat.rows, flat.cols) == (target.total_dim(), prod(c.total_dim() for c in factors))
        assert flat == flat_by_hand(lay, f)
        assert (flat_map(f) if count == 1 else Pairing(lay, f, target, "f").flat) is flat


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_koszul_swap_matches_elementwise_signed_swap(rng, field):
    for _ in range(20):
        a, b = (random_complex(rng, field, lo=-3, hi=1, pieces=rng.randint(0, 3))[0] for _ in range(2))
        rest, p, q = rng.randint(0, 2), a.total_dim(), b.total_dim()
        degree_a = [d for d in a.degrees() for _ in range(a.dim(d))]
        degree_b = [d for d in b.degrees() for _ in range(b.dim(d))]
        m = Mat(field, 2, q * p * rest, [[rng.randint(-5, 5) for _ in range(q * p * rest)] for _ in range(2)])
        # column (i, j, k) of the result is (-1)^{|a_i||b_j|} times column (j, i, k) of m
        grid = [[0] * m.cols for _ in range(2)]
        for i, j, k in itertools.product(range(p), range(q), range(rest)):
            sign = -1 if degree_a[i] % 2 and degree_b[j] % 2 else 1
            for r in range(2):
                grid[r][(i * q + j) * rest + k] = sign * m.entries[r][(j * p + i) * rest + k]
        assert koszul_swap(m, a, b) == Mat(field, 2, m.cols, grid)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_a_tensor_of_factors_without_differentials_joins_no_blocks(field, monkeypatch):
    factors = [Complex(field, {-1: 2, 0: 1}, {}), Complex(field, {0: 3, 1: 1}, {}), Complex(field, {0: 2}, {})]
    lay = TensorLayout(factors)

    def fail(*args):
        raise AssertionError("joined blocks of a degree with no differential")

    monkeypatch.setattr(complexes, "concat_columns", fail)
    assert lay.complex.d == {}
    assert lay.complex.spaces.dims == lay.dims()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_map_from_blocks_with_an_all_none_degree_matches_the_entry_loop(rng, field):
    for _ in range(20):
        factors = [random_complex(rng, field, lo=-2, hi=1, pieces=rng.randint(1, 3))[0] for _ in range(2)]
        target = random_complex(rng, field, lo=-3, hi=2, pieces=rng.randint(1, 4))[0]
        lay, degree = TensorLayout(factors), rng.randint(-1, 1)
        skipped = rng.choice(sorted(lay.dims()))
        blocks = {}
        for n in lay.dims():
            for combo, _, size in lay.blocks(n):
                rows = target.dim(n + degree)
                blocks[combo] = None if n == skipped or rng.random() < 0.3 else \
                    Mat(field, rows, size, [[rng.randint(-3, 3) for _ in range(size)] for _ in range(rows)])

        def entry(combo, idx):
            mat = blocks[combo]
            if mat is None:
                return None
            pos = 0
            for c, d, i in zip(factors, combo, idx):
                pos = pos * c.dim(d) + i
            return mat.col(pos)

        by_blocks = lay.map_from_blocks(target, degree, blocks.get, check=False)
        assert skipped not in by_blocks.components
        assert by_blocks.components == lay.map_from_entries(target, degree, entry, check=False).components


# -- subcomplexes and quotients, each read off one elimination --------------------------


def test_subcomplex_rejects_dependent_or_unclosed_columns(field):
    # e in degree 0, de = f in degree 1, g a second basis vector there
    c = Complex(field, {0: 1, 1: 2}, {0: Mat(field, 2, 1, [[1], [0]])})
    with pytest.raises(ValidationError, match="^gen: generating columns dependent in degree 1$"):
        complexes.subcomplex(c, {1: Mat(field, 2, 2, [[1, 2], [0, 0]])}, name="gen")
    # nothing spans degree 1, where de lands
    with pytest.raises(ValidationError, match="^lone: not closed under d at degree 0$"):
        complexes.subcomplex(c, {0: Mat(field, 1, 1, [[1]])}, name="lone")
    # degree 1 is spanned by g, which misses de = f
    with pytest.raises(ValidationError, match="^off: not closed under d at degree 0$"):
        complexes.subcomplex(c, {0: Mat(field, 1, 1, [[1]]), 1: Mat(field, 2, 1, [[0], [1]])}, name="off")


def test_quotient_complex_rejects_a_wrong_shape_or_an_unstable_span(field):
    c = Complex(field, {0: 1, 1: 2}, {0: Mat(field, 2, 1, [[1], [0]])})
    with pytest.raises(ShapeError, match="^q: killed columns wrong ambient dimension at degree 1$"):
        complexes.quotient_complex(c, {1: Mat(field, 3, 1, [[1], [0], [0]])}, name="q")
    # killing e but not de = f leaves d unable to descend
    with pytest.raises(ValidationError, match=r"^q: killed span not d-stable \(.*at degree 0\)$"):
        complexes.quotient_complex(c, {0: Mat(field, 1, 1, [[1]])}, name="q")
    # killing g, which nothing maps to, is fine, and so is killing e with f
    assert complexes.quotient_complex(c, {1: Mat(field, 2, 1, [[0], [1]])})[0].dim(1) == 1
    quot = complexes.quotient_complex(c, {0: Mat(field, 1, 1, [[1]]), 1: Mat(field, 2, 1, [[1], [0]])})[0]
    assert {n: quot.dim(n) for n in quot.degrees()} == {1: 1}


def stable_span(rng, cx):
    """A d-stable span of ``cx`` in dependent columns: random columns V^n,
    then d V^(n-1), then the sum of the first two columns."""
    field = cx.field
    vs = {n: Mat(field, cx.dim(n), 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(cx.dim(n))])
          for n in cx.degrees() if rng.random() < 0.7}
    cols = {}
    for n in cx.degrees():
        parts = [vs[n]] if n in vs else []
        if n - 1 in vs:
            parts.append(cx.diff(n - 1) @ vs[n - 1])
        if parts:
            m = functools.reduce(Mat.hstack, parts)
            cols[n] = m.hstack(m.col(0) + m.col(1))
    return cols


def reference_quotient_maps(cx, killed):
    """The projection and section of each nonzero degree of the quotient,
    as ``invert([image_basis | section])`` and its completing unit vectors."""
    out = {}
    for n in cx.degrees():
        m = cx.dim(n)
        basis = killed.get(n, Mat.zero(cx.field, m, 0)).image_basis()
        section = Mat.identity(cx.field, m).take_columns(extend_columns_to_basis(basis)[0])
        if section.cols:
            out[n] = (invert(basis.hstack(section)).take_rows(range(basis.cols, m)), section)
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_retractions_projections_and_sections_match_their_inverse_formulas(field):
    rng = random.Random(34)
    for _ in range(12):
        cx, _ = random_complex(rng, field, lo=-2, hi=1, pieces=5)
        killed = stable_span(rng, cx)
        # the subcomplex on a basis of the span: out is a left inverse, the
        # rows of sub kill exactly its span
        sub, incl = complexes.subcomplex(cx, {n: m.image_basis() for n, m in killed.items()})
        piece = complexes.sub_retract(sub, incl).pieces[0]
        for n in cx.degrees():
            k = incl.component(n)
            if k.cols:
                assert piece.outward[n] @ k == Mat.identity(field, k.cols)
            assert (piece.sub[n] @ k).is_zero()
            assert piece.sub[n].rows == piece.sub[n].rank() == cx.dim(n) - k.cols
        # the quotient by the dependent columns
        quot, proj, sections = complexes.quotient_complex(cx, killed)
        reference = reference_quotient_maps(cx, killed)
        assert {n: (proj.component(n), sections[n]) for n in quot.degrees()} == reference
    for _ in range(6):
        cat = small_random_category(rng, field, n_objects=2)
        for a in cat.objects:
            iota = cat.id_vector(a)
            section = Mat.identity(field, iota.rows).take_columns(extend_columns_to_basis(iota)[0])
            assert unit_functional(cat, a) == invert(iota.hstack(section)).take_rows([0])
