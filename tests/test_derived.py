"""Windowed resolutions, derived tensor/Hom, t-structure."""

import random

import pytest

from dgkit.fields import GF, QQ
from dgkit.dgring import DgRing, make_dual_numbers
from dgkit.dgcat import one_object_category
from dgkit.bimodules import Module, ModuleMap, module_hom_complex, shift_module
from dgkit.complexes import ChainMap, lifted_map, swapped
from dgkit.matrix import Mat, block_matrix, kron
from dgkit.derived import (
    DegreeWindow,
    balanced_tensor_ring,
    derived_hom,
    derived_tensor,
    resolve_module,
    restricted_ground_module,
    ring_as_module,
    tstruct_truncate,
)
from dgkit.errors import ValidationError, WindowCertificationError
from dgkit.verify import bar_oracle_dual_numbers_tor
from dgkit.instances import (
    random_h0_surjective_map,
    random_module,
    random_nonpositive_category,
    random_ring_module,
    small_random_category,
)

from hom_calculus import vector_from_family


def test_resolution_of_ground_field_over_dual_numbers():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    window = DegreeWindow(-3, 0)
    res = resolve_module(k_mod, window.lo - window.guard)
    # comparison cone acyclic down to the floor
    for obj, h in res.cone_cohomology.items():
        for d, v in h.items():
            if d >= window.lo - window.guard:
                assert v == 0
    # the expected periodic generator pattern: one generator every other degree
    degs = sorted(d for _, d in res.generators)
    assert degs[-1] == 0


def test_free_module_resolves_trivially():
    ring, _ = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    free = ring_as_module(ring, cat)
    res = resolve_module(free, -4)
    assert all(res.comparison.at(a).is_quasi_iso() for a in cat.objects)


def test_derived_tensor_free_unit():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    free = ring_as_module(ring, cat)
    k_mod = restricted_ground_module(aug, cat)
    w = DegreeWindow(-3, 0)
    rep = derived_tensor(free, k_mod, w)
    assert rep.as_dict() == {"-3": 0, "-2": 0, "-1": 0, "0": 1}


def test_tor_of_ground_field_odd_generator():
    # |e| = -1: e is an odd exterior generator, so Tor is a polynomial algebra
    # on one generator in degree -2: dims 1, 0, 1, 0, ... going down.
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    w = DegreeWindow(-6, 0)
    rep = derived_tensor(k_mod, k_mod, w)
    expect = {d: (1 if d % 2 == 0 else 0) for d in range(-6, 1)}
    assert {int(k): v for k, v in rep.as_dict().items()} == expect


def test_tor_of_ground_field_classical_dual_numbers():
    # |e| = 0: the classical picture, one dimension in every nonpositive degree.
    ring, aug = make_dual_numbers(2, 0, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    w = DegreeWindow(-5, 0)
    rep = derived_tensor(k_mod, k_mod, w)
    assert all(v == 1 for v in rep.as_dict().values())


def test_tor_eps_degree_minus_two():
    # |e| = -2: even generator, relation in degree -2: Koszul dual has
    # generators in degrees -3k and -3k-... enumerate via the machine itself
    # at two window depths for stability.
    ring, aug = make_dual_numbers(2, -2, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    w1 = derived_tensor(k_mod, k_mod, DegreeWindow(-4, 0)).as_dict()
    w2 = derived_tensor(k_mod, k_mod, DegreeWindow(-4, 0, guard=4)).as_dict()
    assert w1 == w2


def test_resolution_invariance_left_right():
    rng = random.Random(307)
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    free = ring_as_module(ring, cat)
    w = DegreeWindow(-3, 0)
    for m, n in [(k_mod, k_mod), (free, k_mod), (k_mod, free)]:
        left = derived_tensor(m, n, w, resolve="left")
        right = derived_tensor(m, n, w, resolve="right")
        assert left.as_dict() == right.as_dict()


def test_derived_hom_free_source():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    free = ring_as_module(ring, cat)
    k_mod = restricted_ground_module(aug, cat)
    w = DegreeWindow(-2, 0)
    rep = derived_hom(free, k_mod, w)
    assert rep.as_dict() == {"-2": 0, "-1": 0, "0": 1}


def test_ext_of_ground_field_odd_generator():
    # dual of the Tor computation: Ext is polynomial on a degree +2 generator
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    w = DegreeWindow(0, 5)
    rep = derived_hom(k_mod, k_mod, w)
    expect = {d: (1 if d % 2 == 0 else 0) for d in range(0, 6)}
    assert {int(k): v for k, v in rep.as_dict().items()} == expect


def test_window_cap_failure_is_loud():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    k_mod = restricted_ground_module(aug, cat)
    with pytest.raises(WindowCertificationError) as err:
        resolve_module(k_mod, -40, generator_cap=5)
    # one generator every other degree: the five allowed reach degree -8
    assert err.value.first_uncertified_degree == -10


def resolution_cases(field):
    """The modules and floors that tests/test_actions.py resolves against
    its per-generator reference loop, drawn in the same order."""
    rng = random.Random(17)
    ring, aug = make_dual_numbers(2, -1, field)
    cat = one_object_category(ring)
    path = random_nonpositive_category(rng, field, n_objects=2, flavor="path")
    ground = restricted_ground_module(aug, cat)
    return [(ground, -3), (shift_module(ground, 1), -3), (random_module(rng, path), -2),
            (shift_module(random_module(rng, path), -1), -2)]


def assert_module_and_comparison_checked(res):
    """The resolution's action is unital and associative, and its
    comparison respects the actions: the construction-time checks the
    resolution is built without, run on the returned objects."""
    P = res.module
    Module(P.cat, P.components, {key: mu.map for key, mu in P.act.items()}, check=True)
    ModuleMap(P, res.target, 0, res.comparison.components, check=True)


def test_resolutions_pass_the_module_checks(field):
    for m, floor in resolution_cases(field):
        assert_module_and_comparison_checked(resolve_module(m, floor))


def test_ground_field_over_cubic_dual_numbers_attaches_one_generator_per_degree():
    # k[e]/e^3 with |e| = 0 over F_101: of the top classes e and e^2 the first
    # kills the second (e . e = e^2), so one generator per degree down to -4
    ring, aug = make_dual_numbers(3, 0, GF(101))
    cat = one_object_category(ring)
    res = resolve_module(restricted_ground_module(aug, cat), -4)
    assert_module_and_comparison_checked(res)
    obj = cat.objects[0]
    assert res.generators == [(obj, -i) for i in range(5)]


@pytest.mark.parametrize("n, field, lo", [(2, QQ, -5), (3, QQ, -5), (2, GF(101), -5), (3, GF(101), -5),
                                          (3, GF(101), -6)], ids=["e2-Q", "e3-Q", "e2-F101", "e3-F101", "e3-F101-lo6"])
def test_ground_field_over_degree_zero_dual_numbers_matches_the_bar_oracle(n, field, lo):
    # k over k[e]/e^n with |e| = 0: Tor and Ext read off the resolution, and as
    # many generators per degree as Tor has dimensions; with a generator per
    # top class, [-6, 0] over e^3 exceeded the generator cap
    ring, aug = make_dual_numbers(n, 0, field)
    k = restricted_ground_module(aug, one_object_category(ring))
    tor = bar_oracle_dual_numbers_tor(n, 0, field, DegreeWindow(lo, 0))
    assert derived_tensor(k, k, DegreeWindow(lo, 0)).dims == {d: tor.get(d, 0) for d in range(lo, 1)}
    assert derived_hom(k, k, DegreeWindow(0, -lo)).dims == {d: tor.get(-d, 0) for d in range(0, 1 - lo)}
    res = resolve_module(k, -5)
    assert [g for _, g in res.generators] == [d for d in range(0, -6, -1) for _ in range(tor.get(d, 0))]


def test_tstruct_truncate_concentrated_degree0():
    rng = random.Random(311)
    cat = random_nonpositive_category(rng, QQ, n_objects=2, flavor="path")
    m = Module.representable(cat, cat.objects[0])
    rep = tstruct_truncate(m)
    assert rep.triangle_is_distinguished
    assert all(c.total_dim() == 0 for c in rep.tau_ge.components.values())


def test_tstruct_triangle_on_random_modules():
    rng = random.Random(313)
    for _ in range(5):
        cat = random_nonpositive_category(rng, QQ, n_objects=2)
        m = random_module(rng, cat)
        rep = tstruct_truncate(m)
        assert rep.triangle_is_distinguished
        for a in cat.objects:
            full = m.at(a).cohomology().as_dict()
            le = rep.tau_le.at(a).cohomology().as_dict()
            ge = rep.tau_ge.at(a).cohomology().as_dict()
            for d, v in full.items():
                if d <= 0:
                    assert le.get(d, 0) == v
                    assert ge.get(d, 0) == 0
                else:
                    assert ge.get(d, 0) == v
                    assert le.get(d, 0) == 0


def test_tstruct_orthogonality_via_derived_hom():
    rng = random.Random(317)
    ring, _ = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    m = ring_as_module(ring, cat)
    # build a module with cohomology on both sides of 0 by shifting
    from dgkit.bimodules import direct_sum_modules, shift_module
    mm = direct_sum_modules([m, shift_module(m, -2)])[0]
    rep = tstruct_truncate(mm)
    # aisle orthogonality concerns degrees <= 0 of the derived hom:
    # H^i(RHom) = Hom(X, Y[i]) and Y[i] stays in the coaisle for i <= 0
    w = DegreeWindow(-2, 0)
    hom = derived_hom(rep.tau_le, rep.tau_ge, w)
    assert all(v == 0 for v in hom.as_dict().values())


def test_orthogonality_from_acyclic_hom_block():
    # two objects with an acyclic connecting hom: the derived hom between the
    # representables vanishes in every certified degree
    from dgkit.dgring import DgRing
    from dgkit.dgcat import DgCategory
    from dgkit.complexes import Complex, TensorLayout
    from dgkit.matrix import Mat
    field = QQ
    base = DgRing.ground_field(field)
    ends = Complex(field, {0: 1}, {})
    connecting = Complex(field, {-1: 1, 0: 1}, {-1: Mat.identity(field, 1)})
    homs = {("D1", "D1"): ends, ("D2", "D2"): ends,
            ("D1", "D2"): connecting, ("D2", "D1"): Complex.zero(field)}
    ids = {"D1": Mat.identity(field, 1).col(0), "D2": Mat.identity(field, 1).col(0)}
    comp = {}
    objs = ["D1", "D2"]
    for a in objs:
        for b in objs:
            for c in objs:
                lay = TensorLayout([homs[(b, c)], homs[(a, b)]])

                def entry(combo, idx, a=a, b=b, c=c):
                    if homs[(a, c)].total_dim() == 0:
                        return None
                    dg, df = combo
                    # identity-scalar composition: acting side must be an End
                    if a == b:
                        if df != 0:
                            return None
                        col = [0] * homs[(a, c)].dim(dg)
                        col[idx[0]] = 1
                        return Mat.column(field, col)
                    if b == c:
                        if dg != 0:
                            return None
                        col = [0] * homs[(a, c)].dim(df)
                        col[idx[1]] = 1
                        return Mat.column(field, col)
                    return None

                comp[(a, b, c)] = lay.map_from_entries(homs[(a, c)], 0, entry)
    cat = DgCategory(base, objs, homs, comp, ids, name="acyclicblock")
    f = Module.representable(cat, "D1")
    g = Module.representable(cat, "D2")
    # hom complexes from the support of f into the support of g are acyclic
    assert cat.hom("D1", "D2").is_acyclic()
    rep = derived_hom(f, g, DegreeWindow(-2, 2))
    assert all(v == 0 for v in rep.dims.values())


def evaluation_at_generators(res, mhc):
    """The map from ``mhc``, the ``module_hom_complex`` of res.module into
    u, to res.hom_into(u), basis vector by basis vector: phi of degree m
    goes to ((-1)^{m n_g} phi(1_{x_g}))_g, where 1_{x_g} sits in P(x_g) in
    degree n_g after the slots of the earlier generators."""
    cat, field, u = res.module.cat, res.module.field, mhc.target
    hom = res.hom_into(u)
    comps = {}
    for m in mhc.complex.degrees():
        cols = []
        for j in range(mhc.complex.dim(m)):
            amb = mhc.inclusion.component(m) @ Mat.basis_column(field, mhc.complex.dim(m), j)
            out = []
            for g, (x, n) in enumerate(res.generators):
                phi = mhc.layouts[x].family_from_vector(m, mhc.projs[x].component(m) @ amb)
                before = sum(cat.hom(x, y).dim(n - k) for y, k in res.generators[:g])
                unit = [0] * res.module.at(x).dim(n)
                unit[before:before + cat.hom(x, x).dim(0)] = cat.id_vector(x).column_values(0)
                value = phi[n] @ Mat.column(field, unit) if n in phi else Mat.zero(field, u.at(x).dim(n + m), 1)
                out.extend((-value if m * n % 2 else value).column_values(0))
            cols.append(out)
        comps[m] = Mat.from_columns(field, hom.dim(m), cols)
    return ChainMap(mhc.complex, hom, 0, comps)


def hom_cases(field):
    """(source, target, floor): the ground module of k[e]/e^2 with |e| = -1
    and 0 and of k[e]/e^3 with |e| = -2 and 0 (whose resolution skips
    the classes that e . - kills) into itself and the free module, and two random
    modules over a 2-object category, whose resolution has odd twist
    elements between its objects."""
    cases = []
    for n, eps in [(2, -1), (2, 0), (3, -2), (3, 0)]:
        ring, aug = make_dual_numbers(n, eps, field)
        cat = one_object_category(ring)
        ground, free = restricted_ground_module(aug, cat), ring_as_module(ring, cat)
        cases += [(ground, ground, -4), (ground, free, -4), (shift_module(ground, 1), ground, -3)]
    rng = random.Random(35)
    cat = small_random_category(rng, field, 2, max_total_hom=8)
    cases.append((random_module(rng, cat), random_module(rng, cat), -4))
    return cases


def test_hom_at_generators_is_the_module_hom_complex(field):
    for source, target, floor in hom_cases(field):
        res = resolve_module(source, floor)
        ev = evaluation_at_generators(res, module_hom_complex(res.module, target))
        for m in set(ev.source.degrees()) | set(ev.target.degrees()):
            mat = ev.component(m)
            assert mat.rows == mat.cols == mat.rank()


def test_hom_postcomposition_at_generators_is_postcomposition_of_module_maps(field):
    # Hom(P, counit of tau_le) against phi |-> counit o phi, objectwise,
    # through the evaluations at the generators; the twists act nontrivially
    rng = random.Random(49)
    cat = small_random_category(rng, field, 2, max_total_hom=8)
    res = resolve_module(tstruct_truncate(random_module(rng, cat)).tau_le, -4)
    counit = tstruct_truncate(shift_module(random_module(rng, cat), -1)).counit
    post = res.hom_postcompose(counit)
    src, tgt = module_hom_complex(res.module, counit.source), module_hom_complex(res.module, counit.target)
    ev_src, ev_tgt = evaluation_at_generators(res, src), evaluation_at_generators(res, tgt)
    assert post.source.total_dim() < post.target.total_dim()
    for m in src.complex.degrees():
        for j in range(src.complex.dim(m)):
            vec = Mat.basis_column(field, src.complex.dim(m), j)
            amb = src.inclusion.component(m) @ vec
            flat = Mat.zero(field, tgt.ambient.dim(m), 1)
            for a in cat.objects:
                phi = src.layouts[a].family_from_vector(m, src.projs[a].component(m) @ amb)
                composed = {i: counit.at(a).component(i + m) @ f for i, f in phi.items()}
                flat = flat + tgt.projs[a].component(m).transpose() @ vector_from_family(tgt.layouts[a], m, composed)
            lifted = tgt.inclusion.component(m).solve(flat)
            assert ev_tgt.component(m) @ lifted == post.component(m) @ (ev_src.component(m) @ vec)


def tensor_cases(field):
    """(resolved, other) pairs over k[e]/e^2 with |e| = -1 and 0 and k[e]/e^3
    with |e| = -2 and 0: the ground module and a random module, resolved, against
    the ground, free, shifted free and a random module.  The shifted free
    module has odd elements that odd twist elements act on nontrivially."""
    rng = random.Random(43)
    cases = []
    for n, eps in [(2, -1), (2, 0), (3, -2), (3, 0)]:
        ring, aug = make_dual_numbers(n, eps, field)
        cat = one_object_category(ring)
        ground, free = restricted_ground_module(aug, cat), ring_as_module(ring, cat)
        rand = random_ring_module(rng, aug)
        cases += [(m, other) for m in (ground, rand) for other in (ground, free, shift_module(free, 1), rand)]
    return cases


def evaluation_onto_generators(res, other, resolve):
    """The map from ``balanced_tensor_ring``'s P (x)_R other (resolve
    "left") or other (x)_R P ("right") to res.tensor_with(other): (1_g.r) (x)
    v |-> r.v and v (x) (1_g.r) |-> (-1)^{|v| n_g} v.r in slot g, written on
    the plain tensor and lifted through the balanced quotient."""
    p = res.module
    bal = balanced_tensor_ring(p, other) if resolve == "left" else balanced_tensor_ring(other, p)
    field, x, obj = p.field, p.cat.objects[0], other.cat.objects[0]
    ring, pz, nz = p.cat.hom(x, x), p.at(x), other.at(obj)
    right = other.act[(obj, obj)]
    left = swapped(right)

    def plain(flat):
        dp, dn = flat if resolve == "left" else flat[::-1]
        blocks, off, eye = {}, 0, Mat.identity(field, nz.dim(dn))
        for g, (_, k) in enumerate(res.generators):
            size = ring.dim(dp - k)
            pick = Mat.identity(field, pz.dim(dp)).take_rows(range(off, off + size))
            if size and resolve == "left":
                blocks[(g, 0)] = left.block((dp - k, dn)) @ kron(pick, eye)
            elif size:
                out = right.block((dn, dp - k)) @ kron(eye, pick)
                blocks[(g, 0)] = -out if dn * k % 2 else out
            off += size
        return block_matrix(field, [nz.dim(dp + dn - k) for _, k in res.generators], [pz.dim(dp) * nz.dim(dn)], blocks)

    return lifted_map([bal], res.tensor_with(other), [plain])


@pytest.mark.parametrize("resolve", ["left", "right"])
def test_tensor_at_generators_is_the_balanced_tensor(field, resolve):
    for m, other in tensor_cases(field):
        res = resolve_module(m, -4)
        ev = evaluation_onto_generators(res, other, resolve)
        for d in set(ev.source.degrees()) | set(ev.target.degrees()):
            mat = ev.component(d)
            assert mat.rows == mat.cols == mat.rank()


def test_tensor_map_at_generators_is_one_tensor_f(field):
    # 1 (x) f on the balanced tensor, against tensor_map through the evaluations
    rng = random.Random(47)
    _, aug = make_dual_numbers(2, -1, field)
    for _ in range(3):
        _, _, f = random_h0_surjective_map(rng, aug)
        res = resolve_module(random_ring_module(rng, aug), -4)
        tensored = res.tensor_map(f)
        src, tgt = balanced_tensor_ring(res.module, f.source), balanced_tensor_ring(res.module, f.target)
        fz, pz = f.at(f.source.cat.objects[0]), res.module.at(res.module.cat.objects[0])
        plain = lambda flat: tgt.layout.place(flat, kron(Mat.identity(field, pz.dim(flat[0])), fz.component(flat[1])))
        on_bal = lifted_map([src], tgt, [plain])
        ev_src = evaluation_onto_generators(res, f.source, "left")
        ev_tgt = evaluation_onto_generators(res, f.target, "left")
        for d in on_bal.source.degrees():
            assert ev_tgt.component(d) @ on_bal.component(d) == tensored.component(d) @ ev_src.component(d)


def test_derived_tensor_refuses_factors_over_different_rings():
    k = [restricted_ground_module(aug, one_object_category(ring))
         for ring, aug in (make_dual_numbers(2, -1, QQ), make_dual_numbers(3, -2, QQ))]
    for resolve in ("left", "right"):
        with pytest.raises(ValidationError, match="different rings"):
            derived_tensor(k[0], k[1], DegreeWindow(-2, 0), resolve=resolve)
