"""The paper verification suite: each acceptance check as a named function.

Oracles here are independent of the production code paths they check: the
(co)end solver assembles the naturality systems elementwise and eliminates
through the transpose, the dual-numbers Tor oracle builds the reduced bar
complex from scratch, and long-exact-sequence checks use only rank
bookkeeping on cohomology matrices.  Deterministic seeds make reports
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

from .bimodules import (
    Bimodule,
    Module,
    coend_of,
    direct_sum_bimodules,
    dual_of,
    end_of,
    find_quasi_representative,
    module_hom_complex,
    tensor_bimodule,
)
from .changeofrings import (
    coextension_adjunction_check,
    coextension_cotensor_check,
    coextension_tensor_check,
    extension_adjunction_check,
    restrict_category,
    transitivity_check,
)
from .complexes import (
    ChainMap,
    Complex,
    Equation,
    TensorLayout,
    Term,
    cone,
    hom_complex,
    lifted_block,
    lifted_map,
    naturality_subcomplex,
    pair_action,
    swapped,
    truncate_ge,
    truncate_le,
)
from .deform import check_hlc, deform_category, factorize
from .derived import (
    DegreeWindow,
    balanced_tensor_ring,
    derived_hom,
    derived_tensor,
    resolve_module,
    restricted_ground_module,
    ring_as_module,
    tstruct_truncate,
)
from .dgcat import one_object_category, opposite, tensor_cat
from .dgring import DgRing, DgRingMorphism, check_setup_assumptions, make_dual_numbers
from .errors import ValidationError
from .fields import QQ, Field
from .instances import (
    acyclic_trivial_bimodule,
    exterior_one_object_category,
    cross_representable_bimodule,
    free_arrow_category,
    random_h0_surjective_map,
    random_module,
    random_ring_module,
    random_square_bimodule,
    small_random_category,
    weak_cokernel_gap_category,
)
from .matrix import Mat, kron

SEED = 20260809


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: Dict = dc_field(default_factory=dict)

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "details": self.details}


# -- independent oracles ---------------------------------------------------------------


def oracle_end_dims(t: Bimodule) -> Dict[int, int]:
    """Equalizer dimensions assembled elementwise, eliminated via transpose."""
    cat = t.acat
    field = t.field
    dims = {}
    degrees = sorted({d for a in cat.objects for d in t.at(a, a).degrees()})
    for n in degrees:
        total = sum(t.at(a, a).dim(n) for a in cat.objects)
        if total == 0:
            continue
        offs = {}
        acc = 0
        for a in cat.objects:
            offs[a] = acc
            acc += t.at(a, a).dim(n)
        rows = []
        for a in cat.objects:
            for a2 in cat.objects:
                for df, f in cat.hom_basis(a, a2):
                    out_dim = t.at(a2, a).dim(n + df)
                    if out_dim == 0:
                        continue
                    for r in range(out_dim):
                        row = [field.zero()] * total
                        for i in range(t.at(a, a).dim(n)):
                            x = Mat.basis_column(field, t.at(a, a).dim(n), i)
                            v = t.lact_apply(a, a2, a, df, f, n, x)
                            row[offs[a] + i] = field.add(row[offs[a] + i], v.entries[r][0])
                        for i in range(t.at(a2, a2).dim(n)):
                            x = Mat.basis_column(field, t.at(a2, a2).dim(n), i)
                            v = t.ract_apply(a2, a, a2, n, x, df, f)
                            c = v.entries[r][0]
                            if not ((df % 2) and (n % 2)):
                                c = field.neg(c)
                            row[offs[a2] + i] = field.add(row[offs[a2] + i], c)
                        rows.append(row)
        if rows:
            m = Mat(field, len(rows), total, rows)
            dims[n] = total - m.transpose().rank()
        else:
            dims[n] = total
    return {d: v for d, v in dims.items() if v}


def oracle_coend_dims(t: Bimodule) -> Dict[int, int]:
    """Coequalizer dimensions from the elementwise relation span."""
    cat = t.acat
    field = t.field
    dims = {}
    degrees = sorted({d for a in cat.objects for d in t.at(a, a).degrees()})
    for n in degrees:
        total = sum(t.at(a, a).dim(n) for a in cat.objects)
        if total == 0:
            continue
        offs = {}
        acc = 0
        for a in cat.objects:
            offs[a] = acc
            acc += t.at(a, a).dim(n)
        cols = []
        for a1 in cat.objects:
            for a2 in cat.objects:
                for df, f in cat.hom_basis(a2, a1):
                    src = t.at(a2, a1)
                    dx = n - df
                    for i in range(src.dim(dx)):
                        x = Mat.basis_column(field, src.dim(dx), i)
                        fx = t.lact_apply(a2, a1, a1, df, f, dx, x)
                        xf = t.ract_apply(a2, a2, a1, dx, x, df, f)
                        col = [field.zero()] * total
                        for r, v in enumerate(fx.column_values(0)):
                            col[offs[a1] + r] = field.add(col[offs[a1] + r], v)
                        sign = -1 if (df % 2 and dx % 2) else 1
                        for r, v in enumerate(xf.column_values(0)):
                            col[offs[a2] + r] = field.sub(col[offs[a2] + r],
                                                          v if sign > 0 else field.neg(v))
                        cols.append(col)
        rel_rank = Mat.from_columns(field, total, cols).rank() if cols else 0
        dims[n] = total - rel_rank
    return {d: v for d, v in dims.items() if v}


def bar_oracle_dual_numbers_tor(n: int, eps_degree: int, field: Field,
                                window: DegreeWindow) -> Dict[int, int]:
    """Reduced bar complex of k over k[e]/(e^n), built from scratch: words in
    the shifted letters s(e^1),...,s(e^{n-1}), differential merging adjacent
    letters with the standard bar sign; returns cohomology dims on the window."""
    letters = list(range(1, n))
    shifted_degree = {j: j * eps_degree - 1 for j in letters}
    # enumerate words whose total degree lies within reach of the window
    words = [()]
    frontier = [()]
    while frontier:
        new = []
        for w in frontier:
            for j in letters:
                w2 = w + (j,)
                deg = sum(shifted_degree[x] for x in w2)
                if deg >= window.lo - abs(eps_degree) * n - 2:
                    new.append(w2)
        words.extend(new)
        frontier = new
    index = {}
    dims: Dict[int, int] = {}
    for w in words:
        deg = sum(shifted_degree[x] for x in w)
        index[w] = (deg, dims.get(deg, 0))
        dims[deg] = dims.get(deg, 0) + 1
    grids: Dict[int, List[List]] = {}
    for w in words:
        deg, pos = index[w]
        if dims.get(deg + 1, 0) == 0:
            continue
        grid = grids.setdefault(deg, [[field.zero()] * dims[deg]
                                      for _ in range(dims[deg + 1])])
        # bar differential: merge adjacent letters; the merged word drops one
        # shift, hence lands in degree deg + 1
        for i in range(len(w) - 1):
            j = w[i] + w[i + 1]
            if j >= n:
                continue
            w2 = w[:i] + (j,) + w[i + 2:]
            d2, p2 = index[w2]
            sign = sum(shifted_degree[x] for x in w[:i + 1])
            val = field.one() if sign % 2 == 0 else field.neg(field.one())
            grid[p2][pos] = field.add(grid[p2][pos], val)
    diff_mats = {d: Mat(field, dims[d + 1], dims[d], g) for d, g in grids.items()
                 if dims.get(d + 1)}
    cx = Complex(field, dims, diff_mats, name="bar")
    h = cx.cohomology().as_dict()
    return {d: h.get(d, 0) for d in window.degrees()}


# -- criterion 1: (co)end oracle equivalence, Fubini, end-hom compatibility -------------


def check_coend_end_oracle(count: int = 50) -> CheckResult:
    rng = random.Random(SEED + 1)
    failures = []
    for trial in range(count):
        cat = small_random_category(rng, QQ, rng.randint(1, 3), max_total_hom=12)
        t = random_square_bimodule(rng, cat)
        res_end = end_of(t)
        res_coend = coend_of(t)
        got_end = {d: v for d, v in
                   ((d, res_end.complex.dim(d)) for d in res_end.complex.degrees()) if v}
        got_coend = {d: v for d, v in
                     ((d, res_coend.complex.dim(d)) for d in res_coend.complex.degrees()) if v}
        if got_end != oracle_end_dims(t) or got_coend != oracle_coend_dims(t):
            failures.append(trial)
            continue
        # membership of every end element in the raw naturality system
        for nn in res_end.complex.degrees():
            for j in range(res_end.complex.dim(nn)):
                amb = res_end.inclusion.component(nn) @ \
                    Mat.basis_column(QQ, res_end.complex.dim(nn), j)
                parts = {a: res_end.projections[a].component(nn) @ amb for a in cat.objects}
                for a in cat.objects:
                    for a2 in cat.objects:
                        for df, f in cat.hom_basis(a, a2):
                            lhs = t.lact_apply(a, a2, a, df, f, nn, parts[a])
                            rhs = t.ract_apply(a2, a, a2, nn, parts[a2], df, f)
                            if (df % 2) and (nn % 2):
                                rhs = -rhs
                            if lhs != rhs:
                                failures.append(trial)
    fubini_ok = _fubini_check(random.Random(SEED + 11))
    endhom_ok = _end_hom_compatibility(random.Random(SEED + 12))
    passed = not failures and fubini_ok and endhom_ok
    return CheckResult("coend_end_oracle", passed,
                       {"instances": count, "failures": failures,
                        "fubini": fubini_ok, "end_hom_compatibility": endhom_ok})


def _fubini_check(rng) -> bool:
    """Joint relation span equals the span of one-sided relations, so the
    iterated coends agree with the joint one (and dually for ends)."""
    a = small_random_category(rng, QQ, 2, max_total_hom=6)
    b = small_random_category(rng, QQ, 1, max_total_hom=4)
    prod = tensor_cat(a, b)
    t = Bimodule.diagonal(prod)
    field = QQ
    ambient_dims = {}
    for obj in prod.objects:
        for d in t.at(obj, obj).degrees():
            ambient_dims[d] = ambient_dims.get(d, 0) + t.at(obj, obj).dim(d)
    offs = {}
    for d in ambient_dims:
        acc = 0
        per = {}
        for obj in prod.objects:
            per[obj] = acc
            acc += t.at(obj, obj).dim(d)
        offs[d] = per

    def relation_columns(restrict_to):
        cols = {}
        for o1 in prod.objects:
            for o2 in prod.objects:
                for df, f in prod.hom_basis(o2, o1):
                    # classify the hom basis vector: does it lie in the span of
                    # f (x) 1 or 1 (x) g morphisms?
                    if restrict_to is not None:
                        if not _is_one_sided(prod, a, b, o1, o2, df, f, restrict_to):
                            continue
                    src = t.at(o2, o1)
                    for dx in src.degrees():
                        for i in range(src.dim(dx)):
                            x = Mat.basis_column(field, src.dim(dx), i)
                            fx = t.lact_apply(o2, o1, o1, df, f, dx, x)
                            xf = t.ract_apply(o2, o2, o1, dx, x, df, f)
                            deg = df + dx
                            col = [field.zero()] * ambient_dims.get(deg, 0)
                            if not col:
                                continue
                            for r, v in enumerate(fx.column_values(0)):
                                col[offs[deg][o1] + r] = field.add(col[offs[deg][o1] + r], v)
                            sign = -1 if (df % 2 and dx % 2) else 1
                            for r, v in enumerate(xf.column_values(0)):
                                col[offs[deg][o2] + r] = field.sub(
                                    col[offs[deg][o2] + r], v if sign > 0 else field.neg(v))
                            cols.setdefault(deg, []).append(col)
        return cols

    joint = relation_columns(None)
    sided = relation_columns("sided")
    for deg in set(joint) | set(sided):
        m1 = Mat.from_columns(field, ambient_dims[deg], joint.get(deg, []))
        m2 = Mat.from_columns(field, ambient_dims[deg], sided.get(deg, []))
        if m1.rank() != m2.rank():
            return False
        stacked = m1.hstack(m2)
        if stacked.rank() != m1.rank():
            return False
    return True


def _is_one_sided(prod, a, b, o1, o2, df, f, _tag) -> bool:
    """True when the hom basis vector of the tensor category has the form
    f (x) id or id (x) g."""
    (a1, u1) = o2
    (a2, u2) = o1
    lay = TensorLayout([a.hom(a1, a2), b.hom(u1, u2)])
    field = prod.field
    # coordinates of f in the tensor layout; check support shape
    for p, v in enumerate(f.column_values(0)):
        if field.is_zero(v):
            continue
        (d1, d2), (i1, i2) = lay.decompose(df, p)
        id_a = a1 == a2 and d1 == 0 and not a.id_vector(a1).entries[i1][0] == field.zero()
        id_b = u1 == u2 and d2 == 0 and not b.id_vector(u1).entries[i2][0] == field.zero()
        if not (id_a or id_b):
            return False
    return True


def _end_hom_compatibility(rng) -> bool:
    cat = small_random_category(rng, QQ, 2, max_total_hom=8)
    t = Bimodule.diagonal(cat)
    from .instances import random_complex
    v, _ = random_complex(rng, QQ, lo=-2, hi=0, pieces=2)
    res = end_of(t)
    lhs = hom_complex(v, res.complex).complex
    # the end of A |-> Hom(V, T(A,A)); the end twist and the right-pairing
    # swap cancel: L(f) o psi_A = R(f) o psi_A' with no sign
    homs = {a: hom_complex(v, t.at(a, a)) for a in cat.objects}
    equations = [Equation(v, t.at(a2, a), (
                     Term(a, left=(df, t.lact_family(a, a2, a, df, f))),
                     Term(a2, left=(df, t.ract_family(a2, a, a2, df, f)), sign=-1)))
                 for a in cat.objects for a2 in cat.objects for df, f in cat.hom_basis(a, a2)]
    *_, rhs, _ = naturality_subcomplex(homs, equations, name="endhom")
    return all(lhs.dim(n) == rhs.dim(n) for n in set(lhs.degrees()) | set(rhs.degrees()))


# -- criterion 2: co-Yoneda --------------------------------------------------------------


def check_co_yoneda(count: int = 20) -> CheckResult:
    rng = random.Random(SEED + 2)
    failures = []
    for trial in range(count):
        cat = small_random_category(rng, QQ, rng.randint(1, 2), max_total_hom=8)
        opcat = opposite(cat)
        gop = random_module(rng, opcat, allow_cone=False)
        x = rng.choice(cat.objects)
        # integrand T(B, B') = hom(B', x) (x) G(B): B acts on G from the left
        # (its right action over the opposite, swapped), B' on hom(B', x)
        # from the right by composition
        lays = {(bl, bu): TensorLayout([cat.hom(bu, x), gop.at(bl)])
                for bl in cat.objects for bu in cat.objects}
        t = tensor_bimodule(cat, cat, lays, lambda b1, b2: swapped(pair_action(gop.act_pair(b2, b1))), 1,
                            lambda b1, b2: pair_action(cat.comp_pair(b1, b2, x)), 0, name="coY")
        res = coend_of(t)
        # evaluation certificate: u (x) w |-> u . w in G(x) on each summand,
        # lifted through the sections (the injections' transposes project)
        ev_comps = {}
        for deg, b in itertools.product(res.complex.degrees(), cat.objects):
            plain = lifted_block([lays[(b, b)]], (deg,), swapped(pair_action(gop.act_pair(x, b))).block)
            if plain is not None and gop.at(x).dim(deg):
                term = plain @ res.injections[b].component(deg).transpose() @ res.sections[deg]
                ev_comps[deg] = ev_comps[deg] + term if deg in ev_comps else term
        try:
            ev = ChainMap(res.complex, gop.at(x), 0, ev_comps)
        except ValidationError:
            failures.append(trial)
            continue
        if not ev.is_quasi_iso():
            failures.append(trial)
    return CheckResult("co_yoneda", not failures, {"instances": count, "failures": failures})


# -- criterion 3: truncation suite --------------------------------------------------------


def check_truncation_suite(count: int = 50) -> CheckResult:
    rng = random.Random(SEED + 3)
    from .instances import random_complex
    failures = []
    for trial in range(count):
        cx, _ = random_complex(rng, QQ, pieces=rng.randint(2, 6))
        n = rng.randint(-3, 2)
        le, incl = truncate_le(cx, n)
        full = cx.cohomology().as_dict()
        got = le.cohomology().as_dict()
        for d, v in full.items():
            if d <= n and got.get(d, 0) != v:
                failures.append((trial, "dims"))
        if any(d > n for d in got):
            failures.append((trial, "support"))
        # triangle tau_le -> cx -> tau_ge(n+1) distinguished via cone comparison
        ge, proj = truncate_ge(cx, n + 1)
        c, _, _ = cone(incl)
        comps = {}
        for deg in c.degrees():
            rows = ge.dim(deg)
            cols = c.dim(deg)
            if rows == 0 or cols == 0:
                continue
            grid = [[QQ.zero()] * cols for _ in range(rows)]
            pr = proj.component(deg)
            for i in range(rows):
                for j in range(cx.dim(deg)):
                    grid[i][j] = pr.entries[i][j]
            comps[deg] = Mat(QQ, rows, cols, grid)
        try:
            cmp_map = ChainMap(c, ge, 0, comps)
        except ValidationError:
            failures.append((trial, "comparison-not-chain"))
            continue
        if not cmp_map.is_quasi_iso():
            failures.append((trial, "triangle"))
    # adjunction at H^0 on module instances: H0 Hom(iM, N) = H0 Hom(M, tau_le N)
    adj_failures = []
    rng2 = random.Random(SEED + 31)
    for trial in range(6):
        cat = small_random_category(rng2, QQ, 2, max_total_hom=8)
        m = random_module(rng2, cat)
        n_mod = random_module(rng2, cat)
        rep_m = tstruct_truncate(m)
        aisle_m = rep_m.tau_le          # an object of the aisle <= 0
        rep_n = tstruct_truncate(n_mod)
        res = resolve_module(aisle_m, -6)
        top = module_hom_complex(res.module, n_mod).complex
        bot = module_hom_complex(res.module, rep_n.tau_le).complex
        # postcomposition with the counit identifies H^0
        field = QQ
        mhc_top = module_hom_complex(res.module, n_mod)
        mhc_bot = module_hom_complex(res.module, rep_n.tau_le)
        comps = {}
        bad = False
        for deg in bot.degrees():
            cols = []
            for j in range(bot.dim(deg)):
                vec = Mat.basis_column(field, bot.dim(deg), j)
                amb = mhc_bot.inclusion.component(deg) @ vec
                out = Mat.zero(field, mhc_top.ambient.dim(deg), 1)
                for a in cat.objects:
                    fam = mhc_bot.layouts[a].family_from_vector(
                        deg, mhc_bot.projs[a].component(deg) @ amb)
                    out_fam = {}
                    for i, mat in fam.items():
                        step = rep_n.counit.at(a).component(i + deg)
                        prod = step @ mat
                        if not prod.is_zero():
                            out_fam[i] = prod
                    out = out + mhc_top.injs[a].component(deg) @ \
                        mhc_top.layouts[a].vector_from_family(deg, out_fam)
                sol = mhc_top.inclusion.component(deg).solve(out)
                if sol is None:
                    bad = True
                    break
                cols.append(sol.column_values(0))
            if bad:
                break
            if cols and top.dim(deg):
                comps[deg] = Mat.from_columns(field, top.dim(deg), cols)
        if bad:
            adj_failures.append((trial, "not-in-subcomplex"))
        else:
            post = ChainMap(bot, top, 0, comps)
            h_map = post.cohomology_map(0)
            if h_map.rows != h_map.cols or h_map.rank() != h_map.rows:
                adj_failures.append((trial, "h0-not-iso"))
    passed = not failures and not adj_failures
    return CheckResult("truncation_suite", passed,
                       {"instances": count, "failures": failures,
                        "adjunction_failures": adj_failures})


# -- criterion 4: natural t-structure axioms ----------------------------------------------


def check_tstructure_axioms(count: int = 20) -> CheckResult:
    rng = random.Random(SEED + 4)
    failures = []
    for trial in range(count):
        cat = small_random_category(rng, QQ, 3, max_total_hom=10)
        m = random_module(rng, cat)
        rep = tstruct_truncate(m)
        if not rep.triangle_is_distinguished:
            failures.append((trial, "triangle"))
        # aisle shift-closure: H-support of tau_le stays <= 0 after [1]
        from .bimodules import shift_module
        shifted = shift_module(rep.tau_le, 1)
        for a in cat.objects:
            if any(d > -1 for d in shifted.at(a).cohomology().support()):
                failures.append((trial, "shift-closure"))
        for a in cat.objects:
            le_h = rep.tau_le.at(a).cohomology().support()
            ge_h = rep.tau_ge.at(a).cohomology().support()
            if any(d > 0 for d in le_h) or any(d < 1 for d in ge_h):
                failures.append((trial, "aisle-support"))
        # orthogonality on degrees <= 0 of the derived hom
        if rep.tau_le.total_dim() and rep.tau_ge.total_dim():
            hom = derived_hom(rep.tau_le, rep.tau_ge, DegreeWindow(-2, 0))
            if any(v for v in hom.dims.values()):
                failures.append((trial, "orthogonality"))
        # heart: modules with cohomology concentrated in degree 0
        heart_obj = rep.tau_le
        heart_rep = tstruct_truncate(heart_obj)
        for a in cat.objects:
            if heart_rep.tau_ge.at(a).total_dim() != 0:
                failures.append((trial, "heart"))
            got = heart_rep.tau_le.at(a).cohomology().as_dict()
            want = {d: v for d, v in m.at(a).cohomology().as_dict().items() if d <= 0}
            if got != want:
                failures.append((trial, "heart-dims"))
    return CheckResult("tstructure_axioms", not failures,
                       {"instances": count, "failures": failures})


# -- criterion 5: derived tensor laws over the dual numbers --------------------------------


def check_derived_tensor_laws(pairs: int = 30) -> CheckResult:
    details = {}
    # (i) bar-oracle agreement for k (x)^L k, |e| = -1 and the classical |e| = 0
    ring1, aug1 = make_dual_numbers(2, -1, QQ)
    cat1 = one_object_category(ring1)
    k1 = restricted_ground_module(aug1, cat1)
    w = DegreeWindow(-6, 0)
    got1 = derived_tensor(k1, k1, w).dims
    oracle1 = bar_oracle_dual_numbers_tor(2, -1, QQ, w)
    frozen1 = {0: 1, -1: 0, -2: 1, -3: 0, -4: 1, -5: 0, -6: 1}
    ok_i = got1 == oracle1 == frozen1
    ring0, aug0 = make_dual_numbers(2, 0, QQ)
    cat0 = one_object_category(ring0)
    k0 = restricted_ground_module(aug0, cat0)
    w0 = DegreeWindow(-4, 0)
    got0 = derived_tensor(k0, k0, w0).dims
    oracle0 = bar_oracle_dual_numbers_tor(2, 0, QQ, w0)
    frozen0 = {0: 1, -1: 1, -2: 1, -3: 1, -4: 1}
    ok_i0 = got0 == oracle0 == frozen0
    details["tor_eps_minus1"] = {str(k): v for k, v in sorted(got1.items())}
    details["tor_eps_zero"] = {str(k): v for k, v in sorted(got0.items())}
    # (ii) nonpositivity of the derived tensor product
    rng = random.Random(SEED + 5)
    ok_ii = True
    for _ in range(pairs):
        v = random_ring_module(rng, aug1)
        u = random_ring_module(rng, aug1)
        rep = derived_tensor(v, u, DegreeWindow(-1, 2))
        if any(rep.dims.get(d, 0) for d in range(1, 3)):
            ok_ii = False
    # (iii) surjectivity of H^0 propagates through (-) (x)^L W
    rng3 = random.Random(SEED + 51)
    ok_iii = True
    for _ in range(pairs):
        v_total, v_target, fmap = random_h0_surjective_map(rng3, aug1)
        wmod = random_ring_module(rng3, aug1, allow_cone=False)
        if not _h0_surjectivity_propagates(fmap, wmod):
            ok_iii = False
    # (iv) H^0 base-change comparison bijectivity
    rng4 = random.Random(SEED + 52)
    ok_iv = True
    for _ in range(pairs):
        v = random_ring_module(rng4, aug1, allow_cone=True)
        u = random_ring_module(rng4, aug1, allow_cone=True)
        if not _h0_tensor_comparison(v, u, ring1):
            ok_iv = False
    passed = ok_i and ok_i0 and ok_ii and ok_iii and ok_iv
    details.update({"bar_oracle_odd": ok_i, "bar_oracle_classical": ok_i0,
                    "nonpositive_pairs": ok_ii, "h0_surjective": ok_iii,
                    "h0_comparison": ok_iv})
    return CheckResult("derived_tensor_laws", passed, details)


def _h0_surjectivity_propagates(fmap, wmod) -> bool:
    """H^0(f (x) 1) surjective for H^0-surjective f, by resolving the other
    factor and transporting f through the balanced quotient."""
    res = resolve_module(wmod, -4)
    src = balanced_tensor_ring(fmap.source, res.module)
    tgt = balanced_tensor_ring(fmap.target, res.module)
    f = fmap.at(fmap.source.cat.objects[0])
    p = res.module.at(res.module.cat.objects[0])

    def plain(flat):
        # v (x) q |-> f(v) (x) q
        dv, dq = flat
        return tgt.layout.place(flat, kron(f.component(dv), Mat.identity(wmod.field, p.dim(dq))))

    induced = lifted_map([src], tgt, plain)
    h0 = induced.cohomology_map(0)
    return h0.rank() == tgt.complex.cohomology().dim(0)


def _h0_tensor_comparison(v: Module, u: Module, ring: DgRing) -> bool:
    """dim H^0(V) (x)_{H^0(R)} H^0(W) = dim H^0(V (x)^L W) with the explicit
    map on representatives bijective."""
    field = ring.field
    obj = v.cat.objects[0]
    res = resolve_module(v, -4)
    p = res.module
    tensor = balanced_tensor_ring(p, u)
    quot, q_proj, q_lay = tensor.complex, tensor.projection, tensor.layout
    h0v = v.at(obj).cohomology()
    h0u = u.at(list(u.cat.objects)[0]).cohomology()
    h0r = ring.underlying.cohomology()
    h0q = quot.cohomology()
    nv, nu, nr = h0v.dim(0), h0u.dim(0), h0r.dim(0)
    if nv * nu == 0:
        return h0q.dim(0) == 0
    pairs = nv * nu
    rel_cols = []
    uobj = list(u.cat.objects)[0]
    for ir in range(nr):
        rvec = h0r.rep(0).col(ir)
        for iv in range(nv):
            vv = h0v.rep(0).col(iv)
            vr = v.apply_action(obj, obj, 0, vv, 0, rvec)
            vr_cls = h0v.class_of(0, vr)
            for iu in range(nu):
                uu = h0u.rep(0).col(iu)
                ru = u.apply_action(uobj, uobj, 0, uu, 0, rvec)
                ru_cls = h0u.class_of(0, ru)
                col = [field.zero()] * pairs
                for k, x in enumerate(vr_cls.column_values(0)):
                    col[k * nu + iu] = field.add(col[k * nu + iu], x)
                for k, x in enumerate(ru_cls.column_values(0)):
                    col[iv * nu + k] = field.sub(col[iv * nu + k], x)
                if any(not field.is_zero(x) for x in col):
                    rel_cols.append(col)
    rel = Mat.from_columns(field, pairs, rel_cols) if rel_cols else Mat.zero(field, pairs, 0)
    lhs_dim = pairs - rel.rank()
    if lhs_dim != h0q.dim(0):
        return False
    # explicit map: lift [v] through the resolution, tensor with the rep of [u]
    comp_h0 = res.comparison.at(obj).cohomology_map(0)
    from .matrix import invert
    if comp_h0.rows != comp_h0.cols or comp_h0.rank() != comp_h0.rows:
        return False
    inv = invert(comp_h0)
    hp = p.at(obj).cohomology()
    cols = []
    for iv in range(nv):
        coords = inv @ Mat.basis_column(field, nv, iv)
        lift = hp.rep(0) @ coords
        for iu in range(nu):
            uu = h0u.rep(0).col(iu)
            col = [field.zero()] * q_lay.complex.dim(0)
            for pi, x in enumerate(lift.column_values(0)):
                if field.is_zero(x):
                    continue
                for ui, y in enumerate(uu.column_values(0)):
                    if field.is_zero(y):
                        continue
                    pos = q_lay.position((0, 0), (pi, ui))
                    col[pos] = field.add(col[pos], field.mul(x, y))
            cls = h0q.class_of(0, q_proj.component(0) @ Mat.column(field, col))
            cols.append(cls.column_values(0))
    themap = Mat.from_columns(field, h0q.dim(0), cols)
    if themap.rank() != h0q.dim(0):
        return False
    if rel_cols and not (themap @ rel).is_zero():
        return False
    return True


# -- criterion 6: resolution invariance ------------------------------------------------


def check_resolution_invariance(count: int = 20) -> CheckResult:
    rng = random.Random(SEED + 6)
    ring, aug = make_dual_numbers(2, -1, QQ)
    failures = []
    for trial in range(count):
        v = random_ring_module(rng, aug)
        u = random_ring_module(rng, aug)
        w = DegreeWindow(-3, 0)
        left = derived_tensor(v, u, w, resolve="left").dims
        right = derived_tensor(v, u, w, resolve="right").dims
        if left != right:
            failures.append(trial)
    return CheckResult("resolution_invariance", not failures,
                       {"instances": count, "failures": failures})


# -- criterion 7: duality ----------------------------------------------------------------


def check_duality(count: int = 20) -> CheckResult:
    rng = random.Random(SEED + 7)
    failures = []
    for trial in range(count):
        cat = small_random_category(rng, QQ, rng.randint(1, 2), max_total_hom=6)
        diag = Bimodule.diagonal(cat)
        acyc = acyclic_trivial_bimodule(rng, cat)
        f = direct_sum_bimodules([diag, acyc])
        d = dual_of(f)
        dd = dual_of(d)
        for a in cat.objects:
            wit_f = find_quasi_representative(f, a)
            wit_dd = find_quasi_representative(dd, a)
            if wit_f is None or wit_dd is None or wit_f.obj != wit_dd.obj:
                failures.append((trial, "double-dual-witness"))
                continue
            for b in cat.objects:
                if dd.at(a, b).cohomology().as_dict() != f.at(a, b).cohomology().as_dict():
                    failures.append((trial, "double-dual-dims"))
            # variance reversal through the witness
            for b in cat.objects:
                lhs = d.at(a, b).cohomology().as_dict()
                rhs = cat.hom(wit_f.obj, b).cohomology().as_dict()
                if lhs != rhs:
                    failures.append((trial, "variance"))
    return CheckResult("duality", not failures, {"instances": count, "failures": failures})


# -- criterion 8: change-of-rings adjunctions -----------------------------------------------


def check_changeofrings(count: int = 20) -> CheckResult:
    rng = random.Random(SEED + 8)
    ext_failures = []
    coext_failures = []
    tensor_failures = []
    ring, aug = make_dual_numbers(2, -1, QQ)
    from .instances import balanced_cross_bimodule
    for trial in range(count):
        # extension side: F over (a, b_R), an R-balanced cross representable
        a_cat = free_arrow_category(ring) if trial % 2 else one_object_category(ring)
        ground = aug.target
        b_s = one_object_category(ground)
        b_r = restrict_category(b_s, aug)
        a0 = rng.choice(a_cat.objects)
        f = balanced_cross_bimodule(a_cat, b_r, a0, "*")
        verdict = extension_adjunction_check(a_cat, b_s, f, aug)
        if not verdict.all_pass:
            ext_failures.append(trial)
        # coextension side over the dual numbers as S
        a_s = one_object_category(ring)
        b_r2 = one_object_category(DgRing.ground_field(QQ))
        g = cross_representable_bimodule(a_s, b_r2, "*", "*")
        pair = coextension_adjunction_check(a_s, b_r2, g)
        if not pair.all_pass:
            coext_failures.append(trial)
    # tensor/cotensor and transitivity once per suite (deterministic instances)
    scat = one_object_category(ring)
    b_r2 = one_object_category(DgRing.ground_field(QQ))
    g = cross_representable_bimodule(scat, b_r2, "*", "*")
    v = ring_as_module(ring, scat)
    if not coextension_tensor_check(v, g, g):
        tensor_failures.append("tensor")
    if not coextension_cotensor_check(v, g, g):
        tensor_failures.append("cotensor")
    ring3, aug3 = make_dual_numbers(3, -2, QQ)
    chain = factorize(aug3)
    acat3 = free_arrow_category(ring3)
    trans = transitivity_check(chain.head, chain.steps[0], acat3)
    trans_ok = trans.all_pass
    if chain.steps[1:]:
        step2 = chain.steps[1]
        composed = chain.steps[0].compose(chain.head)
        trans2 = transitivity_check(composed, step2, acat3)
        trans_ok = trans_ok and trans2.all_pass
    passed = not ext_failures and not coext_failures and not tensor_failures and trans_ok
    return CheckResult("changeofrings_adjunctions", passed,
                       {"extension_failures": ext_failures,
                        "coextension_failures": coext_failures,
                        "tensor_cotensor_failures": tensor_failures,
                        "transitivity": trans_ok})


# -- criterion 9: deformation pipeline ------------------------------------------------------


def check_deformation_pipeline() -> CheckResult:
    results = {}
    passed = True
    combos = [(2, -1), (2, -2), (3, -2)]
    for n, e in combos:
        ring, aug = make_dual_numbers(n, e, QQ)
        setup = check_setup_assumptions(aug)
        chain = factorize(aug)
        key = f"n={n},eps={e}"
        results[key] = {"setup_all_pass": setup.all_pass,
                        "nilpotency_order": setup.nilpotency_order,
                        "factorization_all_pass": chain.all_pass,
                        "square_zero_steps": chain.square_zero_kernels}
        passed = passed and setup.all_pass and chain.all_pass
    # three bundled instance categories over k[e]/(e^2), |e| = -1
    ring, aug = make_dual_numbers(2, -1, QQ)
    instances = {
        "one_object_R": one_object_category(ring),
        "free_arrow": free_arrow_category(ring),
        "exterior_f": exterior_one_object_category(ring),
    }
    for name, cat in instances.items():
        ext, report = deform_category(cat, aug, DegreeWindow(-3, 0))
        results[name] = report.as_dict()
        passed = passed and report.all_pass
    # the order-3 ring deforms the one-object instance through two steps
    ring3, aug3 = make_dual_numbers(3, -2, QQ)
    ext3, report3 = deform_category(one_object_category(ring3), aug3, DegreeWindow(-4, 0))
    results["one_object_R_eps3"] = report3.as_dict()
    passed = passed and report3.all_pass
    return CheckResult("deformation_pipeline", passed, results)


# -- criterion 10: negative controls -------------------------------------------------------


def check_negative_controls() -> CheckResult:
    details = {}
    # a missing weak cokernel is caught with its witness
    gap = weak_cokernel_gap_category(QQ)
    verdict = check_hlc(gap)
    details["gap_category_fails"] = (not verdict.weak_cokernels
                                     and verdict.failing_morphism is not None)
    # a non-surjective theta fails assumption (1)
    ring, aug = make_dual_numbers(2, -1, QQ)
    ground = aug.target
    comps = {0: Mat(QQ, ring.dim(0), 1, [[QQ.one()]])}
    incl = DgRingMorphism(ground, ring,
                          ChainMap(ground.underlying, ring.underlying, 0, comps), name="incl")
    report = check_setup_assumptions(incl)
    details["non_surjective_fails"] = not report.surjective
    # a scenario with d^2 != 0 is rejected at load
    from .scenario import ScenarioError, load_scenario_dict
    bad = {
        "field": "Q",
        "complexes": {"C": {"dims": {"0": 1, "1": 1, "2": 1},
                            "d": {"0": [["1"]], "1": [["1"]]}}},
        "commands": [],
    }
    try:
        load_scenario_dict(bad)
        details["bad_scenario_rejected"] = False
    except ScenarioError as exc:
        details["bad_scenario_rejected"] = True
        details["rejection_message"] = str(exc)
    passed = all(v for k, v in details.items() if isinstance(v, bool))
    return CheckResult("negative_controls", passed, details)


# -- suite runner ----------------------------------------------------------------------


ALL_CHECKS: List = [
    ("coend_end_oracle", check_coend_end_oracle),
    ("co_yoneda", check_co_yoneda),
    ("truncation_suite", check_truncation_suite),
    ("tstructure_axioms", check_tstructure_axioms),
    ("derived_tensor_laws", check_derived_tensor_laws),
    ("resolution_invariance", check_resolution_invariance),
    ("duality", check_duality),
    ("changeofrings_adjunctions", check_changeofrings),
    ("deformation_pipeline", check_deformation_pipeline),
    ("negative_controls", check_negative_controls),
]


def run_paper_suite(name_filter: Optional[str] = None) -> List[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        if name_filter and name_filter not in name:
            continue
        results.append(fn())
    return results
