"""Dg-rings: dual numbers family, ideals, powers, quotients, setup checker."""

import itertools
import random

import pytest

from dgkit import dgring
from dgkit.errors import ValidationError
from dgkit.fields import GF, QQ
from dgkit.dgring import (
    DgIdeal,
    DgRing,
    DgRingMorphism,
    check_setup_assumptions,
    ideal_power,
    make_dual_numbers,
    quotient,
)
from dgkit.complexes import ChainMap, subcomplex
from dgkit.matrix import Mat
from dgkit.verdict import CERTIFIED, FAILED, passes


def test_dual_numbers_n2_deg_minus1():
    ring, aug = make_dual_numbers(2, -1, QQ)
    h = ring.underlying.cohomology().as_dict()
    assert h == {0: 1, -1: 1}
    assert all(aug.surjectivity_by_degree().values())


def test_dual_numbers_classical_degree0():
    ring, aug = make_dual_numbers(2, 0, QQ)
    assert ring.underlying.cohomology().as_dict() == {0: 2}


def test_dual_numbers_family_closed_form():
    for n, e in [(2, -1), (2, -2), (3, -2), (4, -2), (3, 0)]:
        ring, _ = make_dual_numbers(n, e, QQ)
        h = ring.underlying.cohomology().as_dict()
        expect = {}
        for j in range(n):
            expect[j * e] = expect.get(j * e, 0) + 1
        assert h == expect


def test_dual_numbers_parity_guard():
    with pytest.raises(ValidationError):
        make_dual_numbers(3, -1, QQ)
    # characteristic 2 lifts the restriction
    ring, _ = make_dual_numbers(3, -1, GF(2))
    assert ring.total_dim() == 3


def test_ideal_power_of_dual_numbers():
    ring, aug = make_dual_numbers(3, -2, QQ)
    ideal = aug.kernel_ideal()
    assert ideal_power(ideal, 1) is ideal
    sq = ideal_power(ideal, 2)
    assert sq.sub.cohomology().as_dict() == {-4: 1}
    cb = ideal_power(ideal, 3)
    assert cb.is_zero()


def ideal_power_by_pairs(ideal, k):
    """I^k from one product of basis elements at a time, in (dx, i, dy, j) order."""
    if k == 1:
        return ideal
    amb, prev = ideal.ambient, ideal_power_by_pairs(ideal, k - 1)
    spans = {}
    for dx in prev.sub.degrees():
        for i in range(prev.dim(dx)):
            x = prev.column_span(dx).col(i)
            for dy in ideal.sub.degrees():
                for j in range(ideal.dim(dy)):
                    prod = amb.mul(dx, x, dy, ideal.column_span(dy).col(j))
                    if not prod.is_zero():
                        spans.setdefault(dx + dy, []).append(prod.column_values(0))
    if not spans:
        return DgIdeal.zero(amb)
    cols = {deg: Mat.from_columns(amb.field, amb.dim(deg), vecs).image_basis() for deg, vecs in spans.items()}
    return DgIdeal(amb, subcomplex(amb.underlying, cols)[1])


def rebased(ideal, rng):
    """The same ideal on a random basis of each degree."""
    field = ideal.ambient.field
    cols = {}
    for deg in ideal.sub.degrees():
        n = ideal.dim(deg)
        while True:
            change = Mat(field, n, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if change.rank() == n:
                break
        cols[deg] = ideal.column_span(deg) @ change
    return DgIdeal(ideal.ambient, subcomplex(ideal.ambient.underlying, cols)[1])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=str)
def test_ideal_power_matches_the_pair_loop(field):
    rng = random.Random(7)
    for n, eps in itertools.product(range(2, 6), (0, -1, -2)):
        try:
            ring, aug = make_dual_numbers(n, eps, field)
        except ValidationError:
            continue
        for ideal in (aug.kernel_ideal(), rebased(aug.kernel_ideal(), rng)):
            for k in range(2, n + 1):
                got, want = ideal_power(ideal, k), ideal_power_by_pairs(ideal, k)
                assert list(got.inclusion.components.items()) == list(want.inclusion.components.items())
                assert got.sub.spaces.dims == want.sub.spaces.dims


def test_dual_numbers_n2_square_zero():
    ring, aug = make_dual_numbers(2, -1, QQ)
    ideal = aug.kernel_ideal()
    assert ideal.squares_to_zero()
    assert ideal_power(ideal, 2).is_zero()


def test_quotient_zero_ideal_is_identity():
    ring, _ = make_dual_numbers(2, -1, QQ)
    q, proj = quotient(ring, DgIdeal.zero(ring))
    assert q is ring


def test_quotient_by_augmentation_ideal_is_ground_field():
    ring, aug = make_dual_numbers(2, -1, QQ)
    q, proj = quotient(ring, aug.kernel_ideal())
    assert q.total_dim() == 1
    assert all(proj.surjectivity_by_degree().values())


def test_quotient_eps3_by_square_matches_eps2():
    ring3, aug3 = make_dual_numbers(3, -2, QQ)
    ideal = aug3.kernel_ideal()
    q, proj = quotient(ring3, ideal_power(ideal, 2))
    ring2, _ = make_dual_numbers(2, -2, QQ)
    # same graded dimensions and same structure constants on basis
    assert {d: q.dim(d) for d in q.degrees()} == {d: ring2.dim(d) for d in ring2.degrees()}
    for dx, i in q.basis():
        for dy, j in q.basis():
            assert q.mul_basis(dx, i, dy, j) == ring2.mul_basis(dx, i, dy, j)


def test_setup_checker_dual_numbers():
    for n, e in [(2, -1), (3, -2)]:
        ring, aug = make_dual_numbers(n, e, QQ)
        report = check_setup_assumptions(aug)
        assert passes(report)
        assert report.nilpotency_order == n


def test_setup_checker_certifies_nilpotency_orders_past_twelve(monkeypatch):
    # k[e]/(e^n) with |e| = 0: powers are taken until one is acyclic or two
    # agree, each formed once from the one before: n - 1 products
    step = dgring._next_power
    products = []

    def counted(prev, ideal, k):
        products.append(k)
        return step(prev, ideal, k)

    monkeypatch.setattr(dgring, "_next_power", counted)
    for n, count in ((13, 12), (14, 13)):
        products.clear()
        ring, aug = make_dual_numbers(n, 0, QQ)
        report = check_setup_assumptions(aug)
        assert passes(report)
        assert report.nilpotency_order == n
        assert products == list(range(2, n + 1)) and len(products) == count


def test_setup_checker_identity():
    ring, _ = make_dual_numbers(2, -1, QQ)
    report = check_setup_assumptions(DgRingMorphism.identity(ring))
    assert passes(report)
    assert report.nilpotency_order == 1


def test_setup_checker_non_surjective_inclusion_fails():
    ring, aug = make_dual_numbers(2, -1, QQ)
    ground = aug.target
    comps = {0: Mat(QQ, ring.dim(0), 1, [[1]])}
    incl = DgRingMorphism(ground, ring, ChainMap(ground.underlying, ring.underlying, 0, comps),
                          name="incl")
    report = check_setup_assumptions(incl)
    assert report.surjective.status == FAILED
    assert report.strictly_surjective[-1] is False


def test_factorization_chain_composes_to_theta():
    ring, aug = make_dual_numbers(3, -2, QQ)
    ideal = aug.kernel_ideal()
    q2, p2 = quotient(ring, ideal_power(ideal, 2))   # R -> R/I^2
    # induced ideal of q2 and its quotient
    aug_q2 = check_setup_assumptions(p2)
    assert aug_q2.surjective.status == CERTIFIED


def test_a_ring_morphism_of_nonzero_degree_is_rejected():
    ring, _ = make_dual_numbers(2, -1, QQ)
    # 1 |-> e is a chain map of degree -1 (the differential is zero)
    lower = ChainMap(ring.underlying, ring.underlying, -1, {0: Mat(QQ, ring.dim(-1), ring.dim(0), [[1]])})
    with pytest.raises(ValidationError, match="ring morphisms have degree 0"):
        DgRingMorphism(ring, ring, lower)


def test_ring_rejects_positive_degrees():
    with pytest.raises(ValidationError):
        DgRing.from_table(QQ, [0, 1], ["1", "x"], 0,
                          lambda i, j: {0: 1} if i == j == 0 else {})


def test_ring_rejects_a_product_into_a_degree_with_no_basis():
    # e.e = 1 for |e| = -1 would sit in degree -2, which has no basis element
    def mult(i, j):
        return {0: 1} if i == j == 1 else {i + j: 1}

    with pytest.raises(ValidationError, match=r"product e\*e has wrong degree"):
        DgRing.from_table(QQ, [0, -1], ["1", "e"], 0, mult)


def test_ideal_power_lists_degrees_in_the_order_of_their_first_product():
    # basis 1, a | c, c1, c2, u | w in degrees 0 | -1 | -2, with ac = ca = u,
    # c1 c2 = -c2 c1 = w and every other product of two non-units zero: in
    # the pair loop over I = (a, c, c1, c2, u, w), ca lands in degree -1
    # before c1 c2 in degree -2
    table = {(1, 2): {5: 1}, (2, 1): {5: 1}, (3, 4): {6: 1}, (4, 3): {6: -1}}
    ring = DgRing.from_table(QQ, [0, 0, -1, -1, -1, -1, -2], ["1", "a", "c", "c1", "c2", "u", "w"], 0,
                             lambda i, j: {j: 1} if i == 0 else {i: 1} if j == 0 else table.get((i, j), {}))
    ideal = DgIdeal(ring, subcomplex(ring.underlying, {0: Mat.identity(QQ, 2).take_columns([1]),
                                                       -1: Mat.identity(QQ, 4), -2: Mat.identity(QQ, 1)})[1])
    got, want = ideal_power(ideal, 2), ideal_power_by_pairs(ideal, 2)
    assert list(got.inclusion.components) == [-1, -2]
    assert list(got.inclusion.components.items()) == list(want.inclusion.components.items())
