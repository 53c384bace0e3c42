"""Acceptance suite: every criterion at its stated tolerance (exact).

Each test drives the corresponding named check from dgkit.verify (the same
checks behind `dgkit verify --suite paper`) and prints one pass/fail line.
Expected values inside the checks are computed by independent oracles
(elementwise equalizer/coequalizer solvers, the reduced bar complex, LES rank
bookkeeping) and frozen where the criteria state them.

Each check's rendered report must also equal, key for key, its entry in the
committed tests/golden/paper_suite.json, the ``results`` of `dgkit verify
--suite paper --format json`.  Regenerate that file, after checking that a
change of output is intended, with ``PYTHONPATH=src python tests/test_acceptance.py``.
"""

import json
import random
from pathlib import Path

import pytest

from dgkit import verify
from dgkit.bimodules import coend_of, end_of
from dgkit.dgring import make_dual_numbers
from dgkit.fields import GF
from dgkit.instances import random_ring_module, random_square_bimodule, small_random_category

GOLDEN = Path(__file__).resolve().parent / "golden" / "paper_suite.json"


def _drive(check_fn, name):
    result = check_fn()
    print(f"[{'pass' if result.passed else 'FAIL'}] {name}")
    assert result.passed, result.details
    assert json.loads(json.dumps(result.as_dict())) == json.loads(GOLDEN.read_text())[result.name]
    return result


def test_golden_file_lists_every_check():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(name for name, _ in verify.ALL_CHECKS)


def test_criterion_1_coend_end_oracle_equivalence():
    # 50 random square bimodules, <= 3 objects, total hom dimension <= 12:
    # exact agreement with the brute-force equalizer/coequalizer solver,
    # membership re-checked elementwise; Fubini and end-hom compatibility.
    _drive(verify.check_coend_end_oracle, "coend/end oracle equivalence")


def test_criterion_2_co_yoneda():
    # 20 random modules G and objects X with the explicit evaluation
    # certificate verified to be a quasi-isomorphism.
    _drive(verify.check_co_yoneda, "co-Yoneda")


def test_criterion_3_truncation_suite():
    # 50 random complexes: smart truncation cohomology, distinguished
    # truncation triangle, and the H^0 adjunction on module instances.
    _drive(verify.check_truncation_suite, "truncation suite")


def test_criterion_4_tstructure_axioms():
    # 20 random modules over random nonpositive 3-object categories: aisle
    # shift-closure, orthogonality in certified nonpositive degrees, heart.
    _drive(verify.check_tstructure_axioms, "natural t-structure axioms")


def test_criterion_5_derived_tensor_laws():
    # (i) bar-oracle-frozen Tor over k[e]/(e^2): |e| = -1 gives k in even
    # degrees 0,-2,-4,-6 (the criterion's own oracle; see the decisions
    # ledger for the prose discrepancy) and |e| = 0 gives k in every degree;
    # (ii) nonpositivity on 30 random pairs; (iii) H^0-surjectivity
    # propagation on 30 maps; (iv) H^0 comparison bijectivity on 30 pairs.
    _drive(verify.check_derived_tensor_laws, "derived tensor laws")


def test_criterion_6_resolution_invariance():
    # 20 random pairs: resolving left vs right factor agrees in every
    # certified degree.
    _drive(verify.check_resolution_invariance, "resolution invariance")


def test_criterion_7_duality():
    # 20 representable-plus-acyclic instances: double dual quasi-isomorphic
    # with matching witness, graded dimensions variance-reversed.
    _drive(verify.check_duality, "duality")


def test_criterion_8_changeofrings_adjunctions():
    # 20 instances per adjunction: strict round trips and hom-space equality,
    # tensor/cotensor isomorphisms, transitivity on the k[e]/(e^3) chain.
    _drive(verify.check_changeofrings, "change-of-rings strict adjunctions")


def test_criterion_9_deformation_pipeline():
    # setup checker and factorization for n in {2,3}, |e| in {-1,-2}
    # (respecting the parity guard), plus all-pass deformation reports on the
    # three bundled instance categories; runtime bounded by the suite timeout.
    _drive(verify.check_deformation_pipeline, "deformation pipeline")


def test_criterion_10_negative_controls():
    # missing weak cokernel caught with witness; non-surjective theta fails
    # assumption (1); d^2 != 0 scenario rejected at load with the entity named.
    _drive(verify.check_negative_controls, "negative controls")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({r.name: r.as_dict() for r in verify.run_paper_suite()}, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("p", [2, 3])
def test_oracles_over_small_prime_fields(p):
    # The paper suite runs the oracles over Q only.  They add entries raw and
    # leave the reduction mod p to Mat(...), and over F_2, where 1 + 1 = 0, a
    # sum that reached a rank unreduced would show.
    field = GF(p)
    rng = random.Random(20261020 + p)
    dims = []
    for _ in range(15):
        t = random_square_bimodule(rng, small_random_category(rng, field, rng.randint(1, 3), max_total_hom=12))
        for oracle, res in ((verify.oracle_end_dims, end_of(t)), (verify.oracle_coend_dims, coend_of(t))):
            dims.append({d: res.complex.dim(d) for d in res.complex.degrees() if res.complex.dim(d)})
            assert oracle(t) == dims[-1]
    assert any(dims)
    ring, aug = make_dual_numbers(2, -1, field)
    for _ in range(10):
        v, u = random_ring_module(rng, aug), random_ring_module(rng, aug)
        assert verify._h0_tensor_comparison(v, u, ring)
