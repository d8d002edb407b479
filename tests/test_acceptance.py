"""Acceptance suite: every criterion at its stated tolerance and budget.

Each criterion is a check in ``rootmatch.checks``, run here on the
defaults of ``rootmatch all``.  Each test prints one PASS line with the
check's evidence (visible with ``pytest -s`` or in the captured output)
and enforces its runtime budget.  Criterion 3's check also runs the
matching of criterion 4 on the fuzz corpus, in the same pass.
"""

import time

from rootmatch import checks

INPUTS = checks.Inputs()


def _run(number: int, budget: float, *criterion) -> str:
    start = time.time()
    evidence = "; ".join(check(INPUTS) for check in criterion)
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) {evidence}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"
    return evidence


def test_criterion_1_catalogue_identities():
    _run(1, 1.0, checks.catalogue_identities)


def test_criterion_2_codimension_bounds():
    _run(2, 5.0, checks.codim_bounds_rank_2_to_8)


def test_criterion_3_matrix_properties():
    evidence = _run(3, 120.0, checks.fuzz_properties_and_matching)
    # the seed-1 corpus holds leftmost-greedy dead ends, and the evidence counts them
    assert evidence.endswith(", 355 deferring runs, 368 deferred pairs)")


def test_criterion_4_two_per_row_matching():
    _run(4, 120.0, checks.unconstrained_matching)


def test_criterion_5_hand_derived_instance():
    _run(5, 5.0, checks.hand_derived_instance)


def test_criterion_6_model_algebra():
    _run(6, 1.0, checks.bracket_identity_exact, checks.fperp_gram_identity)


def test_criterion_7_zero_case():
    _run(7, 30.0, checks.stabilizer_zero_case)


def test_criterion_8_ratio_stability():
    # 100,000 samples per seed cost a third of `rootmatch all`, so this
    # comparison runs here only.
    def against_100k_samples(inputs):
        big = []
        for seed in inputs.seeds:
            e4 = checks.ratio_estimate(inputs.samples, seed).max_ratio
            e5 = checks.ratio_estimate(100_000, seed).max_ratio
            assert e5 >= e4  # nondecreasing in the sample count
            assert e5 < 2.0 * e4
            big.append(e5)
        return f"1e5 max {max(big):.3f}"

    _run(8, 300.0, checks.ratio_stability, against_100k_samples)


def test_criterion_9_flat_pipeline():
    _run(9, 60.0, checks.flat_pipeline)


def test_criterion_10_eps_scaling():
    _run(10, 300.0, checks.eps_linear_scaling)
