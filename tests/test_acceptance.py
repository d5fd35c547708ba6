"""End-to-end acceptance checks: one test per headline guarantee, each
driven by the corresponding certificate runner at full trial counts and
held to its time budget."""

import time

from ffkakeya import selftest

SEED = 2024


def _run(runner, budget_seconds, **kw):
    start = time.monotonic()
    cert = runner(**kw)
    elapsed = time.monotonic() - start
    assert cert.verdict == "pass", cert.witness
    assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    return cert


def test_01_hasse_derivative_matches_shift_expansion():
    # 500 random polynomials per field over q in {2,3,5,7,9}, all orders
    _run(selftest.hasse_oracle_check, 30, seed=SEED)


def test_02_multiplicity_lemma_suite():
    # derivative, composition and additivity laws, 300 instances each
    _run(selftest.multiplicity_lemmas_check, 60, seed=SEED)


def test_03_vandermonde_identity_exhaustive():
    # arity <= 4, |alpha| <= 8, w <= 8, over the integers
    _run(selftest.vandermonde_check, 5)


def test_04_vanishing_polynomial_existence():
    # 200 random systems under the counting inequality, independently re-checked
    _run(selftest.vanishing_existence_check, 120, seed=SEED, trials=200)


def test_05_schwartz_zippel_with_multiplicities():
    # 300 random nonzero polynomials plus the exact equality witness
    _run(selftest.schwartz_zippel_check, 60, seed=SEED, trials=300)


def test_06_minimal_set_search_respects_bound():
    cert = _run(selftest.brk_bound_check, 600, seed=SEED)
    exhaustive, greedy = cert.steps[0], cert.steps[1]
    assert exhaustive["configurations"] == 81**3
    assert exhaustive["min_size"] >= 2 == exhaustive["bound_ceiling"]
    assert greedy["min_size"] >= 4 == greedy["bound_ceiling"]


def test_07_planar_warmup_counting_and_nullspace():
    cert = _run(selftest.warmup_check, 30, seed=SEED)
    head = cert.steps[0]
    assert (head["D"], head["M"]) == (5, 5)
    assert cert.steps[1]["counting_ok"]
    assert cert.steps[2]["nullspace_trivial"]


def test_08_weighted_homogeneous_contrapositive():
    # 200 random weighted-homogeneous polynomials across q in {3,5,7}, n in {2,3}
    _run(selftest.proposition_check, 120, seed=SEED, trials=200)


def test_09_collapsed_coefficient_contrapositive():
    # 500 random nonzero coefficient families
    _run(selftest.key_lemma_check, 60, seed=SEED, trials=500)


def test_10_derivative_vanishing_pass_and_reject():
    cert = _run(selftest.derivs_zero_check, 5, seed=SEED)
    assert cert.steps[0]["verdict"] == "pass"
    assert cert.steps[1]["rejected_at_precondition"]


def test_11_certificates_byte_identical_under_reseed():
    _run(selftest.determinism_check, 300, seed=SEED)
