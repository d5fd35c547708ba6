import hashlib
import json
import random

import pytest

from ffkakeya.errors import BadEll, NonPrime, NotMultipleOfQ, PreconditionFailed
from ffkakeya.mpoly import SparsePoly, compositions
from ffkakeya.replay import (
    Certificate,
    KeyLemmaInstance,
    check_derivs_zero,
    check_key_lemma,
    check_proposition,
    check_warmup,
    key_lemma_table,
    weighted_partition,
)


class TestCertificate:
    def test_json_shape(self):
        cert = Certificate("demo", 7, {"x": 1}, steps=[{"s": 1}])
        doc = cert.to_json()
        assert doc["check"] == "demo" and doc["verdict"] == "pass"
        assert "witness" not in doc

    def test_bytes_canonical(self):
        cert = Certificate("demo", 7, {"b": 2, "a": 1})
        raw = cert.to_json_bytes()
        assert raw == json.dumps(json.loads(raw), sort_keys=True,
                                 separators=(",", ":")).encode()


class TestKeyLemma:
    def test_single_term_table(self, F5):
        # one term alpha=(0,2), c=1, b=1: f_(0,0)(rho) = rho^2
        inst = KeyLemmaInstance(F5, 2, 2, [(0, 2)], {(0, 2): 1}, 1)
        table = key_lemma_table(inst)
        for rho in range(1, 5):
            assert table[((0, 0), rho)] == rho * rho % 5

    def test_beta_cancellation(self, F5):
        # C((0,2),(0,1)) = 2, b exponent drops by one
        inst = KeyLemmaInstance(F5, 2, 2, [(0, 2)], {(0, 2): 1}, 3)
        table = key_lemma_table(inst)
        for rho in range(1, 5):
            assert table[((0, 1), rho)] == 2 * 3 * rho % 5

    def test_distinct_totals_enforced(self, F5):
        with pytest.raises(ValueError):
            KeyLemmaInstance(F5, 2, 2, [(0, 2), (1, 1)], {(0, 2): 1, (1, 1): 1}, 1)

    def test_total_cap_enforced(self, F5):
        with pytest.raises(ValueError):
            KeyLemmaInstance(F5, 2, 1, [(2, 2)], {(2, 2): 1}, 1)

    def test_zero_b_rejected(self, F5):
        with pytest.raises(ValueError):
            KeyLemmaInstance(F5, 2, 2, [(0, 2)], {(0, 2): 1}, 0)

    def test_check_passes(self, F5):
        cert = check_key_lemma(50, F5, 2, 2, seed=3)
        assert cert.verdict == "pass"
        assert len(cert.steps) == 50

    def test_check_other_fields(self, F3, F9):
        assert check_key_lemma(30, F3, 2, 3, seed=4).verdict == "pass"
        assert check_key_lemma(30, F9, 3, 1, seed=5).verdict == "pass"


class TestDerivsZero:
    def _q7_case(self, F7):
        par = SparsePoly.from_int_terms(F7, 2, {(0, 1): 1, (2, 0): -1})
        g = SparsePoly(F7, 1, {(2,): F7.one})
        return par * par, {"a": (0, 0), "rho": 1, "g": g}

    def test_squared_parabola_passes(self, F7):
        P, curve = self._q7_case(F7)
        cert = check_derivs_zero(P, curve, {"k": 2, "D": 4, "M": 2})
        assert cert.verdict == "pass"
        assert all(s["composition_zero"] for s in cert.steps)

    def test_translated_dilated_curve(self, F7):
        # rho*(x2 - a2) - (x1 - a1)^2 vanishes on the translated 3-dilate
        a1, a2, rho = 1, 2, 3
        x1 = SparsePoly.variable(F7, 2, 0)
        x2 = SparsePoly.variable(F7, 2, 1)
        shift1 = x1 - SparsePoly.constant(F7, 2, a1)
        factor = (x2 - SparsePoly.constant(F7, 2, a2)).scale(rho) - shift1 * shift1
        g = SparsePoly(F7, 1, {(2,): F7.one})
        P = factor * factor
        cert = check_derivs_zero(
            P, {"a": (a1, a2), "rho": rho, "g": g}, {"k": 2, "D": 4, "M": 2}
        )
        assert cert.verdict == "pass"

    def test_q5_rejected_at_inequality(self, F5):
        par = SparsePoly.from_int_terms(F5, 2, {(0, 1): 1, (2, 0): -1})
        g = SparsePoly(F5, 1, {(2,): F5.one})
        with pytest.raises(PreconditionFailed) as exc:
            check_derivs_zero(par * par, {"a": (0, 0), "rho": 1, "g": g},
                              {"k": 2, "D": 4, "M": 2})
        assert "w = 1" in str(exc.value)

    def test_degree_precondition(self, F7):
        P, curve = self._q7_case(F7)
        with pytest.raises(PreconditionFailed):
            check_derivs_zero(P, curve, {"k": 2, "D": 3, "M": 2})

    def test_insufficient_vanishing_rejected(self, F7):
        par = SparsePoly.from_int_terms(F7, 2, {(0, 1): 1, (2, 0): -1})
        g = SparsePoly(F7, 1, {(2,): F7.one})
        # single parabola factor only vanishes to order 1 on the curve
        with pytest.raises(PreconditionFailed):
            check_derivs_zero(par, {"a": (0, 0), "rho": 1, "g": g},
                              {"k": 2, "D": 4, "M": 2})


class TestProposition:
    def test_square_q5(self, F5):
        f = SparsePoly(F5, 1, {(2,): F5.one})
        cert = check_proposition(40, F5, 2, 2, 1, f, seed=6)
        assert cert.verdict == "pass"
        assert all(s["witness"] is not None for s in cert.steps)

    def test_two_variable_form(self, F7):
        f = SparsePoly(F7, 2, {(2, 0): F7.one, (1, 1): F7.one})
        assert check_proposition(25, F7, 3, 2, 1, f, seed=7).verdict == "pass"

    def test_zero_f_rejected(self, F5):
        with pytest.raises(PreconditionFailed):
            check_proposition(5, F5, 2, 2, 1, SparsePoly.zero(F5, 1))

    def test_inhomogeneous_f_rejected(self, F5):
        f = SparsePoly.from_int_terms(F5, 1, {(2,): 1, (0,): 1})
        with pytest.raises(PreconditionFailed):
            check_proposition(5, F5, 2, 2, 1, f)


class TestWarmup:
    def test_q3_k3(self):
        cert = check_warmup(3, 3)
        assert cert.verdict == "pass"
        head = cert.steps[0]
        assert (head["D"], head["M"]) == (5, 5)

    def test_q5_k5(self):
        assert check_warmup(5, 5).verdict == "pass"

    def test_q2_rejected(self):
        with pytest.raises(PreconditionFailed):
            check_warmup(2, 2)

    def test_k_not_multiple(self):
        with pytest.raises(NotMultipleOfQ):
            check_warmup(3, 4)

    def test_non_prime_power_rejected(self):
        with pytest.raises(NonPrime):
            check_warmup(6, 6)

    @pytest.mark.parametrize("q,k,digest", [
        (3, 3, "06b785a205b6698c6d5f3ddae0f771c60cdec5bb1f6c69af7cef3a5ff6506e7b"),
        (3, 6, "fd5f7fa89b035870b620daf63199014cedf327e4071a464a3ba293481caf0010"),
        (3, 9, "7b66fb9429aca57243bc662a3435efb2545dcd651cca8c91350e9c756f22ceb5"),
        (5, 5, "b80b79ab0c760756a056afd3b5bc3e99bc298f85c34e3e562baa42d474674ab8"),
    ])
    def test_certificate_bytes_pinned(self, q, k, digest):
        # SHA-256 of the canonical certificate bytes; any change to the
        # vanishing system, the elimination or the parameters shows here
        assert hashlib.sha256(check_warmup(q, k).to_json_bytes()).hexdigest() == digest


class TestWeightedPartition:
    def test_groups(self):
        part = weighted_partition([(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0)], 3)
        assert part[1] == {(1, 0, 0), (0, 1, 0)}
        assert part[3] == {(0, 0, 1), (3, 0, 0)}

    def test_bad_ell(self):
        with pytest.raises(BadEll):
            weighted_partition([(1, 0)], 1)


def test_seeded_determinism(F5):
    a = check_key_lemma(30, F5, 2, 2, seed=9).to_json_bytes()
    b = check_key_lemma(30, F5, 2, 2, seed=9).to_json_bytes()
    c = check_key_lemma(30, F5, 2, 2, seed=10).to_json_bytes()
    assert a == b
    assert a != c
