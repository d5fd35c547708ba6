import hashlib
import json
import math
import random
import time

import pytest

from ffkakeya import replay
from ffkakeya.errors import NonPrime, NotMultipleOfQ, PreconditionFailed
from ffkakeya.ffield import field_for_q
from ffkakeya.mpoly import (
    SparsePoly,
    binom_multi,
    compose,
    compositions,
    hasse_derivative,
    monomials_upto,
    poly_to_json,
)
from ffkakeya.replay import (
    Certificate,
    KeyLemmaInstance,
    check_derivs_zero,
    check_key_lemma,
    check_proposition,
    check_warmup,
    key_lemma_table,
    _weighted_homogeneous_candidates,
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

    @staticmethod
    def _table_oracle(inst):
        """The loop over (beta, rho, alpha) that key_lemma_table replaced."""
        spec = inst.spec
        table = {}
        for beta in monomials_upto(inst.n, inst.k - 1):
            for rho in range(1, spec.q):
                acc = 0
                for alpha in inst.exponents:
                    bc = binom_multi(alpha, beta)
                    if bc == 0:
                        continue
                    v = spec.mul(inst.coeffs[alpha], spec.from_int(bc))
                    v = spec.mul(v, spec.pow_(inst.b, alpha[-1] - beta[-1]))
                    v = spec.mul(v, spec.pow_(rho, sum(alpha) - sum(beta)))
                    acc = spec.add(acc, v)
                table[(beta, rho)] = acc
        return table

    @pytest.mark.parametrize("q,n,k", [(3, 2, 3), (4, 2, 2), (5, 2, 2), (7, 3, 2), (9, 2, 2)])
    def test_table_matches_loop_oracle(self, q, n, k):
        spec = field_for_q(q)
        rng = random.Random(q * 10 + n)
        for _ in range(20):
            totals = rng.sample(range(k * (q - 1)), rng.randint(1, 4))
            exponents = [rng.choice(compositions(n, t)) for t in totals]
            coeffs = {a: rng.randrange(q) for a in exponents}
            inst = KeyLemmaInstance(spec, n, k, exponents, coeffs, rng.randrange(1, q))
            assert key_lemma_table(inst) == self._table_oracle(inst)


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


    @staticmethod
    def _surface_factor(spec, a, rho, g):
        """rho*(x_n - a_n) - g(x' - a'), which vanishes on a + rho*(x, g(x))
        for g homogeneous of degree 2."""
        n = len(a)
        shifted = [SparsePoly.variable(spec, n, i) - SparsePoly.constant(spec, n, c)
                   for i, c in enumerate(a)]
        return shifted[-1].scale(rho) - compose(g, shifted[:-1])

    @staticmethod
    def _reference(P, curve, k, inputs):
        """The certificate from one `hasse_derivative` call per order."""
        spec, n = P.spec, P.arity
        a, rho, g = curve["a"], curve["rho"], curve["g"]
        xs = [SparsePoly.variable(spec, n - 1, i) for i in range(n - 1)] + [g]
        subs = [x.scale(rho) + SparsePoly.constant(spec, n - 1, c) for x, c in zip(xs, a)]
        cert = Certificate("derivs_zero", None, inputs)
        for beta in monomials_upto(n, k - 1):
            composed = compose(hasse_derivative(P, beta), subs)
            cert.steps.append({"beta": list(beta), "composition_zero": composed.is_zero()})
            if not composed.is_zero():
                cert.verdict = "fail"
                cert.witness = {"beta": list(beta), "composition": poly_to_json(composed)}
                break
        return cert

    @pytest.mark.parametrize("q,a,rho,g_terms,mult,D,k,extra", [
        (7, (1, 2), 3, {(2,): 1}, 2, 4, 2, {(0, 0): 1}),
        (7, (2, 5), 2, {(2,): 1}, 4, 8, 3, {(0, 0): 1}),  # 2(8-w) < 7(4-w) for w < 3
        (9, (4, 0, 7), 5, {(2, 0): 1, (1, 1): 3}, 2, 5, 2, {(1, 0, 0): 2, (0, 0, 1): 1}),
        (8, (3, 6), 1, {(2,): 5}, 2, 4, 2, {(0, 0): 7}),
    ])
    def test_certificate_matches_per_order_reference(self, q, a, rho, g_terms, mult, D, k, extra):
        # the one-table certificate against a loop of one derivative per order
        spec = field_for_q(q)
        n = len(a)
        g = SparsePoly(spec, n - 1, g_terms)
        factor = self._surface_factor(spec, a, rho, g)
        P = SparsePoly(spec, n, extra)
        for _ in range(mult):
            P = P * factor
        curve = {"a": a, "rho": rho, "g": g}
        cert = check_derivs_zero(P, curve, {"k": k, "D": D, "M": mult})
        assert cert.verdict == "pass" and len(cert.steps) == math.comb(k - 1 + n, n)
        ref = self._reference(P, curve, k, cert.inputs)
        assert cert.to_json_bytes() == ref.to_json_bytes()

    @pytest.mark.parametrize("q,a,rho,g_terms,mult,extra", [
        (7, (1, 2), 3, {(2,): 1}, 1, {(1, 0): 1, (0, 1): 4, (0, 0): 2}),
        (9, (4, 0, 7), 5, {(2, 0): 1, (1, 1): 3}, 2, {(1, 0, 0): 2, (0, 0, 1): 1, (0, 2, 0): 6}),
        (8, (3, 6), 1, {(2,): 5}, 2, {(1, 0): 7, (0, 1): 3}),
    ])
    def test_failing_certificate_matches_per_order_reference(
            self, monkeypatch, q, a, rho, g_terms, mult, extra):
        # with the inequality skipped, k = 3 > M lets an order M composition
        # be nonzero, so the witness carries a derivative's composition
        monkeypatch.setattr(replay, "_first_failing_w", lambda *args: None)
        spec = field_for_q(q)
        n = len(a)
        g = SparsePoly(spec, n - 1, g_terms)
        factor = self._surface_factor(spec, a, rho, g)
        P = SparsePoly(spec, n, extra)
        for _ in range(mult):
            P = P * factor
        curve = {"a": a, "rho": rho, "g": g}
        cert = check_derivs_zero(P, curve, {"k": 3, "D": P.degree, "M": mult})
        assert cert.verdict == "fail" and sum(cert.witness["beta"]) == mult
        ref = self._reference(P, curve, 3, cert.inputs)
        assert cert.to_json_bytes() == ref.to_json_bytes()


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
        (3, 12, "2ec4e2b11432083a625e6949fbe20e888379a89b195639ef69f5541b1b3ad36e"),
        (3, 15, "15b9684f23bc1b979da3cf668c9e71787f4a702875e0bd4dca1c2752ae4b4cb4"),
        (7, 7, "02d7fe4e7c2836464a0658c1df73ecd593d7b9769f45c06c7127e10a56b6b314"),
        # extension fields: F_4 and F_8 run the characteristic-2 layout
        (4, 4, "6466567abf715d4405a39551e4b0a147f5f54ac67da2a694f84702ee3f8d25c8"),
        (8, 8, "5aed3fa1d55c86cf0105970bccb851e96e231ad5b23dc2dd3d48023f06eb9412"),
    ])
    def test_certificate_bytes_pinned(self, q, k, digest):
        # SHA-256 of the canonical certificate bytes; any change to the
        # vanishing system, the elimination or the parameters shows here
        assert hashlib.sha256(check_warmup(q, k).to_json_bytes()).hexdigest() == digest


def test_key_lemma_large_k_pinned(F5):
    # |alpha| up to 7,559 and |beta| below 1,890: each binomial comes from
    # base-5 digits (Lucas), not from exact integers of up to 1,844 digits
    start = time.perf_counter()
    cert = check_key_lemma(3, F5, 1, 1890, seed=1)
    assert time.perf_counter() - start < 1
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == \
        "2dd0487c7ac6857e318c2c2ad953fa71478277d0a433e7ca3ee2105a09d7a966"


def test_seeded_determinism(F5):
    a = check_key_lemma(30, F5, 2, 2, seed=9).to_json_bytes()
    b = check_key_lemma(30, F5, 2, 2, seed=9).to_json_bytes()
    c = check_key_lemma(30, F5, 2, 2, seed=10).to_json_bytes()
    assert a == b
    assert a != c


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weighted_candidates_view_is_the_sorted_list(n):
    # the view unranks each item from counts; the oracle builds and sorts all
    for ell in (2, 3, 4):
        for m in range(14):
            want = sorted(head + (an,) for an in range(m // ell + 1)
                          for head in compositions(n - 1, m - ell * an))
            view = _weighted_homogeneous_candidates(n, ell, m)
            assert len(view) == len(want)
            assert [view[i] for i in range(len(want))] == want
            assert [view[i] for i in range(-len(want), 0)] == want
            assert list(view) == want
            for seed in range(3):
                k = min(4, len(want))
                assert random.Random(seed).sample(view, k) == random.Random(seed).sample(want, k)
