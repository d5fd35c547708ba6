import math
from fractions import Fraction

import pytest

from ffkakeya.brkset import (
    BrkInstance,
    PerRho,
    PointSet,
    generate_set,
    kakeya_set,
    min_brk_search,
    proof_params,
    theorem_bound,
    verify_brk,
)
from ffkakeya.errors import (
    DimensionMismatch,
    EllOutOfRange,
    MixedFields,
    NonPrime,
    NotMultipleOfQ,
    SearchSpaceTooLarge,
)
from ffkakeya.ffield import make_field
from ffkakeya.mpoly import SparsePoly


def _square_instance(spec, lowers=None, translations=None):
    q = spec.q
    g = SparsePoly(spec, 1, {(2,): spec.one})
    zero = SparsePoly.zero(spec, 1)
    per_rho = {}
    for r in range(q):
        a = translations[r] if translations else (0, 0)
        low = lowers[r] if lowers else zero
        per_rho[r] = PerRho(a, low)
    return BrkInstance(spec, 2, 2, g, per_rho)


class TestTheoremBound:
    def test_q5_example(self):
        value, ceiling = theorem_bound(5, 2, 2)
        assert value == Fraction(1600, 484)
        assert ceiling == 4

    def test_q3_example(self):
        value, ceiling = theorem_bound(3, 2, 2)
        assert value == Fraction(36, 25)
        assert ceiling == 2

    def test_non_prime_power_rejected(self):
        for q in (6, 10, 12):
            with pytest.raises(NonPrime):
                theorem_bound(q, 2, 2)

    def test_ell_out_of_range(self):
        with pytest.raises(EllOutOfRange):
            theorem_bound(3, 2, 3)
        with pytest.raises(EllOutOfRange):
            theorem_bound(5, 2, 1)

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            theorem_bound(5, 1, 2)

    def test_monotone_in_ell(self):
        # larger ell weakens the bound
        for q in (5, 7, 11):
            vals = [theorem_bound(q, 3, ell)[0] for ell in range(2, q)]
            assert vals == sorted(vals, reverse=True)


class TestProofParams:
    def test_q3_k3(self):
        pp = proof_params(3, 2, 3)
        assert (pp.D, pp.M) == (5, 5)

    def test_q5_k5(self):
        pp = proof_params(5, 2, 5)
        assert (pp.D, pp.M) == (19, 11)

    def test_non_prime_power_rejected(self):
        with pytest.raises(NonPrime):
            proof_params(6, 2, 6)

    def test_k_not_multiple(self):
        with pytest.raises(NotMultipleOfQ):
            proof_params(3, 2, 4)
        with pytest.raises(NotMultipleOfQ):
            proof_params(3, 2, 0)

    def test_inequality_holds_on_grid(self):
        for q in (3, 5, 7):
            for ell in range(2, q):
                for mult in (1, 2):
                    pp = proof_params(q, ell, mult * q)
                    for w in range(pp.k):
                        assert ell * (pp.D - w) < (pp.M - w) * q


class TestGenerateSet:
    def test_all_zero_instance_q3(self, F3):
        inst = _square_instance(F3)
        S = generate_set(inst)
        # rho=0 contributes (0,0); rho=1,2 trace the parabola and its dilate
        expected = {(0, 0)}
        for rho in (1, 2):
            for lam in range(3):
                expected.add((rho * lam % 3, rho * (lam * lam % 3) % 3))
        assert S.points == frozenset(expected)

    def test_rho_zero_single_point(self, F5):
        inst = _square_instance(F5, translations={r: (1, 2) for r in range(5)})
        S = generate_set(inst)
        assert (1, 2) in S.points

    def test_point_count_bound(self, F5):
        inst = _square_instance(F5)
        S = generate_set(inst)
        assert len(S) <= (5 - 1) * 5 + 1

    def test_verify_round_trip(self, F5):
        inst = _square_instance(F5)
        S = generate_set(inst)
        assert verify_brk(S, inst).ok

    def test_verify_missing_point(self, F5):
        inst = _square_instance(F5)
        S = generate_set(inst)
        pts = sorted(S.points)
        S2 = PointSet(F5, 2, frozenset(pts[1:]))
        res = verify_brk(S2, inst)
        assert not res.ok
        assert res.missing == pts[0]

    def test_verify_superset_still_ok(self, F5):
        inst = _square_instance(F5)
        S = generate_set(inst)
        extra = frozenset(S.points | {(4, 4), (3, 3)})
        assert verify_brk(PointSet(F5, 2, extra), inst).ok

    def test_verify_mixed_fields(self, F3, F5):
        inst = _square_instance(F5)
        with pytest.raises(MixedFields):
            verify_brk(PointSet(F3, 2, frozenset()), inst)


class TestInstanceValidation:
    def test_ell_out_of_range(self, F3):
        g = SparsePoly(F3, 1, {(3,): F3.one})
        zero = SparsePoly.zero(F3, 1)
        with pytest.raises(EllOutOfRange):
            BrkInstance(F3, 2, 3, g, {r: PerRho((0, 0), zero) for r in range(3)})

    def test_inhomogeneous_g_rejected(self, F5):
        g = SparsePoly.from_int_terms(F5, 1, {(2,): 1, (0,): 1})
        zero = SparsePoly.zero(F5, 1)
        with pytest.raises(ValueError):
            BrkInstance(F5, 2, 2, g, {r: PerRho((0, 0), zero) for r in range(5)})

    def test_lower_degree_too_big(self, F5):
        g = SparsePoly(F5, 1, {(2,): F5.one})
        bad = SparsePoly(F5, 1, {(2,): F5.one})
        per = {r: PerRho((0, 0), SparsePoly.zero(F5, 1)) for r in range(5)}
        per[1] = PerRho((0, 0), bad)
        with pytest.raises(ValueError):
            BrkInstance(F5, 2, 2, g, per)

    def test_missing_rho_entry(self, F3):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        zero = SparsePoly.zero(F3, 1)
        with pytest.raises(ValueError):
            BrkInstance(F3, 2, 2, g, {0: PerRho((0, 0), zero)})

    def test_json_round_trip(self, F5):
        low = SparsePoly.from_int_terms(F5, 1, {(1,): 2, (0,): 3})
        inst = _square_instance(F5, lowers={r: low for r in range(5)},
                                translations={r: (r, 4 - r) for r in range(5)})
        back = BrkInstance.from_json(inst.to_json())
        assert generate_set(back).points == generate_set(inst).points

    def test_pointset_json_round_trip(self, F9):
        S = PointSet(F9, 2, frozenset({(0, 1), (8, 3), (2, 2)}))
        assert PointSet.from_json(S.to_json()).points == S.points


class TestMinSearch:
    def test_exhaustive_q3_frozen_minimum(self, F3):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        res = min_brk_search(3, 2, 2, g, mode="exhaustive")
        assert res.min_size == 4
        assert res.configurations == 81**3
        assert res.bound_ceiling == 2
        assert res.min_size >= res.bound_ceiling
        assert len(generate_set(res.witness)) == 4

    def test_greedy_q3_at_least_exhaustive(self, F3):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        res = min_brk_search(3, 2, 2, g, mode="greedy", seed=1, restarts=5)
        assert res.min_size >= 4
        assert len(generate_set(res.witness)) == res.min_size

    def test_greedy_q5(self, F5):
        g = SparsePoly(F5, 1, {(2,): F5.one})
        res = min_brk_search(5, 2, 2, g, mode="greedy", seed=0, restarts=3)
        assert res.min_size >= res.bound_ceiling == 4

    def test_exhaustive_guard(self, F5):
        g = SparsePoly(F5, 1, {(2,): F5.one})
        with pytest.raises(SearchSpaceTooLarge):
            min_brk_search(5, 2, 2, g, mode="exhaustive")

    def test_mixed_field_g(self, F3):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        with pytest.raises(MixedFields):
            min_brk_search(5, 2, 2, g)

    def test_unknown_mode(self, F3):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        with pytest.raises(ValueError):
            min_brk_search(3, 2, 2, g, mode="annealing")


class TestKakeya:
    def test_trivial_full_grid(self):
        S = kakeya_set(3, 2)
        assert len(S) == 9

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3)])
    def test_besicovitch_smaller_and_verified(self, q, n):
        S = kakeya_set(q, n, besicovitch=True)
        assert len(S) < q**n  # construction beats the grid (post-verified inside)

    def test_besicovitch_char2_falls_back(self):
        S = kakeya_set(4, 2, besicovitch=True)
        assert len(S) == 16

    def test_extension_field(self):
        S = kakeya_set(9, 2, besicovitch=True)
        assert len(S) < 81
