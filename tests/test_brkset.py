import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ffkakeya import brkset
from ffkakeya.brkset import (
    BrkInstance,
    PerRho,
    PointSet,
    _first_failing_w,
    generate_set,
    min_brk_search,
    proof_params,
    theorem_bound,
    verify_brk,
)
from ffkakeya.errors import (
    ArityMismatch,
    DimensionMismatch,
    EllOutOfRange,
    MixedFields,
    NonPrime,
    NotMultipleOfQ,
    SearchSpaceTooLarge,
    SizeGuard,
)
from ffkakeya.ffield import field_for_q, make_field
from ffkakeya.mpoly import SparsePoly, monomials_upto


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

    @pytest.mark.parametrize("q,n,ell", [(4, 2, 2), (4, 7, 3), (9, 5, 4), (16, 3, 8), (25, 4, 5)])
    def test_reduced_bases_give_the_same_fraction(self, q, n, ell):
        # (12, 8) at q = 4, ell = 2 share 4: the bound is (3/2)^n either way
        value, ceiling = theorem_bound(q, n, ell)
        assert value == Fraction(((q - 1) * q) ** n, ((ell + 1) * q - 2 * ell) ** n)
        assert ceiling == math.ceil(value)

    @pytest.mark.parametrize("limit,n,digits", [(4300, 3305, 4300), (640, 491, 639)])
    def test_printable_numerator_limit(self, limit, n, digits):
        # 20^n is the numerator at q = 5, ell = 2; 20^(n+1) has more than
        # `limit` digits, the interpreter's int-string limit (4300 by default)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            value, _ = theorem_bound(5, n, 2)
            assert len(str(value.numerator)) == digits
            with pytest.raises(SizeGuard, match=f"^bound numerator 20\\^{n + 1} exceeds "
                                                f"{limit} digits$"):
                theorem_bound(5, n + 1, 2)
        finally:
            sys.set_int_max_str_digits(old)

    def test_numerator_limit_without_int_string_limit(self):
        # with the interpreter's limit switched off the cap is 4300 digits
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(theorem_bound(5, 3305, 2)[0].numerator)) == 4300
            with pytest.raises(SizeGuard, match="^bound numerator 20\\^3306 exceeds 4300 digits$"):
                theorem_bound(5, 3306, 2)
            with pytest.raises(SizeGuard, match="^bound numerator 20\\^10000000 exceeds "):
                theorem_bound(5, 10**7, 2)
        finally:
            sys.set_int_max_str_digits(old)

    def test_huge_n_refused_before_any_power(self):
        with pytest.raises(SizeGuard, match="^bound numerator 3\\^1000000000 exceeds "):
            theorem_bound(4, 10**9, 2)


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

    def test_huge_k_checked_in_closed_form(self):
        k = 3 * 10**9
        pp = proof_params(3, 2, k)
        assert (pp.D, pp.M) == (2 * k - 1, 3 * k - 4 * k // 3)

    def test_inequality_holds_on_grid(self):
        for q in (3, 5, 7):
            for ell in range(2, q):
                for mult in (1, 2):
                    pp = proof_params(q, ell, mult * q)
                    for w in range(pp.k):
                        assert ell * (pp.D - w) < (pp.M - w) * q

    def test_first_failing_w_matches_the_loop(self):
        # the closed form shared with replay's derivs-zero check, against
        # the loop over 0 <= w < k it replaces
        for q in (3, 4, 5, 7):
            for ell in range(2, q):
                for k in range(-1, 7):
                    for D in range(-3, 13):
                        for M in range(-3, 13):
                            want = next((w for w in range(k)
                                         if not ell * (D - w) < (M - w) * q), None)
                            assert _first_failing_w(q, ell, k, D, M) == want


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
        res = min_brk_search(3, 2, 2, g, mode="greedy", seed=1)
        assert res.min_size >= 4
        assert len(generate_set(res.witness)) == res.min_size

    def test_greedy_q5(self, F5):
        g = SparsePoly(F5, 1, {(2,): F5.one})
        res = min_brk_search(5, 2, 2, g, mode="greedy", seed=0)
        assert res.min_size >= res.bound_ceiling == 4

    def test_greedy_keeps_no_per_option_state(self):
        # q^n L = 83,521 options at q = 17: a list of (translation, lower
        # part) pairs takes about 5 MiB, the masks and graph tables 0.6 MiB
        spec = field_for_q(17)
        g = SparsePoly(spec, 1, {(2,): spec.one})
        tracemalloc.start()
        try:
            res = min_brk_search(17, 2, 2, g, mode="greedy", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.min_size >= res.bound_ceiling
        assert peak < 2 * 2**20

    def test_exhaustive_guard(self, F5):
        g = SparsePoly(F5, 1, {(2,): F5.one})
        with pytest.raises(SearchSpaceTooLarge):
            min_brk_search(5, 2, 2, g, mode="exhaustive")

    def test_mixed_field_g(self, F3):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        with pytest.raises(MixedFields):
            min_brk_search(5, 2, 2, g)

    @pytest.fixture()
    def no_masks(self, monkeypatch):
        def fail(*args):
            raise AssertionError("masks built before the inputs were checked")

        monkeypatch.setattr(brkset, "_distinct_level_masks", fail)

    def test_unknown_mode(self, F3, no_masks):
        g = SparsePoly(F3, 1, {(2,): F3.one})
        with pytest.raises(ValueError):
            min_brk_search(3, 2, 2, g, mode="annealing")

    @pytest.mark.parametrize("q,arity,terms,exc,match", [
        (9, 1, {(3,): 1}, ValueError, "^g must be homogeneous of degree 2$"),
        (5, 1, {(2,): 1, (1,): 1}, ValueError, "^g must be homogeneous of degree 2$"),
        (5, 1, {}, ValueError, "^g must be a nonzero homogeneous form$"),
        (5, 2, {(2, 0): 1}, ArityMismatch, "^arity 2 vs 1$"),
    ])
    def test_bad_g_fails_before_masks(self, no_masks, q, arity, terms, exc, match):
        g = SparsePoly.from_int_terms(field_for_q(q), arity, terms)
        for mode in ("greedy", "exhaustive"):
            with pytest.raises(exc, match=match):
                min_brk_search(q, 2, 2, g, mode=mode)

    @pytest.mark.parametrize("q,n,ell,mode,exc", [
        (13, 3, 2, "exhaustive", SearchSpaceTooLarge),
        (5, 2, 4, "exhaustive", SearchSpaceTooLarge),
        (59, 2, 2, "greedy", SizeGuard),
        (16, 3, 2, "greedy", SizeGuard),
    ])
    def test_guards_refuse_before_masks(self, no_masks, q, n, ell, mode, exc):
        g = SparsePoly.from_int_terms(field_for_q(q), n - 1, {(ell,) + (0,) * (n - 2): 1})
        with pytest.raises(exc):
            min_brk_search(q, n, ell, g, mode=mode)

    @pytest.mark.parametrize("q,n", [(53, 2), (13, 3)])
    def test_greedy_guard_lets_through(self, no_masks, q, n):
        # the largest q under 10^7 surface points: 7.7e6 at (53, 2), 4.5e6 at (13, 3)
        g = SparsePoly.from_int_terms(field_for_q(q), n - 1, {(2,) + (0,) * (n - 2): 1})
        with pytest.raises(AssertionError, match="^masks built"):
            min_brk_search(q, n, 2, g, mode="greedy")


def _point_rank(codes, q):
    """Rank of a point in the lex order of F_q^n: its codes as base-q digits."""
    r = 0
    for c in codes:
        r = r * q + c
    return r


def _oracle_surface_mask(spec, graph, a, rho):
    """One option's surface, point by point through the field operations.

    `graph` lists (lam, g_rho(lam)) for every lam."""
    q = spec.q
    if rho == 0:
        return 1 << _point_rank(a, q)
    mask = 0
    for lam, value in graph:
        coords = [spec.add(ai, spec.mul(rho, li)) for ai, li in zip(a[:-1], lam)]
        coords.append(spec.add(a[-1], spec.mul(rho, value)))
        mask |= 1 << _point_rank(coords, q)
    return mask


def _oracle_level_masks(spec, n, ell, g):
    """Slow oracle: every option's mask rebuilt, first index kept per mask."""
    monos = monomials_upto(n - 1, ell - 1)
    lams = list(itertools.product(range(spec.q), repeat=n - 1))
    graphs = []
    for coeffs in itertools.product(range(spec.q), repeat=len(monos)):
        grho = g + SparsePoly(spec, n - 1, dict(zip(monos, coeffs)))
        graphs.append([(lam, grho.eval_codes(lam)) for lam in lams])
    options = [(a, graph) for a in itertools.product(range(spec.q), repeat=n) for graph in graphs]
    levels = []
    for rho in range(spec.q):
        first = {}
        for i, (a, graph) in enumerate(options):
            first.setdefault(_oracle_surface_mask(spec, graph, a, rho), i)
        levels.append(first)
    return levels


class TestSurfaceMasks:
    @pytest.mark.parametrize("q,n,ell,g_terms", [
        (3, 2, 2, {(2,): 1}),
        (4, 2, 2, {(2,): 1}),
        (4, 2, 3, {(3,): 1}),
        (5, 2, 2, {(2,): 1}),
        (5, 2, 3, {(3,): 2}),
        (7, 2, 2, {(2,): 3}),
        (8, 2, 2, {(2,): 1}),
        (9, 2, 2, {(2,): 1}),
        (3, 3, 2, {(2, 0): 1, (1, 1): 2}),
        (4, 3, 2, {(1, 1): 1}),
    ])
    def test_fast_masks_match_oracle(self, q, n, ell, g_terms):
        spec = field_for_q(q)
        g = SparsePoly.from_int_terms(spec, n - 1, g_terms)
        fast = brkset._distinct_level_masks(spec, g, n, ell)
        oracle = _oracle_level_masks(spec, n, ell, g)
        # same distinct masks, same first option index, same order
        assert [list(level.items()) for level in fast] == [
            list(level.items()) for level in oracle
        ]

    @pytest.mark.parametrize("q,n,ell,g_terms", [
        (7, 2, 2, {(2,): 3}),
        (4, 3, 2, {(1, 1): 1}),
        (9, 2, 3, {(3,): 1}),
    ])
    def test_each_graph_value_is_evaluated_once(self, monkeypatch, q, n, ell, g_terms):
        # g once per lam serves every lower part and every rho; no lower
        # part is evaluated as a polynomial
        spec = field_for_q(q)
        g = SparsePoly.from_int_terms(spec, n - 1, g_terms)
        calls = []
        eval_powers = SparsePoly.eval_powers
        monkeypatch.setattr(SparsePoly, "eval_powers",
                            lambda f, powers: calls.append(f) or eval_powers(f, powers))
        brkset._distinct_level_masks(spec, g, n, ell)
        assert len(calls) == q ** (n - 1)
        assert all(f is g for f in calls)

    @pytest.mark.parametrize("q,n,ell,g_terms", [
        (5, 2, 2, {(2,): 1}),
        (8, 2, 3, {(3,): 1}),
        (9, 2, 3, {(3,): 1, (2,): 2}),
        (4, 3, 3, {(3, 0): 1, (1, 2): 3}),
    ])
    def test_graph_ranks_match_each_lower_part(self, q, n, ell, g_terms):
        # the per-lam value tables against g + low evaluated point by point,
        # at sizes the mask oracle is too slow for
        spec = field_for_q(q)
        g = SparsePoly.from_int_terms(spec, n - 1, g_terms)
        lams = list(itertools.product(range(q), repeat=n - 1))
        monos = monomials_upto(n - 1, ell - 1)
        coeffs = list(itertools.product(range(q), repeat=len(monos)))
        graphs = brkset._graph_ranks(spec, g, ell)
        assert len(graphs) == len(coeffs)
        for li, (graph, c) in enumerate(zip(graphs, coeffs)):
            assert brkset._digits(li, q, len(monos)) == c
            f = g + SparsePoly(spec, n - 1, dict(zip(monos, c)))
            assert list(graph) == [j * q + f.eval_codes(lam) for j, lam in enumerate(lams)]

    @pytest.mark.parametrize("q,count", [(2, 1), (2, 6), (5, 1), (4, 3), (9, 2)])
    def test_digits_number_as_product(self, q, count):
        # the option index's decoder: translations (count n) and lower-part
        # coefficients (count m) both follow itertools.product
        want = list(itertools.product(range(q), repeat=count))
        assert [brkset._digits(i, q, count) for i in range(q**count)] == want

    def test_distinct_surfaces_are_the_origin_options(self):
        # rho = 0: one point per translation a.  rho != 0: shifting lambda
        # turns a translation into a lower-part change, so the 25 options
        # with a = 0 already give every distinct surface, in order.
        spec = field_for_q(5)
        g = SparsePoly(spec, 1, {(2,): spec.one})
        levels = brkset._distinct_level_masks(spec, g, 2, 2)
        assert list(levels[0].values()) == [25 * i for i in range(25)]
        for level in levels[1:]:
            assert list(level.values()) == list(range(25))
