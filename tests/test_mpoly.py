import itertools
import math
import random

import pytest

from ffkakeya.errors import ArityMismatch, SizeGuard, ZeroPolynomial
from ffkakeya.ffield import field_for_q, make_field
from ffkakeya.mpoly import (
    NEG_INFINITY,
    PowerTable,
    SparsePoly,
    binom_multi,
    binom_multi_mod,
    compose,
    compositions,
    derivatives,
    expand_shift,
    hasse_derivative,
    lex_compare,
    min_lex_exponent,
    monomials_upto,
    poly_from_json,
    poly_to_json,
)


def random_poly(rng, spec, arity, max_degree, max_terms=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        terms[rng.choice(list(compositions(arity, d)))] = rng.randrange(spec.q)
    return SparsePoly(spec, arity, terms)


class TestLexOrder:
    def test_examples(self):
        assert lex_compare((1, 5), (2, 0)) == -1
        assert lex_compare((2, 0, 7), (2, 0, 7)) == 0
        assert lex_compare((0, 3), (0, 2)) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            lex_compare((1,), (1, 2))

    def test_well_ordering_scan_vs_sort(self):
        # the lex-minimum by linear scan matches the head of a full sort
        import functools

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            subset = {tuple(rng.randint(0, 6) for _ in range(n))
                      for _ in range(rng.randint(1, 20))}
            scan = None
            for e in subset:
                if scan is None or lex_compare(e, scan) < 0:
                    scan = e
            by_sort = sorted(subset, key=functools.cmp_to_key(lex_compare))[0]
            assert scan == by_sort


class TestMinLexExponent:
    def test_two_term(self, F3):
        f = SparsePoly.from_int_terms(F3, 2, {(2, 0): 1, (1, 1): 1})
        e, b = min_lex_exponent(f)
        assert e == (1, 1) and b == 1

    def test_single_term(self, F5):
        f = SparsePoly.from_int_terms(F5, 1, {(4,): 2})
        e, b = min_lex_exponent(f)
        assert e == (4,) and b == 2

    def test_zero_polynomial(self, F5):
        with pytest.raises(ZeroPolynomial):
            min_lex_exponent(SparsePoly.zero(F5, 2))

    def test_power_lemma(self, F5, F7):
        # min-lex term of f^k is (k*e, b^k)
        rng = random.Random(11)
        for spec in (F5, F7):
            for _ in range(40):
                f = random_poly(rng, spec, rng.randint(1, 3), 3)
                if f.is_zero():
                    continue
                e, b = min_lex_exponent(f)
                k = rng.randint(1, 5)
                ek, bk = min_lex_exponent(f**k)
                assert ek == tuple(k * x for x in e)
                assert bk == spec.pow_(b, k)

    def test_shift_lemma(self, F5):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 3)
            f = random_poly(rng, F5, n, 3)
            if f.is_zero():
                continue
            e, b = min_lex_exponent(f)
            beta = tuple(rng.randint(0, 3) for _ in range(n))
            mono = SparsePoly(F5, n, {beta: F5.one})
            es, bs = min_lex_exponent(mono * f)
            assert es == tuple(x + y for x, y in zip(e, beta))
            assert bs == b


class TestBinomMulti:
    def test_examples(self):
        assert binom_multi((2, 1), (1, 0)) == 2
        assert binom_multi((1, 1), (2, 0)) == 0

    def test_exponent_guard(self):
        # a SizeGuard, which the CLI reports as one line with exit 2
        assert binom_multi(((1 << 20) - 1,), (1,)) == (1 << 20) - 1
        assert binom_multi((1 << 20,), ((1 << 20) + 1,)) == 0
        with pytest.raises(SizeGuard, match="^exponent 1048576 exceeds guard 1048576$"):
            binom_multi((1 << 20,), (0,))

    def test_mod_p_matches_exact(self):
        rng = random.Random(41)
        for p in (2, 3, 5, 7, 251, 65521):
            for _ in range(200):
                n = rng.randint(1, 3)
                a = tuple(rng.randrange(3000) for _ in range(n))
                b = tuple(rng.randrange(x + 2) for x in a)
                assert binom_multi_mod(a, b, p) == binom_multi(a, b) % p, (a, b, p)

    def test_mod_p_checks_as_exact_does(self):
        # the arity check first, then per coordinate b_i > a_i before the guard
        with pytest.raises(ArityMismatch):
            binom_multi_mod((1, 2), (1,), 5)
        assert binom_multi_mod((1 << 20,), ((1 << 20) + 1,), 5) == 0
        assert binom_multi_mod((3, 1 << 20), (4, 0), 5) == 0
        with pytest.raises(SizeGuard, match="^exponent 1048576 exceeds guard 1048576$"):
            binom_multi_mod((1 << 20,), (0,), 5)

    def test_vandermonde_small(self):
        total = sum(binom_multi((1, 1), b) for b in compositions(2, 1))
        assert total == 2

    def test_vandermonde_exhaustive(self):
        for arity in range(1, 5):
            for d in range(9):
                for alpha in compositions(arity, d):
                    for w in range(9):
                        s = sum(binom_multi(alpha, beta) for beta in compositions(arity, w))
                        assert s == math.comb(d, w)


class TestHasseDerivative:
    def test_char_divides_binomial(self, F3):
        P = SparsePoly.from_int_terms(F3, 1, {(3,): 1})
        assert hasse_derivative(P, (2,)).is_zero()

    def test_top_order(self, F3):
        P = SparsePoly.from_int_terms(F3, 1, {(3,): 1})
        assert hasse_derivative(P, (3,)).terms == {(0,): 1}

    def test_mixed(self, F5):
        P = SparsePoly.from_int_terms(F5, 2, {(2, 1): 1})
        assert hasse_derivative(P, (1, 0)).terms == {(1, 1): 2}

    def test_degree_bound(self, F5):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 3)
            P = random_poly(rng, F5, n, 5)
            if P.is_zero():
                continue
            beta = tuple(rng.randint(0, 2) for _ in range(n))
            D = hasse_derivative(P, beta)
            if not D.is_zero():
                assert D.degree <= P.degree - sum(beta)

    def test_additivity(self, F7):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 3)
            P, Q = random_poly(rng, F7, n, 5), random_poly(rng, F7, n, 5)
            beta = tuple(rng.randint(0, 3) for _ in range(n))
            assert hasse_derivative(P + Q, beta) == \
                hasse_derivative(P, beta) + hasse_derivative(Q, beta)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_matches_exact_binomial_reference(self, q):
        # exponents up to 3q, so Lucas zeros (C(a, beta) = 0 mod p with
        # beta <= a) appear, and beta drawn past a, so beta <= a fails too
        spec = field_for_q(q)
        rng = random.Random(20 + q)
        lucas_zeros = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            P = random_poly(rng, spec, n, 3 * q)
            for _ in range(8):
                beta = tuple(rng.randint(0, 2 * q) for _ in range(n))
                terms = {}
                for alpha, c in P.terms.items():
                    exact = binom_multi(alpha, beta)
                    bc = spec.from_int(exact)
                    lucas_zeros += exact > 0 and not bc
                    if bc:
                        terms[tuple(a - b for a, b in zip(alpha, beta))] = spec.mul(c, bc)
                assert hasse_derivative(P, beta) == SparsePoly(spec, n, terms), (P, beta)
        assert lucas_zeros

    def test_exponent_guard_as_binom_multi(self, F5):
        # the guard holds on a coordinate with beta_i = 0, but not past the
        # first coordinate with beta_i > alpha_i
        big = 1 << 20
        P = SparsePoly.from_int_terms(F5, 2, {(big, 0): 1})
        with pytest.raises(SizeGuard, match="^exponent 1048576 exceeds guard 1048576$"):
            hasse_derivative(P, (0, 1))
        Q = SparsePoly.from_int_terms(F5, 2, {(0, big): 1})
        assert hasse_derivative(Q, (1, 0)).is_zero()


class TestExpandShift:
    def test_linear(self, F5):
        P = SparsePoly.from_int_terms(F5, 1, {(1,): 1})
        table = expand_shift(P)
        assert table[(0,)] == P
        assert table[(1,)].terms == {(0,): 1}

    def test_char2_square(self, F2):
        P = SparsePoly.from_int_terms(F2, 1, {(2,): 1})
        table = expand_shift(P)
        assert set(table) == {(0,), (2,)}  # (x+y)^2 = x^2 + y^2

    def test_oracle_agreement(self, F2, F3, F5, F9, F4, F7):
        rng = random.Random(5)
        for spec in (F2, F3, F5, F9, F4, F7, field_for_q(8)):
            for _ in range(30):
                n = rng.randint(1, 3)
                P = random_poly(rng, spec, n, 5)
                table = expand_shift(P)
                deg = P.degree if not P.is_zero() else 0
                for beta in monomials_upto(n, deg):
                    assert hasse_derivative(P, beta) == \
                        table.get(beta, SparsePoly.zero(spec, n))


def _compose_reference(P, h):
    """Sum of c * h_1^e_1 * ... * h_n^e_n over the terms of P, each power
    taken factor by factor with `*`."""
    expected = SparsePoly.zero(P.spec, h[0].arity)
    for exp, c in P.terms.items():
        term = SparsePoly.constant(P.spec, h[0].arity, c)
        for hi, e in zip(h, exp):
            for _ in range(e):
                term = term * hi
        expected = expected + term
    return expected


class TestCompose:
    def test_parabola_identity(self, F5):
        P = SparsePoly.from_int_terms(F5, 2, {(0, 1): 1, (2, 0): -1})
        t = SparsePoly.variable(F5, 1, 0)
        assert compose(P, [t, t * t]).is_zero()

    def test_product(self, F5):
        P = SparsePoly.from_int_terms(F5, 2, {(1, 1): 1})
        t = SparsePoly.variable(F5, 1, 0)
        assert compose(P, [t, t]).terms == {(2,): 1}

    def test_char3_collapse(self, F3):
        P = SparsePoly.from_int_terms(F3, 2, {(1, 0): 1, (0, 1): 1})
        h1 = SparsePoly.from_int_terms(F3, 1, {(1,): 2})
        h2 = SparsePoly.from_int_terms(F3, 1, {(1,): 1, (0,): 1})
        assert compose(P, [h1, h2]).terms == {(0,): 1}

    def test_sparse_high_exponents_match_repeated_products(self, F5):
        # exponents of several hundred, most powers below them unused: each
        # power built by squaring must equal the product taken factor by factor
        P = SparsePoly.from_int_terms(F5, 2, {(300, 0): 1, (0, 451): 2, (517, 129): 3,
                                              (2, 1): 4})
        h = [SparsePoly.from_int_terms(F5, 2, {(1, 0): 1, (0, 0): 2}),
             SparsePoly.from_int_terms(F5, 2, {(0, 1): 3, (1, 1): 1})]
        assert compose(P, h) == _compose_reference(P, h)

    def test_degree_bound(self, F5):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 2)
            P = random_poly(rng, F5, n, 4)
            h = [random_poly(rng, F5, 1, 3) for _ in range(n)]
            out = compose(P, h)
            if not out.is_zero() and not P.is_zero():
                hmax = max((hi.degree for hi in h if not hi.is_zero()), default=0)
                assert out.degree <= P.degree * max(hmax, 1)

    def test_cancelling_terms(self, F5):
        # x0*x1 - x0^2 + 2 at (t + 1, t - 1): the t^2 terms and the
        # constants cancel, leaving -2t
        P = SparsePoly.from_int_terms(F5, 2, {(1, 1): 1, (2, 0): -1, (0, 0): 2})
        h = [SparsePoly.from_int_terms(F5, 1, {(1,): 1, (0,): 1}),
             SparsePoly.from_int_terms(F5, 1, {(1,): 1, (0,): -1})]
        assert compose(P, h).terms == {(1,): 3}

    @pytest.mark.parametrize("q", [2, 4, 5, 9])
    def test_matches_product_of_powers(self, q):
        # c * prod h_i^e_i built with `*`, summed with `+`: constant terms,
        # zero exponents, zero substituents, cancellation, and substituents
        # of fewer and more variables than P
        spec = field_for_q(q)
        rng = random.Random(30 + q)
        for n, m in [(1, 1), (2, 1), (1, 3), (2, 3), (3, 2)]:
            for trial in range(12):
                P = random_poly(rng, spec, n, 4) + \
                    SparsePoly.constant(spec, n, rng.randrange(1, q))
                P = P + SparsePoly.variable(spec, n, 0) ** rng.randint(0, 3)
                h = [random_poly(rng, spec, m, 2, max_terms=3) for _ in range(n)]
                if trial == 0:
                    h[0] = SparsePoly.zero(spec, m)
                assert compose(P, h) == _compose_reference(P, h), (P, h)


def _compositions_oracle(n, total):
    """The recursive generator `compositions` replaced; oracle for the list."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_oracle(n - 1, total - first):
            yield (first,) + rest


@pytest.mark.parametrize("q", [2, 4, 5, 8, 9])
def test_evaluation_matches_substituted_constants(q):
    # compose builds each power of a constant by polynomial products, not by
    # `pow_`: an oracle for both evaluators over prime and extension fields,
    # with zero coordinates (0^0 = 1), exponents >= q and the zero
    # polynomial, and one set of power tables shared by every polynomial
    spec = field_for_q(q)
    rng = random.Random(q)
    tables = [PowerTable(spec, c) for c in range(q)]
    for n in (1, 2, 3):
        polys = [SparsePoly.zero(spec, n)] + [random_poly(rng, spec, n, 3 * q) for _ in range(6)]
        assert any(max(e) >= q for P in polys for e in P.terms)
        points = [(0,) * n] + [tuple(rng.randrange(q) for _ in range(n)) for _ in range(5)]
        points.append(tuple(c if i % 2 else 0 for i, c in enumerate(points[-1])))
        for P in polys:
            for point in points:
                value = compose(P, [SparsePoly.constant(spec, 1, c) for c in point])
                want = value.terms.get((0,), 0)
                assert P.eval_codes(point) == want
                assert P.eval_powers([tables[c] for c in point]) == want
    for P in (SparsePoly.zero(spec, 2), random_poly(rng, spec, 2, 3), random_poly(rng, spec, 2, 3)):
        product = SparsePoly.one(spec, 2)
        for e in range(8):
            assert P ** e == product
            product = product * P


def test_compositions_match_recursive_oracle():
    for n in range(1, 6):
        for total in range(-1, 13):
            out = compositions(n, total)
            assert isinstance(out, list)
            assert out == list(_compositions_oracle(n, total)), (n, total)


def test_compositions_match_brute_force():
    for n in range(1, 6):
        for total in range(8):
            want = [e for e in itertools.product(range(total + 1), repeat=n) if sum(e) == total]
            assert compositions(n, total) == want, (n, total)


@pytest.mark.parametrize("n", [0, -1])
def test_compositions_reject_arity_below_one(n):
    # n < 1 fails at the call rather than recurse without end
    with pytest.raises(ArityMismatch):
        compositions(n, 0)
    with pytest.raises(ArityMismatch):
        monomials_upto(n, 1)


def test_unfiltered_results_hold_no_zero_coefficient(F2, F3, F4, F5, F7, F9):
    # sums, negations, products and Hasse derivatives skip the constructor's
    # zero filter; few exponents, so that terms collide and cancel
    rng = random.Random(12)
    for spec in (F2, F3, F4, F5, F7, F9):
        for _ in range(40):
            n = rng.randint(1, 3)
            P, Q = random_poly(rng, spec, n, 3), random_poly(rng, spec, n, 3)
            beta = tuple(rng.randint(0, 2) for _ in range(n))
            results = [P + Q, P + (-P), P - Q, -P, P * Q, P * P, Q * (-Q),
                       hasse_derivative(P, beta), hasse_derivative(P * Q, beta)]
            for R in results:
                assert 0 not in R.terms.values()
                assert R == SparsePoly(spec, n, dict(R.terms))


def test_zero_degree_sentinel(F3):
    z = SparsePoly.zero(F3, 2)
    assert z.degree is NEG_INFINITY
    assert NEG_INFINITY < 0
    assert not NEG_INFINITY >= 0


def test_zero_degree_is_minus_infinity(F3):
    # a plain float, so arithmetic and min/max need no special case
    z = SparsePoly.zero(F3, 2)
    assert z.degree == -math.inf and repr(z.degree) == "-inf"
    assert -NEG_INFINITY == math.inf
    assert max(z.degree, 0) == 0


def test_derivative_walk_is_degree_then_lex_up_to_deg(F5):
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        P = random_poly(rng, F5, n, 4)
        deg = max(P.degree, -1)
        for top, last in [(math.inf, deg), (1, min(1, deg)), (10**12, deg)]:
            walk = list(derivatives(P, top))
            assert [beta for beta, _ in walk] == monomials_upto(n, last)
            assert all(D == hasse_derivative(P, beta) for beta, D in walk)
    assert list(derivatives(SparsePoly.zero(F5, 2))) == []


def test_json_round_trip(F9):
    rng = random.Random(8)
    for _ in range(20):
        P = random_poly(rng, F9, 2, 4)
        assert poly_from_json(poly_to_json(P)) == P
