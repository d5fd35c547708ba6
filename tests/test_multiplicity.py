import itertools
import math
import random
import time

import pytest

from ffkakeya.errors import SizeGuard, ZeroPolynomial
from ffkakeya.ffield import field_for_q, make_field
from ffkakeya.mpoly import (
    SparsePoly,
    compose,
    compositions,
    derivatives,
    hasse_derivative,
    hasse_table,
    monomials_upto,
)
from ffkakeya.multiplicity import (
    INFINITE,
    VanishCheck,
    mult_at,
    schwartz_zippel_audit,
    vanishes_with_mult,
)
from ffkakeya.vanish import VanishProblem

from .test_mpoly import random_poly


def test_double_zero(F5):
    P = SparsePoly.from_int_terms(F5, 2, {(2, 0): 1})
    assert mult_at(P, (0, 0)).mult == 2


def test_triple_zero_witness(F5):
    P = SparsePoly.from_int_terms(F5, 2, {(2, 1): 1})
    report = mult_at(P, (0, 0))
    assert report.mult == 3
    assert report.witness == (2, 1)


def test_zero_poly_infinite(F5):
    assert mult_at(SparsePoly.zero(F5, 2), (1, 2)).mult is INFINITE


def test_infinite_is_plain_infinity(F5):
    # a plain float, so the multiplicity lemmas need no special case
    assert INFINITE == math.inf and repr(INFINITE) == "inf"
    assert INFINITE - 3 == INFINITE and INFINITE >= 10**100


@pytest.mark.parametrize("q,code", [(8, 9), (5, 7), (5, -1)])
def test_out_of_range_code_rejected(q, code):
    # F_8 used to fail inside its tables, F_5 used to read 7 as 2
    spec = field_for_q(q)
    x = SparsePoly.variable(spec, 1, 0)
    message = f"element code {code} out of range for q={q}"
    with pytest.raises(ValueError, match=message):
        mult_at(x, (code,))
    with pytest.raises(ValueError, match=message):
        vanishes_with_mult(x, [(0,), (code,)], 1)
    with pytest.raises(ValueError, match=message):
        VanishProblem(spec, 1, [(code,)], 1, 1)


def test_mult_positive_iff_root(F7):
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 3)
        P = random_poly(rng, F7, n, 4)
        a = tuple(rng.randrange(7) for _ in range(n))
        if P.is_zero():
            continue
        assert (mult_at(P, a).mult >= 1) == (P.eval_codes(a) == 0)


def test_vanishes_with_mult_parabola(F7):
    par = SparsePoly.from_int_terms(F7, 2, {(0, 1): 1, (2, 0): -1})
    P = par * par
    A = [(l, l * l % 7) for l in range(7)]
    assert vanishes_with_mult(P, A, 2).ok
    bad = vanishes_with_mult(P, A, 3)
    assert not bad.ok and bad.point is not None and bad.beta is not None


def _first_failure_oracle(P, A, M):
    """The first (point, beta) with |beta| < M and P^(beta)(point) != 0."""
    for point in A:
        for beta in monomials_upto(P.arity, M - 1):
            if hasse_derivative(P, beta).eval_codes(point) != 0:
                return point, beta
    return None


def _mult_oracle(P, point):
    """(mult, witness) with every derivative evaluated by its own `eval_codes`."""
    for beta in monomials_upto(P.arity, max(P.degree, 0)):
        if hasse_derivative(P, beta).eval_codes(point) != 0:
            return sum(beta), beta
    return INFINITE, None


@pytest.mark.parametrize("q", [2, 4, 5, 8, 9])
def test_power_table_walks_match_eval_codes(q):
    # the walks read a point's powers from tables shared by all derivatives;
    # the oracle computes them anew per derivative, over prime and extension
    # fields, with zero coordinates (0^0 = 1) and the zero polynomial
    spec = field_for_q(q)
    rng = random.Random(q)
    for trial in range(30):
        n = rng.randint(1, 3)
        P = random_poly(rng, spec, n, 4) if trial else SparsePoly.zero(spec, n)
        a = tuple(rng.randrange(q) for _ in range(n))
        for _ in range(rng.randint(0, 2)):  # raise the multiplicity at a
            i = rng.randrange(n)
            P = P * (SparsePoly.variable(spec, n, i) - SparsePoly.constant(spec, n, a[i]))
        points = [a, (0,) * n, tuple(c if i % 2 else 0 for i, c in enumerate(a))]
        points += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
        for point in points:
            report = mult_at(P, point)
            assert (report.mult, report.witness) == _mult_oracle(P, point)
        for M in range(max(P.degree, 0) + 2):
            chk = vanishes_with_mult(P, points, M)
            want = _first_failure_oracle(P, points, M)
            assert (chk.point, chk.beta) == (want or (None, None)) and chk.ok == (want is None)
        if not P.is_zero():
            A = sorted({0, *rng.sample(range(q), min(q, 3))})
            rep = schwartz_zippel_audit(P, A)
            grid = itertools.product(A, repeat=n)
            assert rep.total_mult == sum(_mult_oracle(P, point)[0] for point in grid)
            assert rep.bound == P.degree * len(A) ** (n - 1)


def test_walks_compute_only_the_powers_they_read():
    # P(a, 0) = a^(2^20 - 1) != 0: each point needs one power, not all of
    # those up to deg P
    spec = field_for_q(65521)
    P = SparsePoly(spec, 2, {(2**20 - 1, 0): 1, (0, 1): 1})
    points = [(a, 0) for a in range(1, 41)]
    start = time.perf_counter()
    assert all(mult_at(P, point).mult == 0 for point in points)
    assert vanishes_with_mult(P, points[::-1], 1) == VanishCheck(False, (40, 0), (0, 0))
    assert time.perf_counter() - start < 1


def test_derivative_table_lists_binomials_only_to_the_order_asked(F7):
    # C(x, y) mod p is listed for y <= min(x, M - 1): listed up to the
    # exponent 2^20 - 1 itself, these few checks would take minutes.
    # x^(2^20 - 1) = -1 at x = 3, 5, 6, where P = (x^(2^20 - 1) + 1) y
    # vanishes to order 2 on y = 0; its y-derivative is 2 at x = 1
    big = 2**20 - 1
    P = SparsePoly(F7, 2, {(big, 1): 1, (0, 1): 1})
    roots = [(3, 0), (5, 0), (6, 0)]
    start = time.perf_counter()
    assert vanishes_with_mult(P, roots, 2).ok
    assert vanishes_with_mult(P, roots + [(1, 0)], 2) == VanishCheck(False, (1, 0), (0, 1))
    assert hasse_table(P, 1) == {beta: D for beta, D in derivatives(P, 1) if D.terms}
    assert time.perf_counter() - start < 1
    assert _first_failure_oracle(P, roots + [(1, 0)], 2) == ((1, 0), (0, 1))
    # one more and the exponent meets the guard, as in `hasse_derivative`
    Q = SparsePoly(F7, 2, {(big + 1, 1): 1, (0, 1): 1})
    with pytest.raises(SizeGuard, match="^exponent 1048576 exceeds guard 1048576$"):
        vanishes_with_mult(Q, roots, 2)
    with pytest.raises(SizeGuard, match="^exponent 1048576 exceeds guard 1048576$"):
        hasse_derivative(Q, (0, 1))


def test_vanishes_with_mult_matches_oracle_and_stops_at_degree(F5):
    # orders above deg P are zero, so a huge M reads no more derivatives
    # than M = deg P + 1 and reports the same first failure
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 3)
        P = random_poly(rng, F5, n, 4)
        A = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        for M in range(1, max(P.degree, 0) + 3):
            chk = vanishes_with_mult(P, A, M)
            want = _first_failure_oracle(P, A, M)
            assert (chk.point, chk.beta) == (want or (None, None)) and chk.ok == (want is None)
        start = time.perf_counter()
        huge = vanishes_with_mult(P, A, 10**12)
        assert time.perf_counter() - start < 1
        assert huge == vanishes_with_mult(P, A, max(P.degree, 0) + 1)


def test_vacuous_empty_set(F3):
    P = SparsePoly.from_int_terms(F3, 2, {(1, 0): 1})
    assert vanishes_with_mult(P, [], 5).ok


def test_audit_equality_case(F3):
    rep = schwartz_zippel_audit(SparsePoly.from_int_terms(F3, 2, {(1, 1): 1}), range(3))
    assert (rep.total_mult, rep.bound, rep.ok) == (6, 6, True)


def test_audit_linear_f2(F2):
    rep = schwartz_zippel_audit(SparsePoly.from_int_terms(F2, 2, {(1, 0): 1}), range(2))
    assert (rep.total_mult, rep.bound, rep.ok) == (2, 2, True)


def test_audit_constant(F5):
    rep = schwartz_zippel_audit(SparsePoly.from_int_terms(F5, 2, {(0, 0): 1}), range(5))
    assert (rep.total_mult, rep.bound, rep.ok) == (0, 0, True)


def test_audit_zero_poly_rejected(F5):
    with pytest.raises(ZeroPolynomial):
        schwartz_zippel_audit(SparsePoly.zero(F5, 2), range(5))


def test_audit_random_never_exceeds():
    rng = random.Random(22)
    for q in (3, 5, 7):
        spec = make_field(q)
        for _ in range(40):
            n = rng.randint(1, 3)
            P = random_poly(rng, spec, n, 4)
            if P.is_zero():
                continue
            assert schwartz_zippel_audit(P, range(q)).ok


def test_derivative_mult_lower_bound():
    rng = random.Random(23)
    for _ in range(150):
        spec = make_field(rng.choice([2, 3, 5]))
        n = rng.randint(1, 2)
        P = random_poly(rng, spec, n, 3)
        a = tuple(rng.randrange(spec.q) for _ in range(n))
        # seed extra multiplicity at a
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(n)
            lin = SparsePoly.variable(spec, n, i) - SparsePoly.constant(spec, n, a[i])
            P = P * lin
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        base = mult_at(P, a).mult
        d = mult_at(hasse_derivative(P, beta), a).mult
        assert d >= base - sum(beta)


def test_composition_mult_lower_bound():
    rng = random.Random(24)
    for _ in range(150):
        spec = make_field(rng.choice([3, 5]))
        n = rng.randint(1, 3)
        P = random_poly(rng, spec, n, 3)
        h = [random_poly(rng, spec, 1, 2) for _ in range(n)]
        lam = rng.randrange(spec.q)
        lhs = mult_at(compose(P, h), (lam,)).mult
        rhs = mult_at(P, tuple(hi.eval_codes((lam,)) for hi in h)).mult
        assert lhs >= rhs
