import operator
import random

import pytest

from ffkakeya.errors import (
    DivisionByZero,
    MixedFields,
    NonPrime,
    ReducibleModulus,
    UnsupportedFieldSize,
)
from ffkakeya.ffield import (
    _poly_divmod_p,
    _poly_mulmod_p,
    _poly_trim,
    all_elements,
    field_for_q,
    field_from_json,
    make_field,
)

TEST_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


def test_prime_field_elements():
    F5 = make_field(5)
    assert [e.code for e in all_elements(F5)] == [0, 1, 2, 3, 4]


def test_f4_multiplication():
    # t * t = t + 1 in F_2[t]/(t^2 + t + 1)
    F4 = make_field(2, 2, [1, 1, 1])
    t = F4.element(F4.encode((0, 1)))
    assert (t * t).coeffs == (1, 1)


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        make_field(4)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])  # t^2 + 1 = (t+1)^2 over F_2


def test_size_guard():
    with pytest.raises(UnsupportedFieldSize):
        make_field(2, 17)


def test_named_arith_examples(F3, F5, F4):
    assert (F5.element(1) / F5.element(2)).code == 3
    assert (F3.element(2) + F3.element(2)).code == 1
    assert (F3.element(1) - F3.element(2)).code == 2
    t = F4.element(F4.encode((0, 1)))
    assert (t * t).coeffs == (1, 1)


def test_division_by_zero(F5):
    with pytest.raises(DivisionByZero):
        F5.element(1) / F5.element(0)


def test_mixed_fields_rejected(F3, F5):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(MixedFields):
            op(F3.element(1), F5.element(1))


@pytest.mark.parametrize("p,m", TEST_FIELDS)
def test_random_triples_ring_laws(p, m):
    spec = make_field(p, m)
    rng = random.Random(1000 * p + m)
    elems = all_elements(spec)
    for _ in range(1000):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


@pytest.mark.parametrize("p,m", TEST_FIELDS)
def test_inverses(p, m):
    spec = make_field(p, m)
    one = spec.element(spec.one)
    for a in all_elements(spec)[1:]:
        assert a * (one / a) == one


@pytest.mark.parametrize("p,m", TEST_FIELDS + [(7, 2)])
def test_frobenius(p, m):
    spec = make_field(p, m)
    for a in all_elements(spec):
        assert (a ** spec.q) == a


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)])
def test_all_elements_closed(p, m):
    spec = make_field(p, m)
    elems = all_elements(spec)
    assert len({e.code for e in elems}) == spec.q
    assert elems[0].is_zero()
    codes = {e.code for e in elems}
    for a in elems:
        for b in elems:
            assert (a + b).code in codes
            assert (a * b).code in codes


def test_field_json_round_trip(F9):
    doc = F9.to_json()
    assert field_from_json(doc) == F9
    for e in all_elements(F9):
        assert F9.element_from_json(F9.element_to_json(e.code)) == e.code


def test_field_for_q_prime_powers():
    assert field_for_q(8).q == 8
    assert field_for_q(9).q == 9
    with pytest.raises(NonPrime):
        field_for_q(6)


def test_bare_integer_element_is_its_image_in_prime_field():
    # docs/formats.md: a bare integer is the image of that integer in F_p,
    # not a rank code (the code of (1, 1) in F_9 is 4)
    F9, F8 = field_for_q(9), field_for_q(8)
    assert F9.decode(F9.element_from_json(4)) == (1, 0)
    assert F9.decode(F9.element_from_json(-1)) == (2, 0)
    assert F8.decode(F8.element_from_json(5)) == (1, 0, 0)
    assert F8.element_from_json(6) == 0


# --- the log tables against slow arithmetic on coefficient vectors ---

# the lex-first irreducible moduli: element codes and written documents depend on them
DEFAULT_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    49: (1, 0, 1),
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
    729: (2, 1, 0, 0, 0, 0, 1),
    1 << 16: (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    3**10: (1, 0, 2) + (0,) * 7 + (1,),
}
EXHAUSTIVE_QS = [4, 8, 9, 16, 25, 27, 49]
SAMPLED_QS = [256, 729, 1 << 16, 3**10]


def _slow_mul(spec, a, b):
    """Product as the polynomial product reduced mod the modulus."""
    prod = _poly_mulmod_p(_poly_trim(spec.decode(a)), _poly_trim(spec.decode(b)), spec.p)
    _, rem = _poly_divmod_p(prod, spec.modulus, spec.p)
    return spec.encode(rem + (0,) * (spec.m - len(rem)))


def _slow_pow(spec, a, e):
    result = spec.one
    for bit in bin(e)[2:]:
        result = _slow_mul(spec, result, result)
        if bit == "1":
            result = _slow_mul(spec, result, a)
    return result


def _digitwise(spec, op, *codes):
    return spec.encode(tuple(op(*cs) % spec.p for cs in zip(*map(spec.decode, codes))))


def _check_against_oracle(spec, pairs, bases):
    for a, b in pairs:
        assert spec.add(a, b) == _digitwise(spec, operator.add, a, b), (a, b)
        assert spec.sub(a, b) == _digitwise(spec, operator.sub, a, b), (a, b)
        assert spec.mul(a, b) == _slow_mul(spec, a, b), (a, b)
        if b:
            assert _slow_mul(spec, spec.div(a, b), b) == a, (a, b)
    q = spec.q
    for a in bases:
        assert spec.neg(a) == _digitwise(spec, operator.neg, a), a
        if a:
            assert _slow_mul(spec, a, spec.inv(a)) == spec.one, a
        for e in (0, 1, 2, 3, q - 2, q - 1, q, q + 1, 3 * q + 5):
            assert spec.pow_(a, e) == _slow_pow(spec, a, e), (a, e)
            if a:
                assert _slow_mul(spec, spec.pow_(a, -e), _slow_pow(spec, a, e)) == spec.one


@pytest.mark.parametrize("q", EXHAUSTIVE_QS)
def test_ops_match_slow_oracle_exhaustive(q):
    spec = field_for_q(q)
    assert spec.modulus == DEFAULT_MODULI[q]
    codes = range(q)
    _check_against_oracle(spec, [(a, b) for a in codes for b in codes], codes)


@pytest.mark.parametrize("q", SAMPLED_QS)
def test_ops_match_slow_oracle_sampled(q):
    spec = field_for_q(q)
    assert spec.modulus == DEFAULT_MODULI[q]
    rng = random.Random(q)
    minus_one = spec.neg(spec.one)
    edges = [0, spec.one, minus_one, q - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(1500)]
    pairs += [(a, spec.neg(a)) for a, _ in pairs[-20:]]  # sums that cancel
    _check_against_oracle(spec, pairs, edges + [rng.randrange(q) for _ in range(25)])


@pytest.mark.parametrize("p,m", [(5, 1), (2, 3), (3, 2), (3, 6)])
def test_pow_zero_base(p, m):
    spec = make_field(p, m)
    assert spec.pow_(0, 0) == spec.one
    assert spec.pow_(0, 1) == spec.pow_(0, spec.q) == 0
    with pytest.raises(DivisionByZero):
        spec.pow_(0, -1)
