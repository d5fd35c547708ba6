"""Sparse multivariate polynomials over F_q.

Terms are held in a dict mapping exponent tuples to nonzero coefficient
codes, so the zero polynomial is exactly the empty dict.  Exponent vectors
are plain tuples of nonnegative ints; lexicographic order compares the
first differing coordinate.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations_with_replacement

from .errors import ArityMismatch, MixedFields, SizeGuard, ZeroPolynomial
from .ffield import FieldSpec, expect_json, field_from_json

_EXP_GUARD = 1 << 20
NEG_INFINITY = -math.inf  # degree of the zero polynomial


# --- multi-index utilities ---


def lex_compare(a, b) -> int:
    """-1, 0 or 1 according to the lexicographic order on exponent tuples."""
    if len(a) != len(b):
        raise ArityMismatch(f"arity {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0


def binom_multi(a, b) -> int:
    """Product of componentwise binomials, 0 if any b_i > a_i. Exact integer."""
    if len(a) != len(b):
        raise ArityMismatch(f"arity {len(a)} vs {len(b)}")
    out = 1
    for x, y in zip(a, b):
        if y > x:
            return 0
        if x >= _EXP_GUARD:
            raise SizeGuard(f"exponent {x} exceeds guard {_EXP_GUARD}")
        out *= math.comb(x, y)
    return out


def binom_multi_mod(a, b, p: int) -> int:
    """binom_multi(a, b) % p for a prime p, by Lucas's theorem.

    C(x, y) mod p is the product of the binomials of the base-p digits of x
    and y; it is 0 when a digit of y exceeds that of x.  Checks and raises
    as `binom_multi` does, in the same order."""
    if len(a) != len(b):
        raise ArityMismatch(f"arity {len(a)} vs {len(b)}")
    out = 1
    for x, y in zip(a, b):
        if y > x:
            return 0
        if x >= _EXP_GUARD:
            raise SizeGuard(f"exponent {x} exceeds guard {_EXP_GUARD}")
        while y:
            x, dx = divmod(x, p)
            y, dy = divmod(y, p)
            if dy > dx:
                return 0
            out = out * math.comb(dx, dy) % p
    return out


def compositions(n: int, total: int) -> list:
    """All tuples in Z_{>=0}^n summing to `total`, as a list in lex order.

    Stars and bars: the partial sums x_1, x_1 + x_2, ... of the first n - 1
    parts are a multiset of size n - 1 from range(total + 1), and those
    multisets in lex order give the tuples in lex order.  n = 1 gives
    [(total,)] even for total < 0; n > 1 with total < 0 gives []."""
    if n == 1:
        return [(total,)]
    if n < 1:
        raise ArityMismatch(f"compositions need arity >= 1, got {n}")
    last, first = (total,), (0,)
    return [
        tuple(map(operator.sub, sums + last, first + sums))
        for sums in combinations_with_replacement(range(total + 1), n - 1)
    ]


def monomials_upto(n: int, max_degree: int):
    """Exponent tuples of total degree <= max_degree, degree-then-lex order."""
    out = []
    for d in range(max_degree + 1):
        out.extend(compositions(n, d))
    return out


class PowerTable(dict):
    """c^e for each exponent e read, computed by `pow_` on its first read
    (0^0 = 1), so a sparse polynomial of high degree costs no more than
    its terms read."""

    __slots__ = ("pow_", "c")

    def __init__(self, spec: FieldSpec, c: int):
        self.pow_, self.c = spec.pow_, c

    def __missing__(self, e: int) -> int:
        w = self[e] = self.pow_(self.c, e)
        return w


# --- the polynomial type ---


class SparsePoly:
    """Immutable sparse polynomial; coefficients stored as field codes.

    The constructor drops zero coefficients; `_raw` skips that filter for
    dicts the caller knows hold none."""

    __slots__ = ("spec", "arity", "terms")

    def __init__(self, spec: FieldSpec, arity: int, terms: dict):
        self.spec = spec
        self.arity = arity
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors --

    @classmethod
    def _raw(cls, spec, arity, terms: dict) -> "SparsePoly":
        """Wrap `terms` as is: no zero filter, so no zero coefficient allowed."""
        P = object.__new__(cls)
        P.spec = spec
        P.arity = arity
        P.terms = terms
        return P

    @classmethod
    def zero(cls, spec, arity):
        return cls(spec, arity, {})

    @classmethod
    def constant(cls, spec, arity, code):
        return cls(spec, arity, {(0,) * arity: code})

    @classmethod
    def one(cls, spec, arity):
        return cls.constant(spec, arity, spec.one)

    @classmethod
    def variable(cls, spec, arity, index):
        exp = tuple(1 if i == index else 0 for i in range(arity))
        return cls(spec, arity, {exp: spec.one})

    @classmethod
    def from_int_terms(cls, spec, arity, int_terms: dict):
        """Build from {exponent tuple: integer}; integers reduced into F_q."""
        return cls(spec, arity, {e: spec.from_int(c) for e, c in int_terms.items()})

    # -- basic queries --

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.spec == other.spec
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, self.arity, frozenset(self.terms.items())))

    def _check(self, other: "SparsePoly"):
        if self.spec != other.spec:
            raise MixedFields("polynomials over different fields")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    # -- arithmetic --

    def __add__(self, other):
        self._check(other)
        add = self.spec.add
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = add(terms.get(e, 0), c)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return SparsePoly._raw(self.spec, self.arity, terms)

    def __neg__(self):
        neg = self.spec.neg
        return SparsePoly._raw(self.spec, self.arity, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        add, mul, plus = self.spec.add, self.spec.mul, operator.add
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(plus, e1, e2))
                s = add(terms.get(e, 0), mul(c1, c2))
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return SparsePoly._raw(self.spec, self.arity, terms)

    def scale(self, code: int) -> "SparsePoly":
        mul = self.spec.mul
        return SparsePoly(self.spec, self.arity, {e: mul(c, code) for e, c in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return _power({0: SparsePoly.one(self.spec, self.arity), 1: self}, e)

    # -- evaluation --

    def eval_codes(self, point) -> int:
        """Evaluate at a point given as a tuple of element codes."""
        if len(point) != self.arity:
            raise ArityMismatch(f"point arity {len(point)} vs {self.arity}")
        return self.eval_powers([PowerTable(self.spec, c) for c in point])

    def eval_powers(self, powers) -> int:
        """Evaluate at the point whose coordinates' power tables are `powers`.

        Each term reads its powers from the tables, so polynomials evaluated
        at one point, or at points that share coordinate values, can share
        the tables and compute each power once.  Over F_p the codes are the
        residues themselves: the terms are multiplied and summed as plain
        ints and the sum is reduced mod p once."""
        spec = self.spec
        if spec.m == 1:
            acc = 0
            for exp, c in self.terms.items():
                for table, e in zip(powers, exp):
                    if e:
                        c *= table[e]
                acc += c
            return acc % spec.p
        add, mul = spec.add, spec.mul
        acc = 0
        for exp, c in self.terms.items():
            for table, e in zip(powers, exp):
                if e:
                    c = mul(c, table[e])
            acc = add(acc, c)
        return acc

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        parts = [f"{self.spec.element_to_json(c)}*x^{e}" for e, c in sorted(self.terms.items())]
        return "SparsePoly(" + " + ".join(parts) + ")"


# --- operations from the build contract ---


def min_lex_exponent(f: SparsePoly):
    """Lex-least exponent of a nonzero polynomial, with its coefficient code."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no least exponent")
    return min(f.terms.items())


def hasse_derivative(P: SparsePoly, beta) -> SparsePoly:
    """Termwise Hasse derivative: c_a * C(a, beta) * x^(a - beta).

    a -> a - beta is injective, so no two terms meet and a term is kept
    exactly when C(a, beta) is nonzero in the field.  C(a, beta) mod p is
    taken in one pass over the coordinates: it stops at the first
    beta_i > a_i, skips the factors with beta_i = 0, and raises `SizeGuard`
    where `binom_multi` would."""
    beta = tuple(beta)
    if len(beta) != P.arity:
        raise ArityMismatch(f"beta arity {len(beta)} vs {P.arity}")
    spec = P.spec
    p, comb, mul, from_int, minus = spec.p, math.comb, spec.mul, spec.from_int, operator.sub
    terms = {}
    for alpha, c in P.terms.items():
        bc = 1
        for x, y in zip(alpha, beta):
            if y > x:
                break
            if x >= _EXP_GUARD:
                raise SizeGuard(f"exponent {x} exceeds guard {_EXP_GUARD}")
            if y:
                bc = bc * comb(x, y) % p
        else:
            if bc:
                terms[tuple(map(minus, alpha, beta))] = mul(c, from_int(bc))
    return SparsePoly._raw(spec, P.arity, terms)


def hasse_table(P: SparsePoly, top=math.inf) -> dict:
    """{beta: P^(beta)} for every nonzero P^(beta) with |beta| <= top, in
    one pass over the terms.

    A term c x^alpha adds c * C(alpha, beta) at x^(alpha - beta) to each
    beta <= alpha in its box with |beta| <= top and C(alpha, beta) nonzero
    mod p; as in `hasse_derivative`, no two terms meet within one beta.
    C(x, y) mod p is read from a list per distinct exponent x, made on its
    first read for y <= min(x, top) only, so a high exponent costs no more
    than the orders asked for.  Raises `SizeGuard` for an exponent at or
    above the guard whenever top >= 0, as the walk's order 0 does."""
    if top < 0:
        return {}
    spec = P.spec
    p, mul, one = spec.p, spec.mul, spec.one
    residues = {}  # x -> [(y, x - y, C(x, y) mod p)] over y <= min(x, top), nonzero only
    table = {}
    for alpha, c in P.terms.items():
        box = [((), (), 0, 1)]  # (beta, alpha - beta, |beta|, C(alpha, beta) mod p) so far
        for x in alpha:
            row = residues.get(x)
            if row is None:
                if x >= _EXP_GUARD:
                    raise SizeGuard(f"exponent {x} exceeds guard {_EXP_GUARD}")
                row = residues[x] = [
                    (y, x - y, r) for y in range(min(x, top) + 1) if (r := math.comb(x, y) % p)
                ]
            box = [(beta + (y,), rest + (d,), s + y, bc * r % p)
                   for beta, rest, s, bc in box for y, d, r in row if s + y <= top]
        for beta, rest, _, bc in box:
            terms = table.get(beta)
            if terms is None:
                terms = table[beta] = {}
            terms[rest] = mul(c, bc * one)
    return {beta: SparsePoly._raw(spec, P.arity, terms) for beta, terms in table.items()}


def derivatives(P: SparsePoly, top=math.inf):
    """(beta, P^(beta)) for |beta| <= top, degree-then-lex, built lazily.

    Orders above deg P give the zero polynomial, so the walk ends at
    min(top, deg P); it is empty for P = 0.  A check that reads every
    nonzero order takes them from `hasse_table` instead; this walk serves
    the checks that stop at the first nonzero order."""
    top = min(top, P.degree)
    order = 0
    while order <= top:
        for beta in compositions(P.arity, order):
            yield beta, hasse_derivative(P, beta)
        order += 1


def _power(cache: dict, e: int) -> SparsePoly:
    """h^e by square-and-multiply, h^(e//2) * h^(e - e//2), from `cache`,
    which maps exponents to powers of h, holds h^1 (and h^0 if e may be
    0) and keeps each power built.  A new power costs one product: the
    exponents 0 to E cost E - 1, as building them one at a time does, and
    a lone E about 2 log2(E)."""
    if e not in cache:
        cache[e] = _power(cache, e // 2) * _power(cache, e - e // 2)
    return cache[e]


def compose(P: SparsePoly, h) -> SparsePoly:
    """Exact substitution P(h_1, ..., h_n).

    A term c x^e multiplies only the powers h_i^(e_i) with e_i >= 1, each
    built on demand (`_power`) and memoized, and c is multiplied into the
    product's coefficients as they are added into the one output dict; a
    constant term adds c at the zero exponent."""
    h = list(h)
    return _compose(P, [{1: hi} for hi in h], _substitution_arity(P, h))  # never asks for h^0


def _substitution_arity(P: SparsePoly, h: list) -> int:
    """The common arity of the substituents h, checked against P as `compose` does."""
    if len(h) != P.arity:
        raise ArityMismatch(f"{len(h)} substituents for arity {P.arity}")
    if not h:
        raise ArityMismatch("empty substitution")
    spec = P.spec
    out_arity = h[0].arity
    for hi in h:
        if hi.spec != spec:
            raise MixedFields("substituents over a different field")
        if hi.arity != out_arity:
            raise ArityMismatch("substituents with mixed arity")
    return out_arity


def _compose(P: SparsePoly, powers, out_arity: int) -> SparsePoly:
    """`compose`'s loop, with `powers[i]` the `_power` cache of h_i."""
    spec = P.spec
    add, mul = spec.add, spec.mul
    const = {(0,) * out_arity: spec.one}
    terms = {}
    for exp, c in P.terms.items():
        product = None
        for cache, e in zip(powers, exp):
            if e:
                hp = _power(cache, e)
                product = hp if product is None else product * hp
        for e, d in (const if product is None else product.terms).items():
            s = add(terms.get(e, 0), mul(c, d))
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return SparsePoly._raw(spec, out_arity, terms)


def translate(P: SparsePoly, c) -> SparsePoly:
    """P(x + c) for a point c, one coordinate at a time.

    Along each line in x_i (the other exponents fixed) the coefficients
    are shifted by c_i with Horner's rule repeated (synthetic division),
    d(d+1)/2 multiply-adds for degree d, where `compose` would expand
    every (x_i + c_i)^e as a product of polynomials."""
    spec = P.spec
    add, mul = spec.add, spec.mul
    terms = P.terms
    for i, ci in enumerate(c):
        if not ci:
            continue
        lines = {}  # the other exponents -> coefficients of x_i^0, x_i^1, ...
        for exp, coeff in terms.items():
            line = lines.setdefault(exp[:i] + exp[i + 1:], [])
            line.extend([0] * (exp[i] + 1 - len(line)))
            line[exp[i]] = coeff
        terms = {}
        for rest, f in lines.items():
            d = len(f) - 1
            for k in range(d):
                for j in range(d - 1, k - 1, -1):
                    if f[j + 1]:
                        f[j] = add(f[j], mul(ci, f[j + 1]))
            for e, coeff in enumerate(f):
                if coeff:
                    terms[rest[:i] + (e,) + rest[i:]] = coeff
    return SparsePoly._raw(spec, P.arity, terms)


def expand_shift(P: SparsePoly) -> dict:
    """Hasse-derivative table by brute-force expansion of P(x+y).

    Substitutes x_i + y_i in 2n variables via generic composition and
    buckets its coefficients by y^beta: each (x, y) exponent appears once in
    the composition, with a nonzero coefficient, so every bucket is a
    nonzero P^(beta) as it stands.  The powers (x_i + y_i)^e are built
    once per (field, n) and kept (`_shift_powers`), so calls share only
    the powers of identical substituents.  Independent oracle for
    `hasse_table` and `hasse_derivative`: no binomial coefficients are
    used here.
    """
    n, spec = P.arity, P.spec
    powers = _shift_powers(spec, n)
    composed = _compose(P, powers, _substitution_arity(P, [cache[1] for cache in powers]))
    table = {}
    for exp, c in composed.terms.items():
        table.setdefault(exp[n:], {})[exp[:n]] = c
    return {beta: SparsePoly._raw(spec, n, terms) for beta, terms in table.items()}


@functools.cache
def _shift_powers(spec: FieldSpec, n: int) -> list:
    """The `_power` cache of each x_i + y_i in 2n variables, kept for the
    process and grown by every power an expansion reads."""
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    return [{1: SparsePoly._raw(spec, 2 * n, {e + zero: spec.one, zero + e: spec.one})}
            for e in units]


# --- serialization ---


def poly_to_json(P: SparsePoly) -> dict:
    terms = [
        {"exp": list(e), "coeff": P.spec.element_to_json(c)}
        for e, c in sorted(P.terms.items())
    ]
    return {"field": P.spec.to_json(), "arity": P.arity, "terms": terms}


def poly_from_json(doc: dict, spec: FieldSpec = None) -> SparsePoly:
    expect_json(doc, dict, "polynomial")
    if spec is None:
        spec = field_from_json(doc["field"])
    arity = expect_json(doc["arity"], int, "arity")
    terms = {}
    for t in expect_json(doc["terms"], list, "terms"):
        expect_json(t, dict, "term")
        exp = tuple(expect_json(t["exp"], list, "term exp"))
        if len(exp) != arity:
            raise ArityMismatch(f"term exponent {exp} has wrong arity")
        for e in exp:
            if expect_json(e, int, "exponent") < 0:
                raise ValueError(f"term exponent {exp} has a negative entry")
        terms[exp] = spec.element_from_json(t["coeff"])
    return SparsePoly(spec, arity, terms)
