"""Exact arithmetic in finite fields F_q, q = p^m.

Extension fields are represented in the power basis of F_p[t]/(modulus).
Every element is identified with an integer *code* in [0, q): the rank of
its coefficient vector (c_0, ..., c_{m-1}) in lexicographic order, zero
first.  All enumeration and serialization is deterministic in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DivisionByZero,
    MixedFields,
    NonPrime,
    ReducibleModulus,
    UnsupportedFieldSize,
)

MAX_Q = 1 << 16

# Full q x q add/mul tables are only built for small extension fields.
_TABLE_LIMIT = 256


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# --- polynomial helpers over F_p, coefficient tuples in ascending order ---


def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mulmod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_divmod_p(a, b, p):
    # b must be nonzero; returns (quotient, remainder)
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(_poly_trim(tuple(a))) - 1 >= db and any(a):
        a = list(_poly_trim(tuple(a)))
        da = len(a) - 1
        if da < db:
            break
        coef = a[-1] * inv_lb % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
    return _poly_trim(tuple(q)), _poly_trim(tuple(a))


def _monic_polys(degree: int, p: int):
    """All monic polynomials of the given degree, lex order on low coefficients."""
    for rank in range(p**degree):
        coeffs = []
        r = rank
        for _ in range(degree):
            coeffs.append(r % p)
            r //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(modulus, p: int) -> bool:
    m = len(modulus) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for g in _monic_polys(d, p):
            _, rem = _poly_divmod_p(modulus, g, p)
            if not rem:
                return False
    return True


class FieldSpec:
    """Description of F_q = F_p[t]/(modulus); immutable after construction.

    Code-level arithmetic (`add`, `mul`, ...) operates on integer element
    codes and is the workhorse for all polynomial computations.
    """

    __slots__ = (
        "p", "m", "q", "modulus",
        "_pow_basis", "_add_table", "_mul_table", "_inv_table",
    )

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # ascending coeffs, None for m == 1
        self._pow_basis = tuple(p ** (m - 1 - i) for i in range(m))
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        if m > 1 and self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- code <-> coefficient vector --

    def decode(self, code: int):
        """Coefficient vector (c_0, ..., c_{m-1}) of an element code."""
        coeffs = []
        for w in self._pow_basis:
            coeffs.append(code // w)
            code %= w
        return tuple(coeffs)

    def encode(self, coeffs) -> int:
        return sum(c * w for c, w in zip(coeffs, self._pow_basis))

    # -- arithmetic on codes --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.encode(tuple((-x) % self.p for x in self.decode(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        pa = _poly_trim(self.decode(a))
        pb = _poly_trim(self.decode(b))
        prod = _poly_mulmod_p(pa, pb, self.p)
        _, rem = _poly_divmod_p(prod, self.modulus, self.p)
        rem = rem + (0,) * (self.m - len(rem))
        return self.encode(rem)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def from_int(self, value: int) -> int:
        """Code of the image of an integer under Z -> F_p -> F_q."""
        v = value % self.p
        if self.m == 1:
            return v
        return self.encode((v,) + (0,) * (self.m - 1))

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self.from_int(1)

    def _build_tables(self):
        q = self.q
        self._add_table = [
            [self.encode(tuple((x + y) % self.p for x, y in zip(self.decode(a), self.decode(b))))
             for b in range(q)]
            for a in range(q)
        ]
        self._mul_table = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul_table[a][b] == self.one:
                    inv[a] = b
                    break
        self._inv_table = inv

    # -- identity / serialization --

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"FieldSpec(F_{self.p})"
        return f"FieldSpec(F_{self.q} = F_{self.p}[t]/{list(self.modulus)})"

    def element(self, code: int) -> "FieldElement":
        return FieldElement(self, code)

    def to_json(self) -> dict:
        doc = {"p": self.p, "m": self.m}
        if self.m > 1:
            doc["modulus"] = list(self.modulus)
        return doc

    def element_to_json(self, code: int):
        if self.m == 1:
            return code
        return list(self.decode(code))

    def element_from_json(self, doc) -> int:
        if isinstance(doc, int):
            if self.m == 1:
                return doc % self.p
            return self.from_int(doc)
        coeffs = tuple(c % self.p for c in doc)
        if len(coeffs) != self.m:
            raise ValueError(f"element repr must have length {self.m}")
        return self.encode(coeffs)


@dataclass(frozen=True)
class FieldElement:
    """An element of F_q, wrapping its spec and integer code."""

    spec: FieldSpec
    code: int

    def _check(self, other: "FieldElement"):
        if self.spec != other.spec:
            raise MixedFields(f"{self.spec} vs {other.spec}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.add(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.sub(self.code, other.code))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.code))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.code, other.code))

    def __truediv__(self, other):
        self._check(other)
        if other.code == 0:
            raise DivisionByZero("division by zero element")
        return FieldElement(self.spec, self.spec.div(self.code, other.code))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.code))

    def is_zero(self) -> bool:
        return self.code == 0

    @property
    def coeffs(self):
        return self.spec.decode(self.code)

    def __repr__(self):
        if self.spec.m == 1:
            return f"F{self.spec.p}({self.code})"
        return f"F{self.spec.q}{self.coeffs}"


def make_field(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Construct F_{p^m}; finds an irreducible modulus if none is given.

    The modulus is a sequence of m+1 coefficients in ascending order
    (constant term first), monic of degree m.
    """
    if not _is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("extension degree m must be >= 1")
    if p**m > MAX_Q:
        raise UnsupportedFieldSize(f"q = {p}^{m} exceeds 2^16")
    if m == 1:
        if modulus is not None:
            raise ValueError("modulus only applies to extension fields (m > 1)")
        return FieldSpec(p, 1, None)
    if modulus is not None:
        mod = tuple(c % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {m}")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(mod)} is reducible over F_{p}")
        return FieldSpec(p, m, mod)
    for cand in _monic_polys(m, p):
        if _is_irreducible(cand, p):
            return FieldSpec(p, m, cand)
    raise AssertionError("unreachable: irreducible polynomials of every degree exist")


def prime_power(q: int):
    """(p, m) with q = p^m and p prime; NonPrime if q is not a prime power."""
    if q >= 2:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        m, t = 0, q
        while t % p == 0:
            t //= p
            m += 1
        if t == 1:
            return p, m
    raise NonPrime(f"q = {q} is not a prime power")


def field_for_q(q: int) -> FieldSpec:
    """F_q for a prime power q, with the default (lex-first) modulus."""
    return make_field(*prime_power(q))


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Named dispatch for the four field operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def all_elements(spec: FieldSpec):
    """All q elements, zero first, in the canonical code order."""
    return [FieldElement(spec, c) for c in range(spec.q)]


def field_from_json(doc: dict) -> FieldSpec:
    return make_field(doc["p"], doc.get("m", 1), doc.get("modulus"))
