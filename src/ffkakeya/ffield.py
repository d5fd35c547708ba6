"""Exact arithmetic in finite fields F_q, q = p^m.

Extension fields are represented in the power basis of F_p[t]/(modulus).
Every element is identified with an integer *code* in [0, q): the rank of
its coefficient vector (c_0, ..., c_{m-1}) in lexicographic order, zero
first.  All enumeration and serialization is deterministic in this order.

Every extension field, up to q = 2^16, has one representation: exp/log
tables over a primitive element, plus Zech logarithms for odd p, each with
O(q) entries and built in O(q m) when the field is made.  An operation is
a few list lookups; the polynomial helpers below serve only irreducibility
testing and the table build.
"""

from __future__ import annotations

from .errors import (
    DivisionByZero,
    NonPrime,
    ReducibleModulus,
    UnsupportedFieldSize,
)

MAX_Q = 1 << 16


# Miller-Rabin over these bases decides every n below _MR_EXACT_BELOW, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; UnsupportedFieldSize for an n at or above
    _MR_EXACT_BELOW that no base shows composite."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise UnsupportedFieldSize(f"cannot decide whether {n} is prime")
    return True


def _iroot(q: int, m: int) -> int:
    """floor(q^(1/m)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // m)
    while True:
        t = ((m - 1) * r + q // r ** (m - 1)) // m
        if t >= r:
            return r
        r = t


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


def _poly_powmod_p(base, e: int, modulus, p: int):
    result = (1,)
    while e:
        if e & 1:
            result = _poly_divmod_p(_poly_mulmod_p(result, base, p), modulus, p)[1]
        base = _poly_divmod_p(_poly_mulmod_p(base, base, p), modulus, p)[1]
        e >>= 1
    return result


def _prime_factors(n: int):
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


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

    Elements are integer codes, and these methods (`add`, `mul`, ...) are
    the only arithmetic on them.  Prime fields compute mod p; extension
    fields look up powers of a primitive element g: `_exp[k]` is the code
    of g^k for k in [0, 2(q-1)), so a sum of two logs needs no reduction,
    `_log` inverts it on nonzero codes (`None` at zero), and for odd p
    `_zech[k]` is the log of 1 + g^k (`None` where 1 + g^k = 0).  In
    characteristic 2 the code bits are the coefficients, so addition is XOR.
    """

    __slots__ = ("p", "m", "q", "modulus", "zero", "one", "_pow_basis", "_exp", "_log", "_zech")

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # ascending coeffs, None for m == 1
        self._pow_basis = tuple(p ** (m - 1 - i) for i in range(m))
        self.zero = 0
        self.one = self._pow_basis[0]  # c_0 = 1 is the top digit of the code
        if m > 1:
            self._build_log_tables()

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
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # a + b = a (1 + b/a); a negative index wraps, as the exponent does
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivisionByZero("inverse of zero")
            return self.one if e == 0 else 0
        if self.m == 1:
            return pow(a, e, self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def from_int(self, value: int) -> int:
        """Code of the image of an integer under Z -> F_p -> F_q."""
        return value % self.p * self.one

    def _build_log_tables(self):
        q = self.q
        g = self._first_primitive()
        times_g = self._times_table(g)
        exp = [0] * (2 * (q - 1))
        log = [None] * q
        x = self.one
        for k in range(q - 1):
            exp[k] = exp[k + q - 1] = x
            log[x] = k
            x = times_g[x]
        self._exp, self._log, self._zech = exp, log, None
        if self.p != 2:
            # 1 + x adds one to the top digit of x's code; mod q drops its carry
            self._zech = [log[(x + self.one) % q] for x in exp[: q - 1]]

    def _first_primitive(self):
        """Coefficients of the first element, in code order, of order q - 1."""
        exponents = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
        for code in range(1, self.q):
            g = _poly_trim(self.decode(code))
            if all(_poly_powmod_p(g, e, self.modulus, self.p) != (1,) for e in exponents):
                return g
        raise AssertionError("unreachable: the multiplicative group of F_q is cyclic")

    def _times_table(self, g):
        """Codes of g x for every code x, in O(q m).

        Multiplication by g is F_p-linear: coefficient i of g x is
        sum_j x_j (t^j g)_i mod p.  For each i its values over all codes
        come digit by digit (c_0 is the most significant digit of a code).
        """
        p, m = self.p, self.m
        columns = []
        for j in range(m):
            _, rem = _poly_divmod_p(_poly_mulmod_p((0,) * j + (1,), g, p), self.modulus, p)
            columns.append(rem + (0,) * (m - len(rem)))
        table = [0] * self.q
        for i, weight in enumerate(self._pow_basis):
            values = [0]
            for column in columns:
                step = [[(v + c * column[i]) % p for c in range(p)] for v in range(p)]
                values = [w for v in values for w in step[v]]
            table = [t + weight * v for t, v in zip(table, values)]
        return table

    # -- identity / serialization --

    def __eq__(self, other):
        if self is other:
            return True
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
        if isinstance(expect_json(doc, (int, list), "field element"), int):
            return self.from_int(doc)
        coeffs = tuple(expect_json(c, int, "element coefficient") % self.p for c in doc)
        if len(coeffs) != self.m:
            raise ValueError(f"element repr must have length {self.m}")
        return self.encode(coeffs)


def make_field(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Construct F_{p^m}; finds an irreducible modulus if none is given.

    The modulus is a sequence of m+1 coefficients in ascending order
    (constant term first), monic of degree m.
    """
    # size first, so a huge p is never trial-divided; a prime p has p^m >= 2^m
    if p > MAX_Q or m > 16 or (m >= 1 and p**m > MAX_Q):
        raise UnsupportedFieldSize(f"q = {p}^{m} exceeds 2^16")
    if not _is_prime(p):
        raise NonPrime(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("extension degree m must be >= 1")
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
    """(p, m) with q = p^m and p prime; NonPrime if q is not a prime power.

    If q = p^m, then m is the largest exponent for which q is a perfect
    power, and p is that root, so only that root's primality is tested.
    """
    if q >= 2:
        for m in range(q.bit_length(), 0, -1):
            r = _iroot(q, m)
            if r**m == q:
                if _is_prime(r):
                    return r, m
                break
    raise NonPrime(f"q = {q} is not a prime power")


def field_for_q(q: int) -> FieldSpec:
    """F_q for a prime power q, with the default (lex-first) modulus."""
    if q > MAX_Q:
        raise UnsupportedFieldSize(f"q = {q} exceeds 2^16")
    return make_field(*prime_power(q))


_JSON_TYPES = {dict: (dict,), list: (list, tuple), int: (int,)}
_JSON_NAMES = {dict: "an object", list: "a list", int: "an integer"}


def expect_json(value, kinds, what: str):
    """`value` if its JSON type is one of `kinds` (dict, list, int or a tuple
    of them), else a one-line ValueError.  A bool is not an integer here."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, bool) or not any(isinstance(value, _JSON_TYPES[k]) for k in kinds):
        names = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise ValueError(f"{what} must be {names}, got {type(value).__name__}")
    return value


def field_from_json(doc: dict) -> FieldSpec:
    expect_json(doc, dict, "field")
    modulus = doc.get("modulus")
    if modulus is not None:
        for c in expect_json(modulus, list, "modulus"):
            expect_json(c, int, "modulus coefficient")
    return make_field(
        expect_json(doc["p"], int, "field p"), expect_json(doc.get("m", 1), int, "field m"), modulus
    )
