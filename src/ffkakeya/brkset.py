"""BRK-type sets: generation, verification, size bounds, minimal-set search.

A BRK-type set of degree ell contains, for every rho in F_q, a translated
rho-dilate of the graph of a polynomial whose top homogeneous part is a
fixed degree-ell form g.  Points are stored as tuples of element codes.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import kernels
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    EllOutOfRange,
    MixedFields,
    NotMultipleOfQ,
    SearchSpaceTooLarge,
    SizeGuard,
)
from .ffield import FieldSpec, expect_json, field_from_json, prime_power
from .mpoly import PowerTable, SparsePoly, monomials_upto, poly_from_json, poly_to_json

_EXHAUSTIVE_GUARD = 10**8  # raw configurations
_SURFACE_GUARD = 10**7  # surface points placed or built
_RESTARTS = 5  # greedy passes, each with its own level order
_BOUND_DIGITS = 4300  # CPython's default int-string limit


@dataclass(frozen=True)
class PointSet:
    spec: FieldSpec
    n: int
    points: frozenset  # of code tuples

    def __len__(self):
        return len(self.points)

    def sorted_points(self):
        return sorted(self.points)

    def to_json(self) -> dict:
        ser = self.spec.element_to_json
        return {
            "field": self.spec.to_json(),
            "n": self.n,
            "points": [[ser(c) for c in pt] for pt in self.sorted_points()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PointSet":
        spec = field_from_json(expect_json(doc, dict, "point set")["field"])
        n = expect_json(doc["n"], int, "n")
        if n < 1:
            raise DimensionMismatch(f"dimension n must be >= 1, got {n}")
        pts = set()
        for pt in expect_json(doc["points"], list, "points"):
            if len(expect_json(pt, list, "point")) != n:
                raise DimensionMismatch(f"point {pt} has {len(pt)} coordinates, n = {n}")
            pts.add(tuple(spec.element_from_json(c) for c in pt))
        return cls(spec, n, frozenset(pts))


@dataclass(frozen=True)
class PerRho:
    a: tuple  # translation, n element codes
    lower: SparsePoly  # lower-order part of g_rho, arity n-1, degree < ell


@dataclass
class BrkInstance:
    spec: FieldSpec
    n: int
    ell: int
    g: SparsePoly  # homogeneous degree-ell form in n-1 variables
    per_rho: Dict[int, PerRho]  # keyed by element code of rho

    def __post_init__(self):
        q = self.spec.q
        if self.n < 2:
            raise DimensionMismatch("dimension n must be >= 2")
        if not 2 <= self.ell < q:
            raise EllOutOfRange(f"need 2 <= ell < q, got ell={self.ell}, q={q}")
        _check_top_form(self.spec, self.n, self.ell, self.g)
        if set(self.per_rho) != set(range(q)):
            raise ValueError("per_rho must have exactly one entry per rho in F_q")
        for pr in self.per_rho.values():
            if len(pr.a) != self.n:
                raise DimensionMismatch("translation a must have n coordinates")
            if pr.lower.arity != self.n - 1 or pr.lower.spec != self.spec:
                raise ValueError("lower part must match g's arity and field")
            if pr.lower.degree >= self.ell:
                raise ValueError("lower part must have degree < ell")

    def g_rho(self, rho_code: int) -> SparsePoly:
        return self.g + self.per_rho[rho_code].lower

    def to_json(self) -> dict:
        ser = self.spec.element_to_json
        return {
            "field": self.spec.to_json(),
            "n": self.n,
            "ell": self.ell,
            "g": poly_to_json(self.g),
            "per_rho": [
                {
                    "rho": ser(rho),
                    "a": [ser(c) for c in pr.a],
                    "lower": poly_to_json(pr.lower),
                }
                for rho, pr in sorted(self.per_rho.items())
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BrkInstance":
        spec = field_from_json(expect_json(doc, dict, "instance")["field"])
        per_rho = {}
        for entry in expect_json(doc["per_rho"], list, "per_rho"):
            rho = spec.element_from_json(expect_json(entry, dict, "per_rho entry")["rho"])
            if rho in per_rho:
                raise ValueError(f"per_rho has two entries for rho = {entry['rho']}")
            a = tuple(spec.element_from_json(c) for c in expect_json(entry["a"], list, "a"))
            per_rho[rho] = PerRho(a, poly_from_json(entry["lower"], spec))
        n = expect_json(doc["n"], int, "n")
        ell = expect_json(doc["ell"], int, "ell")
        return cls(spec, n, ell, poly_from_json(doc["g"], spec), per_rho)


def _check_top_form(spec: FieldSpec, n: int, ell: int, g: SparsePoly) -> None:
    if g.is_zero():
        raise ValueError("g must be a nonzero homogeneous form")
    if g.spec != spec:
        raise MixedFields("g over a different field")
    if g.arity != n - 1:
        raise DimensionMismatch(f"g must have arity {n - 1}")
    if any(sum(e) != ell for e in g.terms):
        raise ValueError(f"g must be homogeneous of degree {ell}")


def _surface_points(spec: FieldSpec, a, rho: int, f: SparsePoly):
    """a + rho*(lam, f(lam)) for every lam in F_q^(n-1), lam in lex order."""
    add, mul = spec.add, spec.mul
    for lam in itertools.product(range(spec.q), repeat=len(a) - 1):
        pt = [add(ai, mul(rho, li)) for ai, li in zip(a, lam)]
        pt.append(add(a[-1], mul(rho, f.eval_codes(lam))))
        yield tuple(pt)


def generate_set(inst: BrkInstance) -> PointSet:
    """Union over rho of {a(rho) + rho*(lambda, g_rho(lambda))}.

    rho = 0 degenerates to the single point a(0).  An F_q^n of over
    _SURFACE_GUARD points is refused, from n first, before any is built.
    """
    spec, q, n = inst.spec, inst.spec.q, inst.n
    if n >= _SURFACE_GUARD.bit_length() or q**n > _SURFACE_GUARD:  # q^n >= 2^n
        raise SizeGuard(f"{q}^{n} points of F_q^n exceed the surface guard")
    pts = set()
    for rho in range(q):
        pts.update(_surface_points(spec, inst.per_rho[rho].a, rho, inst.g_rho(rho)))
    return PointSet(spec, n, frozenset(pts))


@dataclass
class BrkVerify:
    ok: bool
    missing: Optional[tuple] = None  # lex-least prescribed point absent from S


def verify_brk(S: PointSet, inst: BrkInstance) -> BrkVerify:
    if S.spec != inst.spec:
        raise MixedFields("set and instance over different fields")
    if S.n != inst.n:
        raise DimensionMismatch(f"set dimension {S.n} vs instance {inst.n}")
    missing = min(generate_set(inst).points - S.points, default=None)
    return BrkVerify(missing is None, missing)


def theorem_bound(q: int, n: int, ell: int) -> Tuple[Fraction, int]:
    """Exact lower bound ((q-1)q)^n / ((ell+1)q - 2*ell)^n and its ceiling.

    The bases are divided by their gcd first, so num^n / den^n is already in
    lowest terms.  As den < num, the numerator is the longest number the
    bound prints; a numerator with more decimal digits than Python will
    convert to a string is refused before any power is taken.  With that
    limit switched off (0), the cap is _BOUND_DIGITS, the interpreter's
    default limit.
    """
    if n < 2:
        raise DimensionMismatch("n must be >= 2")
    if not 2 <= ell < q:
        raise EllOutOfRange(f"need 2 <= ell < q, got ell={ell}, q={q}")
    prime_power(q)
    num, den = (q - 1) * q, (ell + 1) * q - 2 * ell
    d = math.gcd(num, den)
    num, den = num // d, den // d
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _BOUND_DIGITS
    top = 10**limit  # the least number of limit + 1 digits
    # num^n >= 2^(n (b - 1)) for b = num.bit_length(): a long exponent
    # decides before num^n is built, a short one leaves it small
    if n * (num.bit_length() - 1) >= top.bit_length() or num**n >= top:
        raise SizeGuard(f"bound numerator {num}^{n} exceeds {limit} digits")
    value = Fraction(num**n, den**n)
    return value, math.ceil(value)


@dataclass
class ProofParams:
    q: int
    ell: int
    k: int
    D: int
    M: int


def _first_failing_w(q: int, ell: int, k: int, D: int, M: int):
    """The least 0 <= w < k where ell*(D-w) < (M-w)*q fails, or None.

    The inequality is linear in w and, as q > ell, tightest at w = k-1, so
    that one w decides the whole range; the least failing w is closed form."""
    if k < 1 or ell * (D - k + 1) < (M - k + 1) * q:
        return None
    return max(0, -((ell * D - M * q) // (q - ell)))


def proof_params(q: int, ell: int, k: int) -> ProofParams:
    """D = k(q-1)-1 and M = (ell+1)k - 2*ell*k/q, with the degree/multiplicity
    inequality ell*(D-w) < (M-w)*q checked over the whole range 0 <= w < k."""
    if not 2 <= ell < q:
        raise EllOutOfRange(f"need 2 <= ell < q, got ell={ell}, q={q}")
    if k < q or k % q != 0:
        raise NotMultipleOfQ(f"k = {k} must be a positive multiple of q = {q}")
    prime_power(q)
    D = k * (q - 1) - 1
    M = (ell + 1) * k - 2 * ell * k // q
    if M < 1 or D < 0:
        raise AssertionError(f"D = {D} and M = {M} must be at least 0 and 1")
    w = _first_failing_w(q, ell, k, D, M)
    if w is not None:
        raise AssertionError(f"parameter inequality fails at w={w}")
    return ProofParams(q, ell, k, D, M)


# --- minimal-set search ---


def _digits(index, q, count):
    """The `count` base-q digits of index, most significant first: the
    index-th tuple of `itertools.product(range(q), repeat=count)`."""
    digits = [0] * count
    for k in reversed(range(count)):
        index, digits[k] = divmod(index, q)
    return tuple(digits)


def _graph_ranks(spec, g, ell):
    """Per lower part li, the ranks j*q + v of its graph's points (lam_j, v),
    v = g(lam_j) + low(lam_j), lam_j the j-th in lex order; low's coefficients
    on the m monomials of `monomials_upto` are `_digits(li, q, m)`.

    A lower part is linear in its coefficients, so the values at one lam
    come from g(lam) and the value w of each monomial of `monomials_upto`:
    g(lam) is extended by c*w for every c, one monomial (digit) at a time,
    first coefficient most significant, as `_digits` numbers the lower
    parts.  So each lam costs one evaluation of g and about L field
    additions, where evaluating every g + low costs L evaluations.  The
    per-lam columns are then transposed into one graph per lower part.
    """
    q, add, mul = spec.q, spec.add, spec.mul
    tables = [PowerTable(spec, c) for c in range(q)]
    monos = monomials_upto(g.arity, ell - 1)
    columns = []
    for j, lam in enumerate(itertools.product(range(q), repeat=g.arity)):
        powers = [tables[c] for c in lam]
        values = [g.eval_powers(powers)]
        for mono in monos:
            w = spec.one
            for table, e in zip(powers, mono):
                if e:
                    w = mul(w, table[e])
            step = [mul(c, w) for c in range(q)]
            values = [add(v, s) for v in values for s in step]
        base = j * q
        columns.append([base + v for v in values])
    return list(zip(*columns))


def _distinct_level_masks(spec, g, n, ell):
    """Per rho, {surface mask: first option index}, in option order.

    With t, li = divmod(i, L), option i is (translation `_digits(t, q, n)`,
    lower part li of `_graph_ranks`), L lower parts in all.  At rho = 0 the
    surface is the single point a of rank t, first given by option t * L.
    For rho != 0 the L options at a = 0 (t = 0) already give every distinct
    surface, and give it first: with
    c = (a_1, ..., a_{n-1}) / rho, substituting lam -> lam - c turns
    a + rho*(lam, g(lam) + low(lam)) into a surface at the origin with lower
    part g(lam - c) - g(lam) + low(lam - c) + a_n / rho, again of degree < ell.

    The graph of g + low does not depend on rho, so it is built once, by
    `_graph_ranks`: per lam, g(lam) once and every lower part's value from
    a value table extended one coefficient at a time, never a polynomial
    per lower part.  Scaling by rho maps the point of rank r to the point
    whose coordinates are rho times r's digits; `bits[r]` is that point's
    bit, so a surface's mask is the sum of its graph's table bits.  The
    points of one surface are distinct, so the sum is their union.
    """
    q = spec.q
    graphs = _graph_ranks(spec, g, ell)
    levels = [{1 << t: t * len(graphs) for t in range(q**n)}]
    for rho in range(1, q):
        # one base-q digit (coordinate) per pass
        scaled = [spec.mul(rho, c) for c in range(q)]
        ranks = [0]
        for _ in range(n):
            ranks = [r * q + s for r in ranks for s in scaled]
        bits = [1 << r for r in ranks]
        first = {}
        for li, graph in enumerate(graphs):
            first.setdefault(sum(map(bits.__getitem__, graph)), li)
        levels.append(first)
    return levels


def _greedy(levels, rng):
    """(size, first option per rho) of the best of _RESTARTS greedy passes.

    Each pass visits the levels in a shuffled order and takes at each the
    first surface whose union with those taken so far is strictly least."""
    best_size = best_first = None
    for _ in range(_RESTARTS):
        order = list(range(len(levels)))
        rng.shuffle(order)
        acc = 0
        first = [None] * len(levels)
        for rho in order:
            best_count = math.inf
            for mask, option in levels[rho].items():
                u = acc | mask
                count = u.bit_count()
                if count < best_count:
                    best_count, best_option, best_mask = count, option, u
            acc = best_mask
            first[rho] = best_option
        if best_size is None or acc.bit_count() < best_size:
            best_size, best_first = acc.bit_count(), first
    return best_size, best_first


@dataclass
class MinSearchResult:
    mode: str
    min_size: int
    witness: BrkInstance
    bound_ceiling: int
    configurations: Optional[int] = None  # exhaustive mode
    seed: Optional[int] = None  # greedy mode
    restarts: Optional[int] = None


def min_brk_search(
    q: int, n: int, ell: int, g: SparsePoly, mode: str = "exhaustive", seed: int = 0
) -> MinSearchResult:
    """Smallest |generate_set| over all translation / lower-part choices.

    Exhaustive mode is exact (guarded); greedy mode gives an upper bound
    via marginal-new-points selection, the best of _RESTARTS seeded passes.
    Both search each level's distinct surfaces only; per rho the witness is
    the first option index that gives its surface, decoded by `_digits`.
    """
    if g.spec.q != q:
        raise MixedFields(f"g is over F_{g.spec.q}, search requested for F_{q}")
    spec = g.spec
    _, ceiling = theorem_bound(q, n, ell)
    if g.arity != n - 1:
        raise ArityMismatch(f"arity {g.arity} vs {n - 1}")
    _check_top_form(spec, n, ell, g)
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown search mode {mode!r}")
    # L = q^m lower parts.  As q^e >= 2^e, a long exponent e decides a
    # guard before q^e is built.
    m = math.comb(n + ell - 2, n - 1)
    if mode == "exhaustive":
        e = (n + m) * q  # configurations: (q^n L)^q
        if e >= _EXHAUSTIVE_GUARD.bit_length() or q**e > _EXHAUSTIVE_GUARD:
            raise SearchSpaceTooLarge(
                f"{q}^{e} configurations exceed the exhaustive guard; use greedy"
            )
        run = {"configurations": q**e}
    else:
        # surface points placed, one per (rho != 0, lower part, lam):
        # (q - 1) L q^(n-1); only L q^(n-1) of them are evaluated
        e = m + n - 1
        if e >= _SURFACE_GUARD.bit_length() or (q - 1) * q**e > _SURFACE_GUARD:
            raise SizeGuard(f"{q - 1} x {q}^{e} surface points exceed the greedy guard")
        run = {"seed": seed, "restarts": _RESTARTS}
    levels = _distinct_level_masks(spec, g, n, ell)
    if mode == "exhaustive":
        size, first = kernels.min_union(levels)
    else:
        size, first = _greedy(levels, random.Random(seed))
    monos = monomials_upto(n - 1, ell - 1)
    per_rho = {}
    for rho, (t, li) in enumerate(divmod(i, q**m) for i in first):
        low = SparsePoly(spec, n - 1, dict(zip(monos, _digits(li, q, m))))
        per_rho[rho] = PerRho(_digits(t, q, n), low)
    witness = BrkInstance(spec, n, ell, g, per_rho)
    if size != len(generate_set(witness)):
        raise AssertionError("search size differs from the size of its witness set")
    if size < ceiling:
        raise AssertionError("theorem bound violated: implementation bug")
    return MinSearchResult(mode, size, witness, ceiling, **run)
