"""BRK-type sets: generation, verification, size bounds, minimal-set search.

A BRK-type set of degree ell contains, for every rho in F_q, a translated
rho-dilate of the graph of a polynomial whose top homogeneous part is a
fixed degree-ell form g.  Points are stored as tuples of element codes.
"""

from __future__ import annotations

import itertools
import math
import random
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
)
from .ffield import FieldElement, FieldSpec, expect_json, field_for_q, prime_power
from .mpoly import SparsePoly, monomials_upto, poly_from_json, poly_to_json

_EXHAUSTIVE_GUARD = 10**8


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
        from .ffield import field_from_json

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
            if not pr.lower.is_zero() and pr.lower.degree >= self.ell:
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
        from .ffield import field_from_json

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

    rho = 0 degenerates to the single point a(0).
    """
    spec = inst.spec
    pts = set()
    for rho in range(spec.q):
        pr = inst.per_rho[rho]
        if rho == 0:
            pts.add(pr.a)
            continue
        pts.update(_surface_points(spec, pr.a, rho, inst.g_rho(rho)))
    return PointSet(spec, inst.n, frozenset(pts))


@dataclass
class BrkVerify:
    ok: bool
    missing: Optional[tuple] = None  # lex-least prescribed point absent from S


def verify_brk(S: PointSet, inst: BrkInstance) -> BrkVerify:
    if S.spec != inst.spec:
        raise MixedFields("set and instance over different fields")
    if S.n != inst.n:
        raise DimensionMismatch(f"set dimension {S.n} vs instance {inst.n}")
    required = generate_set(inst)
    for pt in required.sorted_points():
        if pt not in S.points:
            return BrkVerify(False, pt)
    return BrkVerify(True)


def theorem_bound(q: int, n: int, ell: int) -> Tuple[Fraction, int]:
    """Exact lower bound ((q-1)q)^n / ((ell+1)q - 2*ell)^n and its ceiling."""
    if n < 2:
        raise DimensionMismatch("n must be >= 2")
    if not 2 <= ell < q:
        raise EllOutOfRange(f"need 2 <= ell < q, got ell={ell}, q={q}")
    prime_power(q)
    value = Fraction(((q - 1) * q) ** n, ((ell + 1) * q - 2 * ell) ** n)
    return value, math.ceil(value)


@dataclass
class ProofParams:
    q: int
    ell: int
    k: int
    D: int
    M: int


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
    assert M >= 1 and D >= 0
    for w in range(k):
        if not ell * (D - w) < (M - w) * q:
            raise AssertionError(f"parameter inequality fails at w={w}")
    return ProofParams(q, ell, k, D, M)


# --- minimal-set search ---


def _point_rank(codes, q: int) -> int:
    r = 0
    for c in codes:
        r = r * q + c
    return r


def _lower_parts(spec, n, ell):
    """Every lower part of degree < ell, coefficients of `monomials_upto`
    in lex order."""
    monos = monomials_upto(n - 1, ell - 1)
    return [
        SparsePoly(spec, n - 1, dict(zip(monos, coeffs)))
        for coeffs in itertools.product(range(spec.q), repeat=len(monos))
    ]


def _distinct_level_masks(spec, g, points, lowers):
    """Per rho, {surface mask: first option index}, in option order.

    `points` is F_q^n in lex (rank) order.  Option i is (translation
    points[i // L], lowers[i % L]) with L = len(lowers): a lex-major, then
    lower coefficients.  The offsets
    rho*(lam, g_rho(lam)) of each (rho != 0, lower part) are built once;
    translating them by a is a lookup in the row bit[a][b] = 1 << rank(a+b)
    of the point-translation table.  The offsets of one surface are
    distinct points, so the sum of their bits is their union.
    """
    q = spec.q
    offsets = [
        [[_point_rank(pt, q) for pt in _surface_points(spec, points[0], rho, g + low)]
         for low in lowers]
        for rho in range(1, q)
    ]
    levels = [{} for _ in range(q)]
    for ai, a in enumerate(points):
        row = [1 << _point_rank(map(spec.add, a, b), q) for b in points]
        base = ai * len(lowers)
        levels[0].setdefault(row[0], base)  # rho = 0 is the single point a
        for first, level_offsets in zip(levels[1:], offsets):
            for li, offs in enumerate(level_offsets):
                first.setdefault(sum(map(row.__getitem__, offs)), base + li)
    return levels


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
    q: int,
    n: int,
    ell: int,
    g: SparsePoly,
    mode: str = "exhaustive",
    seed: int = 0,
    restarts: int = 5,
) -> MinSearchResult:
    """Smallest |generate_set| over all translation / lower-part choices.

    Exhaustive mode is exact (guarded); greedy mode gives an upper bound
    via marginal-new-points selection with seeded restarts.  Both search
    each level's distinct surfaces only; a witness names the first option,
    in canonical order, that gives its surface.
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
    if mode == "greedy" and restarts < 1:
        raise ValueError("restarts must be >= 1")
    points = list(itertools.product(range(q), repeat=n))
    lowers = _lower_parts(spec, n, ell)
    options = [(a, lower) for a in points for lower in lowers]
    configs = len(options) ** q
    if mode == "exhaustive" and configs > _EXHAUSTIVE_GUARD:
        raise SearchSpaceTooLarge(
            f"{configs} configurations exceed the exhaustive guard; use greedy"
        )

    levels = _distinct_level_masks(spec, g, points, lowers)
    rho_masks = [list(level) for level in levels]
    first_option = [list(level.values()) for level in levels]

    def witness_of(choice):
        per_rho = {rho: PerRho(*options[first_option[rho][i]]) for rho, i in choice}
        return BrkInstance(spec, n, ell, g, per_rho)

    if mode == "exhaustive":
        min_size, idx = kernels.min_union(rho_masks)
        witness = witness_of(enumerate(idx))
        assert min_size == len(generate_set(witness))
        assert min_size >= ceiling, "theorem bound violated: implementation bug"
        return MinSearchResult("exhaustive", min_size, witness, ceiling, configurations=configs)

    rng = random.Random(seed)
    best_size = None
    best_choice = None
    for _ in range(restarts):
        order = list(range(q))
        rng.shuffle(order)
        acc = 0
        choice = {}
        for rho in order:
            best_i, best_mask = None, None
            for i, mask in enumerate(rho_masks[rho]):
                u = acc | mask
                if best_mask is None or u.bit_count() < best_mask.bit_count():
                    best_i, best_mask = i, u
            acc = best_mask
            choice[rho] = best_i
        size = acc.bit_count()
        if best_size is None or size < best_size:
            best_size, best_choice = size, choice
    witness = witness_of(best_choice.items())
    assert best_size == len(generate_set(witness))
    assert best_size >= ceiling, "theorem bound violated: implementation bug"
    return MinSearchResult(
        "greedy", best_size, witness, ceiling, seed=seed, restarts=restarts
    )


# --- Kakeya baseline ---


def _verify_kakeya(S: PointSet):
    """Exhaustive per-direction check: a full line in every direction."""
    spec, n = S.spec, S.n
    q = spec.q
    directions = []
    for lead in range(n):
        for tail in itertools.product(range(q), repeat=n - 1 - lead):
            directions.append((0,) * lead + (spec.one,) + tail)
    for b in directions:
        found = False
        for a in S.points:
            line_ok = True
            for t in range(q):
                pt = tuple(spec.add(ai, spec.mul(t, bi)) for ai, bi in zip(a, b))
                if pt not in S.points:
                    line_ok = False
                    break
            if line_ok:
                found = True
                break
        if not found:
            raise AssertionError(f"no line in direction {b}")


def kakeya_set(q: int, n: int, besicovitch: bool = False) -> PointSet:
    """A verified Kakeya set in F_q^n.

    Trivial mode returns the full grid.  Besicovitch mode uses the
    parabola-completion construction (odd characteristic; falls back to
    the full grid in characteristic 2) and is post-verified.
    """
    if n < 2:
        raise DimensionMismatch("n must be >= 2")
    spec = field_for_q(q)
    if not besicovitch or spec.p == 2:
        pts = frozenset(itertools.product(range(q), repeat=n))
        S = PointSet(spec, n, pts)
        _verify_kakeya(S)
        return S
    pts = set()
    # Lines with leading direction 1: graph coordinates t^2 - u^2.
    squares = {spec.mul(u, u) for u in range(q)}
    for t in range(q):
        t2 = spec.mul(t, t)
        vals = [spec.sub(t2, s2) for s2 in squares]
        for rest in itertools.product(vals, repeat=n - 1):
            pts.add((t,) + rest)
    # Directions with leading coordinate 0: recurse on one fewer dimension.
    if n == 2:
        sub = [(c,) for c in range(q)]
    else:
        sub = kakeya_set(q, n - 1, besicovitch=True).points
    for tail in sub:
        pts.add((0,) + tuple(tail))
    S = PointSet(spec, n, frozenset(pts))
    _verify_kakeya(S)
    return S
