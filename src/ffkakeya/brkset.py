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
    DimensionMismatch,
    EllOutOfRange,
    MixedFields,
    NotMultipleOfQ,
    SearchSpaceTooLarge,
)
from .ffield import FieldElement, FieldSpec, field_for_q, prime_power
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

        spec = field_from_json(doc["field"])
        pts = frozenset(
            tuple(spec.element_from_json(c) for c in pt) for pt in doc["points"]
        )
        return cls(spec, doc["n"], pts)


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
        if self.g.is_zero():
            raise ValueError("g must be a nonzero homogeneous form")
        if self.g.spec != self.spec:
            raise MixedFields("g over a different field")
        if self.g.arity != self.n - 1:
            raise DimensionMismatch(f"g must have arity {self.n - 1}")
        if any(sum(e) != self.ell for e in self.g.terms):
            raise ValueError(f"g must be homogeneous of degree {self.ell}")
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

        spec = field_from_json(doc["field"])
        per_rho = {}
        for entry in doc["per_rho"]:
            rho = spec.element_from_json(entry["rho"])
            a = tuple(spec.element_from_json(c) for c in entry["a"])
            per_rho[rho] = PerRho(a, poly_from_json(entry["lower"], spec))
        return cls(spec, doc["n"], doc["ell"], poly_from_json(doc["g"], spec), per_rho)


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
        grho = inst.g_rho(rho)
        for lam in itertools.product(range(spec.q), repeat=inst.n - 1):
            coords = [spec.add(ai, spec.mul(rho, li)) for ai, li in zip(pr.a[:-1], lam)]
            coords.append(spec.add(pr.a[-1], spec.mul(rho, grho.eval_codes(lam))))
            pts.add(tuple(coords))
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


def _surface_mask(spec, n, ell, g, lower, a, rho) -> int:
    if rho == 0:
        return 1 << _point_rank(a, spec.q)
    grho = g + lower
    mask = 0
    for lam in itertools.product(range(spec.q), repeat=n - 1):
        coords = [spec.add(ai, spec.mul(rho, li)) for ai, li in zip(a[:-1], lam)]
        coords.append(spec.add(a[-1], spec.mul(rho, grho.eval_codes(lam))))
        mask |= 1 << _point_rank(coords, spec.q)
    return mask


def _option_space(spec, n, ell):
    """Canonical (a, lower) enumeration: a lex-major, then lower coefficients."""
    lower_monos = monomials_upto(n - 1, ell - 1)
    a_space = list(itertools.product(range(spec.q), repeat=n))
    coeff_space = list(itertools.product(range(spec.q), repeat=len(lower_monos)))
    options = []
    for a in a_space:
        for coeffs in coeff_space:
            lower = SparsePoly(spec, n - 1, dict(zip(lower_monos, coeffs)))
            options.append((a, lower))
    return options


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
    via marginal-new-points selection with seeded restarts.
    """
    if g.spec.q != q:
        raise MixedFields(f"g is over F_{g.spec.q}, search requested for F_{q}")
    spec = g.spec
    _, ceiling = theorem_bound(q, n, ell)
    options = _option_space(spec, n, ell)
    rho_masks = [
        [_surface_mask(spec, n, ell, g, lower, a, rho) for a, lower in options]
        for rho in range(q)
    ]

    if mode == "exhaustive":
        configs = len(options) ** q
        if configs > _EXHAUSTIVE_GUARD:
            raise SearchSpaceTooLarge(
                f"{configs} configurations exceed the exhaustive guard; use greedy"
            )
        min_size, idx = kernels.min_union(rho_masks, q**n)
        per_rho = {rho: PerRho(*options[i]) for rho, i in enumerate(idx)}
        witness = BrkInstance(spec, n, ell, g, per_rho)
        assert min_size == len(generate_set(witness))
        assert min_size >= ceiling, "theorem bound violated: implementation bug"
        return MinSearchResult("exhaustive", min_size, witness, ceiling, configurations=configs)

    if mode == "greedy":
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
        per_rho = {rho: PerRho(*options[i]) for rho, i in best_choice.items()}
        witness = BrkInstance(spec, n, ell, g, per_rho)
        assert best_size == len(generate_set(witness))
        assert best_size >= ceiling, "theorem bound violated: implementation bug"
        return MinSearchResult(
            "greedy", best_size, witness, ceiling, seed=seed, restarts=restarts
        )

    raise ValueError(f"unknown search mode {mode!r}")


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
