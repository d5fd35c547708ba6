"""Vanishing multiplicities and the multiplicity-aware Schwartz-Zippel audit.

mult(P, a) is the largest M such that every Hasse derivative of order
< M vanishes at a; the search enumerates orders by increasing total
degree, lex within a level, so the witness is canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, MixedFields, SizeGuard, ZeroPolynomial
from .ffield import FieldElement, FieldSpec
from .mpoly import SparsePoly, compositions, hasse_derivative, monomials_upto

_AUDIT_GUARD = 10**7


class _Infinite:
    """mult(0, a); compares above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return not isinstance(other, _Infinite)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinite)

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def _point_codes(spec: FieldSpec, point, arity: int):
    codes = tuple(c.code if isinstance(c, FieldElement) else c for c in point)
    if len(codes) != arity:
        raise ArityMismatch(f"point arity {len(codes)} vs {arity}")
    for c in point:
        if isinstance(c, FieldElement) and c.spec != spec:
            raise MixedFields("point coordinates from a different field")
    return codes


@dataclass
class MultReport:
    point: tuple
    mult: object  # int or INFINITE
    witness: Optional[tuple]  # lex-least beta with P^(beta)(point) != 0


def mult_at(P: SparsePoly, point) -> MultReport:
    """Exact multiplicity of P at a point, with the witnessing derivative order."""
    codes = _point_codes(P.spec, point, P.arity)
    if P.is_zero():
        return MultReport(codes, INFINITE, None)
    for order in range(P.degree + 1):
        for beta in compositions(P.arity, order):
            if hasse_derivative(P, beta).eval_codes(codes) != 0:
                return MultReport(codes, order, beta)
    raise AssertionError("nonzero P must have a nonvanishing derivative of order <= deg")


@dataclass
class VanishCheck:
    ok: bool
    point: Optional[tuple] = None  # first failing point
    beta: Optional[tuple] = None  # its low-order nonvanishing derivative


def vanishes_with_mult(P: SparsePoly, A, M: int) -> VanishCheck:
    """True iff mult(P, a) >= M for every a in A; reports the first failure."""
    if M < 0:
        raise ValueError("multiplicity M must be >= 0")
    if M == 0 or P.is_zero():
        return VanishCheck(True)
    derivs = [(beta, hasse_derivative(P, beta)) for beta in monomials_upto(P.arity, M - 1)]
    for point in A:
        codes = _point_codes(P.spec, point, P.arity)
        for beta, D in derivs:
            if D.eval_codes(codes) != 0:
                return VanishCheck(False, codes, beta)
    return VanishCheck(True)


@dataclass
class SchwartzZippelReport:
    total_mult: int
    bound: int
    ok: bool


def schwartz_zippel_audit(P: SparsePoly, A) -> SchwartzZippelReport:
    """Sum of mult(P, a) over a in A^n against the bound deg(P) * |A|^(n-1)."""
    if P.is_zero():
        raise ZeroPolynomial("audit bound undefined for the zero polynomial")
    codes = [_point_codes(P.spec, (a,), 1)[0] for a in A]
    if len(codes) ** P.arity > _AUDIT_GUARD:
        raise SizeGuard(f"|A|^n = {len(codes)}^{P.arity} exceeds audit guard")
    # mult at a point is the least order whose derivative is nonzero there;
    # a nonzero P has one of order <= deg P
    derivs = [(sum(beta), hasse_derivative(P, beta)) for beta in monomials_upto(P.arity, P.degree)]
    total = 0
    for point in itertools.product(codes, repeat=P.arity):
        total += next(order for order, D in derivs if D.eval_codes(point) != 0)
    bound = P.degree * len(codes) ** (P.arity - 1)
    return SchwartzZippelReport(total, bound, total <= bound)
