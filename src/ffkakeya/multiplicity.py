"""Vanishing multiplicities and the multiplicity-aware Schwartz-Zippel audit.

mult(P, a) is the largest M such that every Hasse derivative of order
< M vanishes at a.  Every check here reads the derivative orders in one
order, by increasing total degree and lex within a level, and takes the
first order whose derivative is nonzero at the point, so the witness is
canonical.  `mult_at` walks the orders lazily (`mpoly.derivatives`), as
it stops at the first nonzero one.  `vanishes_with_mult` and the audit
read every order, so they build all the derivatives in one pass over the
terms (`mpoly.hasse_table`), which holds only those not identically zero:
such a derivative is never the first nonzero one, so every witness is the
same without it.

Each walk evaluates all its derivatives at a point through
`SparsePoly.eval_powers`, from one `mpoly.PowerTable` per coordinate, made
once per point: the table of a_i holds a_i^e for each exponent e a
derivative has read, so a power is computed once per point, not once per
derivative.  The audit makes one table per value of A, and every point of
its grid reads its coordinates' tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, SizeGuard, ZeroPolynomial
from .ffield import FieldSpec
from .mpoly import PowerTable, SparsePoly, derivatives, hasse_table

_AUDIT_GUARD = 10**7
INFINITE = math.inf  # mult(0, a)


def _point_codes(spec: FieldSpec, point, arity: int):
    codes = tuple(point)
    if len(codes) != arity:
        raise ArityMismatch(f"point arity {len(codes)} vs {arity}")
    for c in codes:
        if not 0 <= c < spec.q:
            raise ValueError(f"element code {c} out of range for q={spec.q}")
    return codes


def _nonzero_derivatives(P: SparsePoly, top=math.inf) -> list:
    """(beta, P^(beta)) for the nonzero P^(beta) with |beta| <= top, in the
    walk's degree-then-lex order."""
    return sorted(hasse_table(P, top).items(), key=lambda item: (sum(item[0]), item[0]))


def _first_nonzero(derivs, powers):
    """The first beta of a derivative walk whose derivative is nonzero at the
    point whose coordinates' power tables are `powers`, or None."""
    for beta, D in derivs:
        if D.eval_powers(powers):
            return beta
    return None


@dataclass
class MultReport:
    point: tuple
    mult: object  # int, or INFINITE for P = 0
    witness: Optional[tuple]  # lex-least beta with P^(beta)(point) != 0


def mult_at(P: SparsePoly, point) -> MultReport:
    """Exact multiplicity of P at a point, with the witnessing derivative order."""
    spec = P.spec
    codes = _point_codes(spec, point, P.arity)
    powers = [PowerTable(spec, c) for c in codes]
    beta = _first_nonzero(derivatives(P), powers)
    if beta is None:
        return MultReport(codes, INFINITE, None)
    return MultReport(codes, sum(beta), beta)


@dataclass
class VanishCheck:
    ok: bool
    point: Optional[tuple] = None  # first failing point
    beta: Optional[tuple] = None  # its low-order nonvanishing derivative


def vanishes_with_mult(P: SparsePoly, A, M: int) -> VanishCheck:
    """True iff mult(P, a) >= M for every a in A; reports the first failure."""
    if M < 0:
        raise ValueError("multiplicity M must be >= 0")
    spec = P.spec
    derivs = _nonzero_derivatives(P, M - 1)
    for point in A:
        codes = _point_codes(spec, point, P.arity)
        powers = [PowerTable(spec, c) for c in codes]
        beta = _first_nonzero(derivs, powers)
        if beta is not None:
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
    spec = P.spec
    codes = [_point_codes(spec, (a,), 1)[0] for a in A]
    if len(codes) ** P.arity > _AUDIT_GUARD:
        raise SizeGuard(f"|A|^n = {len(codes)}^{P.arity} exceeds audit guard")
    derivs = _nonzero_derivatives(P)
    table = {c: PowerTable(spec, c) for c in codes}
    total = sum(
        sum(_first_nonzero(derivs, [table[c] for c in point]))
        for point in itertools.product(codes, repeat=P.arity)
    )
    bound = P.degree * len(codes) ** (P.arity - 1)
    return SchwartzZippelReport(total, bound, total <= bound)
