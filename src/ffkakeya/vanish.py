"""Vanishing polynomials by exact linear algebra over F_q.

The linear system has one row per (point, derivative order beta with
|beta| < M) and one column per monomial of degree <= D, in degree-then-lex
order.  Entry: C(alpha, beta) * a^(alpha - beta), reduced into the field,
which is the coefficient of c_alpha in the beta-th Hasse derivative at a.
Rows are generated lazily, one point at a time, and folded into an
incremental row-echelon basis that stops reading rows once the rank equals
the number of columns.  A solution, when one is needed, comes from
back-substitution through that basis.  Prime fields use inline mod-p
arithmetic; extension fields go through the FieldSpec operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import ArityMismatch, MixedFields, SizeGuard
from .ffield import FieldElement, FieldSpec
from .mpoly import SparsePoly, binom_multi, compositions, monomials_upto
from .multiplicity import vanishes_with_mult

_SYSTEM_GUARD = 10**8


def _canon_points(spec: FieldSpec, arity: int, points):
    out = set()
    for pt in points:
        codes = tuple(c.code if isinstance(c, FieldElement) else c for c in pt)
        if len(codes) != arity:
            raise ArityMismatch(f"point arity {len(codes)} vs {arity}")
        for c in pt:
            if isinstance(c, FieldElement) and c.spec != spec:
                raise MixedFields("point coordinate from a different field")
        for c in codes:
            if not 0 <= c < spec.q:
                raise ValueError(f"element code {c} out of range for q={spec.q}")
        out.add(codes)
    return sorted(out)


@dataclass
class VanishProblem:
    spec: FieldSpec
    arity: int
    points: list  # canonical: lex-sorted, deduplicated code tuples
    max_degree: int
    mult: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max degree D must be >= 0")
        if self.mult < 1:
            raise ValueError("multiplicity M must be >= 1")
        self.points = _canon_points(self.spec, self.arity, self.points)

    @property
    def unknown_count(self) -> int:
        return math.comb(self.max_degree + self.arity, self.arity)

    @property
    def constraint_count(self) -> int:
        return len(self.points) * math.comb(self.mult + self.arity - 1, self.arity)


@dataclass
class LinearSystem:
    spec: FieldSpec
    cols: list  # monomial exponent tuples, degree-then-lex
    row_index: list  # (point codes, beta) per row
    rows: list  # list of list of element codes

    def to_json(self) -> dict:
        ser = self.spec.element_to_json
        return {
            "field": self.spec.to_json(),
            "cols": [list(c) for c in self.cols],
            "rows": [
                {
                    "point": [ser(c) for c in pt],
                    "beta": list(beta),
                    "entries": [ser(v) for v in row],
                }
                for (pt, beta), row in zip(self.row_index, self.rows)
            ],
        }


def _columns(prob: VanishProblem) -> list:
    if prob.unknown_count * prob.constraint_count > _SYSTEM_GUARD:
        raise SizeGuard(
            f"{prob.constraint_count} x {prob.unknown_count} system exceeds guard"
        )
    return monomials_upto(prob.arity, prob.max_degree)


def _system_rows(prob: VanishProblem, cols: list):
    """Yield ((point, beta), row) point by point, betas in order within a point.

    Entry (alpha, beta) at point a is C(alpha, beta) * a^(alpha - beta).  The
    binomials are tabulated once per beta and the monomial values a^gamma
    once per point, so each entry costs one field multiplication.
    """
    spec = prob.spec
    ncols = len(cols)
    col_index = {alpha: j for j, alpha in enumerate(cols)}
    betas = [b for order in range(prob.mult) for b in compositions(prob.arity, order)]
    # per beta: (column, binomial code, column of alpha - beta) for nonzero binomials
    tables = []
    for beta in betas:
        tab = []
        for j, alpha in enumerate(cols):
            bc = spec.from_int(binom_multi(alpha, beta))
            if bc:
                gamma = tuple(x - y for x, y in zip(alpha, beta))
                tab.append((j, bc, col_index[gamma]))
        tables.append(tab)
    mul, one = spec.mul, spec.one
    for pt in prob.points:
        powers = []
        for a in pt:
            pw = [one]
            for _ in range(prob.max_degree):
                pw.append(mul(pw[-1], a))
            powers.append(pw)
        values = []
        for gamma in cols:
            v = one
            for pw, e in zip(powers, gamma):
                v = mul(v, pw[e])
            values.append(v)
        for beta, tab in zip(betas, tables):
            row = [0] * ncols
            for j, bc, k in tab:
                row[j] = mul(bc, values[k])
            yield (pt, beta), row


def build_system(prob: VanishProblem) -> LinearSystem:
    cols = _columns(prob)
    row_index, rows = [], []
    for index, row in _system_rows(prob, cols):
        row_index.append(index)
        rows.append(row)
    return LinearSystem(prob.spec, cols, row_index, rows)


def _eliminate(rows, spec: FieldSpec, ncols: int) -> dict:
    """Fold a stream of rows into a row-echelon basis; stop at full column rank.

    The basis maps each pivot column c to its row's entries from column c
    on, scaled so that the first is one (all entries before c are zero).
    Rows after the one that completes the rank are never read.
    """
    basis = {}
    p, prime = spec.p, spec.m == 1
    add, mul = spec.add, spec.mul
    for row in rows:
        off, c = 0, 0  # row holds the entries from column off on
        while True:
            while c < ncols and not row[c - off]:
                c += 1
            if c == ncols:
                break
            piv = basis.get(c)
            if piv is None:
                inv = spec.inv(row[c - off])
                basis[c] = [mul(x, inv) for x in row[c - off:]]
                break
            f = row[c - off]
            if prime:
                row = [(x - f * y) % p for x, y in zip(row[c - off:], piv)]
            else:
                nf = spec.neg(f)
                row = [add(x, mul(nf, y)) if y else x for x, y in zip(row[c - off:], piv)]
            off = c
        if len(basis) == ncols:
            break
    return basis


def _null_vector(basis: dict, spec: FieldSpec, ncols: int) -> Optional[list]:
    """The solution with the first free variable one and the others zero.

    None when every column is a pivot.  Pivot variables follow by
    back-substitution from the last pivot to the first.
    """
    free = next((j for j in range(ncols) if j not in basis), None)
    if free is None:
        return None
    solution = [0] * ncols
    solution[free] = spec.one
    for c in sorted(basis, reverse=True):
        acc = 0
        for k, v in enumerate(basis[c]):
            if v and solution[c + k]:  # solution[c] itself is still zero
                acc = spec.add(acc, spec.mul(v, solution[c + k]))
        solution[c] = spec.neg(acc)
    return solution


def _echelon(prob: VanishProblem):
    """Columns and the echelon basis of the system, read lazily."""
    cols = _columns(prob)
    rows = (row for _, row in _system_rows(prob, cols))
    return cols, _eliminate(rows, prob.spec, len(cols))


def nullspace_trivial(prob: VanishProblem) -> bool:
    """True iff only the zero polynomial solves the system (full column rank)."""
    cols, basis = _echelon(prob)
    return len(basis) == len(cols)


def find_vanishing_poly(prob: VanishProblem) -> Optional[SparsePoly]:
    """Canonical nonzero solution, or None when the nullspace is trivial.

    The free variable with the lex-least monomial (in column order) is set
    to one and all other free variables to zero; pivot variables follow
    from the echelon rows.  The reduced row echelon form of a row space is
    unique, so this solution does not depend on row order.  Every returned
    polynomial is re-verified against the multiplicity module.
    """
    spec = prob.spec
    cols, basis = _echelon(prob)
    solution = _null_vector(basis, spec, len(cols))
    if solution is None:
        return None
    poly = SparsePoly(
        spec, prob.arity,
        {exp: c for exp, c in zip(cols, solution) if c},
    )
    assert not poly.is_zero()
    assert poly.degree <= prob.max_degree
    assert vanishes_with_mult(poly, prob.points, prob.mult).ok, "solver/verifier mismatch"
    return poly
