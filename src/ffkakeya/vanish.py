"""Vanishing polynomials by exact linear algebra over F_q.

The linear system has one row per (point, derivative order beta with
|beta| < M) and one column per monomial of degree <= D, in degree-then-lex
order.  Entry: C(alpha, beta) * a^(alpha - beta), reduced into the field,
which is the coefficient of c_alpha in the beta-th Hasse derivative at a.
Rows are generated lazily, one point at a time, and folded into an
incremental row-echelon basis that stops reading rows once the rank equals
the number of columns.  A solution, when one is needed, comes from
back-substitution through that basis.

Over a prime field a row is packed into one Python int, one w-bit slot
per column, with w the first of 16, 32 or 64 bits that holds
bit_length(ncols*(p-1)^2 + p) + 1: wide enough that a column can take one
update from every pivot before it is reduced mod p, so that no carry
crosses into the next column.  Rows are packed and pivots unpacked through
`array`, whose items have exactly those widths.  Only the leading column
is reduced as the row is scanned; each new pivot row is unpacked once,
reduced and kept as a list, which is the basis the rest of the module
reads.  Over an extension field a row stays a list and is updated in place
through the field's exp/log tables, touching only the nonzero entries of
each pivot.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

from .errors import ArityMismatch, SizeGuard
from .ffield import FieldSpec
from .mpoly import SparsePoly, compositions, monomials_upto
from .multiplicity import _point_codes, vanishes_with_mult

_SYSTEM_GUARD = 10**8


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
        if self.arity < 1:
            raise ArityMismatch(f"arity must be >= 1, got {self.arity}")
        self.points = sorted({_point_codes(self.spec, pt, self.arity) for pt in self.points})

    @property
    def unknown_count(self) -> int:
        return math.comb(self.max_degree + self.arity, self.arity)

    @property
    def constraint_count(self) -> int:
        return len(self.points) * math.comb(self.mult + self.arity - 1, self.arity)


@dataclass
class LinearSystem:
    cols: list  # monomial exponent tuples, degree-then-lex
    row_index: list  # (point codes, beta) per row
    rows: list  # list of list of element codes


def _check_size(prob: VanishProblem):
    # an empty set counts as one constraint, so its columns alone are bounded
    # and it is refused wherever a one-point set with one order would be
    if prob.unknown_count * max(prob.constraint_count, 1) > _SYSTEM_GUARD:
        raise SizeGuard(
            f"{prob.constraint_count} x {prob.unknown_count} system exceeds guard"
        )


def _columns(prob: VanishProblem) -> list:
    _check_size(prob)
    return monomials_upto(prob.arity, prob.max_degree)


def _system_rows(prob: VanishProblem, cols: list):
    """Yield ((point, beta), row) point by point, betas in order within a point.

    Entry (alpha, beta) at point a is C(alpha, beta) * a^(alpha - beta).  Per
    beta, only alpha = beta + gamma with |gamma| <= D - |beta| can be nonzero:
    those gamma are a prefix of the degree-then-lex columns.  Each binomial is
    a product of C(x, y) mod p, x <= D and y <= min(M-1, D), read from one
    table; the monomial values a^gamma are computed once per point, so each
    entry costs one field multiplication.  An order |beta| > D has no such
    alpha: its rows are all zero, yielded after the others without a table.
    """
    spec = prob.spec
    n, D = prob.arity, prob.max_degree
    top = min(prob.mult - 1, D)
    ncols = len(cols)
    col_index = {alpha: j for j, alpha in enumerate(cols)}
    binom = [[math.comb(x, y) % spec.p for y in range(top + 1)] for x in range(D + 1)]
    betas = monomials_upto(n, top)
    # per beta: (column of alpha, binomial code, column of gamma = alpha - beta)
    # for the binomials that are nonzero mod p
    tables = []
    for beta in betas:
        tab = []
        for k, gamma in enumerate(cols[:math.comb(D - sum(beta) + n, n)]):
            alpha = tuple(map(operator.add, beta, gamma))
            c = 1
            for x, y in zip(alpha, beta):
                c *= binom[x][y]
            bc = spec.from_int(c)
            if bc:
                tab.append((col_index[alpha], bc, k))
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
        for order in range(top + 1, prob.mult):
            for beta in compositions(n, order):
                yield (pt, beta), [0] * ncols


def build_system(prob: VanishProblem) -> LinearSystem:
    cols = _columns(prob)
    row_index, rows = [], []
    for index, row in _system_rows(prob, cols):
        row_index.append(index)
        rows.append(row)
    return LinearSystem(cols, row_index, rows)


def _slot_type(ncols: int, p: int) -> str:
    """The `array` typecode of the packed slots for ncols columns over F_p.

    A slot needs need = bit_length(ncols*(p-1)^2 + p) + 1 bits (see
    `_eliminate`), rounded up to the first of 16, 32 or 64 bits; the types
    are chosen by itemsize, since that of "I" is not fixed.  p < 2^16
    (`ffield.MAX_Q`) and ncols <= 10^8 (the system guard) keep need <= 60.
    """
    need = (ncols * (p - 1) ** 2 + p).bit_length() + 1
    assert need <= 64, f"{ncols} columns over F_{p} need {need}-bit slots"
    return next(t for t in "HIQ" if 8 * array(t).itemsize >= need)


def _eliminate(rows, spec: FieldSpec, ncols: int) -> dict:
    """Fold a stream of rows into a row-echelon basis; stop at full column rank.

    The basis maps each pivot column c to its row's entries from column c
    on, scaled so that the first is one (all entries before c are zero).
    Rows after the one that completes the rank are never read.

    Over an extension field each row is copied once and reduced in place,
    in the log domain of the field's tables (`_exp[k]` is g^k for a
    primitive g, `_log` its inverse).  A new pivot row is scaled by the
    inverse of its leading entry and kept in the basis, and with it the
    (column, log) pair of every later nonzero entry.  Eliminating column c
    with entry f takes ln = log(-f) once and adds exp[ln + log y] to the
    row at each such column only, so the pivot's zeros cost nothing; in
    characteristic 2 that addition is XOR.  Both logs are below q - 1, so
    their sum indexes `_exp` without reduction.

    Over a prime field each row is packed into one int, slot j (w bits,
    low to high) holding column j, and reduced only where it must be.  A
    pivot row is stored fully reduced, so eliminating column c adds
    (p - f) * pivot, which has no subtraction and so never borrows.  A slot
    starts below p and gains at most (p-1)^2 from each of at most ncols
    pivots, so it stays below ncols*(p-1)^2 + p.  w is at least one bit more
    than that needs (`_slot_type`), so no carry ever crosses a slot and the
    top bit of every slot is clear.  A row is packed as the bytes of an
    `array` of its entries, read as one little-endian int, and a pivot's
    tail is unpacked as the `array` of the int's bytes, so neither costs a
    big-int operation per column.  Each step reads the low slot first; only
    when it is zero does it jump to the slot of the lowest set bit, which is
    exact because each slot's top bit is clear.  That slot alone is reduced
    mod p, and dropped if it is 0 mod p.  A new pivot row is unpacked once,
    reduced and scaled, and kept both as the basis list and packed for
    later updates.
    """
    basis = {}
    if spec.m > 1:
        exp, log, q1 = spec._exp, spec._log, spec.q - 1
        minus = 0 if spec.p == 2 else q1 // 2  # log of -1
        add = operator.xor if spec.p == 2 else spec.add
        sparse = {}  # pivot column -> (column, log) of each later nonzero entry
        for row in rows:
            row = list(row)
            for c, f in enumerate(row):
                if not f:
                    continue
                piv = sparse.get(c)
                if piv is None:
                    linv = q1 - log[f]
                    basis[c] = tail = [exp[log[x] + linv] if x else 0 for x in row[c:]]
                    sparse[c] = [(k, log[y]) for k, y in enumerate(tail[1:], c + 1) if y]
                    break
                ln = (log[f] + minus) % q1  # row -= f * pivot, column c is now zero
                for k, ly in piv:
                    row[k] = add(row[k], exp[ln + ly])
            if len(basis) == ncols:
                break
        return basis
    p = spec.p
    code = _slot_type(ncols, p)
    size = array(code).itemsize
    w = 8 * size
    mask = (1 << w) - 1
    swap = sys.byteorder == "big"  # slots are little-endian, `array` items native

    def pack(entries):
        items = array(code, entries)
        if swap:
            items.byteswap()
        return int.from_bytes(items.tobytes(), "little")

    packed = {}
    for row in rows:
        r, c = pack(row), 0  # slot 0 of r holds column c
        while r:
            f = r & mask
            if not f:  # jump over the zero slots to the lowest set bit
                s = (r & -r).bit_length() // w  # exact, as each slot's top bit is clear
                r >>= s * w
                c += s
                f = r & mask
            f %= p
            if not f:
                r >>= w
                c += 1
                continue
            piv = packed.get(c)
            if piv is None:
                inv = spec.inv(f)
                tail = array(code, r.to_bytes((ncols - c) * size, "little"))
                if swap:
                    tail.byteswap()
                basis[c] = [x * inv % p for x in tail]
                packed[c] = pack(basis[c])
                break
            r = (r + (p - f) * piv) >> w
            c += 1
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
    polynomial is re-verified against the multiplicity module.  An empty
    set leaves every column free: its answer is the first, the constant 1.
    """
    spec = prob.spec
    if not prob.points:
        _check_size(prob)
        return SparsePoly.one(spec, prob.arity)
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
