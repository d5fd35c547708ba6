"""Vanishing polynomials by exact linear algebra over F_q.

The linear system has one row per (point, derivative order beta with
|beta| < M) and one column per monomial of degree <= D, in degree-then-lex
order.  Entry: C(alpha, beta) * a^(alpha - beta), reduced into the field,
which is the coefficient of c_alpha in the beta-th Hasse derivative at a.
`build_system` returns that system as posed, entry by entry; it shares no
code with the solvers, so it is the slow oracle of their rows.  The
solvers solve a smaller system at the set's lex-least point a0
(`_echelon`): each other point a taken as a - a0, over the columns of
degree >= M only.  Its rows are generated lazily, one point at a time
(`_system_rows`).  Per order beta, tables built once from per-coordinate
factors list the entries whose binomial is nonzero mod p: the column of
alpha, the binomial, and the column of gamma = alpha - beta.  A point's
row for beta fills those entries from the values a^gamma, taken once per
point, with no field call per entry: mod p over F_p, by exp/log tables
over F_{p^m}.  The rows are folded into an incremental row-echelon basis
that stops reading rows once the rank equals the number of columns.  A
solution, when one is needed, comes from back-substitution through that
basis.  When diagonal scalings fix the moved set, as they fix the paper's
unions of dilates rho * (lambda, g(lambda)) about the origin, the system
splits into one block per character of the group they form
(`_stabilizer`), each eliminated alone from rows at one point per orbit.

Every row is packed into one Python int of fixed-width slots, with no
big-int operation per column, and reduced only where it must be: only the
leading column is reduced as the row is scanned, and each new pivot row is
unpacked once, reduced and kept as a list, which is the basis the rest of
the module reads.  Rows are packed and unpacked through `struct` in one
format (`_layout`): little-endian, slot 0 in the low bits, with standard
sizes, so the layout is the same on every host.

There are three layouts.  Over F_p a slot holds a column, w bits with w
the first of 16, 32 or 64 that holds
bit_length(ncols*(p-1)^2 + p) + 1: wide enough that a column can take one
update from every pivot before it is reduced mod p, so that no carry
crosses into the next column.  Over F_{2^m} a slot of 8 bits (16 when
q > 256) holds a column's code, whose bits are its coefficients, so a row
is updated by XOR and never carries.  Over F_{p^m} with p odd a column
takes m slots, one per coefficient, each wide enough for the delayed
reduction as over F_p.  An extension-field pivot P keeps its m multiples
t^e * P, so that f * P for any entry f is a sum of multiples.  In
characteristic 2 they are made by shifts of the packed row; for odd p
each is the pivot row scaled in the field and packed like a row.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from itertools import compress, filterfalse, repeat
from typing import Optional

from .errors import ArityMismatch, SizeGuard
from .ffield import FieldSpec, _prime_factors
from .mpoly import SparsePoly, binom_multi, monomials_upto, translate
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


def _below(n: int, d: int) -> int:
    """The number of monomials in n variables of degree < d."""
    return math.comb(d - 1 + n, n) if d > 0 else 0


def _order_tables(n: int, D: int, M: int, p: int, cols: list) -> list:
    """Per order beta with |beta| < M, the highest |beta| first, three
    parallel lists over the gamma with M <= |beta + gamma| <= D and
    C(beta + gamma, beta) nonzero mod p: the column of beta + gamma counted
    from the first of degree M, that binomial mod p, and the column k of
    gamma.  Within a degree the orders run in reverse lex order.

    Those gamma are the columns lo <= k < size, lo of them of degree below
    M - |beta| and size of degree <= D - |beta|.  With i the last nonzero
    coordinate of beta, the column of beta + gamma_k is that of
    beta - e_i + gamma_k + e_i: the parent order's entry for the column of
    gamma_k + e_i, which is at least the parent's lo.  The binomial is the
    product over i of factor[i][b][k] = C(b + gamma_k[i], b) mod p,
    b = beta[i].  `_echelon` asks for them only when M - 1 < D.
    """
    coords = list(zip(*cols))  # coordinate i of every column
    col_index = {alpha: j for j, alpha in enumerate(cols)}
    size = [_below(n, D - d + 1) for d in range(M)]
    lo = [_below(n, M - d) for d in range(M)]
    shift = []  # shift[i][d]: the parent's entry of gamma_k + e_i, k in range(lo[d], size[d])
    for i in range(n):
        up = [col_index[c[:i] + (c[i] + 1,) + c[i + 1:]] for c in cols[:_below(n, D)]]
        shift.append([None] + [list(map(operator.sub, up[lo[d]:size[d]], repeat(lo[d - 1])))
                               for d in range(1, M)])
    factor = []  # factor[i][b]: over the columns of degree <= D - b, for b >= 1
    for coord in coords:
        factor.append([None])
        for b in range(1, M):
            binom = [math.comb(g + b, b) % p for g in range(D - b + 1)]
            factor[-1].append(list(map(binom.__getitem__, coord[:size[b]])))
    targets = {(0,) * n: range(len(cols) - lo[0])}
    tables = []
    for beta in monomials_upto(n, M - 1):
        d = sum(beta)
        ks = range(lo[d], size[d])
        if d:
            i = max(i for i, b in enumerate(beta) if b)
            parent = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            targets[beta] = list(map(targets[parent].__getitem__, shift[i][d]))
            facs = [fac[b][lo[d]:size[d]] for fac, b in zip(factor, beta) if b]
            bcs = facs[0]
            for fac in facs[1:]:
                bcs = [x * y % p for x, y in zip(bcs, fac)]
            tables.append((list(compress(targets[beta], bcs)), list(filter(None, bcs)),
                           list(compress(ks, bcs))))
        else:
            tables.append((targets[beta], [1] * len(ks), ks))
    tables.reverse()
    return tables


def _scaling(spec: FieldSpec, n: int, axis: Optional[int], h: int):
    """The map that multiplies coordinate `axis` of a point in F_q^n by h,
    or every coordinate when axis is None."""
    factors = [h if axis in (None, i) else spec.one for i in range(n)]
    return lambda pt: tuple(map(spec.mul, factors, pt))


def _stabilizer(spec: FieldSpec, points: list) -> list:
    """Generators (axis, e, h) of a group of diagonal scalings that fix the
    set, the dilation first, each `_scaling(spec, n, axis, h)` of order
    e > 1; [] is the trivial group.  h = g^((q-1)/e) for g primitive, with e
    the largest divisor of q - 1 for which h fixes the set: per prime r of
    q - 1, e takes r while the scaling of order e*r fixes it, each test
    stopping at the first point that leaves the set.  That scaling moves
    the points that are nonzero (on its axis) in orbits of e*r points, so
    no test is needed unless e*r divides their number."""
    q1, n = spec.q - 1, len(points[0])
    primes = _prime_factors(q1)
    g = spec._exp[1] if spec.m > 1 else next(
        c for c in range(1, spec.p) if all(pow(c, q1 // r, spec.p) != 1 for r in primes))
    members = set(points)
    gens = []
    for axis in [None, *range(n)] if n > 1 else [None]:
        moved = sum(map(any, points)) if axis is None else sum(1 for pt in points if pt[axis])
        e = 1
        for r in primes:
            while q1 % (e * r) == 0 and moved % (e * r) == 0 and members.issuperset(
                    map(_scaling(spec, n, axis, spec.pow_(g, q1 // (e * r))), points)):
                e *= r
        if e > 1:
            gens.append((axis, e, spec.pow_(g, q1 // e)))
    return gens


def _orbit_reps(spec: FieldSpec, points: list, gens: list) -> list:
    """The first point of each orbit of the group `gens` generate; each
    orbit is closed point by point, so each point is scaled once per
    generator."""
    scales = [_scaling(spec, len(points[0]), axis, h) for axis, _, h in gens]
    seen, reps = set(), []
    for pt in points:
        if pt not in seen:
            reps.append(pt)
            seen.add(pt)
            todo = [pt]
            while todo:
                x = todo.pop()
                found = {scale(x) for scale in scales} - seen
                seen |= found
                todo.extend(found)
    return reps


def _blocks(cols: list, tables: list, gens: list) -> list:
    """Split the columns, and each order's table, by the character of the
    group `gens` generate: a scaling (axis, e, h) takes x^alpha to h^d
    x^alpha, d = |alpha| or alpha_axis, so alpha's block is keyed by d mod e.
    Per block, its columns' indices into cols and its tables, renumbered
    within it; an order with no entry in a block is left out of it."""
    keys = list(zip(*[[(sum(a) if axis is None else a[axis]) % e for a in cols]
                      for axis, e, _ in gens]))
    index = {key: b for b, key in enumerate(dict.fromkeys(keys))}
    members, where = [[] for _ in index], []  # where: per column, (block, position)
    for j, key in enumerate(keys):
        where.append((index[key], len(members[index[key]])))
        members[index[key]].append(j)
    split = [[] for _ in members]
    for targets, bcs, ks in tables:
        parts = [([], [], []) for _ in members]
        for j, bc, k in zip(targets, bcs, ks):
            b, pos = where[j]
            part = parts[b]
            part[0].append(pos)
            part[1].append(bc)
            part[2].append(k)
        for block_tables, part in zip(split, parts):
            if part[0]:
                block_tables.append(part)
    return list(zip(members, split))


def _system_rows(prob: VanishProblem, cols: list):
    """Yield the blocks of the system `_echelon` solves, each as its columns
    (indices into those of degree >= M) and a lazy stream of its rows.

    Each point a after the first, a0, is taken as a - a0; its row for order
    beta has entry C(alpha, beta) * a^(alpha - beta) in the column of each
    alpha of degree >= M, and its orders run from the highest |beta| down,
    as `_order_tables` lists them.  Per beta, only alpha = beta + gamma
    with |gamma| <= D - |beta| can be nonzero; the tables list those whose
    binomial is nonzero mod p, and a row is the zero row with them filled
    in, each with no field call.  Over F_p an entry is bc * a^gamma mod p,
    the values a^gamma taken once per point from the powers pow(a_i, e, p).
    Over F_{p^m} it is exp[log bc + log a^gamma], read from the exp table
    padded with q - 1 zeros, where 2(q - 1) stands for the log of 0.

    A block (`_blocks`) is read at one point per orbit of the group that
    fixes the moved points (`_stabilizer`); with none, one block has them all.
    """
    spec = prob.spec
    p, n, D, M = spec.p, prob.arity, prob.max_degree, prob.mult
    points = [tuple(map(spec.sub, pt, prob.points[0])) for pt in prob.points[1:]]
    tables = _order_tables(n, D, M, p, cols) if points else []  # one point: no row
    coords = list(zip(*cols))
    exps = range(D + 1)
    if spec.m > 1:
        q1 = spec.q - 1
        log_zero = 2 * q1
        exp, log = spec._exp + [0] * q1, spec._log
        log_bc = [None] + [log[spec.from_int(r)] for r in range(1, p)]
        tables = [(targets, list(map(log_bc.__getitem__, bcs)), ks)
                  for targets, bcs, ks in tables]

    def point_values(pts):
        for pt in pts:
            if spec.m == 1:
                values = [1] * len(cols)
                for a, coord in zip(pt, coords):
                    powers = [pow(a, e, p) for e in exps]
                    values = [v * powers[e] % p for v, e in zip(values, coord)]
                yield values
            else:
                logs = [0] * len(cols)  # of a^gamma, summed and then reduced mod q - 1
                for a, coord in zip(pt, coords):
                    if a:
                        powers = [log[a] * e % q1 for e in exps]
                        logs = list(map(operator.add, logs, map(powers.__getitem__, coord)))
                logs = [x % q1 for x in logs]
                for a, coord in zip(pt, coords):
                    if not a:  # 0^e = 0 for e > 0
                        logs = [log_zero if e else x for x, e in zip(logs, coord)]
                yield logs

    def rows(per_point, block_tables, width):
        for values in per_point:
            for targets, bcs, ks in block_tables:
                row = [0] * width
                if spec.m == 1:
                    for j, bc, k in zip(targets, bcs, ks):
                        row[j] = bc * values[k] % p
                else:
                    for j, lb, k in zip(targets, bcs, ks):
                        row[j] = exp[lb + values[k]]
                yield row

    gens = _stabilizer(spec, points) if points else []
    if gens:
        blocks = _blocks(cols[_below(n, M):], tables, gens)
        per_point = list(point_values(_orbit_reps(spec, points, gens)))
    else:
        blocks = [(range(len(cols) - _below(n, M)), tables)]
        per_point = point_values(points)
    for block, block_tables in blocks:
        yield block, rows(per_point, block_tables, len(block))


def build_system(prob: VanishProblem) -> LinearSystem:
    """The system as posed, computed entry by entry.

    Per point, in the set's order, one row per order beta with |beta| < M
    in degree-then-lex order; per column alpha of degree <= D the entry
    from_int(C(alpha, beta)) * prod_i a_i^(alpha_i - beta_i), by
    `binom_multi` and `pow_`.  An order |beta| > D gives a zero row.  It
    shares no code with `_order_tables` or `_system_rows`, whose rows it
    checks, and the solvers never call it.
    """
    spec = prob.spec
    cols = _columns(prob)

    def entry(pt, alpha, beta):
        value = spec.from_int(binom_multi(alpha, beta))
        if value:  # and so alpha >= beta
            for a, x, y in zip(pt, alpha, beta):
                value = spec.mul(value, spec.pow_(a, x - y))
        return value

    betas = monomials_upto(prob.arity, prob.mult - 1)
    row_index = [(pt, beta) for pt in prob.points for beta in betas]
    rows = [[entry(pt, alpha, beta) for alpha in cols] for pt, beta in row_index]
    return LinearSystem(cols, row_index, rows)


def _layout(code: str, count: int) -> str:
    """The `struct` format of count slots of type `code`, the one layout of
    every packed row: little-endian, so slot 0 is the low bits of the int,
    with the standard sizes B = 1, H = 2, I = 4 and Q = 8 bytes on any host."""
    return f"<{count}{code}"


def _width(code: str) -> int:
    """Bytes per slot of type `code`."""
    return struct.calcsize(_layout(code, 1))


def _slot_type(ncols: int, p: int, m: int = 1) -> str:
    """The slot type (see `_layout`) of ncols packed columns over F_{p^m}.

    In characteristic 2 an extension-field slot holds a code: 8 bits up to
    q = 256, 16 bits above.  Otherwise a slot needs
    need = bit_length(ncols*m*(p-1)^2 + p) + 1 bits (see `_eliminate`),
    rounded up to the first of H, I and Q, 16, 32 or 64 bits, that holds
    it.  q <= 2^16 (`ffield.MAX_Q`) and ncols <= 10^8 (the system guard)
    keep need <= 60.
    """
    if p == 2 and m > 1:
        return "B" if m <= 8 else "H"
    need = (ncols * m * (p - 1) ** 2 + p).bit_length() + 1
    if need > 64:
        raise AssertionError(f"{ncols} columns over F_{p ** m} need {need}-bit slots")
    return next(t for t in "HIQ" if 8 * _width(t) >= need)


def _pack(code: str, entries) -> int:
    """One int whose slots, low to high, hold the entries."""
    return int.from_bytes(struct.pack(_layout(code, len(entries)), *entries), "little")


def _unpack(code: str, r: int, count: int) -> tuple:
    """The low `count` slots of r, low to high."""
    return struct.unpack(_layout(code, count), r.to_bytes(count * _width(code), "little"))


def _t(spec: FieldSpec) -> int:
    """Code of the generator t of F_{p^m} over F_p."""
    return spec.encode((0, 1) + (0,) * (spec.m - 2))


def _eliminate(rows, spec: FieldSpec, ncols: int) -> dict:
    """Fold a stream of rows into a row-echelon basis; stop at full column rank.

    The basis maps each pivot column c to its row's entries from column c
    on, scaled so that the first is one (all entries before c are zero).
    Rows after the one that completes the rank are never read.

    Every layout packs a row into one int of fixed-width slots, low to high,
    through `struct` (`_layout`), whose items have exactly those widths, or
    through a table of each code's bytes in that format, so neither packing
    a row nor unpacking a pivot costs a big-int operation per column.  A
    new pivot row is unpacked once, reduced and scaled, and kept both as
    the basis list, which the rest of the module reads, and packed for
    later updates.
    Over a prime field slot j (w bits) holds column j; over an extension
    field see `_eliminate_xor` (p = 2) and `_eliminate_digits` (odd p).

    Over F_p a pivot row is stored fully reduced, so eliminating column c
    adds (p - f) * pivot, which has no subtraction and so never borrows.  A
    slot starts below p and gains at most (p-1)^2 from each of at most
    ncols pivots, so it stays below ncols*(p-1)^2 + p.  w is at least one
    bit more than that needs (`_slot_type`), so no carry ever crosses a
    slot and the top bit of every slot is clear.  Each step reads the low
    slot first; only when it is zero does it jump to the slot of the lowest
    set bit, which is exact because each slot's top bit is clear.  That
    slot alone is reduced mod p, and dropped if it is 0 mod p.
    """
    if spec.m > 1:
        return (_eliminate_xor if spec.p == 2 else _eliminate_digits)(rows, spec, ncols)
    basis = {}
    p = spec.p
    code = _slot_type(ncols, p)
    w = 8 * _width(code)
    mask = (1 << w) - 1
    packed = {}
    for row in rows:
        r, c = _pack(code, row), 0  # slot 0 of r holds column c
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
                basis[c] = [x * inv % p for x in _unpack(code, r, ncols - c)]
                packed[c] = _pack(code, basis[c])
                break
            r = (r + (p - f) * piv) >> w
            c += 1
        if len(basis) == ncols:
            break
    return basis


def _eliminate_xor(rows, spec: FieldSpec, ncols: int) -> dict:
    """`_eliminate` over F_{2^m}: slot j holds the code of column j.

    Bit b of a code is the coefficient of t^(m-1-b), so adding is XOR,
    which never carries, and a slot is always exact.  A pivot P keeps its m
    multiples t^e * P, each made from the last by a shift: c_0 is the top
    bit of a code, so t * x = ((x >> 1) & keep) ^ ((x & low) * R), where
    `low` picks bit 0 of each slot, `keep` bits 0 to m-2, and R is the code
    of t^m.  Eliminating column c with entry f XORs in the multiple of each
    set bit of f.  A slot's top bit can be set, so the jump over zero slots
    takes the slot of the lowest set bit's index, not of its length.
    """
    m, exp, log, q1 = spec.m, spec._exp, spec._log, spec.q - 1
    code = _slot_type(ncols, 2, m)
    w = 8 * _width(code)
    mask = (1 << w) - 1
    keep = _pack(code, [(1 << (m - 1)) - 1] * ncols)
    low = _pack(code, [1] * ncols)
    R = spec.pow_(_t(spec), m)  # the code of t^m, the carry of t * x
    basis, packed = {}, {}
    for row in rows:
        r, c = _pack(code, row), 0  # slot 0 of r holds column c
        while r:
            f = r & mask
            if not f:  # jump over the zero slots to the lowest set bit
                s = ((r & -r).bit_length() - 1) // w
                r >>= s * w
                c += s
                f = r & mask
            mults = packed.get(c)
            if mults is None:
                linv = q1 - log[f]
                basis[c] = [exp[log[x] + linv] if x else 0 for x in _unpack(code, r, ncols - c)]
                x = _pack(code, basis[c])
                mults = packed[c] = {1 << (m - 1): x}  # bit b -> t^(m-1-b) * pivot
                for b in range(m - 2, -1, -1):
                    x = mults[1 << b] = ((x >> 1) & keep) ^ ((x & low) * R)
                break
            while f:  # row -= f * pivot, column c is now zero
                b = f & -f
                r ^= mults[b]
                f ^= b
            r >>= w
            c += 1
        if len(basis) == ncols:
            break
    return basis


def _digit_slots(p: int, m: int, code: str) -> list:
    """Per code, the packed bytes of its m base-p digits, the digit of p^i
    in slot i (see `_layout`)."""
    digits = [struct.pack(_layout(code, 1), d) for d in range(p)]
    table = [b""]
    for _ in range(m):
        table = [t + d for d in digits for t in table]
    return table


def _eliminate_digits(rows, spec: FieldSpec, ncols: int) -> dict:
    """`_eliminate` over F_{p^m}, p odd: column j takes slots jm to jm+m-1.

    Slot i of a column holds the digit of p^i of its code, which is the
    coefficient of t^(m-1-i); every row is packed from a table of each
    code's slots.  As over F_p, a pivot row P is stored reduced and only
    the leading column is reduced as a row is scanned.  P keeps its m
    multiples t^e * P, each built like P itself: the scaled basis row with
    e * log t added to every entry's log, packed through the same table.
    Eliminating column c adds (p - f_i) times the multiple of each nonzero
    digit f_i of the entry, at most m(p-1)^2 per slot, so a slot stays
    below ncols*m*(p-1)^2 + p, and `_slot_type` makes w wide enough for
    that: no carry crosses a slot.  The jump over zero columns takes the
    column of the lowest set bit.
    """
    p, m, exp, log, q1 = spec.p, spec.m, spec._exp, spec._log, spec.q - 1
    code = _slot_type(ncols, p, m)
    w = 8 * _width(code)
    stride = m * w
    mask, colmask = (1 << w) - 1, (1 << stride) - 1
    shifts = range(0, stride, w)
    powers = [p**i for i in range(m)]
    slots = _digit_slots(p, m, code)
    logt = log[_t(spec)]
    tlogs = [(m - 1 - i) * logt % q1 for i in range(m)]  # slot i -> log of t^(m-1-i)

    def pack(entries):
        return int.from_bytes(b"".join(map(slots.__getitem__, entries)), "little")

    basis, packed = {}, {}
    for row in rows:
        r, c = pack(row), 0
        while r:
            lead = r & colmask
            if not lead:  # jump over the zero columns to the lowest set bit
                s = ((r & -r).bit_length() - 1) // stride
                r >>= s * stride
                c += s
                lead = r & colmask
            mults = packed.get(c)
            if mults is not None:
                for s, mult in zip(shifts, mults):  # row -= f * pivot
                    fi = (lead >> s & mask) % p
                    if fi:
                        r += (p - fi) * mult
            elif any((lead >> s & mask) % p for s in shifts):
                digits = [x % p for x in _unpack(code, r, (ncols - c) * m)]
                tail = [sum(map(operator.mul, digits[i:i + m], powers))
                        for i in range(0, len(digits), m)]
                linv = q1 - log[tail[0]]
                basis[c] = [exp[log[x] + linv] if x else 0 for x in tail]
                packed[c] = [pack([exp[log[x] + e] if x else 0 for x in basis[c]]) for e in tlogs]
                break
            r >>= stride
            c += 1
        if len(basis) == ncols:
            break
    return basis


def _null_vector(basis: dict, spec: FieldSpec, ncols: int) -> Optional[list]:
    """The solution with the first free variable one and the others zero.

    None when every column is a pivot.  The pivot variables before the
    free one follow by back-substitution from the last to the first, each
    from its row up to the free column; those after it are zero, as every
    later column is.
    """
    free = next(filterfalse(basis.__contains__, range(ncols)), None)
    if free is None:
        return None
    solution = [0] * ncols
    solution[free] = spec.one
    for c in sorted(filter(free.__gt__, basis), reverse=True):
        acc = 0
        for k, v in enumerate(basis[c][:free + 1 - c]):
            if v and solution[c + k]:  # solution[c] itself is still zero
                acc = spec.add(acc, spec.mul(v, solution[c + k]))
        solution[c] = spec.neg(acc)
    return solution


def _echelon(prob: VanishProblem):
    """The unknown columns, and the echelon basis of each block of the
    reduced system as lazily read (block, basis) pairs.

    P vanishes to order M on S iff P(x + a0) does on S - a0, with the same
    degree.  With a0 the lex-least point of S moved to the origin, its
    order-beta row is the unit vector of column beta, so its rows only zero
    the columns of degree < M: those rows and columns are dropped, and the
    other points' rows are read lazily (`_system_rows`).  The
    guard still counts the system as posed.  An empty set keeps every
    column, in one block with no row.

    The split is exact: G (`_stabilizer`) has order dividing (q-1)^n, prime
    to p, so the solutions are the direct sum of their parts in the blocks,
    and for P in the block of character chi, P^(beta)(h a) =
    chi(h) h^(-beta) P^(beta)(a): one point's rows stand for its orbit's.
    """
    cols = _columns(prob)
    if not prob.points:
        return cols, [(range(len(cols)), {})]
    drop = _below(prob.arity, prob.mult)
    if drop >= len(cols):
        return [], []
    return cols[drop:], ((block, _eliminate(rows, prob.spec, len(block)))
                         for block, rows in _system_rows(prob, cols))


def nullspace_trivial(prob: VanishProblem) -> bool:
    """True iff only the zero polynomial solves the system: every block has
    full column rank (read up to the first that has not)."""
    _, blocks = _echelon(prob)
    return all(len(basis) == len(block) for block, basis in blocks)


def find_vanishing_poly(prob: VanishProblem) -> Optional[SparsePoly]:
    """Canonical nonzero solution, or None when the nullspace is trivial.

    Of the nonzero solutions, the one whose last nonzero coefficient in
    column order comes first, scaled to one there; it does not depend on
    row order.  Its part in the block (`_echelon`) holding the least first
    free column is a solution with the same last coefficient, so it is that
    block's solution with its first free variable one and the others zero,
    shifted back to x - a0: that maps x^alpha to x^alpha plus columns of
    lower degree, so it keeps the last coefficient.  Every returned
    polynomial is re-verified against the multiplicity module on all of S.
    An empty set leaves every column free: its answer is the first, the
    constant 1.
    """
    spec = prob.spec
    if not prob.points:
        _check_size(prob)
        return SparsePoly.one(spec, prob.arity)
    cols, blocks = _echelon(prob)
    found = [(block[next(filterfalse(basis.__contains__, range(len(block))))], block, basis)
             for block, basis in blocks if len(basis) < len(block)]
    if not found:
        return None
    _, block, basis = min(found, key=operator.itemgetter(0))
    solution = _null_vector(basis, spec, len(block))
    poly = SparsePoly(
        spec, prob.arity,
        {cols[j]: c for j, c in zip(block, solution) if c},
    )
    poly = translate(poly, [spec.neg(a) for a in prob.points[0]])
    if poly.is_zero() or poly.degree > prob.max_degree:
        raise AssertionError("solver returned a zero polynomial or one above degree D")
    if not vanishes_with_mult(poly, prob.points, prob.mult).ok:
        raise AssertionError("solver/verifier mismatch")
    return poly
