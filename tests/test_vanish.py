import math
import random

import pytest

from ffkakeya.errors import ArityMismatch, SizeGuard
from ffkakeya.ffield import field_for_q, make_field
from ffkakeya import vanish
from ffkakeya.mpoly import SparsePoly, monomials_upto
from ffkakeya.multiplicity import VanishCheck, vanishes_with_mult
from ffkakeya.replay import check_warmup
from ffkakeya.vanish import (
    VanishProblem,
    _eliminate,
    _null_vector,
    _pack,
    _slot_type,
    _unpack,
    _width,
    build_system,
    find_vanishing_poly,
    nullspace_trivial,
)


# --- slow oracle: full Gauss-Jordan RREF over any field ---


def _oracle_rref(rows, spec):
    """Reduced row echelon form with first-nonzero pivoting; (rank, pivots, rows)."""
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    pivot_cols = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = spec.inv(mat[r][col])
        mat[r] = [spec.mul(x, inv) for x in mat[r]]
        row_r = mat[r]
        for i in range(nrows):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(mat[i], row_r)]
        pivot_cols.append(col)
        r += 1
    return r, pivot_cols, mat


def _oracle_solution(rows, spec, ncols):
    """First free variable one, other free variables zero; None at full rank."""
    rank, pivot_cols, reduced = _oracle_rref(rows, spec)
    if rank == ncols:
        return None
    free = next(j for j in range(ncols) if j not in pivot_cols)
    solution = [0] * ncols
    solution[free] = spec.one
    for r, pc in enumerate(pivot_cols):
        solution[pc] = spec.neg(reduced[r][free])
    return solution


def _random_rows(rng, spec, nrows, ncols, rank_cap=None):
    """Random rows; with rank_cap, combinations of that many random rows."""
    def rand_row():
        return [rng.randrange(spec.q) if rng.random() < 0.7 else 0 for _ in range(ncols)]

    if rank_cap is None:
        return [rand_row() for _ in range(nrows)]
    gens = [rand_row() for _ in range(rank_cap)]
    rows = []
    for _ in range(nrows):
        acc = [0] * ncols
        for g in gens:
            c = rng.randrange(spec.q)
            acc = [spec.add(a, spec.mul(c, x)) for a, x in zip(acc, g)]
        rows.append(acc)
    return rows


ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256, 512, 729, 65521, 65536]


def test_origin_system_kills_linear(F3):
    # derivatives at the origin pick out the three coefficients directly
    prob = VanishProblem(F3, 2, [(0, 0)], 1, 2)
    system = build_system(prob)
    assert len(system.rows) == 3 and len(system.cols) == 3
    rank, _, _ = _oracle_rref(system.rows, F3)
    assert rank == 3
    assert len(_eliminate(iter(system.rows), F3, 3)) == 3
    assert nullspace_trivial(prob)
    assert find_vanishing_poly(prob) is None


def test_empty_point_set(F3):
    prob = VanishProblem(F3, 2, [], 1, 1)
    assert build_system(prob).rows == []
    assert not nullspace_trivial(prob)
    P = find_vanishing_poly(prob)
    assert P is not None and not P.is_zero()


def test_empty_point_set_answers_without_columns(F5, monkeypatch):
    # no rows leave every column free, so the answer is the first column,
    # the constant 1, whatever the degree; the guard still comes first
    def no_columns(*args):
        raise AssertionError("columns built for an empty set")

    monkeypatch.setattr(vanish, "monomials_upto", no_columns)
    P = find_vanishing_poly(VanishProblem(F5, 2, [], 3000, 1))
    assert P == SparsePoly.one(F5, 2)
    with pytest.raises(SizeGuard):
        find_vanishing_poly(VanishProblem(F5, 2, [], 20000, 1))


def test_solution_is_reverified(F5, monkeypatch):
    # an explicit check, not an assert statement, so python -O keeps it
    prob = VanishProblem(F5, 2, [(0, 0), (1, 2)], 2, 1)
    assert find_vanishing_poly(prob) is not None
    monkeypatch.setattr(vanish, "vanishes_with_mult", lambda *args: VanishCheck(False))
    with pytest.raises(AssertionError, match="solver/verifier mismatch"):
        find_vanishing_poly(prob)


def test_single_point_row(F2):
    prob = VanishProblem(F2, 2, [(1, 1)], 1, 1)
    system = build_system(prob)
    assert system.cols == [(0, 0), (0, 1), (1, 0)]
    assert system.rows == [[1, 1, 1]]


def test_quadratic_at_origin(F3):
    # counting: 3 constraints < 6 unknowns, so a nonzero solution exists
    prob = VanishProblem(F3, 2, [(0, 0)], 2, 2)
    P = find_vanishing_poly(prob)
    assert P is not None
    assert P.degree <= 2
    assert all(sum(e) == 2 for e in P.terms)  # no constant/linear part survives


def test_parabola_unique_up_to_scalar(F5):
    points = [(l, l * l % 5) for l in range(5)]
    prob = VanishProblem(F5, 2, points, 2, 1)
    P = find_vanishing_poly(prob)
    assert P is not None
    # must be a scalar multiple of x2 - x1^2
    assert set(P.terms) == {(0, 1), (2, 0)}
    assert F5.mul(P.terms[(0, 1)], F5.inv(P.terms[(2, 0)])) == F5.neg(F5.one)


def test_size_guard():
    F3 = make_field(3)
    points = [(a, b) for a in range(3) for b in range(3)]
    with pytest.raises(SizeGuard):
        build_system(VanishProblem(F3, 2, points, 300, 40))


@pytest.mark.parametrize("n", [0, -1])
def test_arity_below_one_rejected(F5, n):
    with pytest.raises(ArityMismatch):
        nullspace_trivial(VanishProblem(F5, n, [], 1, 1))


def test_existence_when_counting_holds():
    rng = random.Random(31)
    for _ in range(60):
        spec = make_field(rng.choice([2, 3, 5]))
        n = rng.randint(1, 3)
        M = rng.randint(1, 3)
        points = {tuple(rng.randrange(spec.q) for _ in range(n))
                  for _ in range(rng.randint(0, 4))}
        need = math.comb(M + n - 1, n) * len(points)
        D = 0
        while math.comb(D + n, n) <= need:
            D += 1
        prob = VanishProblem(spec, n, sorted(points), D, M)
        P = find_vanishing_poly(prob)
        assert P is not None
        assert P.degree <= D
        assert vanishes_with_mult(P, prob.points, M).ok


def test_rank_invariant_under_row_shuffle(F7):
    rng = random.Random(32)
    for _ in range(30):
        rows = [[rng.randrange(7) for _ in range(6)] for _ in range(8)]
        rank, _, _ = _oracle_rref(rows, F7)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        rank2, _, _ = _oracle_rref(shuffled, F7)
        assert rank == rank2
        assert len(_eliminate(iter(rows), F7, 6)) == rank
        assert len(_eliminate(iter(shuffled), F7, 6)) == rank


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_eliminate_matches_oracle(q):
    spec = field_for_q(q)
    rng = random.Random(1000 + q)
    shapes = [(0, 4), (1, 1), (3, 8), (12, 5), (9, 9), (6, 10)]
    for trial in range(40):
        nrows, ncols = shapes[trial % len(shapes)]
        rank_cap = rng.choice([None, 0, 1, 2, min(nrows, ncols) // 2])
        rows = _random_rows(rng, spec, nrows, ncols, rank_cap)
        for order in (rows, rng.sample(rows, len(rows))):
            want_rank, _, _ = _oracle_rref(order, spec)
            before = [row[:] for row in order]
            basis = _eliminate(iter(order), spec, ncols)
            assert order == before  # the caller's rows are not reduced in place
            assert len(basis) == want_rank
            for c, tail in basis.items():
                assert tail[0] == spec.one and len(tail) == ncols - c
            assert _null_vector(basis, spec, ncols) == _oracle_solution(order, spec, ncols)


def test_eliminate_wide_dense_matches_oracle():
    # the largest prime below 2^16 and dense rows: a slot takes up to ~50
    # updates of (p-1)^2 before it is reduced, close to the packed width bound
    spec = field_for_q(65521)
    rng = random.Random(3000)
    for ncols, rank_cap in ((48, 44), (56, 55)):
        gens = [[rng.randrange(1, spec.q) for _ in range(ncols)] for _ in range(rank_cap)]
        rows = [
            [sum(c * x for c, x in zip(coeffs, col)) % spec.p for col in zip(*gens)]
            for coeffs in ([rng.randrange(spec.q) for _ in gens] for _ in range(2 * ncols))
        ]
        want_rank, _, _ = _oracle_rref(rows, spec)
        basis = _eliminate(iter(rows), spec, ncols)
        assert len(basis) == want_rank == rank_cap
        assert _null_vector(basis, spec, ncols) == _oracle_solution(rows, spec, ncols)


@pytest.mark.parametrize("q", [256, 729, 2**16, 3**10])
def test_eliminate_wide_dense_extension_matches_oracle(q):
    # rows that combine dozens of generators are dense, so each elimination
    # step adds a multiple of every digit of the entry over a whole tail
    spec = field_for_q(q)
    rng = random.Random(3000 + q)
    for ncols, rank_cap in ((48, 44), (56, 55)):
        rows = _random_rows(rng, spec, 2 * ncols, ncols, rank_cap)
        want_rank, _, _ = _oracle_rref(rows, spec)
        basis = _eliminate(iter(rows), spec, ncols)
        assert len(basis) == want_rank == rank_cap
        assert _null_vector(basis, spec, ncols) == _oracle_solution(rows, spec, ncols)


def _assert_basis_matches_oracle(rows, spec, ncols):
    """The echelon basis has the oracle's pivots and spans the same rows."""
    rank, pivot_cols, reduced = _oracle_rref(rows, spec)
    basis = _eliminate(iter(rows), spec, ncols)
    assert sorted(basis) == pivot_cols
    echelon = [[0] * c + tail for c, tail in sorted(basis.items())]
    assert _oracle_rref(echelon, spec)[2] == reduced[:rank]
    return basis


def _slot_bits(ncols, p, m=1):
    return 8 * _width(_slot_type(ncols, p, m))


@pytest.mark.parametrize("code,width", [("B", 1), ("H", 2), ("I", 4), ("Q", 8)])
def test_codec_slots_are_little_endian_and_fixed_width(code, width):
    # slot 0 is the low bits and slot 1 starts 8 * width bits up, on any host
    assert _width(code) == width
    assert _pack(code, [1, 0]) == 1
    assert _pack(code, [0, 1]) == 1 << (8 * width)
    top = (1 << (8 * width)) - 1
    assert _pack(code, [top] * 3) == (1 << (24 * width)) - 1
    assert _unpack(code, _pack(code, [top] * 3), 3) == (top,) * 3


@pytest.mark.parametrize("p,ncols,bits", [
    (7, 910, 16), (7, 911, 32),  # 910 * 6^2 + 7 = 2^15 - 1 still leaves a spare top bit
    (61, 9, 16), (61, 10, 32),
    (257, 1, 32), (257, 32767, 32), (257, 32768, 64),
    (65521, 1, 64), (65521, 10**8, 64),  # the system guard's column cap needs 60 bits
])
def test_slot_width_rounds_need_up(p, ncols, bits):
    # need = bit_length(ncols * (p-1)^2 + p) + 1, rounded up to 16, 32 or 64
    assert _slot_bits(ncols, p) == bits


@pytest.mark.parametrize("p,m,ncols,bits", [
    (2, 2, 1, 8), (2, 8, 10**8, 8), (2, 9, 1, 16), (2, 16, 10**8, 16),  # a code per slot
    (3, 6, 1365, 16), (3, 6, 1366, 32),  # 1365 * 6 * 2^2 + 3 = 2^15 - 5
    (13, 2, 113, 16), (13, 2, 114, 32),  # 113 * 2 * 12^2 + 13 = 2^15 - 211
    (17, 2, 1, 16),
    (251, 2, 17179, 32), (251, 2, 17180, 64),
])
def test_extension_slot_width(p, m, ncols, bits):
    # in characteristic 2 a slot holds a code; for odd p each of a column's m
    # digit slots needs bit_length(ncols*m*(p-1)^2 + p) + 1 bits, rounded up
    # to 16, 32 or 64
    assert _slot_bits(ncols, p, m) == bits


@pytest.mark.parametrize("q,ncols,bits", [
    (256, 14, 8), (512, 14, 16), (2**16, 14, 16),
    (169, 113, 16), (169, 114, 32),
    (289, 14, 16), (289, 63, 16), (289, 64, 32),  # 63 * 2 * 16^2 + 17 = 2^15 - 495
])
def test_eliminate_extension_slot_widths_match_oracle(q, ncols, bits):
    spec = field_for_q(q)
    assert _slot_bits(ncols, spec.p, spec.m) == bits
    rng = random.Random(5000 + q + ncols)
    for nrows in (1, 9, 24):
        for rank_cap in (None, 1, 8):
            _assert_basis_matches_oracle(_random_rows(rng, spec, nrows, ncols, rank_cap), spec, ncols)


@pytest.mark.parametrize("q", [256, 2**16])
def test_eliminate_jumps_zero_slots_to_a_set_top_bit(q):
    # in characteristic 2 a slot is a whole code, so its top bit can be its
    # lowest set bit: a jump past zero slots must land on that slot, not on
    # the next one.  The second row becomes (0, 0, 0, 0, top, 1) after the
    # first pivot; the third has top alone in column 2.
    spec = field_for_q(q)
    top = q // 2
    rows = [[1, 0, 0, 0, 3, 1], [1, 0, 0, 0, top ^ 3, 0], [0, 0, top, 0, 0, 0]]
    basis = _assert_basis_matches_oracle(rows, spec, 6)
    assert sorted(basis) == [0, 2, 4]
    assert _assert_basis_matches_oracle([[0, 0, 0, top]], spec, 4) == {3: [1 << (spec.m - 1)]}


@pytest.mark.parametrize("q,bits", [(7, 16), (257, 32), (65521, 64)])
def test_eliminate_each_slot_width_matches_oracle(q, bits):
    spec = field_for_q(q)
    rng = random.Random(4000 + q)
    for ncols, nrows in ((1, 3), (5, 12), (9, 9), (14, 10)):
        assert _slot_bits(ncols, q) == bits
        for rank_cap in (None, 1, ncols // 2):
            _assert_basis_matches_oracle(_random_rows(rng, spec, nrows, ncols, rank_cap), spec, ncols)


def test_eliminate_jumps_zero_slots_to_a_high_set_bit():
    # 64-bit slots over F_65521: after the first pivot the second row is
    # zero in columns 1-3 and 128 + 65520 * 32776 = 2^31 in column 4, so
    # the step past the zero slot lands on bit 31 of a slot
    spec = field_for_q(65521)
    assert 128 + 65520 * 32776 == 2**31 and 2**31 % 65521
    rows = [[1, 0, 0, 0, 32776], [1, 0, 0, 0, 128], [0, 0, 1, 0, 0]]
    basis = _assert_basis_matches_oracle(rows, spec, 5)
    assert sorted(basis) == [0, 2, 4]


def test_eliminate_drops_a_slot_that_is_zero_mod_p(F7):
    # the second row's next slot becomes 1 + 6 * 1 = 7 in the first system
    # and, past a zero slot, 2 + 6 * 2 = 14 in the second: nonzero slots
    # that are 0 mod 7
    rows = [[1, 1, 0, 0], [1, 1, 1, 0]]
    assert sorted(_assert_basis_matches_oracle(rows, F7, 4)) == [0, 2]
    rows = [[1, 0, 2, 0], [1, 0, 2, 5]]
    assert sorted(_assert_basis_matches_oracle(rows, F7, 4)) == [0, 3]


def test_eliminate_slot_reaching_its_top_bit():
    # over F_61, 9 columns fit 16-bit slots and 12 need 32 bits.  Ten pivots
    # e_i + y_i * e_11 with sum(y_i) = 546, then a row of ten ones, a zero
    # and 8: its last slot ends at 8 + 60 * 546 = 2^15, the top bit of a
    # 16-bit slot, reached past a zero slot
    spec = field_for_q(61)
    assert (_slot_bits(9, 61), _slot_bits(12, 61)) == (16, 32)
    ys = [55] * 6 + [54] * 4
    assert 8 + 60 * sum(ys) == 2**15
    rows = [[int(j == i) for j in range(11)] + [y] for i, y in enumerate(ys)]
    rows.append([1] * 10 + [0, 8])
    assert sorted(_assert_basis_matches_oracle(rows, spec, 12)) == list(range(10)) + [11]


def _assert_solver_matches_oracle(prob):
    """Both entry points against the RREF of the system as posed."""
    system = build_system(prob)
    want = _oracle_solution(system.rows, prob.spec, len(system.cols))
    P = find_vanishing_poly(prob)
    assert nullspace_trivial(prob) == (want is None)
    if want is None:
        assert P is None
    else:
        assert P.terms == {e: c for e, c in zip(system.cols, want) if c}


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_find_vanishing_poly_matches_oracle(q):
    spec = field_for_q(q)
    rng = random.Random(2000 + q)
    for _ in range(12):
        n = rng.randint(1, 3)
        M = rng.randint(1, 2)
        points = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 5))}
        _assert_solver_matches_oracle(VanishProblem(spec, n, sorted(points), rng.randint(0, 4), M))


def _point_set(rng, q, n, kind):
    """A set with the origin; one without it whose lex-least point mixes
    zero and nonzero coordinates; one whose lex-least point has no zero
    coordinate ("nonzero"); or a single point."""
    if kind == "single":
        return [tuple(rng.randrange(q) for _ in range(n))]
    lowest = 0 if kind == "origin" else 1
    points = {tuple(rng.randrange(lowest, q) for _ in range(n))
              for _ in range(rng.randint(1, 5 - n))}
    if kind == "origin":
        points.add((0,) * n)
    elif kind == "no origin":
        points.discard((0,) * n)
        points.add((0,) * (n - 1) + (rng.randrange(1, q),))
    return sorted(points)


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_reduced_system_matches_oracle(q):
    # the solver drops the lex-least point's rows and the columns of degree
    # < M, and shifts its solution back; the oracle solves the system as
    # posed.  D runs from 0, so that M - 1 >= D leaves no column at all
    spec = field_for_q(q)
    rng = random.Random(6000 + q)
    for n in (1, 2, 3):
        for M in range(1, 5):
            for D in range(0, M + 3 - n // 2):
                for kind in ("origin", "no origin", "nonzero", "single"):
                    prob = VanishProblem(spec, n, _point_set(rng, q, n, kind), D, M)
                    _assert_solver_matches_oracle(prob)


def test_rows_after_full_rank_are_not_read(F5):
    prob = VanishProblem(F5, 2, [(a, b) for a in range(5) for b in range(5)], 2, 1)
    all_rows = build_system(prob).rows
    read = next(k for k in range(len(all_rows)) if _oracle_rref(all_rows[:k], F5)[0] == 6)
    rows = iter(all_rows)
    assert len(_eliminate(rows, F5, 6)) == 6
    assert list(rows) == all_rows[read:] and read < len(all_rows)


@pytest.mark.parametrize("q,k,rows,cols", [
    (5, 5, 221, 144), (3, 9, 150, 51), (4, 4, 72, 42), (8, 8, 2941, 1386),
])
def test_warmup_rows_read(monkeypatch, q, k, rows, cols):
    # the warmup set holds the origin: its rows and the columns of degree
    # < M are dropped (the system as posed is 328 x 210 and 253 x 171 read
    # at (5,5) and (3,9)), and each other point's orders are read from the
    # highest |beta| down, over F_4 and F_8 as over the prime fields
    seen = []

    def counting(rows_in, spec, ncols):
        read = [0]

        def counted():
            for row in rows_in:
                read[0] += 1
                yield row

        basis = _eliminate(counted(), spec, ncols)
        seen.append((read[0], ncols))
        return basis

    monkeypatch.setattr(vanish, "_eliminate", counting)
    assert check_warmup(q, k).verdict == "pass"
    assert seen == [(rows, cols)]


def test_guard_counts_the_system_as_posed(F5):
    # 14,520 x 7,381 entries as posed; the reduced system would be only
    # 7,260 x 121, but no input changes whether it is refused
    prob = VanishProblem(F5, 2, [(0, 0), (1, 2)], 120, 120)
    assert prob.constraint_count * prob.unknown_count > 10**8
    for solve in (nullspace_trivial, find_vanishing_poly):
        with pytest.raises(SizeGuard, match="14520 x 7381 system exceeds guard"):
            solve(prob)


def test_rref_rows_satisfied_by_solution(F5):
    rng = random.Random(33)
    for _ in range(30):
        points = {(rng.randrange(5), rng.randrange(5)) for _ in range(2)}
        prob = VanishProblem(F5, 2, sorted(points), 3, 1)
        system = build_system(prob)
        P = find_vanishing_poly(prob)
        assert P is not None
        for row, (pt, beta) in zip(system.rows, system.row_index):
            acc = 0
            for alpha, coeff in zip(system.cols, row):
                acc = F5.add(acc, F5.mul(coeff, P.terms.get(alpha, 0)))
            assert acc == 0


def test_extension_field_path(F9):
    prob = VanishProblem(F9, 2, [(0, 0), (1, 1), (2, 2)], 2, 1)
    P = find_vanishing_poly(prob)
    assert P is not None
    assert vanishes_with_mult(P, prob.points, 1).ok


def _reduced_rows_oracle(prob):
    """The rows `_echelon` solves, cut from `build_system`: the set moved by
    -a0 with a0 dropped, the columns of degree >= M, and each point's
    orders from the highest |beta| down (reverse degree-then-lex)."""
    spec, n, M = prob.spec, prob.arity, prob.mult
    moved = [tuple(map(spec.sub, pt, prob.points[0])) for pt in prob.points[1:]]
    system = build_system(VanishProblem(spec, n, moved, prob.max_degree, M))
    by_index = dict(zip(system.row_index, system.rows))
    keep = [j for j, alpha in enumerate(system.cols) if sum(alpha) >= M]
    return [[by_index[pt, beta][j] for j in keep]
            for pt in moved for beta in reversed(monomials_upto(n, M - 1))]


@pytest.mark.parametrize("q,n,D,M", [
    (3, 2, 4, 2), (3, 2, 3, 3), (3, 3, 3, 2), (3, 2, 3, 6),
    (4, 2, 4, 2), (7, 2, 3, 3), (7, 1, 2, 5), (9, 2, 4, 3),
    (2, 2, 4, 3), (2, 3, 3, 2), (5, 2, 0, 3), (4, 3, 0, 1),
    (256, 2, 5, 3), (729, 2, 4, 3), (27, 3, 4, 3),
    (27, 2, 6, 2), (5, 2, 5, 1), (7, 1, 6, 3),
])
def test_system_entries_match_binomial_oracle(q, n, D, M):
    # `_system_rows` against the entry-by-entry system of `build_system`;
    # over F_2, F_3 and F_27 with D >= p some binomials vanish mod p
    # (Lucas), and F_256, F_729 and F_27 fill rows from logs.  The set
    # mixes zero and nonzero coordinates, once with the origin and once
    # without it, so that the lex-least point moved to the origin does
    # too.  With M - 1 >= D the lex-least point's rows alone have full
    # rank, so no column is left and no row is built
    spec = field_for_q(q)
    rng = random.Random(q * 100 + D * 10 + M)
    for origin in (True, False):
        points = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)}
        points.add((0,) + tuple(rng.randrange(1, q) for _ in range(n - 1)))
        points.add(tuple(rng.randrange(1, q) for _ in range(n - 1)) + (0,))
        if origin:
            points.add((0,) * n)
        else:
            points.discard((0,) * n)
        prob = VanishProblem(spec, n, sorted(points), D, M)
        assert any(prob.points[0]) != origin
        if M - 1 >= D:
            a0_rows = VanishProblem(spec, n, prob.points[:1], D, M)
            assert _oracle_rref(build_system(a0_rows).rows, spec)[0] == math.comb(D + n, n)
            assert vanish._echelon(prob) == ([], {})
            continue
        rows = list(vanish._system_rows(prob, vanish._columns(prob)))
        assert len(rows) == (len(prob.points) - 1) * math.comb(M - 1 + n, n)
        assert rows == _reduced_rows_oracle(prob)


@pytest.mark.parametrize("q,D,M", [(5, 4, 2), (8, 3, 2), (9, 4, 3), (27, 1, 3)])
def test_build_system_shares_no_code_with_the_solvers(monkeypatch, q, D, M):
    # the oracle of `_system_rows` must not be built from it
    spec = field_for_q(q)
    prob = VanishProblem(spec, 2, [(0, 1), (1, 0), (2, 3)], D, M)
    want = build_system(prob)

    def refuse(*args):
        raise AssertionError("the solvers' row builder was called")

    monkeypatch.setattr(vanish, "_order_tables", refuse)
    monkeypatch.setattr(vanish, "_system_rows", refuse)
    if M - 1 < D:
        with pytest.raises(AssertionError, match="row builder"):
            nullspace_trivial(prob)
    assert build_system(prob) == want


@pytest.mark.parametrize("n,D,M", [(1, 2, 5), (2, 1, 4), (2, 0, 3), (3, 1, 3)])
def test_rows_above_degree_keep_their_order(F5, n, D, M):
    # orders |beta| > D have no table; their zero rows still follow each
    # point's lower orders, degree-then-lex
    points = [(0,) * n, (1,) * n, (2, 3, 4)[:n]]
    system = build_system(VanishProblem(F5, n, points, D, M))
    assert system.row_index == [(pt, beta) for pt in sorted(points)
                                for beta in monomials_upto(n, M - 1)]
    assert all(not any(row) for (_, beta), row in zip(system.row_index, system.rows)
               if sum(beta) > D)

