import math
import random

import pytest

from ffkakeya.errors import SizeGuard
from ffkakeya.ffield import field_for_q, make_field
from ffkakeya.multiplicity import vanishes_with_mult
from ffkakeya.vanish import (
    VanishProblem,
    _eliminate,
    _null_vector,
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


ORACLE_FIELDS = [2, 3, 4, 5, 7, 9, 25]


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


def test_single_point_row(F2):
    prob = VanishProblem(F2, 2, [(1, 1)], 1, 1)
    system = build_system(prob)
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
            basis = _eliminate(iter(order), spec, ncols)
            assert len(basis) == want_rank
            for c, tail in basis.items():
                assert tail[0] == spec.one and len(tail) == ncols - c
            assert _null_vector(basis, spec, ncols) == _oracle_solution(order, spec, ncols)


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_find_vanishing_poly_matches_oracle(q):
    spec = field_for_q(q)
    rng = random.Random(2000 + q)
    for _ in range(12):
        n = rng.randint(1, 3)
        M = rng.randint(1, 2)
        points = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 5))}
        prob = VanishProblem(spec, n, sorted(points), rng.randint(0, 4), M)
        system = build_system(prob)
        want = _oracle_solution(system.rows, spec, len(system.cols))
        P = find_vanishing_poly(prob)
        assert nullspace_trivial(prob) == (want is None)
        if want is None:
            assert P is None
        else:
            assert P.terms == {e: c for e, c in zip(system.cols, want) if c}


def test_rows_after_full_rank_are_not_read(F5):
    prob = VanishProblem(F5, 2, [(a, b) for a in range(5) for b in range(5)], 2, 1)
    all_rows = build_system(prob).rows
    read = next(k for k in range(len(all_rows)) if _oracle_rref(all_rows[:k], F5)[0] == 6)
    rows = iter(all_rows)
    assert len(_eliminate(rows, F5, 6)) == 6
    assert list(rows) == all_rows[read:] and read < len(all_rows)


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


def test_system_json_dump(F3):
    system = build_system(VanishProblem(F3, 2, [(1, 2)], 1, 1))
    doc = system.to_json()
    assert doc["cols"] == [[0, 0], [0, 1], [1, 0]]
    assert len(doc["rows"]) == 1
