"""Planar Kakeya sets: a known exact answer for the union search and the
vanishing system.

The least Kakeya set in F_q^2 has q(q+1)/2 points for even q and
q(q+1)/2 + (q-1)/2 for odd q (Blokhuis and Mazzocca, 2008); q(q+1)/2 =
q + (q-1) + ... + 1 bounds any union of q+1 lines that meet pairwise in at
most one point.  Each of the q+1 directions is a level holding its q
parallel lines; translating the whole set keeps its size, so the first
direction is cut to one line.  By Dvir's argument no nonzero polynomial
of degree <= q-1 vanishes on a Kakeya set, while x^q - x, of degree q,
vanishes everywhere.
"""

import pytest

from ffkakeya import kernels
from ffkakeya.ffield import field_for_q
from ffkakeya.vanish import VanishProblem, nullspace_trivial


def _direction_levels(spec):
    """Per direction, {line mask: line's points}; the first keeps one line.

    Direction (0, 1) has the lines x = b, direction (1, s) the lines
    y = s*x + b; a point (x, y) has bit x*q + y.
    """
    q = spec.q
    levels = [{(1 << q) - 1: tuple((0, y) for y in range(q))}]  # x = 0 alone
    for s in range(q):
        level = {}
        for b in range(q):
            line = tuple((x, spec.add(spec.mul(s, x), b)) for x in range(q))
            level[sum(1 << (x * q + y) for x, y in line)] = line
        levels.append(level)
    return levels


@pytest.mark.parametrize("q,least", [(2, 3), (3, 7), (4, 10), (5, 17), (7, 31), (8, 36)])
def test_planar_kakeya_minimum_and_dvir_bound(q, least):
    assert least == q * (q + 1) // 2 + ((q - 1) // 2 if q % 2 else 0)
    spec = field_for_q(q)
    levels = _direction_levels(spec)
    assert all(len(level) == q for level in levels[1:])
    size, lines = kernels.min_union(levels)
    assert size == least
    kakeya = sorted({pt for line in lines for pt in line})
    assert len(kakeya) == least
    assert nullspace_trivial(VanishProblem(spec, 2, kakeya, q - 1, 1))
    assert not nullspace_trivial(VanishProblem(spec, 2, kakeya, q, 1))
