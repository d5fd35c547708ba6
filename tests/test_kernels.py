import itertools
import random

import pytest

from ffkakeya import kernels


def _oracle(options):
    """Every choice, in lex order; the first of least union popcount wins."""
    best = None
    for idx in itertools.product(*(range(len(level)) for level in options)):
        union = 0
        for level, i in zip(options, idx):
            union |= level[i]
        if best is None or union.bit_count() < best[0]:
            best = (union.bit_count(), idx)
    return best


def test_min_union_known_case():
    options = [[0b0011, 0b0110], [0b0100, 0b1000]]
    size, idx = kernels.min_union(options)
    # 0b0110 | 0b0100 = 0b0110: two points suffice
    assert size == 2
    assert (options[0][idx[0]] | options[1][idx[1]]).bit_count() == 2
    assert (size, idx) == _oracle(options)


def test_min_union_lex_least_witness():
    # two optimal selections; the lex-smaller index tuple must win
    options = [[0b01, 0b10], [0b01, 0b10]]
    size, idx = kernels.min_union(options)
    assert size == 1
    assert tuple(idx) == (0, 0)
    assert (size, idx) == _oracle(options)


@pytest.mark.parametrize("width", [1, 5, 20, 64, 65, 100])
def test_min_union_matches_oracle(width):
    # widths past 64 bits keep masks wider than a machine word covered
    rng = random.Random(width)
    for _ in range(30):
        options = [
            [rng.getrandbits(width) | 1 << rng.randrange(width) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 4))
        ]
        assert kernels.min_union(options) == _oracle(options)
