import itertools
import random

import pytest

from ffkakeya import kernels


def _oracle(levels):
    """Every choice, in lex order; the first of least union popcount wins."""
    best = None
    for choice in itertools.product(*(level.items() for level in levels)):
        union = 0
        for mask, _ in choice:
            union |= mask
        if best is None or union.bit_count() < best[0]:
            best = (union.bit_count(), [option for _, option in choice])
    return best


def _levels(masks):
    """Per level, {mask: index of its first occurrence}."""
    levels = []
    for level in masks:
        first = {}
        for i, mask in enumerate(level):
            first.setdefault(mask, i)
        levels.append(first)
    return levels


def test_min_union_known_case():
    levels = [{0b0011: "a", 0b0110: "b"}, {0b0100: "c", 0b1000: "d"}]
    # 0b0110 | 0b0100 = 0b0110: two points suffice
    assert kernels.min_union(levels) == (2, ["b", "c"])
    assert kernels.min_union(levels) == _oracle(levels)


def test_min_union_lex_least_witness():
    # two optimal selections; the one earlier in each level's order must win
    levels = [{0b01: 0, 0b10: 1}, {0b01: 0, 0b10: 1}]
    assert kernels.min_union(levels) == (1, [0, 0])
    assert kernels.min_union(levels) == _oracle(levels)


@pytest.mark.parametrize("width", [1, 5, 20, 64, 65, 100])
def test_min_union_matches_oracle(width):
    # widths past 64 bits keep masks wider than a machine word covered
    rng = random.Random(width)
    for _ in range(30):
        levels = _levels([
            [rng.getrandbits(width) | 1 << rng.randrange(width) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 4))
        ])
        assert kernels.min_union(levels) == _oracle(levels)
