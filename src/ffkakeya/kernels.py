"""The minimum-union search behind `min-search` exhaustive mode.

`perfbench/run.py` records `BACKEND` with every result and
`perfbench/tracing.py` spans `kernels.min_union`, so both names are kept.
"""

from __future__ import annotations

BACKEND = "python"


def min_union(levels):
    """Minimum-popcount union over one mask choice per level.

    `levels` is a list of nonempty dicts {int bitmask: first option}, one
    per level, each in option order.  Returns (min_size, first) where first
    holds the option of each level's chosen mask, for the lex-least choice
    (by position in each dict) achieving the minimum.  Branches whose
    partial union already matches the best size are pruned (unions only
    grow).
    """
    depth = len(levels)
    best_size = None
    best_first = None
    first = [None] * depth

    def walk(level, acc):
        nonlocal best_size, best_first
        if best_size is not None and acc.bit_count() >= best_size:
            return
        if level == depth:
            best_size = acc.bit_count()
            best_first = list(first)
            return
        for mask, option in levels[level].items():
            first[level] = option
            walk(level + 1, acc | mask)

    walk(0, 0)
    return best_size, best_first
