"""The minimum-union search behind `min-search` exhaustive mode.

`perfbench/run.py` records `BACKEND` with every result and
`perfbench/tracing.py` spans `kernels.min_union`, so both names are kept.
"""

from __future__ import annotations

BACKEND = "python"


def min_union(options):
    """Minimum-popcount union over one mask choice per level.

    `options` is a list (one entry per level) of nonempty lists of int
    bitmasks.  Returns (min_size, indices) where indices is the lex-least
    choice achieving the minimum.  Branches whose partial union already
    matches the best size are pruned (unions only grow).
    """
    depth = len(options)
    best_size = None
    best_idx = None
    idx = [0] * depth

    def walk(level, acc):
        nonlocal best_size, best_idx
        if best_size is not None and acc.bit_count() >= best_size:
            return
        if level == depth:
            best_size = acc.bit_count()
            best_idx = tuple(idx)
            return
        for i, mask in enumerate(options[level]):
            idx[level] = i
            walk(level + 1, acc | mask)

    walk(0, 0)
    return best_size, best_idx
