"""Pure-Python reference kernel for the minimum-union search.

Same contract as the compiled version in `_kernels.pyx`; this is the
fallback selected at import time when the extension is unavailable, and
the baseline for the kernel benchmark.
"""

from __future__ import annotations


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
