# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel: the minimum-union configuration search.

Its contract matches `_kernels_py`; the selection layer in `kernels.py`
falls back to the pure version when this module is not built or when
masks do not fit in 64 bits.
"""

from libc.stdlib cimport free, malloc


def min_union(options):
    """Minimum-popcount union, one mask per level; masks must fit in 64 bits."""
    cdef Py_ssize_t depth = len(options)
    cdef Py_ssize_t level, i, total = 0
    cdef unsigned long long acc
    cdef int best_size = -1, size
    cdef Py_ssize_t *counts
    cdef Py_ssize_t *offsets
    cdef Py_ssize_t *idx
    cdef Py_ssize_t *best_idx
    cdef unsigned long long *masks
    cdef unsigned long long *partial

    if depth == 0:
        return 0, ()
    for level in range(depth):
        total += len(options[level])
    counts = <Py_ssize_t *> malloc(depth * sizeof(Py_ssize_t))
    offsets = <Py_ssize_t *> malloc(depth * sizeof(Py_ssize_t))
    idx = <Py_ssize_t *> malloc(depth * sizeof(Py_ssize_t))
    best_idx = <Py_ssize_t *> malloc(depth * sizeof(Py_ssize_t))
    masks = <unsigned long long *> malloc(total * sizeof(unsigned long long))
    partial = <unsigned long long *> malloc((depth + 1) * sizeof(unsigned long long))
    if not (counts and offsets and idx and best_idx and masks and partial):
        free(counts); free(offsets); free(idx); free(best_idx); free(masks); free(partial)
        raise MemoryError()
    try:
        i = 0
        for level in range(depth):
            offsets[level] = i
            counts[level] = len(options[level])
            for mask in options[level]:
                masks[i] = mask
                i += 1
        partial[0] = 0
        level = 0
        idx[0] = 0
        while level >= 0:
            if idx[level] >= counts[level]:
                level -= 1
                if level >= 0:
                    idx[level] += 1
                continue
            acc = partial[level] | masks[offsets[level] + idx[level]]
            size = _popcount(acc)
            if best_size >= 0 and size >= best_size:
                idx[level] += 1
                continue
            if level == depth - 1:
                best_size = size
                for i in range(depth):
                    best_idx[i] = idx[i]
                idx[level] += 1
            else:
                partial[level + 1] = acc
                level += 1
                idx[level] = 0
        return best_size, tuple(best_idx[i] for i in range(depth))
    finally:
        free(counts); free(offsets); free(idx); free(best_idx); free(masks); free(partial)


cdef inline int _popcount(unsigned long long x):
    cdef int c = 0
    while x:
        x &= x - 1
        c += 1
    return c
