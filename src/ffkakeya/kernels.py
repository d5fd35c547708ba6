"""Backend selection: the compiled kernel when built, pure Python otherwise.

The compiled `min_union` is limited to 64-bit masks; wider masks always
route to the pure implementation (arbitrary-precision ints).
"""

from __future__ import annotations

from . import _kernels_py as pure

try:
    from . import _kernels as compiled  # built from _kernels.pyx

    HAVE_COMPILED = True
except ImportError:  # pragma: no cover - depends on build environment
    compiled = None
    HAVE_COMPILED = False

BACKEND = "compiled" if HAVE_COMPILED else "python"


def min_union(options, nbits):
    if HAVE_COMPILED and nbits <= 64:
        return compiled.min_union(options)
    return pure.min_union(options)
