"""Compare the compiled min_union kernel with the pure-Python fallback.

Run:  python3 benchmarks/bench_kernels.py
"""

import random
import statistics
import time

from ffkakeya import _kernels_py, kernels


def _time(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples), statistics.median(samples)


def bench_min_union():
    rng = random.Random(2)
    print("min_union (9-bit universe)")
    for groups, per_group in [(3, 81), (4, 60), (5, 40)]:
        options = [
            [rng.getrandbits(9) | (1 << rng.randrange(9)) for _ in range(per_group)]
            for _ in range(groups)
        ]
        label = f"{per_group}^{groups}"
        compiled = None
        if kernels.HAVE_COMPILED:
            compiled, _ = _time(lambda: kernels.compiled.min_union(options), repeats=3)
        pure, _ = _time(lambda: _kernels_py.min_union(options), repeats=3)
        if compiled is not None:
            print(f"  {label:>9}: compiled {compiled * 1e3:8.2f} ms"
                  f"   pure {pure * 1e3:8.2f} ms   speedup {pure / compiled:5.1f}x")
        else:
            print(f"  {label:>9}: pure {pure * 1e3:8.2f} ms (no compiled backend)")


if __name__ == "__main__":
    print(f"active backend: {kernels.BACKEND}")
    bench_min_union()
