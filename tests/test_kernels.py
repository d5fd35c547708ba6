import random

from ffkakeya import _kernels_py, kernels


def test_backend_reported():
    assert kernels.BACKEND in ("compiled", "python")
    assert kernels.HAVE_COMPILED == (kernels.BACKEND == "compiled")


def test_min_union_known_case():
    options = [[0b0011, 0b0110], [0b0100, 0b1000]]
    size, idx = kernels.min_union(options, 4)
    # 0b0110 | 0b0100 = 0b0110: two points suffice
    assert size == 2
    assert (options[0][idx[0]] | options[1][idx[1]]).bit_count() == 2


def test_min_union_dispatch_matches_pure():
    rng = random.Random(42)
    for _ in range(50):
        nbits = rng.randint(1, 20)
        groups = rng.randint(1, 4)
        options = [
            [rng.getrandbits(nbits) | 1 for _ in range(rng.randint(1, 5))]
            for _ in range(groups)
        ]
        assert kernels.min_union(options, nbits) == _kernels_py.min_union(options)


def test_min_union_wide_masks_fall_back_to_python():
    # > 64 bits forces the pure path regardless of backend
    rng = random.Random(43)
    options = [[rng.getrandbits(100) | (1 << 99) for _ in range(3)] for _ in range(3)]
    size, idx = kernels.min_union(options, 100)
    assert size == _kernels_py.min_union(options)[0]


def test_min_union_lex_least_witness():
    # two optimal selections; the lex-smaller index tuple must win
    options = [[0b01, 0b10], [0b01, 0b10]]
    size, idx = kernels.min_union(options, 2)
    assert size == 1
    assert tuple(idx) == (0, 0)
