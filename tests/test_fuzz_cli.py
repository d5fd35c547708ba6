"""Fuzz the integer flags of `bound` and `min-search`: whatever their values,
the CLI exits 0, or exits 2 with one line on stderr, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffkakeya.cli import main
from ffkakeya.ffield import field_for_q
from ffkakeya.mpoly import SparsePoly, poly_to_json

# small values reach the checks past the first one; q = 5, n = 2 and
# ell = 2 match the g file, so some searches run to the end
INTS = st.integers(-3, 12) | st.integers(-(10**9), 10**9)
Q = st.just(5) | INTS
N = st.just(2) | INTS
ELL = st.just(2) | INTS

# derandomized, so every run of the suite tries the same flags
FUZZ = settings(max_examples=200, deadline=2000, derandomize=True)


@pytest.fixture(scope="module")
def g_file(tmp_path_factory):
    spec = field_for_q(5)
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(poly_to_json(SparsePoly(spec, 1, {(2,): spec.one}))))
    return str(path)


def _exit_0_or_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@FUZZ
@given(q=Q, n=N, ell=ELL, seed=INTS)
@example(q=5, n=10**9, ell=2, seed=0)
@example(q=999999937, n=2, ell=2, seed=0)
def test_bound_flags(q, n, ell, seed):
    _exit_0_or_one_line(["--seed", str(seed), "bound", "--q", str(q), "--n", str(n),
                         "--ell", str(ell)])


@FUZZ
@given(q=Q, n=N, ell=ELL, seed=INTS, mode=st.sampled_from(["exhaustive", "greedy"]))
@example(q=5, n=2, ell=2, seed=10**9, mode="greedy")
@example(q=5, n=300000, ell=2, seed=0, mode="greedy")
def test_min_search_flags(g_file, q, n, ell, seed, mode):
    _exit_0_or_one_line(["--seed", str(seed), "min-search", "--q", str(q), "--n", str(n),
                         "--ell", str(ell), "--g", g_file, "--mode", mode])
