"""Fuzz the integer flags of `bound`, `min-search`, `vanish` and `replay`,
and the integers of a `replay --check derivs-zero` params file: whatever
their values, the CLI exits 0, or exits 2 with one line on stderr, never a
traceback.  Only a `replay` verdict may exit 1."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffkakeya.brkset import PointSet
from ffkakeya.cli import main
from ffkakeya.ffield import field_for_q
from ffkakeya.mpoly import SparsePoly, poly_to_json

# small values reach the checks past the first one; q = 5, n = 2 and
# ell = 2 match the g file, so some searches run to the end
INTS = st.integers(-3, 12) | st.integers(-(10**9), 10**9)
Q = st.just(5) | INTS
N = st.just(2) | INTS
ELL = st.just(2) | INTS

# vanish and replay guard sizes, not time: their values between these two
# ranges pass the guards and build legal problems that take seconds to
# minutes, so the fuzz sticks to values that run at once or are refused at once
SMALL_OR_HUGE = st.integers(-3, 6) | st.integers(10**9, 10**12) | st.integers(-(10**12), -4)

# derandomized, so every run of the suite tries the same flags
FUZZ = settings(max_examples=200, deadline=2000, derandomize=True)


@pytest.fixture(scope="module")
def g_file(tmp_path_factory):
    spec = field_for_q(5)
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(poly_to_json(SparsePoly(spec, 1, {(2,): spec.one}))))
    return str(path)


@pytest.fixture(scope="module")
def set_file(tmp_path_factory):
    # five points of F_4^2, so `vanish` runs the extension-field elimination
    spec = field_for_q(4)
    points = frozenset({(0, 0), (1, 2), (2, 3), (3, 1), (3, 3)})
    path = tmp_path_factory.mktemp("fuzz") / "set.json"
    path.write_text(json.dumps(PointSet(spec, 2, points).to_json()))
    return str(path)


@pytest.fixture(scope="module")
def f_file(tmp_path_factory):
    # f = s^2 with a bare-integer coefficient, which reads as one in any field
    path = tmp_path_factory.mktemp("fuzz") / "params.json"
    path.write_text(json.dumps({"f": poly_to_json(SparsePoly(field_for_q(5), 1, {(2,): 1}))}))
    return str(path)


def _exit_0_or_one_line(argv, verdict=False):
    """Exit 0 with output, or 2 with one `error:` line; with `verdict`, also
    exit 1 with a failing certificate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    elif code == 1 and verdict:
        assert json.loads(out.getvalue())["verdict"] == "fail" and not err.getvalue()
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


def _flags(base, changes):
    """Command-line flags: `base` with `changes` applied, in base order."""
    return [x for flag, value in {**base, **changes}.items() for x in (flag, str(value))]


# each example changes a subset of the flags of a run that succeeds
@FUZZ
@given(changes=st.dictionaries(st.sampled_from(["--degree", "--mult"]), SMALL_OR_HUGE))
@example(changes={"--degree": 10**9, "--mult": 1})
@example(changes={"--degree": 1, "--mult": 10**9})
def test_vanish_flags(set_file, changes):
    _exit_0_or_one_line(["vanish", "--set", set_file,
                         *_flags({"--degree": 3, "--mult": 2}, changes)])


def test_vanish_high_mult_over_degree_zero_answers_at_once(set_file, capsys):
    # 46 million rows, every order above 0 giving a zero row: the first row
    # already makes the one-column rank full, so the rest are never built
    start = time.perf_counter()
    assert main(["vanish", "--set", set_file, "--degree", "0", "--mult", "4300"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "none\n"


@FUZZ
@given(check=st.sampled_from(["warmup", "key-lemma", "proposition"]), seed=INTS,
       changes=st.dictionaries(st.sampled_from(["--q", "--n", "--k", "--trials"]),
                               SMALL_OR_HUGE))
@example(check="key-lemma", seed=0, changes={"--trials": 10**12})
@example(check="proposition", seed=0, changes={"--trials": 10**12})
@example(check="key-lemma", seed=0, changes={"--n": 1938763})
def test_replay_flags(f_file, check, seed, changes):
    _exit_0_or_one_line(["--seed", str(seed), "replay", "--check", check, "--params", f_file,
                         *_flags({"--q": 5, "--n": 2, "--k": 1, "--trials": 3}, changes)],
                        verdict=True)


@pytest.fixture(scope="module")
def derivs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# (x2 - x1^2)^2 over F_7 on the parabola a + rho*(s, s^2): the base
# parameters pass, and each example changes a subset of them
@FUZZ
@given(changes=st.fixed_dictionaries({}, optional={
    "k": SMALL_OR_HUGE, "D": SMALL_OR_HUGE, "M": SMALL_OR_HUGE, "rho": SMALL_OR_HUGE,
    "a": st.lists(SMALL_OR_HUGE, max_size=3),
}))
@example(changes={"k": 10**9})
@example(changes={"D": 10**9, "M": 10**9})
@example(changes={"rho": 0, "a": [3, 5]})
def test_replay_derivs_zero_params(derivs_dir, changes):
    spec = field_for_q(7)
    par = SparsePoly.from_int_terms(spec, 2, {(0, 1): 1, (2, 0): -1})
    values = {"k": 2, "D": 4, "M": 2, "rho": 1, "a": [0, 0], **changes}
    doc = {"field": spec.to_json(), "P": poly_to_json(par * par),
           "g": poly_to_json(SparsePoly(spec, 1, {(2,): spec.one})),
           "a": values["a"], "rho": values["rho"],
           "params": {key: values[key] for key in ("k", "D", "M")}}
    path = derivs_dir / "derivs.json"
    path.write_text(json.dumps(doc))
    _exit_0_or_one_line(["replay", "--check", "derivs-zero", "--params", str(path)],
                        verdict=True)
