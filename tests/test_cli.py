import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ffkakeya
from ffkakeya import selftest
from ffkakeya.brkset import BrkInstance, PerRho, PointSet, generate_set
from ffkakeya.cli import main
from ffkakeya.ffield import field_for_q, make_field
from ffkakeya.mpoly import SparsePoly, poly_to_json


@pytest.fixture()
def square_instance_file(tmp_path, F5):
    g = SparsePoly(F5, 1, {(2,): F5.one})
    zero = SparsePoly.zero(F5, 1)
    inst = BrkInstance(F5, 2, 2, g, {r: PerRho((0, 0), zero) for r in range(5)})
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_json()))
    return str(path), inst


def test_bound_q5(capsys):
    assert main(["bound", "--q", "5", "--n", "2", "--ell", "2"]) == 0
    assert capsys.readouterr().out.strip() == "400/121 (ceil 4)"


def test_bound_ell_out_of_range(capsys):
    assert main(["bound", "--q", "3", "--n", "2", "--ell", "3"]) == 2
    assert "EllOutOfRange" in capsys.readouterr().err


def test_bound_non_prime_power(capsys):
    assert main(["bound", "--q", "6", "--n", "2", "--ell", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NonPrime: q = 6 is not a prime power\n"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_build_then_verify_round_trip(tmp_path, square_instance_file):
    inst_path, inst = square_instance_file
    out = tmp_path / "set.json"
    assert main(["--out", str(out), "build-set", "--instance", inst_path]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["points"]) == len(generate_set(inst))
    assert main(["verify-set", "--set", str(out), "--instance", inst_path]) == 0


def test_verify_set_failure_exit_1(tmp_path, square_instance_file, capsys):
    inst_path, inst = square_instance_file
    S = generate_set(inst)
    doc = S.to_json()
    doc["points"] = doc["points"][1:]
    bad = tmp_path / "bad_set.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify-set", "--set", str(bad), "--instance", inst_path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and "missing" in out


@pytest.mark.parametrize("command", ["build-set", "verify-set"])
def test_build_and_verify_set_refuse_huge_space_at_once(tmp_path, capsys, command):
    # F_7^10 has 7^10 points: refused from q and n, before any surface is built
    spec, n = field_for_q(7), 10
    g = SparsePoly(spec, n - 1, {(2,) + (0,) * (n - 2): spec.one})
    zero = SparsePoly.zero(spec, n - 1)
    inst = BrkInstance(spec, n, 2, g, {r: PerRho((0,) * n, zero) for r in range(7)})
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(inst.to_json()))
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(PointSet(spec, n, frozenset([(0,) * n])).to_json()))
    args = {"build-set": ["build-set"], "verify-set": ["verify-set", "--set", str(set_path)]}
    start = time.perf_counter()
    assert main(args[command] + ["--instance", str(inst_path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SizeGuard: 7^10 points of F_q^n exceed the surface guard\n"


def test_vanish_finds_parabola(tmp_path, square_instance_file, capsys):
    inst_path, inst = square_instance_file
    S = generate_set(inst)
    spath = tmp_path / "set.json"
    spath.write_text(json.dumps(S.to_json()))
    assert main(["vanish", "--set", str(spath), "--degree", "4", "--mult", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"]


def test_vanish_none(tmp_path, F5, capsys):
    from ffkakeya.brkset import PointSet

    pts = PointSet(F5, 2, frozenset((a, b) for a in range(5) for b in range(5)))
    spath = tmp_path / "grid.json"
    spath.write_text(json.dumps(pts.to_json()))
    assert main(["vanish", "--set", str(spath), "--degree", "2", "--mult", "1"]) == 0
    assert capsys.readouterr().out.strip() == "none"
    # with --out, `none` goes where the JSON would, replacing a stale file
    out = tmp_path / "out.json"
    out.write_text('{"stale": true}\n')
    assert main(["--out", str(out), "vanish", "--set", str(spath), "--degree", "2",
                 "--mult", "1"]) == 0
    assert out.read_text() == "none\n"
    assert capsys.readouterr().out == ""


def test_min_search_exhaustive_q3(tmp_path, F3, capsys):
    g = SparsePoly(F3, 1, {(2,): F3.one})
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(poly_to_json(g)))
    assert main(["min-search", "--q", "3", "--n", "2", "--ell", "2",
                 "--g", str(gpath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_size"] == 4
    assert doc["configurations"] == 81**3


def _g_file(tmp_path, q, ell):
    spec = field_for_q(q)
    path = tmp_path / f"g_q{q}_ell{ell}.json"
    path.write_text(json.dumps(poly_to_json(SparsePoly(spec, 1, {(ell,): spec.one}))))
    return str(path)


@pytest.mark.parametrize("q,ell,mode,digest", [
    (3, 2, "exhaustive", "261aec75b813448ce97e08fd1aad28113b2aaa3528c767b7beaeeb0af29c164a"),
    (5, 2, "greedy", "7df6134b65bb723b90f9c00ae361ba5db2577732f759fd416b62fd52fe57d37c"),
    (7, 2, "greedy", "69a9a4dd5b24c2c74159cbf833571b834670c64ac77182bd15f0fba32ec57177"),
    (9, 2, "greedy", "823943fe4c1af0f34f1d38aac0c2ecb77afc868fef315c2b6456826b0697227c"),
    (4, 3, "greedy", "ca1f2c17532d7e68eddc8575e588195872ab4c1514751015cd0a6c8b3eb21e70"),
    # characteristic 2
    (4, 2, "greedy", "fb0b54d18526188b59c1230914b0ae9601f33b4f2d71e2516b41376f40b0754c"),
    (8, 2, "greedy", "ce8ce39015a4cff6ce10a612afaecb70d49f461f9385874ed297864d6a7c3477"),
    # extension fields: rho scales through the exp/log tables
    (16, 2, "greedy", "13d7680b85bd39432fd1b47dee754da2e82e41bae701b616e668301f2d4958b1"),
    (25, 2, "greedy", "f0cd006d39022a2d772c96ad5ba46ad6f78f31ef040fa5738e5b6c254dd54c3f"),
    (27, 2, "greedy", "67064664bc267a6378c6be3cd4101459ea2873d22747a826d511935f2ee1504a"),
    (8, 3, "greedy", "e971c552e1f0d920c40166442aec59f67a8a346bcab7e9e626da52873f4eb1ad"),
])
def test_min_search_output_pinned(tmp_path, q, ell, mode, digest):
    # SHA-256 of the min-search JSON at seed 0: the witness rule (first
    # option of each surface, lex-least optimum / first strict improvement)
    # and the whole output format show here
    out = tmp_path / "out.json"
    assert main(["--out", str(out), "--seed", "0", "min-search", "--q", str(q), "--n", "2",
                 "--ell", str(ell), "--g", _g_file(tmp_path, q, ell), "--mode", mode]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("q,g_terms,digest", [
    (3, {(2, 0): 1, (0, 2): 1}, "5330def71447d67dd96b2fe1bc12af35aa28b258f7e9e2ed9c6b40dc056d753f"),
    # characteristic 2, mixed top form xy
    (4, {(1, 1): 1}, "b869e45035a2f51146fba4cf4071d225c33f4514de3f70a7489b0a33a5c07bec"),
])
def test_min_search_output_pinned_n3(tmp_path, q, g_terms, digest):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(poly_to_json(SparsePoly.from_int_terms(field_for_q(q), 2, g_terms))))
    out = tmp_path / "out.json"
    assert main(["--out", str(out), "--seed", "0", "min-search", "--q", str(q), "--n", "3",
                 "--ell", "2", "--g", str(gpath), "--mode", "greedy"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("ell,mode,message", [
    (2, "greedy", "SizeGuard: 65520 x 65521^3 surface points exceed the greedy guard"),
    (65520, "greedy", "SizeGuard: 65520 x 65521^65521 surface points exceed the greedy guard"),
    (65520, "exhaustive", "SearchSpaceTooLarge: 65521^4293066962 configurations exceed the "
                          "exhaustive guard; use greedy"),
])
def test_min_search_guards_refuse_at_once(tmp_path, capsys, ell, mode, message):
    # checked from counts: no point, lower part or mask is built
    g = _g_file(tmp_path, 65521, ell)
    start = time.perf_counter()
    assert main(["min-search", "--q", "65521", "--n", "2", "--ell", str(ell), "--g", g,
                 "--mode", mode]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _stdouts_under_hash_seeds(args, python_args=("-m", "ffkakeya.cli")):
    """stdout of `python <python_args> <args>` (by default `ffkakeya <args>`) in
    fresh processes with PYTHONHASHSEED 1 and 2."""
    src = os.path.dirname(os.path.dirname(ffkakeya.__file__))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, *python_args, *args], env=env,
                                   capture_output=True, check=True).stdout)
    return outs


@pytest.mark.parametrize("q,mode", [(5, "greedy"), (3, "exhaustive")])
def test_min_search_deterministic_across_processes(tmp_path, q, mode):
    outs = _stdouts_under_hash_seeds(["--seed", "4", "min-search", "--q", str(q), "--n", "2",
                                      "--ell", "2", "--g", _g_file(tmp_path, q, 2),
                                      "--mode", mode])
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["mode"] == mode


def _random_set_file(tmp_path, q, count):
    """`count` seeded random points of F_q^2, written as a point-set document."""
    rng = random.Random(q)
    points = set()
    while len(points) < count:
        points.add((rng.randrange(q), rng.randrange(q)))
    path = tmp_path / f"set_q{q}.json"
    path.write_text(json.dumps(PointSet(field_for_q(q), 2, frozenset(points)).to_json()))
    return str(path)


@pytest.mark.parametrize("args", [
    ["vanish", "--degree", "10", "--mult", "2"],
    ["replay", "--check", "warmup", "--q", "3", "--k", "3"],
    ["--seed", "2", "replay", "--check", "key-lemma", "--q", "5", "--n", "2", "--k", "2",
     "--trials", "25"],
], ids=["vanish-q256", "warmup", "key-lemma"])
def test_deterministic_across_processes(tmp_path, args):
    if args[0] == "vanish":
        args = args + ["--set", _random_set_file(tmp_path, 256, 16)]
    outs = _stdouts_under_hash_seeds(args)
    assert outs[0] == outs[1]
    assert outs[0].strip() != b"none"


_PRINT_SELFTEST_CERTIFICATES = (
    "import sys\n"
    "from ffkakeya import selftest\n"
    "for _, runner in selftest.RUNNERS:\n"
    "    sys.stdout.buffer.write(runner(int(sys.argv[1])).to_json_bytes() + b'\\n')\n"
)


def test_selftest_certificates_deterministic_across_processes():
    # the CLI prints only "selftest: pass", so compare the certificates themselves
    outs = _stdouts_under_hash_seeds(["1"], python_args=("-c", _PRINT_SELFTEST_CERTIFICATES))
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert len(lines) == 11
    assert all(json.loads(line)["verdict"] == "pass" for line in lines)
    # SHA-256 of all 11 seed-1 certificates, so any change in their bytes shows
    assert hashlib.sha256(outs[0]).hexdigest() == \
        "51c498acacaaed5404adc4283fcbb63da0bb19526442f086dbe884055b25d732"


@pytest.mark.parametrize("seed,digest", [
    (0, "a7cc6f292e84c27dbf8605d98a8ab5a95735fc96e8503c3deaef73eaa472c5bf"),
    (5, "8288a087a6b0d852e413b3f66b5c0765172b49e39804c1c9f2690538e72cf665"),
], ids=["seed0", "seed5"])
def test_selftest_certificates_pinned(seed, digest):
    # SHA-256 of all 11 certificates, one line each, at two more seeds
    out = b"".join(runner(seed).to_json_bytes() + b"\n" for _, runner in selftest.RUNNERS)
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("q,count,degree,digest", [
    # prime fields; at degree 8 over F_7 some binomials C(alpha, beta) vanish mod 7
    (7, 12, 8, "afb03357505690ebdeba32062a98d76d38a200b6f15ba55e31acd2a5b343e423"),
    (65521, 16, 10, "cd06cb553556e3d099735d15c745ee5b49eddb7f687594019d89432325521ec7"),
    (4, 5, 5, "030ebe91edb56ed4154f5d95bba3d06e82767c95841da40226f92a86671ac2e3"),
    (8, 8, 6, "99dc6ac4ea8f1c611152b79c5825e0c40ea34d780f88e88701b9fd4fc29f6855"),
    (9, 9, 6, "fdb61e775f6e3e696f78515666bc464aa746b115ffe99d29a709ba642bcb3b7c"),
    (256, 16, 10, "c5feaf6bc610f1fd6573085ceedd18566721ef3721ce74e9e91681c04daf6751"),
    (729, 11, 7, "62a59803710a8774d031c7b41c27beb562c8e345453035e10dcd89c955ad977a"),
])
def test_vanish_output_pinned(tmp_path, q, count, degree, digest):
    # SHA-256 of the vanish JSON (multiplicity 2): the canonical solution is
    # fixed by the field arithmetic, so any change in a field operation or in
    # an entry of the system shows here
    out = tmp_path / "out.json"
    assert main(["--out", str(out), "vanish", "--set", _random_set_file(tmp_path, q, count),
                 "--degree", str(degree), "--mult", "2"]) == 0
    assert json.loads(out.read_text())["terms"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_min_search_wrong_degree_g(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(poly_to_json(SparsePoly(field_for_q(9), 1, {(3,): 1}))))
    assert main(["min-search", "--q", "9", "--n", "2", "--ell", "2", "--g", str(g),
                 "--mode", "greedy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad input: g must be homogeneous of degree 2\n"


def _malformed(tmp_path, inst, key, value):
    doc = {"points": generate_set(inst).to_json(), "per_rho": inst.to_json(),
           "terms": poly_to_json(inst.g)}[key]
    doc[key] = value
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("key,value,argv,message", [
    ("points", 5, ["vanish", "--degree", "2", "--mult", "1", "--set"],
     "error: bad input: points must be a list, got int\n"),
    ("points", [[1, 2, 3]], ["vanish", "--degree", "2", "--mult", "1", "--set"],
     "error: DimensionMismatch: point [1, 2, 3] has 3 coordinates, n = 2\n"),
    ("per_rho", 7, ["build-set", "--instance"],
     "error: bad input: per_rho must be a list, got int\n"),
    ("terms", 5, ["min-search", "--q", "5", "--n", "2", "--ell", "2", "--g"],
     "error: bad input: terms must be a list, got int\n"),
])
def test_malformed_json_is_usage_error(tmp_path, capsys, square_instance_file,
                                       key, value, argv, message):
    # valid JSON of the wrong shape is an input error (exit 2, one line),
    # never a traceback with the "verification failed" code
    assert main(argv + [_malformed(tmp_path, square_instance_file[1], key, value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_missing_json_key_is_named(tmp_path, capsys, square_instance_file):
    # a point-set file where an instance is expected has no per_rho key
    points = tmp_path / "points.json"
    points.write_text(json.dumps(generate_set(square_instance_file[1]).to_json()))
    assert main(["build-set", "--instance", str(points)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad input: missing key 'per_rho'\n"


_SUBCOMMANDS = ["bound", "build-set", "verify-set", "vanish", "min-search", "replay", "selftest"]


@pytest.mark.parametrize("command", [None] + _SUBCOMMANDS)
def test_help_exits_0_with_usage(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command is None:
        assert captured.out.startswith("usage: ffkakeya [")
        assert "{" + ",".join(_SUBCOMMANDS) + "}" in captured.out
    else:
        assert captured.out.startswith(f"usage: ffkakeya {command} [")


@pytest.mark.parametrize("params,message", [
    ({"q": "3", "k": 3}, "error: bad input: q must be an integer, got str\n"),
    ({"q": 3, "k": [3]}, "error: bad input: k must be an integer, got list\n"),
    ([3, 3], "error: bad input: params must be an object, got list\n"),
])
def test_replay_malformed_params(tmp_path, capsys, params, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["replay", "--check", "warmup", "--params", str(path)]) == 2
    assert capsys.readouterr().err == message


def _derivs_zero_params(tmp_path, F7, **changes):
    par = SparsePoly.from_int_terms(F7, 2, {(0, 1): 1, (2, 0): -1})
    doc = {"field": F7.to_json(), "P": poly_to_json(par * par),
           "g": poly_to_json(SparsePoly(F7, 1, {(2,): F7.one})),
           "a": [0, 0], "rho": 1, "params": {"k": 2, "D": 4, "M": 2}}
    doc.update(changes)
    path = tmp_path / "derivs.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_replay_derivs_zero(tmp_path, F7, capsys):
    assert main(["replay", "--check", "derivs-zero", "--params",
                 _derivs_zero_params(tmp_path, F7)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


@pytest.mark.parametrize("changes,message", [
    ({"a": [0, 0, 0]}, "error: DimensionMismatch: curve translation a must have 2 coordinates\n"),
    ({"params": {"k": "2", "D": 4, "M": 2}}, "error: bad input: k must be an integer, got str\n"),
])
def test_replay_derivs_zero_malformed(tmp_path, F7, capsys, changes, message):
    assert main(["replay", "--check", "derivs-zero", "--params",
                 _derivs_zero_params(tmp_path, F7, **changes)]) == 2
    assert capsys.readouterr().err == message


def test_replay_derivs_zero_huge_params_rejected_at_once(tmp_path, F7, capsys):
    # the inequality is one closed-form comparison, and the vanishing check
    # reads derivatives only up to deg P, however large k and M are
    path = _derivs_zero_params(tmp_path, F7, params={"k": 3000000000, "D": 4, "M": 3000000000})
    start = time.perf_counter()
    assert main(["replay", "--check", "derivs-zero", "--params", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: PreconditionFailed: P does not vanish on the curve with multiplicity "
        "3000000000: point (0, 0), beta (0, 2)\n"
    )


def test_replay_derivs_zero_with_zero_g_names_minus_inf(tmp_path, F7, capsys):
    # deg 0 is the float -inf, and the message prints it as such
    zero_g = poly_to_json(SparsePoly.zero(F7, 1))
    assert main(["replay", "--check", "derivs-zero", "--params",
                 _derivs_zero_params(tmp_path, F7, g=zero_g)]) == 2
    assert capsys.readouterr().err == (
        "error: PreconditionFailed: curve degree ell = -inf must satisfy 2 <= ell < q\n"
    )


@pytest.mark.parametrize("exponent,params,message", [
    # P's first derivative would meet the exponent guard; the count comes first
    (1 << 20, {"k": 7, "D": 2000000, "M": 1000000},
     "error: SizeGuard: 500000500000 derivative orders for multiplicity 1000000 exceed guard\n"),
    # legal exponents, but 5 x 10^9 orders for the vanishing check
    (100000, {"k": 7, "D": 200000, "M": 100000},
     "error: SizeGuard: 5000050000 derivative orders for multiplicity 100000 exceed guard\n"),
])
def test_replay_derivs_zero_orders_guarded_at_once(tmp_path, F7, capsys, exponent, params,
                                                   message):
    P = poly_to_json(SparsePoly(F7, 2, {(exponent, 0): F7.one}))
    path = _derivs_zero_params(tmp_path, F7, P=P, params=params)
    start = time.perf_counter()
    assert main(["replay", "--check", "derivs-zero", "--params", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def _f_file(tmp_path, q, n):
    spec = field_for_q(q)
    path = tmp_path / f"f_q{q}_n{n}.json"
    exp = (2,) + (0,) * (n - 2)
    path.write_text(json.dumps({"f": poly_to_json(SparsePoly(spec, n - 1, {exp: spec.one}))}))
    return str(path)


@pytest.mark.parametrize("check,q,k,message", [
    ("key-lemma", 5, 3000000000,
     "error: SizeGuard: 4500000001500000000 x 4 key-lemma table exceeds guard\n"),
    ("proposition", 5, 3000000000,
     "error: SizeGuard: weighted degree 10379303304 has over 1000000 candidates, exceeds guard\n"),
])
def test_replay_huge_k_rejected_at_once(tmp_path, capsys, check, q, k, message):
    start = time.perf_counter()
    assert main(["replay", "--check", check, "--q", str(q), "--k", str(k),
                 "--params", _f_file(tmp_path, q, 2)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("n,k,message", [
    (1938763, 1, "error: SizeGuard: orders in 1938763 variables exceed guard\n"),
    (999, 2, "error: SizeGuard: 1000 orders in 999 variables exceed guard\n"),
])
def test_replay_key_lemma_wide_n_rejected_at_once(capsys, n, k, message):
    # an order in n variables is built by copying its prefixes, about n^2 steps
    start = time.perf_counter()
    assert main(["replay", "--check", "key-lemma", "--q", "5", "--n", str(n),
                 "--k", str(k)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_replay_proposition_guard_rejects_only_oversized_candidates(tmp_path, capsys):
    # over F_65521 a weighted degree has about m^3/12 candidates in four
    # variables but m/2 in two: the first is rejected at once, the second runs
    argv = ["replay", "--check", "proposition", "--q", "65521", "--k", "1", "--trials", "2"]
    start = time.perf_counter()
    assert main(argv + ["--n", "4", "--params", _f_file(tmp_path, 65521, 4)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: SizeGuard: weighted degree ")
    assert main(argv + ["--n", "2", "--params", _f_file(tmp_path, 65521, 2)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_replay_proposition_exponent_guard_is_one_line(tmp_path, capsys):
    # seed 5 draws a weighted degree over 2^20, so Q's first Hasse derivative
    # meets a binomial past the exponent guard
    assert main(["--seed", "5", "replay", "--check", "proposition", "--q", "65521",
                 "--k", "30", "--trials", "1", "--params", _f_file(tmp_path, 65521, 2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SizeGuard: exponent 1111574 exceeds guard 1048576\n"


def test_replay_proposition_linear_f_is_bad_ell(tmp_path, capsys):
    # ell defaults to deg f = 1: f = x passes the shape checks and is
    # refused only by the degree
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"f": poly_to_json(SparsePoly(field_for_q(5), 1, {(1,): 1}))}))
    assert main(["replay", "--check", "proposition", "--q", "5", "--params", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BadEll: ell must be >= 2\n"


def test_replay_warmup(capsys):
    assert main(["replay", "--check", "warmup", "--q", "3", "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"] == "warmup" and doc["verdict"] == "pass"


def test_replay_key_lemma(capsys):
    assert main(["--seed", "2", "replay", "--check", "key-lemma", "--q", "5",
                 "--n", "2", "--k", "2", "--trials", "25"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_replay_missing_args(capsys):
    assert main(["replay", "--check", "warmup"]) == 2


def test_replay_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("FFKAKEYA_SEED", "77")
    assert main(["replay", "--check", "key-lemma", "--q", "5", "--trials", "10"]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["seed"] == 77


def test_bad_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["build-set", "--instance", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err and "line" in err


def test_missing_file_reports_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["build-set", "--instance", missing]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_removed_backend_subcommand_is_usage_error(capsys):
    # there is one kernel implementation, so there is no backend to report
    assert main(["backend"]) == 2
    assert "invalid choice: 'backend'" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -1])
def test_vanish_rejects_dimension_below_one(tmp_path, F5, capsys, n):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": F5.to_json(), "n": n, "points": []}))
    assert main(["vanish", "--set", str(path), "--degree", "2", "--mult", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: DimensionMismatch: dimension n must be >= 1, got {n}\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_replay_key_lemma_rejects_dimension_below_one(capsys, n):
    assert main(["replay", "--check", "key-lemma", "--q", "3", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: DimensionMismatch: dimension n must be >= 1, got {n}\n"


def test_vanish_empty_set_reaches_system_guard_at_once(tmp_path, capsys):
    # no points means no rows, but the columns alone would be C(300002, 2)
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": {"p": 5, "m": 1}, "n": 2, "points": []}))
    start = time.perf_counter()
    assert main(["vanish", "--set", str(path), "--degree", "300000", "--mult", "1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SizeGuard: 0 x 45000450001 system exceeds guard\n"


def test_vanish_guard_counts_the_system_as_posed(tmp_path, capsys):
    # the solver drops a point's rows and the columns of degree < M, which
    # leaves 7,260 x 121 here; the guard counts the 14,520 x 7,381 as posed
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": {"p": 5, "m": 1}, "n": 2, "points": [[0, 0], [1, 2]]}))
    assert main(["vanish", "--set", str(path), "--degree", "120", "--mult", "120"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SizeGuard: 14520 x 7381 system exceeds guard\n"


BIG_PRIME = 2**61 - 1  # trial division to its square root takes minutes


def test_vanish_rejects_oversized_field_at_once(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"field": {"p": BIG_PRIME, "m": 1}, "n": 2, "points": []}))
    start = time.perf_counter()
    assert main(["vanish", "--set", str(path), "--degree", "2", "--mult", "1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: UnsupportedFieldSize: q = {BIG_PRIME}^1 exceeds 2^16\n"


def test_replay_rejects_oversized_field_at_once(capsys):
    start = time.perf_counter()
    assert main(["replay", "--check", "key-lemma", "--q", str(BIG_PRIME)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: UnsupportedFieldSize: q = {BIG_PRIME} exceeds 2^16\n"


@pytest.mark.parametrize("q", [BIG_PRIME, 2**100])
def test_bound_answers_for_huge_q_at_once(capsys, q):
    start = time.perf_counter()
    assert main(["bound", "--q", str(q), "--n", "2", "--ell", "2"]) == 0
    assert time.perf_counter() - start < 1
    value = Fraction(((q - 1) * q) ** 2, (3 * q - 4) ** 2)
    assert capsys.readouterr().out == (
        f"{value.numerator}/{value.denominator} (ceil {math.ceil(value)})\n"
    )


@pytest.mark.parametrize("argv,message", [
    (["bound", "--q", "5", "--n", "1000000000", "--ell", "2"],
     "SizeGuard: bound numerator 20^1000000000 exceeds 4300 digits"),
    (["bound", "--q", "5", "--n", "10000", "--ell", "2"],
     "SizeGuard: bound numerator 20^10000 exceeds 4300 digits"),
    (["min-search", "--q", "5", "--n", "300000", "--ell", "2", "--mode", "greedy"],
     "SizeGuard: bound numerator 20^300000 exceeds 4300 digits"),
])
def test_bound_too_long_to_print_refused_at_once(tmp_path, capsys, argv, message):
    # the bound is refused from the bases' sizes, before any power is taken
    if argv[0] == "min-search":
        argv = argv + ["--g", _g_file(tmp_path, 5, 2)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_replay_warmup_huge_k_reaches_system_guard_at_once(capsys):
    # the parameter check is one comparison, not a loop over 0 <= w < k
    start = time.perf_counter()
    assert main(["replay", "--check", "warmup", "--q", "3", "--k", "3000000000"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SizeGuard: ")
    assert captured.err.endswith(" system exceeds guard\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("check", ["key-lemma", "proposition"])
def test_replay_rejects_trials_below_one(tmp_path, capsys, check, trials):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"f": poly_to_json(SparsePoly(field_for_q(3), 1, {(2,): 1}))}))
    assert main(["replay", "--check", check, "--q", "3", "--params", str(path),
                 "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: PreconditionFailed: trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("check", ["key-lemma", "proposition"])
def test_replay_refuses_trials_above_guard_at_once(tmp_path, capsys, check):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"f": poly_to_json(SparsePoly(field_for_q(5), 1, {(2,): 1}))}))
    start = time.perf_counter()
    assert main(["replay", "--check", check, "--q", "5", "--params", str(path),
                 "--trials", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SizeGuard: 1000000000000 trials exceed guard of 10000\n"


def test_replay_trials_at_guard_run(capsys):
    assert main(["replay", "--check", "key-lemma", "--q", "3", "--n", "1", "--k", "1",
                 "--trials", "10000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["steps"]) == 10000


def test_out_writes_file_deterministically(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["--out", str(path), "--seed", "5", "replay", "--check",
                     "key-lemma", "--q", "5", "--trials", "10"]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
