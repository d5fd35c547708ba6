import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import ffkakeya
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
])
def test_min_search_output_pinned(tmp_path, q, ell, mode, digest):
    # SHA-256 of the min-search JSON at seed 0: the witness rule (first
    # option of each surface, lex-least optimum / first strict improvement)
    # and the whole output format show here
    out = tmp_path / "out.json"
    assert main(["--out", str(out), "--seed", "0", "min-search", "--q", str(q), "--n", "2",
                 "--ell", str(ell), "--g", _g_file(tmp_path, q, ell), "--mode", mode]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("q,count,degree,digest", [
    (4, 5, 5, "030ebe91edb56ed4154f5d95bba3d06e82767c95841da40226f92a86671ac2e3"),
    (8, 8, 6, "99dc6ac4ea8f1c611152b79c5825e0c40ea34d780f88e88701b9fd4fc29f6855"),
    (9, 9, 6, "fdb61e775f6e3e696f78515666bc464aa746b115ffe99d29a709ba642bcb3b7c"),
    (256, 16, 10, "c5feaf6bc610f1fd6573085ceedd18566721ef3721ce74e9e91681c04daf6751"),
    (729, 11, 7, "62a59803710a8774d031c7b41c27beb562c8e345453035e10dcd89c955ad977a"),
])
def test_vanish_output_pinned(tmp_path, q, count, degree, digest):
    # SHA-256 of the vanish JSON (multiplicity 2): the canonical solution is
    # fixed by the field arithmetic, so any change in an extension-field
    # operation shows here
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


def test_out_writes_file_deterministically(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["--out", str(path), "--seed", "5", "replay", "--check",
                     "key-lemma", "--q", "5", "--trials", "10"]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
