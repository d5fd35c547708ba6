import json

import pytest

from ffkakeya.brkset import BrkInstance, PerRho, generate_set
from ffkakeya.cli import main
from ffkakeya.ffield import make_field
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


def test_backend_subcommand(capsys):
    assert main(["backend"]) == 0
    assert capsys.readouterr().out.strip() in ("compiled", "python")


def test_out_writes_file_deterministically(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["--out", str(path), "--seed", "5", "replay", "--check",
                     "key-lemma", "--q", "5", "--trials", "10"]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
