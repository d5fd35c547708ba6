"""Command-line front end with JSON input/output.

Exit codes: 0 = success / verification passed, 1 = verification failed,
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import selftest
from .brkset import BrkInstance, PointSet, generate_set, min_brk_search, theorem_bound, verify_brk
from .errors import FFKakeyaError
from .ffield import expect_json, field_for_q
from .mpoly import poly_from_json, poly_to_json
from .replay import check_key_lemma, check_proposition, check_warmup
from .vanish import VanishProblem, find_vanishing_poly

DEFAULT_SEED = 12345


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FFKakeyaError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise FFKakeyaError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def _emit(doc, out_path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FFKAKEYA_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _cmd_bound(args) -> int:
    value, ceiling = theorem_bound(args.q, args.n, args.ell)
    print(f"{value.numerator}/{value.denominator} (ceil {ceiling})")
    return 0


def _cmd_build_set(args) -> int:
    inst = BrkInstance.from_json(_load_json(args.instance))
    _emit(generate_set(inst).to_json(), args.out)
    return 0


def _cmd_verify_set(args) -> int:
    S = PointSet.from_json(_load_json(args.set))
    inst = BrkInstance.from_json(_load_json(args.instance))
    result = verify_brk(S, inst)
    doc = {"ok": result.ok}
    if not result.ok:
        doc["missing"] = [S.spec.element_to_json(c) for c in result.missing]
    _emit(doc, args.out)
    return 0 if result.ok else 1


def _cmd_vanish(args) -> int:
    S = PointSet.from_json(_load_json(args.set))
    prob = VanishProblem(S.spec, S.n, S.sorted_points(), args.degree, args.mult)
    poly = find_vanishing_poly(prob)
    if poly is None:
        print("none")
        return 0
    _emit(poly_to_json(poly), args.out)
    return 0


def _cmd_min_search(args) -> int:
    g = poly_from_json(_load_json(args.g))
    res = min_brk_search(args.q, args.n, args.ell, g, mode=args.mode, seed=_seed(args))
    doc = {
        "mode": res.mode,
        "min_size": res.min_size,
        "bound_ceiling": res.bound_ceiling,
        "witness": res.witness.to_json(),
    }
    if res.configurations is not None:
        doc["configurations"] = res.configurations
    if res.seed is not None:
        doc["seed"] = res.seed
        doc["restarts"] = res.restarts
    _emit(doc, args.out)
    return 0


def _cmd_replay(args) -> int:
    seed = _seed(args)
    params = expect_json(_load_json(args.params), dict, "params") if args.params else {}

    def param(key, default=None):
        """The --key flag if given, else params[key], else default; an integer."""
        value = getattr(args, key, None)
        if value is None:
            value = params.get(key)
        return default if value is None else expect_json(value, int, key)

    name = args.check
    if name == "warmup":
        q, k = param("q"), param("k")
        if q is None or k is None:
            raise FFKakeyaError("replay warmup requires --q and --k")
        inst = BrkInstance.from_json(params["instance"]) if "instance" in params else None
        cert = check_warmup(q, k, instance=inst, seed=seed)
    elif name == "key-lemma":
        q = param("q")
        if q is None:
            raise FFKakeyaError("replay key-lemma requires --q")
        cert = check_key_lemma(args.trials, field_for_q(q), param("n", 2), param("k", 2), seed=seed)
    elif name == "proposition":
        q = param("q")
        if q is None or "f" not in params:
            raise FFKakeyaError("replay proposition requires --q and a params file with f")
        spec = field_for_q(q)
        f = poly_from_json(params["f"], spec)
        cert = check_proposition(
            args.trials, spec, param("n", 2), param("ell", f.degree), param("k", 1), f, seed=seed,
        )
    elif name == "derivs-zero":
        if not args.params:
            raise FFKakeyaError("replay derivs-zero requires --params FILE")
        from .replay import check_derivs_zero
        from .ffield import field_from_json

        spec = field_from_json(params["field"])
        P = poly_from_json(params["P"], spec)
        g = poly_from_json(params["g"], spec)
        curve = {
            "a": tuple(spec.element_from_json(c) for c in expect_json(params["a"], list, "a")),
            "rho": spec.element_from_json(params["rho"]),
            "g": g,
        }
        inner = expect_json(params["params"], dict, "params")
        checked = {key: expect_json(inner[key], int, key) for key in ("k", "D", "M")}
        cert = check_derivs_zero(P, curve, checked)
    else:
        raise FFKakeyaError(f"unknown check {name!r}")
    _emit(cert.to_json(), args.out)
    return 0 if cert.verdict == "pass" else 1


def _cmd_selftest(args) -> int:
    ok = selftest.run_all(_seed(args), report=lambda line: print(line, file=sys.stderr))
    print("selftest: " + ("pass" if ok else "fail"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffkakeya",
        description="Finite-field BRK-type sets: bounds, search and proof replay.",
    )
    parser.add_argument("--out", help="write JSON output to this path instead of stdout")
    parser.add_argument("--seed", type=int, help="RNG seed (default: FFKAKEYA_SEED or fixed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="exact size lower bound and its ceiling")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("build-set", help="generate the point set of an instance")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_build_set)

    p = sub.add_parser("verify-set", help="check a set contains an instance's surfaces")
    p.add_argument("--set", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_verify_set)

    p = sub.add_parser("vanish", help="low-degree polynomial vanishing on a set")
    p.add_argument("--set", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mult", type=int, required=True)
    p.set_defaults(func=_cmd_vanish)

    p = sub.add_parser("min-search", help="minimal-set search for a fixed top form g")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--g", required=True, help="polynomial JSON file for g")
    p.add_argument("--mode", choices=["exhaustive", "greedy"], default="exhaustive")
    p.set_defaults(func=_cmd_min_search)

    p = sub.add_parser("replay", help="replay a lemma/proposition check")
    p.add_argument("--check", required=True,
                   choices=["warmup", "key-lemma", "proposition", "derivs-zero"])
    p.add_argument("--params", help="JSON parameter file")
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FFKakeyaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
