"""Executable verification of the proof pipeline on concrete instances.

Each check replays one lemma-level statement on sampled or supplied
instances and emits a machine-readable Certificate.  Universally
quantified statements are checked in contrapositive form: sample nonzero
inputs, then demand the nonvanishing witness the statement guarantees.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .brkset import BrkInstance, PerRho, generate_set, proof_params
from .errors import BadEll, PreconditionFailed
from .ffield import FieldSpec, field_for_q
from .mpoly import (
    SparsePoly,
    compositions,
    binom_multi,
    hasse_derivative,
    compose,
    poly_to_json,
    weighted_degree,
)
from .multiplicity import vanishes_with_mult
from .vanish import VanishProblem, nullspace_trivial


@dataclass
class Certificate:
    check_name: str
    seed: Optional[int]
    inputs: dict
    steps: list = field(default_factory=list)
    verdict: str = "pass"
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        doc = {
            "check": self.check_name,
            "seed": self.seed,
            "inputs": self.inputs,
            "steps": self.steps,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


@dataclass
class KeyLemmaInstance:
    """Coefficient family for the single-variable collapse f_beta(rho)."""

    spec: FieldSpec
    n: int
    k: int
    exponents: list  # multi-indices with pairwise-distinct |alpha| < k(q-1)
    coeffs: Dict[tuple, int]  # alpha -> element code
    b: int  # nonzero element code

    def __post_init__(self):
        cap = self.k * (self.spec.q - 1)
        totals = [sum(a) for a in self.exponents]
        if len(set(totals)) != len(totals):
            raise ValueError("|alpha| values must be pairwise distinct")
        if any(t >= cap for t in totals):
            raise ValueError(f"every |alpha| must be < k(q-1) = {cap}")
        if self.b == 0:
            raise ValueError("b must be nonzero")

    def to_json(self) -> dict:
        ser = self.spec.element_to_json
        return {
            "field": self.spec.to_json(),
            "n": self.n,
            "k": self.k,
            "terms": [
                {"alpha": list(a), "c": ser(self.coeffs[a])}
                for a in sorted(self.exponents)
            ],
            "b": ser(self.b),
        }


def key_lemma_table(inst: KeyLemmaInstance) -> dict:
    """f_beta(rho) = sum_alpha b^(alpha_n - beta_n) c_alpha C(alpha,beta) rho^(|alpha|-|beta|)
    for all |beta| < k and all nonzero rho."""
    spec = inst.spec
    table = {}
    betas = [b for order in range(inst.k) for b in compositions(inst.n, order)]
    for beta in betas:
        wb = sum(beta)
        for rho in range(1, spec.q):
            acc = 0
            for alpha in inst.exponents:
                bc = binom_multi(alpha, beta)
                if bc == 0:
                    continue
                v = spec.mul(inst.coeffs[alpha], spec.from_int(bc))
                v = spec.mul(v, spec.pow_(inst.b, alpha[-1] - beta[-1]))
                v = spec.mul(v, spec.pow_(rho, sum(alpha) - wb))
                acc = spec.add(acc, v)
            table[(beta, rho)] = acc
    return table


def _random_composition(rng, total, n):
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(total - prev)
    return tuple(parts)


def check_key_lemma(trials: int, spec: FieldSpec, n: int, k: int, seed: int = 0) -> Certificate:
    """Contrapositive: any instance with some c_alpha != 0 must have a nonzero
    table entry; an all-zero table would falsify the statement."""
    q = spec.q
    cap = k * (q - 1)
    if cap < 2:
        raise PreconditionFailed("k(q-1) >= 2 required so nonzero instances exist")
    rng = random.Random(seed)
    cert = Certificate(
        "key_lemma",
        seed,
        {"field": spec.to_json(), "n": n, "k": k, "trials": trials},
    )
    for trial in range(trials):
        count = rng.randint(1, min(4, cap))
        totals = rng.sample(range(cap), count)
        exponents = [_random_composition(rng, t, n) for t in totals]
        coeffs = {a: rng.randrange(q) for a in exponents}
        if all(c == 0 for c in coeffs.values()):
            coeffs[exponents[0]] = rng.randrange(1, q)
        inst = KeyLemmaInstance(spec, n, k, exponents, coeffs, rng.randrange(1, q))
        table = key_lemma_table(inst)
        hit = next(((beta, rho) for (beta, rho), v in sorted(table.items()) if v != 0), None)
        if hit is None:
            cert.verdict = "fail"
            cert.witness = inst.to_json()
            cert.steps.append({"trial": trial, "nonzero_entry": None})
            return cert
        cert.steps.append(
            {"trial": trial, "nonzero_entry": {"beta": list(hit[0]), "rho": spec.element_to_json(hit[1])}}
        )
    return cert


def check_derivs_zero(P: SparsePoly, curve: dict, params: dict) -> Certificate:
    """All composed Hasse derivatives of order < k vanish identically along
    the curve, given the degree/multiplicity inequality and high-order
    vanishing of P on the curve's points."""
    spec = P.spec
    n = P.arity
    a = tuple(curve["a"])
    rho = curve["rho"]
    g = curve["g"]
    k, D, M = params["k"], params["D"], params["M"]
    ell = g.degree
    if P.is_zero():
        raise PreconditionFailed("P must be nonzero")
    if not P.degree <= D:
        raise PreconditionFailed(f"deg(P) = {P.degree} exceeds D = {D}")
    if not 2 <= ell < spec.q:
        raise PreconditionFailed(f"curve degree ell = {ell} must satisfy 2 <= ell < q")
    for w in range(k):
        if not ell * (D - w) < (M - w) * spec.q:
            raise PreconditionFailed(
                f"inequality ell*(D-w) < (M-w)*q fails at w = {w}: "
                f"{ell * (D - w)} < {(M - w) * spec.q} is false"
            )
    import itertools

    curve_points = set()
    for lam in itertools.product(range(spec.q), repeat=n - 1):
        coords = [spec.add(ai, spec.mul(rho, li)) for ai, li in zip(a[:-1], lam)]
        coords.append(spec.add(a[-1], spec.mul(rho, g.eval_codes(lam))))
        curve_points.add(tuple(coords))
    chk = vanishes_with_mult(P, sorted(curve_points), M)
    if not chk.ok:
        raise PreconditionFailed(
            f"P does not vanish on the curve with multiplicity {M}: "
            f"point {chk.point}, beta {chk.beta}"
        )
    subs = []
    for i in range(n - 1):
        var = SparsePoly.variable(spec, n - 1, i).scale(rho)
        subs.append(var + SparsePoly.constant(spec, n - 1, a[i]))
    subs.append(g.scale(rho) + SparsePoly.constant(spec, n - 1, a[-1]))
    cert = Certificate(
        "derivs_zero",
        None,
        {
            "P": poly_to_json(P),
            "a": [spec.element_to_json(c) for c in a],
            "rho": spec.element_to_json(rho),
            "g": poly_to_json(g),
            "k": k,
            "D": D,
            "M": M,
        },
    )
    for order in range(k):
        for beta in compositions(n, order):
            composed = compose(hasse_derivative(P, beta), subs)
            is_zero = composed.is_zero()
            cert.steps.append({"beta": list(beta), "composition_zero": is_zero})
            if not is_zero:
                cert.verdict = "fail"
                cert.witness = {"beta": list(beta), "composition": poly_to_json(composed)}
                return cert
    return cert


def _weighted_homogeneous_candidates(n: int, ell: int, m: int, cap: int):
    """All alpha in Z_{>=0}^n with weighted degree m and |alpha| < cap, lex order."""
    out = []
    for an in range(m // ell + 1):
        rest = m - ell * an
        for head in compositions(n - 1, rest):
            alpha = head + (an,)
            if sum(alpha) < cap:
                out.append(alpha)
    return sorted(out)


def check_proposition(
    trials: int,
    spec: FieldSpec,
    n: int,
    ell: int,
    k: int,
    f: SparsePoly,
    seed: int = 0,
) -> Certificate:
    """Contrapositive of the weighted-homogeneous vanishing statement: for
    every sampled nonzero weighted-homogeneous Q of degree < k(q-1) there
    must be rho != 0 and |beta| < k with Q^(beta)(rho*(s, f(s))) nonzero."""
    q = spec.q
    if f.is_zero():
        raise PreconditionFailed("f must be nonzero")
    if f.arity != n - 1:
        raise PreconditionFailed(f"f must have arity n-1 = {n - 1}")
    if any(sum(e) != ell for e in f.terms):
        raise PreconditionFailed(f"f must be homogeneous of degree {ell}")
    if ell < 2:
        raise BadEll("ell must be >= 2")
    cap = k * (q - 1)
    if cap < 2:
        raise PreconditionFailed("k(q-1) >= 2 required")
    rng = random.Random(seed)
    cert = Certificate(
        "proposition",
        seed,
        {
            "field": spec.to_json(),
            "n": n,
            "ell": ell,
            "k": k,
            "f": poly_to_json(f),
            "trials": trials,
        },
    )
    subs = [SparsePoly.variable(spec, n - 1, i) for i in range(n - 1)] + [f]
    for trial in range(trials):
        m = rng.randint(1, cap - 1)
        candidates = _weighted_homogeneous_candidates(n, ell, m, cap)
        support = rng.sample(candidates, rng.randint(1, min(4, len(candidates))))
        terms = {alpha: rng.randrange(1, q) for alpha in support}
        Q = SparsePoly(spec, n, terms)
        witness = None
        for order in range(k):
            for beta in compositions(n, order):
                deriv = hasse_derivative(Q, beta)
                if deriv.is_zero():
                    continue
                for rho in range(1, q):
                    scaled = [h.scale(rho) for h in subs]
                    if not compose(deriv, scaled).is_zero():
                        witness = (beta, rho)
                        break
                if witness:
                    break
            if witness:
                break
        if witness is None:
            cert.verdict = "fail"
            cert.witness = {"Q": poly_to_json(Q)}
            cert.steps.append({"trial": trial, "m": m, "witness": None})
            return cert
        cert.steps.append(
            {
                "trial": trial,
                "m": m,
                "witness": {
                    "beta": list(witness[0]),
                    "rho": spec.element_to_json(witness[1]),
                },
            }
        )
    return cert


def check_warmup(q: int, k: int, instance: Optional[BrkInstance] = None, seed: int = 0) -> Certificate:
    """Degree-2 counting inequality in the plane plus nullspace triviality of
    the vanishing system for the generated set."""
    if q <= 2:
        raise PreconditionFailed("q > 2 required")
    params = proof_params(q, 2, k)
    if instance is None:
        spec = field_for_q(q)
        g = SparsePoly(spec, 1, {(2,): spec.one})
        zero_lower = SparsePoly.zero(spec, 1)
        instance = BrkInstance(
            spec, 2, 2, g, {r: PerRho((0, 0), zero_lower) for r in range(q)}
        )
    else:
        if instance.spec.q != q or instance.n != 2 or instance.ell != 2:
            raise PreconditionFailed("warmup requires a degree-2 instance in F_q^2")
        spec = instance.spec
    D, M = params.D, params.M
    S = generate_set(instance)
    lhs = math.comb(M + 1, 2) * len(S)
    rhs = math.comb(D + 2, 2)
    ineq_ok = lhs >= rhs
    trivial = nullspace_trivial(VanishProblem(spec, 2, S.sorted_points(), D, M))
    cert = Certificate(
        "warmup",
        seed,
        {"q": q, "k": k, "instance": instance.to_json()},
        steps=[
            {"D": D, "M": M, "set_size": len(S)},
            {"counting_lhs": lhs, "counting_rhs": rhs, "counting_ok": ineq_ok},
            {"nullspace_trivial": trivial},
        ],
    )
    if not (ineq_ok and trivial):
        cert.verdict = "fail"
        cert.witness = {"counting_ok": ineq_ok, "nullspace_trivial": trivial}
    return cert


def weighted_partition(exponents, ell: int) -> dict:
    """Partition multi-indices by weighted degree alpha_1+...+alpha_{n-1}+ell*alpha_n."""
    if ell < 2:
        raise BadEll(f"ell = {ell} must be >= 2")
    out = {}
    for alpha in exponents:
        out.setdefault(weighted_degree(alpha, ell), set()).add(tuple(alpha))
    return out
