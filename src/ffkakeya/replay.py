"""Executable verification of the proof pipeline on concrete instances.

Each check replays one lemma-level statement on sampled or supplied
instances and emits a machine-readable Certificate.  Universally
quantified statements are checked in contrapositive form: sample nonzero
inputs, then demand the nonvanishing witness the statement guarantees.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Optional

from .brkset import BrkInstance, PerRho, _first_failing_w, _surface_points, generate_set, proof_params
from .errors import BadEll, DimensionMismatch, PreconditionFailed, SizeGuard
from .ffield import FieldSpec, field_for_q
from .mpoly import (
    SparsePoly,
    binom_multi_mod,
    compose,
    derivatives,
    hasse_table,
    monomials_upto,
    poly_to_json,
)
from .multiplicity import vanishes_with_mult
from .vanish import VanishProblem, nullspace_trivial

_ENUM_GUARD = 10**6
_TRIALS_GUARD = 10**4  # sampled instances per check


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
    orders = math.comb(max(inst.k - 1 + inst.n, 0), inst.n)  # |beta| < k
    if orders * (spec.q - 1) > _ENUM_GUARD:
        raise SizeGuard(f"{orders} x {spec.q - 1} key-lemma table exceeds guard")
    # building an order in n variables copies its prefixes, up to n^2 entries
    if orders * inst.n**2 > _ENUM_GUARD:
        raise SizeGuard(f"{orders} orders in {inst.n} variables exceed guard")
    add, mul, pow_ = spec.add, spec.mul, spec.pow_
    table = {}
    for beta in monomials_upto(inst.n, inst.k - 1):
        wb = sum(beta)
        # the rho-free factor c_alpha C(alpha, beta) b^(alpha_n - beta_n) of
        # each term, with its power of rho; most (rho, e) pairs are met once,
        # so plain `pow_` calls beat a shared `PowerTable` here
        terms = []
        for alpha in inst.exponents:
            bc = binom_multi_mod(alpha, beta, spec.p)
            if bc == 0:
                continue
            v = mul(inst.coeffs[alpha], spec.from_int(bc))
            terms.append((mul(v, pow_(inst.b, alpha[-1] - beta[-1])), sum(alpha) - wb))
        for rho in range(1, spec.q):
            acc = 0
            for v, e in terms:
                acc = add(acc, mul(v, pow_(rho, e)))
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


def _check_trials(trials: int):
    if trials < 1:
        raise PreconditionFailed(f"trials must be >= 1, got {trials}")
    if trials > _TRIALS_GUARD:
        raise SizeGuard(f"{trials} trials exceed guard of {_TRIALS_GUARD}")


def check_key_lemma(trials: int, spec: FieldSpec, n: int, k: int, seed: int = 0) -> Certificate:
    """Contrapositive: any instance with some c_alpha != 0 must have a nonzero
    table entry; an all-zero table would falsify the statement."""
    q = spec.q
    if n < 1:
        raise DimensionMismatch(f"dimension n must be >= 1, got {n}")
    _check_trials(trials)
    if n * n > _ENUM_GUARD:  # key_lemma_table's orders guard at one order, before any draw
        raise SizeGuard(f"orders in {n} variables exceed guard")
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


def _surface(spec: FieldSpec, a: tuple, rho: int, f: SparsePoly) -> list:
    """The substitution a + rho*(x, f(x)) in the n - 1 variables x, n = len(a)."""
    xs = [SparsePoly.variable(spec, len(a) - 1, i) for i in range(len(a) - 1)] + [f]
    return [x.scale(rho) + SparsePoly.constant(spec, len(a) - 1, c) for x, c in zip(xs, a)]


def check_derivs_zero(P: SparsePoly, curve: dict, params: dict) -> Certificate:
    """All composed Hasse derivatives of order < k vanish identically along
    the curve, given the degree/multiplicity inequality and high-order
    vanishing of P on the curve's points.  The derivatives come from one
    `hasse_table`; an order it lacks is the zero polynomial."""
    spec = P.spec
    n = P.arity
    a = tuple(curve["a"])
    rho = curve["rho"]
    g = curve["g"]
    k, D, M = params["k"], params["D"], params["M"]
    ell = g.degree
    if len(a) != n:
        raise DimensionMismatch(f"curve translation a must have {n} coordinates")
    if P.is_zero():
        raise PreconditionFailed("P must be nonzero")
    if not P.degree <= D:
        raise PreconditionFailed(f"deg(P) = {P.degree} exceeds D = {D}")
    if not 2 <= ell < spec.q:
        raise PreconditionFailed(f"curve degree ell = {ell} must satisfy 2 <= ell < q")
    w = _first_failing_w(spec.q, ell, k, D, M)
    if w is not None:
        raise PreconditionFailed(
            f"inequality ell*(D-w) < (M-w)*q fails at w = {w}: "
            f"{ell * (D - w)} < {(M - w) * spec.q} is false"
        )
    # each walk lists its orders before reading the first: count them first
    orders = math.comb(max(min(M - 1, P.degree) + n, 0), n)  # |beta| <= min(M-1, deg P)
    if orders > _ENUM_GUARD:
        raise SizeGuard(f"{orders} derivative orders for multiplicity {M} exceed guard")
    chk = vanishes_with_mult(P, sorted(set(_surface_points(spec, a, rho, g))), M)
    if not chk.ok:
        raise PreconditionFailed(
            f"P does not vanish on the curve with multiplicity {M}: "
            f"point {chk.point}, beta {chk.beta}"
        )
    orders = math.comb(max(k - 1 + n, 0), n)  # |beta| < k
    if orders > _ENUM_GUARD:
        raise SizeGuard(f"{orders} derivative orders below k = {k} exceed guard")
    subs = _surface(spec, a, rho, g)
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
    table, zero = hasse_table(P, k - 1), SparsePoly.zero(spec, n)
    for beta in monomials_upto(n, k - 1):
        composed = compose(table.get(beta, zero), subs)
        is_zero = composed.is_zero()
        cert.steps.append({"beta": list(beta), "composition_zero": is_zero})
        if not is_zero:
            cert.verdict = "fail"
            cert.witness = {"beta": list(beta), "composition": poly_to_json(composed)}
            return cert
    return cert


class _WeightedCandidates(Sequence):
    """All alpha in Z_{>=0}^n with weighted degree alpha_1 + ... + alpha_(n-1)
    + ell*alpha_n = m, in lex order, as an indexable view: item i is unranked
    from counts when it is read, so `rng.sample` draws as from the sorted
    list without any other candidate being built."""

    def __init__(self, n: int, ell: int, m: int):
        self.n, self.ell, self.m = n, ell, m
        self._len = self._tails(n - 1, m)

    def _tails(self, k: int, r: int) -> int:
        """Tails (alpha_(n-k), ..., alpha_n) of weighted degree r, k >= 1: for
        each alpha_n, C(r - ell*alpha_n + k-1, k-1) choices of the k unit parts."""
        if k == 1:
            return r // self.ell + 1
        return sum(math.comb(r - self.ell * an + k - 1, k - 1) for an in range(r // self.ell + 1))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> tuple:
        i = range(self._len)[i]
        alpha, r = [], self.m
        # a unit part v leads a block of _tails(k, r - v) candidates, k the
        # unit parts after it; with none after it, the block is one
        # candidate if ell divides r - v and empty otherwise
        for k in range(self.n - 2, 0, -1):
            v = 0
            while i >= (block := self._tails(k, r - v)):
                i -= block
                v += 1
            alpha.append(v)
            r -= v
        v = r % self.ell + self.ell * i
        return (*alpha, v, (r - v) // self.ell)


def _weighted_homogeneous_candidates(n: int, ell: int, m: int) -> Sequence:
    """All alpha in Z_{>=0}^n with weighted degree m, lex order, as a view;
    the count sums over the m // ell + 1 values of alpha_n, so that is
    guarded first."""
    over = f"weighted degree {m} has over {_ENUM_GUARD} candidates, exceeds guard"
    if m // ell >= _ENUM_GUARD:
        raise SizeGuard(over)
    candidates = _WeightedCandidates(n, ell, m)
    if len(candidates) > _ENUM_GUARD:
        raise SizeGuard(over)
    return candidates


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
    _check_trials(trials)
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
    # built on first use, once per rho: most trials stop at rho = 1
    surface = functools.cache(lambda rho: _surface(spec, (0,) * n, rho, f))
    for trial in range(trials):
        m = rng.randint(1, cap - 1)
        candidates = _weighted_homogeneous_candidates(n, ell, m)
        support = rng.sample(candidates, rng.randint(1, min(4, len(candidates))))
        terms = {alpha: rng.randrange(1, q) for alpha in support}
        Q = SparsePoly(spec, n, terms)
        witness = next(
            (
                (beta, rho)
                for beta, deriv in derivatives(Q, k - 1)
                if not deriv.is_zero()
                for rho in range(1, q)
                if not compose(deriv, surface(rho)).is_zero()
            ),
            None,
        )
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
