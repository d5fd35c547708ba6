"""Self-contained property suite: one seeded, certificate-emitting runner
per acceptance-level check.  The CLI `selftest` subcommand and the test
suite both drive these runners.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys

from .brkset import min_brk_search
from .ffield import field_for_q
from .mpoly import (
    SparsePoly,
    binom_multi,
    compose,
    compositions,
    expand_shift,
    hasse_derivative,
    hasse_table,
)
from .multiplicity import mult_at, schwartz_zippel_audit, vanishes_with_mult
from .replay import Certificate, check_key_lemma, check_proposition, check_warmup, check_derivs_zero
from .vanish import VanishProblem, find_vanishing_poly
from .errors import PreconditionFailed

_field = functools.cache(field_for_q)
# the compositions as a tuple per (arity, total); `Random.choice` reads only
# the length and one index, so the draws are those from a fresh list
_compositions = functools.cache(lambda arity, total: tuple(compositions(arity, total)))

_MAX_TERMS = 8  # terms drawn per random polynomial, at most
_POLYS_PER_FIELD = 500  # hasse_oracle
_LEMMA_TRIALS = 300  # multiplicity_lemmas, per lemma


def _random_poly(rng, spec, arity, max_degree, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, _MAX_TERMS)):
        d = rng.randint(0, max_degree)
        exp = rng.choice(_compositions(arity, d))
        terms[exp] = rng.randrange(spec.q)
    P = SparsePoly(spec, arity, terms)
    if nonzero and P.is_zero():
        P = SparsePoly(spec, arity, {(0,) * arity: rng.randrange(1, spec.q)})
    return P


def hasse_oracle_check(seed: int = 0) -> Certificate:
    """The one-pass derivative table `hasse_table` equals the brute-force
    shift expansion, as dicts of the nonzero derivatives; each polynomial
    counts one comparison per order up to its degree, and a mismatch names
    the first order, degree-then-lex, among the orders of either table,
    whose entries differ."""
    rng = random.Random(seed)
    cert = Certificate(
        "hasse_oracle", seed,
        {"fields": [2, 3, 5, 7, 9], "polys_per_field": _POLYS_PER_FIELD},
    )
    checked = 0
    for q in [2, 3, 5, 7, 9]:
        spec = _field(q)
        for _ in range(_POLYS_PER_FIELD):
            n = rng.randint(1, 3)
            P = _random_poly(rng, spec, n, rng.randint(0, 6))
            table, oracle = hasse_table(P), expand_shift(P)
            checked += math.comb(max(P.degree, 0) + n, n)  # orders |beta| <= deg P
            if table != oracle:
                beta = min((b for b in table.keys() | oracle.keys()
                            if table.get(b) != oracle.get(b)), key=lambda b: (sum(b), b))
                cert.verdict = "fail"
                cert.witness = {"q": q, "terms": sorted(P.terms.items()), "beta": list(beta)}
                return cert
        cert.steps.append({"q": q, "polys": _POLYS_PER_FIELD})
    cert.steps.append({"derivative_comparisons": checked})
    return cert


def _derivative_lemma(rng, spec, n) -> bool:
    """mult(P^(beta), a) >= mult(P, a) - |beta|; P may have linear factors
    through a, so that mult > 1 cases appear."""
    P = _random_poly(rng, spec, n, 4)
    a = tuple(rng.randrange(spec.q) for _ in range(n))
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(n)
        P = P * (SparsePoly.variable(spec, n, i) - SparsePoly.constant(spec, n, a[i]))
    beta = rng.choice(_compositions(n, rng.randint(0, 3)))
    return mult_at(hasse_derivative(P, beta), a).mult >= mult_at(P, a).mult - sum(beta)


def _composition_lemma(rng, spec, n) -> bool:
    """mult(P o h, lam) >= mult(P, h(lam))"""
    P = _random_poly(rng, spec, n, 3)
    h = [_random_poly(rng, spec, 1, 2) for _ in range(n)]
    lam = rng.randrange(spec.q)
    image = tuple(hi.eval_codes((lam,)) for hi in h)
    return mult_at(compose(P, h), (lam,)).mult >= mult_at(P, image).mult


def _additivity_lemma(rng, spec, n) -> bool:
    """(P+Q)^(beta) = P^(beta) + Q^(beta)"""
    P = _random_poly(rng, spec, n, 5)
    Q = _random_poly(rng, spec, n, 5)
    beta = rng.choice(_compositions(n, rng.randint(0, 4)))
    return hasse_derivative(P + Q, beta) == hasse_derivative(P, beta) + hasse_derivative(Q, beta)


# (witness name, step name, law) per lemma, in the order they are checked
_LEMMAS = [
    ("derivative", "derivative_lower_bound", _derivative_lemma),
    ("composition", "composition_lower_bound", _composition_lemma),
    ("additivity", "additivity", _additivity_lemma),
]


def multiplicity_lemmas_check(seed: int = 0) -> Certificate:
    """Derivative, composition and additivity laws for multiplicities."""
    rng = random.Random(seed)
    cert = Certificate("multiplicity_lemmas", seed, {"trials_per_lemma": _LEMMA_TRIALS})
    for lemma, step, holds in _LEMMAS:
        for t in range(_LEMMA_TRIALS):
            spec = _field(rng.choice([2, 3, 5, 7]))
            if not holds(rng, spec, rng.randint(1, 3)):
                cert.verdict = "fail"
                cert.witness = {"lemma": lemma, "trial": t}
                return cert
        cert.steps.append({"lemma": step, "trials": _LEMMA_TRIALS})
    return cert


def _box_sums(alpha) -> list:
    """Entry w is the sum of C(alpha, beta) over |beta| = w, for w <= |alpha|.

    C(alpha, beta) = 0 unless beta <= alpha, so only the box of such beta
    is summed."""
    sums = [0] * (sum(alpha) + 1)
    for beta in itertools.product(*[range(a + 1) for a in alpha]):
        sums[sum(beta)] += binom_multi(alpha, beta)
    return sums


def vandermonde_check() -> Certificate:
    """Sum of multi-binomials over |beta| = w equals C(|alpha|, w), exactly,
    exhaustively for arity <= 4, |alpha| <= 8, w <= 8."""
    cert = Certificate("vandermonde", None, {"max_arity": 4, "max_total": 8, "max_w": 8})
    checked = 0
    for arity in range(1, 5):
        for d in range(9):
            for alpha in compositions(arity, d):
                sums = _box_sums(alpha)
                for w in range(9):
                    total = sums[w] if w <= d else 0
                    checked += 1
                    if total != math.comb(d, w):
                        cert.verdict = "fail"
                        cert.witness = {"alpha": list(alpha), "w": w}
                        return cert
    cert.steps.append({"identities_checked": checked})
    return cert


def vanishing_existence_check(seed: int = 0, trials: int = 200) -> Certificate:
    """Counting inequality => a nonzero solution exists; every solution
    re-verified against the multiplicity module."""
    rng = random.Random(seed)
    cert = Certificate("vanishing_existence", seed, {"trials": trials})
    for t in range(trials):
        spec = _field(rng.choice([2, 3, 5]))
        n = rng.randint(1, 3)
        M = rng.randint(1, 3)
        npoints = rng.randint(0, 4)
        points = {tuple(rng.randrange(spec.q) for _ in range(n)) for _ in range(npoints)}
        need = math.comb(M + n - 1, n) * len(points)
        D = 0
        while math.comb(D + n, n) <= need:
            D += 1
        D += rng.randint(0, 1)
        prob = VanishProblem(spec, n, sorted(points), D, M)
        P = find_vanishing_poly(prob)
        ok = (
            P is not None
            and not P.is_zero()
            and P.degree <= D
            and vanishes_with_mult(P, prob.points, M).ok
        )
        if not ok:
            cert.verdict = "fail"
            cert.witness = {"trial": t, "q": spec.q, "n": n, "D": D, "M": M,
                            "points": [list(p) for p in prob.points]}
            return cert
    cert.steps.append({"trials": trials})
    return cert


def schwartz_zippel_check(seed: int = 0, trials: int = 300) -> Certificate:
    """Total multiplicity over the grid never exceeds deg * q^(n-1);
    includes the exact equality witness x1*x2 over F_3."""
    rng = random.Random(seed)
    cert = Certificate("schwartz_zippel", seed, {"trials": trials})
    spec3 = _field(3)
    eq = schwartz_zippel_audit(SparsePoly.from_int_terms(spec3, 2, {(1, 1): 1}), range(3))
    if not (eq.total_mult == eq.bound == 6 and eq.ok):
        cert.verdict = "fail"
        cert.witness = {"case": "equality_witness", "total": eq.total_mult, "bound": eq.bound}
        return cert
    cert.steps.append({"equality_witness": {"total": eq.total_mult, "bound": eq.bound}})
    for t in range(trials):
        spec = _field(rng.choice([3, 5, 7]))
        n = rng.randint(1, 3)
        P = _random_poly(rng, spec, n, 4, nonzero=True)
        rep = schwartz_zippel_audit(P, range(spec.q))
        if not rep.ok:
            cert.verdict = "fail"
            cert.witness = {"trial": t, "q": spec.q, "terms": sorted(P.terms.items())}
            return cert
    cert.steps.append({"trials": trials})
    return cert


def brk_bound_check(seed: int = 0) -> Certificate:
    """Exhaustive minimum at q=3 and a greedy upper bound at q=5, both
    against the exact theorem ceiling."""
    cert = Certificate("brk_bound", seed, {"exhaustive_q": 3, "greedy_q": 5})
    spec3 = _field(3)
    g3 = SparsePoly(spec3, 1, {(2,): spec3.one})
    res3 = min_brk_search(3, 2, 2, g3, mode="exhaustive")
    cert.steps.append(
        {"q": 3, "mode": "exhaustive", "min_size": res3.min_size,
         "configurations": res3.configurations, "bound_ceiling": res3.bound_ceiling}
    )
    spec5 = _field(5)
    g5 = SparsePoly(spec5, 1, {(2,): spec5.one})
    res5 = min_brk_search(5, 2, 2, g5, mode="greedy", seed=seed)
    cert.steps.append(
        {"q": 5, "mode": "greedy", "min_size": res5.min_size,
         "bound_ceiling": res5.bound_ceiling}
    )
    if not (res3.min_size >= res3.bound_ceiling and res5.min_size >= res5.bound_ceiling):
        cert.verdict = "fail"
    return cert


def warmup_check(seed: int = 0) -> Certificate:
    return check_warmup(3, 3, seed=seed)


def proposition_check(seed: int = 0, trials: int = 200) -> Certificate:
    """Distributes the trial budget over q in {3,5,7} and n in {2,3}."""
    combos = [(q, n) for q in (3, 5, 7) for n in (2, 3)]
    per = math.ceil(trials / len(combos))
    cert = Certificate("proposition_suite", seed, {"trials": trials})
    for q, n in combos:
        spec = _field(q)
        if n == 2:
            f = SparsePoly(spec, 1, {(2,): spec.one})
        else:
            f = SparsePoly(spec, 2, {(2, 0): spec.one, (1, 1): spec.one})
        k = 2 if q == 3 else 1
        sub = check_proposition(per, spec, n, 2, k, f, seed=seed)
        cert.steps.append({"q": q, "n": n, "k": k, "verdict": sub.verdict})
        if sub.verdict != "pass":
            cert.verdict = "fail"
            cert.witness = sub.witness
            return cert
    return cert


def key_lemma_check(seed: int = 0, trials: int = 500) -> Certificate:
    return check_key_lemma(trials, _field(5), 2, 2, seed=seed)


def derivs_zero_check(seed: int = 0) -> Certificate:
    """The q=7 squared-parabola instance passes; the q=5 variant is rejected
    at the parameter inequality."""
    spec7 = _field(7)
    par7 = SparsePoly.from_int_terms(spec7, 2, {(0, 1): 1, (2, 0): -1})
    g7 = SparsePoly(spec7, 1, {(2,): spec7.one})
    sub = check_derivs_zero(
        par7 * par7, {"a": (0, 0), "rho": 1, "g": g7}, {"k": 2, "D": 4, "M": 2}
    )
    cert = Certificate("derivs_zero_suite", seed, {"pass_case_q": 7, "reject_case_q": 5})
    cert.steps.append({"q": 7, "verdict": sub.verdict, "betas": len(sub.steps)})
    spec5 = _field(5)
    par5 = SparsePoly.from_int_terms(spec5, 2, {(0, 1): 1, (2, 0): -1})
    g5 = SparsePoly(spec5, 1, {(2,): spec5.one})
    try:
        check_derivs_zero(
            par5 * par5, {"a": (0, 0), "rho": 1, "g": g5}, {"k": 2, "D": 4, "M": 2}
        )
        rejected = False
    except PreconditionFailed:
        rejected = True
    cert.steps.append({"q": 5, "rejected_at_precondition": rejected})
    if sub.verdict != "pass" or not rejected:
        cert.verdict = "fail"
    return cert


def determinism_check(seed: int = 0) -> Certificate:
    """Re-running the seeded runners reproduces byte-identical certificates."""
    runners = [
        ("vanishing_existence", lambda: vanishing_existence_check(seed, trials=20)),
        ("schwartz_zippel", lambda: schwartz_zippel_check(seed, trials=20)),
        ("brk_bound", lambda: brk_bound_check(seed)),
        ("warmup", lambda: warmup_check(seed)),
        ("proposition", lambda: proposition_check(seed, trials=12)),
        ("key_lemma", lambda: key_lemma_check(seed, trials=20)),
    ]
    cert = Certificate("determinism", seed, {"runners": [name for name, _ in runners]})
    for name, run in runners:
        identical = run().to_json_bytes() == run().to_json_bytes()
        cert.steps.append({"runner": name, "byte_identical": identical})
        if not identical:
            cert.verdict = "fail"
            cert.witness = {"runner": name}
    return cert


# registry used by the CLI
RUNNERS = [
    ("hasse_oracle", hasse_oracle_check),
    ("multiplicity_lemmas", multiplicity_lemmas_check),
    ("vandermonde", lambda seed=0: vandermonde_check()),
    ("vanishing_existence", vanishing_existence_check),
    ("schwartz_zippel", schwartz_zippel_check),
    ("brk_bound", brk_bound_check),
    ("warmup", warmup_check),
    ("proposition", proposition_check),
    ("key_lemma", key_lemma_check),
    ("derivs_zero", derivs_zero_check),
    ("determinism", determinism_check),
]


def run_all(seed: int = 0) -> bool:
    """Run every runner, one `name: verdict` line each on stderr."""
    ok = True
    for name, runner in RUNNERS:
        cert = runner(seed)
        print(f"{name}: {cert.verdict}", file=sys.stderr)
        ok = ok and cert.verdict == "pass"
    return ok
