"""Outside-in tracing of the ffkakeya layers, from the benchmark's own files.

`Tracer.install` replaces public functions of the package with wrappers
that record one span per call: name, start, end, parent span and the task
(request) it belongs to.  Spans stay in memory for one pass; `aggregate`
turns them into the per-layer metrics and `dump` writes them out.  No
source file of the package is touched: the wrappers are bound into the
imported modules' namespaces and removed again by `uninstall`.
"""

from __future__ import annotations

import collections
import json
import math
import random
import statistics
import sys
import time

# (module, attribute, span name); attributes a later version lacks are skipped.
SPANNED = [
    ("ffield", "make_field", "ffield.construct"),
    ("mpoly", "hasse_derivative", "mpoly.hasse_derivative"),
    ("mpoly", "compose", "mpoly.compose"),
    ("mpoly", "expand_shift", "mpoly.expand_shift"),
    ("multiplicity", "mult_at", "multiplicity.mult_at"),
    ("multiplicity", "schwartz_zippel_audit", "multiplicity.schwartz_zippel_audit"),
    ("multiplicity", "vanishes_with_mult", "multiplicity.vanishes_with_mult"),
    ("vanish", "build_system", "vanish.build_system"),
    ("vanish", "nullspace_trivial", "vanish.nullspace_trivial"),
    ("vanish", "find_vanishing_poly", "vanish.find_vanishing_poly"),
    ("kernels", "rref_mod_p", "kernels.rref_mod_p"),
    ("kernels", "min_union", "kernels.min_union"),
    ("_kernels_py", "rref_mod_p", "kernels.pure.rref_mod_p"),
    ("_kernels_py", "min_union", "kernels.pure.min_union"),
    ("_kernels", "rref_mod_p", "kernels.compiled.rref_mod_p"),
    ("_kernels", "min_union", "kernels.compiled.min_union"),
    ("brkset", "generate_set", "brkset.generate_set"),
    ("brkset", "min_brk_search", "brkset.min_brk_search"),
    ("replay", "check_warmup", "replay.check_warmup"),
    ("replay", "check_key_lemma", "replay.check_key_lemma"),
    ("replay", "check_proposition", "replay.check_proposition"),
    ("replay", "check_derivs_zero", "replay.check_derivs_zero"),
    ("cli", "main", "cli.main"),
]

SELFTEST_RUNNERS = [
    "hasse_oracle", "multiplicity_lemmas", "vandermonde", "vanishing_existence",
    "schwartz_zippel", "brk_bound", "warmup", "proposition", "key_lemma",
    "derivs_zero", "determinism",
]

FIELD_OP_QS = (5, 8, 256, 729)

# (name, unit, better); every traced run reports each of these.
PER_LAYER = (
    [("ffield.construct_s", "s", "lower"), ("ffield.construct_calls", "count", "lower")]
    + [(f"ffield.{op}_ns.q{q}", "ns", "lower") for op in ("mul", "sub", "inv") for q in FIELD_OP_QS]
    + [
        ("ffield.mul_calls", "count", "lower"),
        ("ffield.pow_calls", "count", "lower"),
        ("mpoly.hasse_derivative.busy_s", "s", "lower"),
        ("mpoly.hasse_derivative.calls", "count", "lower"),
        ("mpoly.compose.busy_s", "s", "lower"),
        ("mpoly.compose.calls", "count", "lower"),
        ("mpoly.expand_shift.busy_s", "s", "lower"),
        ("multiplicity.mult_at.busy_s", "s", "lower"),
        ("multiplicity.mult_at.calls", "count", "lower"),
        ("multiplicity.schwartz_zippel_audit.self_s", "s", "lower"),
        ("multiplicity.schwartz_zippel_audit.calls", "count", "lower"),
        ("multiplicity.vanishes_with_mult.busy_s", "s", "lower"),
        ("multiplicity.vanishes_with_mult.calls", "count", "lower"),
        ("vanish.build_system.busy_s", "s", "lower"),
        ("vanish.system_entries", "count", "lower"),
        ("vanish.systems", "count", "lower"),
        ("vanish.eliminate.self_s", "s", "lower"),
        ("vanish.rank_per_row", "ratio", "higher"),
        ("kernels.rref_mod_p.busy_s", "s", "lower"),
        ("kernels.rref_mod_p.calls", "count", "lower"),
        ("kernels.min_union.busy_s", "s", "lower"),
        ("kernels.min_union.calls", "count", "lower"),
        ("kernels.pure_calls", "count", "lower"),
        ("kernels.compiled_calls", "count", "higher"),
        ("brkset.min_brk_search.self_s", "s", "lower"),
        ("brkset.masks_built", "count", "lower"),
        ("brkset.generate_set.busy_s", "s", "lower"),
        ("brkset.generate_set.calls", "count", "lower"),
        ("replay.check_warmup.self_s", "s", "lower"),
        ("replay.check_key_lemma.busy_s", "s", "lower"),
        ("replay.check_proposition.busy_s", "s", "lower"),
    ]
    + [(f"selftest.{name}.busy_s", "s", "lower") for name in SELFTEST_RUNNERS]
    + [("cli.io_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
)


def _modules():
    return {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("ffkakeya.") and mod is not None
    }


class Tracer:
    """Spans of the current pass, kept in parallel lists."""

    def __init__(self):
        self.name_ids = {}
        self.names = []
        self.reset()
        self._patches = []

    def reset(self):
        self.span_name = []
        self.span_parent = []
        self.span_task = []
        self.span_start = []
        self.span_end = []
        self._stack = []
        self.task = -1
        self.counters = collections.Counter()

    def _wrap(self, fn, name, observe=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            starts = tracer.span_start
            index = len(starts)
            stack = tracer._stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_task.append(tracer.task)
            tracer.span_end.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _replace(self, original, wrapper):
        """Rebind every module-level name that refers to `original`."""
        for mod in _modules().values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install(self):
        mods = _modules()
        for mod_name, attr, name in SPANNED:
            fn = getattr(mods.get(mod_name), attr, None)
            if callable(fn):
                self._replace(fn, self._wrap(fn, name, OBSERVERS.get(name)))
        selftest = mods.get("selftest")
        runners = getattr(selftest, "RUNNERS", None)
        if runners is not None:
            original = list(runners)
            runners[:] = [(n, self._wrap(r, f"selftest.{n}")) for n, r in original]
            self._patches.append((runners, slice(None), original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(key, slice):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    def aggregate(self) -> dict:
        """calls, busy (outermost spans of a name) and self time per span name."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        calls = collections.Counter()
        busy = collections.Counter()
        own = collections.Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            own[name] += dur[i] - child[i]
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] != self.span_name[i]:
                parent = self.span_parent[parent]
            if parent < 0:
                busy[name] += dur[i]
        return {"calls": calls, "busy": busy, "self": own, "counters": self.counters}

    def dump(self, fh, pass_index: int):
        """One JSON array per span: pass, task, id, parent, name, start, end."""
        for i in range(len(self.span_start)):
            fh.write(json.dumps([
                pass_index, self.span_task[i], i, self.span_parent[i],
                self.names[self.span_name[i]],
                round(self.span_start[i], 9), round(self.span_end[i], 9),
            ]) + "\n")


def _observe_system(counters, args, kwargs, system):
    counters["vanish.system_entries"] += len(system.rows) * len(system.cols)
    counters["vanish.systems"] += 1


def _observe_rref(counters, args, kwargs, result):
    rows = args[0] if args else kwargs.get("rows", [])
    counters["vanish.rref_rows"] += len(rows)
    counters["vanish.rref_rank"] += result[0]


def _observe_search(counters, args, kwargs, result):
    # Options per level: translations q^n times lower parts q^(number of
    # monomials of degree < ell in n-1 variables); one mask per option and
    # per level rho.
    w = result.witness
    q, n, ell = w.spec.q, w.n, w.ell
    counters["brkset.masks_built"] += q**n * q ** math.comb(ell - 1 + n - 1, n - 1) * q


# Span name -> function of (counters, args, kwargs, result) run after each call.
OBSERVERS = {
    "vanish.build_system": _observe_system,
    "kernels.rref_mod_p": _observe_rref,
    "brkset.min_brk_search": _observe_search,
}


def layer_metrics(agg: dict) -> dict:
    """Per-layer values of one traced pass (the span-derived part)."""
    calls, busy, own, ctr = agg["calls"], agg["busy"], agg["self"], agg["counters"]
    out = {
        "ffield.construct_s": busy["ffield.construct"],
        "ffield.construct_calls": calls["ffield.construct"],
        "vanish.eliminate.self_s": own["vanish.nullspace_trivial"] + own["vanish.find_vanishing_poly"],
        "vanish.system_entries": ctr["vanish.system_entries"],
        "vanish.systems": ctr["vanish.systems"],
        "vanish.rank_per_row": (ctr["vanish.rref_rank"] / ctr["vanish.rref_rows"]
                                if ctr["vanish.rref_rows"] else 0.0),
        "kernels.pure_calls": calls["kernels.pure.rref_mod_p"] + calls["kernels.pure.min_union"],
        "kernels.compiled_calls": (calls["kernels.compiled.rref_mod_p"]
                                   + calls["kernels.compiled.min_union"]),
        "brkset.masks_built": ctr["brkset.masks_built"],
        "cli.io_s": own["cli.main"],
    }
    for name in ("mpoly.hasse_derivative", "mpoly.compose", "multiplicity.mult_at",
                 "multiplicity.vanishes_with_mult", "kernels.rref_mod_p", "kernels.min_union",
                 "brkset.generate_set"):
        out[name + ".busy_s"] = busy[name]
        out[name + ".calls"] = calls[name]
    for name in ("mpoly.expand_shift", "vanish.build_system", "replay.check_key_lemma",
                 "replay.check_proposition"):
        out[name + ".busy_s"] = busy[name]
    for name in ("multiplicity.schwartz_zippel_audit", "brkset.min_brk_search", "replay.check_warmup"):
        out[name + ".self_s"] = own[name]
    out["multiplicity.schwartz_zippel_audit.calls"] = calls["multiplicity.schwartz_zippel_audit"]
    for runner in SELFTEST_RUNNERS:
        out[f"selftest.{runner}.busy_s"] = busy[f"selftest.{runner}"]
    return out


def kernel_backends(agg: dict) -> dict:
    """Calls per kernel and the backend that served them."""
    return {
        name[len("kernels."):]: count
        for name, count in sorted(agg["calls"].items())
        if name.startswith(("kernels.pure.", "kernels.compiled."))
    }


class FieldCallCounter:
    """Counts FieldSpec.mul and FieldSpec.pow_ calls while installed.

    Kept apart from the timed traced pass: wrapping the hottest methods
    would distort every time measured around them.
    """

    def __init__(self, field_spec_cls):
        self.cls = field_spec_cls
        self.counts = collections.Counter()

    def __enter__(self):
        cls, counts = self.cls, self.counts
        self._orig = {name: cls.__dict__[name] for name in ("mul", "pow_") if name in cls.__dict__}
        for name, fn in self._orig.items():
            setattr(cls, name, _counting(fn, counts, name))
        return self

    def __exit__(self, *exc):
        for name, fn in self._orig.items():
            setattr(self.cls, name, fn)
        return False


def _counting(fn, counts, name):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    return wrapper


def field_op_ns(ffield, seed: int, repeats: int = 5) -> dict:
    """ns per public FieldSpec call on a fixed seeded batch of operands."""
    out = {}
    for q in FIELD_OP_QS:
        spec = ffield.field_for_q(q)
        rng = random.Random(seed * 1_000_003 + q)
        small = q <= 256
        sizes = {"mul": 20000 if small else 400, "sub": 20000 if small else 2000,
                 "inv": 20000 if small else 40}
        for op, count in sizes.items():
            xs = [rng.randrange(1, q) for _ in range(count)]
            ys = [rng.randrange(1, q) for _ in range(count)]
            fn = getattr(spec, op)
            samples = []
            for _ in range(repeats):
                if op == "inv":
                    start = time.perf_counter()
                    for x in xs:
                        fn(x)
                else:
                    start = time.perf_counter()
                    for x, y in zip(xs, ys):
                        fn(x, y)
                samples.append(time.perf_counter() - start)
            out[f"ffield.{op}_ns.q{q}"] = statistics.median(samples) / count * 1e9
    return out
