"""CLI-level benchmark of ffkakeya: named workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload warmup --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --runs 5 --seed 1 --out A.json
    python3 perfbench/run.py --compare A.json B.json

One process, one client, no threads: each pass runs the workload's task
list in order through `ffkakeya.cli.main(argv)`, in-process, with the
package imported from `src/` of the checkout this file sits in.  See
perfbench/README.md for workloads, metrics and the result-file format.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

import tracing  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_PASS = 3

# (name, unit, better) of the bounded end-to-end metrics in BENCHMARK.json.
# wall_rel and cpu_rel are pass times in units of the reference loop timed
# around each task, and setup_s is set-up time at the speed where that loop
# takes REFERENCE_S; see README, "Machine-speed noise".
END_TO_END = [
    ("wall_rel", "ref", "lower"),
    ("cpu_rel", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]
# Also printed and stored per workload, with failed_frac beside them.
REPORTED = [("wall_s", "s", "lower"), ("cpu_s", "s", "lower"), ("setup_wall_s", "s", "lower")] + END_TO_END
REFERENCE_S = 0.1

PACKAGE_MODULES = ("cli", "brkset", "ffield", "kernels", "mpoly", "multiplicity",
                   "replay", "selftest", "vanish")


def import_package():
    """Fresh import of ffkakeya from src/; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "ffkakeya" or m.startswith("ffkakeya.")]:
        del sys.modules[name]
    importlib.import_module("ffkakeya")
    return types.SimpleNamespace(**{
        name: importlib.import_module("ffkakeya." + name) for name in PACKAGE_MODULES
    })


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarize(runs, name):
    """(value, first quartile, third quartile, count) of a metric.

    Over several runs: the median and quartiles of the runs' values.  For
    one run: its value, with the quartiles and count of its samples.
    """
    if len(runs) == 1:
        metric = runs[0]["metrics"][name]
        value, samples = metric["value"], metric["samples"]
    else:
        samples = [r["metrics"][name]["value"] for r in runs]
        value = statistics.median(samples)
    if len(samples) < 2:
        return value, value, value, len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return value, q1, q3, len(samples)


# --- one pass over the task list ---


def run_pass(ffk, tasks, tracer=None):
    """Run every task once, timing the reference loop before each task and
    after the last.  Returns per-task (wall, cpu), the reference (wall, cpu)
    samples, the outputs and the elapsed time of the whole pass."""
    start = time.perf_counter()
    times, refs, outputs = [], [time_reference()], []
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ffk.cli.main(list(task.argv))
            except Exception:  # a crash is a failed task, reported below
                traceback.print_exc()
                code = None
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        outputs.append((code, out.getvalue(), err.getvalue()))
        refs.append(time_reference())
    return times, refs, outputs, time.perf_counter() - start


def relative_times(times, refs):
    """Each task's (wall, cpu) time in reference units.

    A task is divided by the mean of the reference runs just before and
    just after it, so a change of machine speed within a pass is followed.
    """
    return [tuple(t[k] / ((a[k] + b[k]) / 2) for k in (0, 1))
            for t, a, b in zip(times, refs, refs[1:])]


class Checker:
    """Checks each task's first output in full, then byte equality."""

    def __init__(self):
        self.reference = {}
        self.attempted = self.failed = 0

    def check(self, ffk, tasks, outputs, what):
        for task, (code, out, err) in zip(tasks, outputs):
            self.attempted += 1
            errors = [] if code == 0 else [f"exit code {code}: {err.strip()[-500:]}"]
            ref = self.reference.get(task.label)
            if ref is None:
                self.reference[task.label] = out
                try:
                    errors += task.check(ffk, out)
                except Exception as exc:  # malformed output fails the task
                    errors.append(f"check raised {type(exc).__name__}: {exc}")
            elif out != ref:
                errors.append(f"output differs from the first run ({what})")
            if errors:
                self.failed += 1
                print(f"perfbench: {task.label} FAILED: {'; '.join(errors)}", file=sys.stderr)


class Session:
    """One workload in one process: set-ups, checked passes, scratch inputs.

    Every pass starts from a fresh set-up (import plus inputs), as a CLI
    user's process would, and set-up samples are spread over the run.
    """

    def __init__(self, workload, seed, smoke):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.checker = Checker()
        self.input_dir = None
        os.makedirs(OUT_DIR, exist_ok=True)

    def setup(self, repeats=1):
        """Import plus input generation, `repeats` times; returns their times."""
        durations = []
        for _ in range(repeats):
            self.close()
            self.input_dir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
            start = time.perf_counter()
            ffk = import_package()
            tasks = WORKLOADS[self.workload](self.seed, self.input_dir, ffk)
            durations.append(time.perf_counter() - start)
        self.ffk = ffk
        self.tasks = [t for t in tasks if t.smoke] if self.smoke else tasks
        return durations

    def run_pass(self, what="repeat", tracer=None):
        times, refs, outputs, elapsed = run_pass(self.ffk, self.tasks, tracer)
        self.checker.check(self.ffk, self.tasks, outputs, what)
        return times, refs, elapsed

    def close(self):
        if self.input_dir is not None:
            shutil.rmtree(self.input_dir, ignore_errors=True)
            self.input_dir = None


def reference_loop():
    """Fixed pure-Python work (lists, dicts, ints) that uses no package code.

    Its time tracks the machine's current speed; on a shared host the
    speed switches every few seconds between a fast state and one up to
    half again as slow.
    """
    data = list(range(2000))
    acc = 0
    for r in range(400):
        data = [(x * 7 + r) % 1009 for x in data]
        acc += sum({x: x ^ r for x in data[:500]}.values())
    return acc


def time_reference():
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference_loop()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _budget_left(spent, per_pass, seconds):
    """True while one more pass of the typical length fits the budget."""
    return spent + statistics.median(per_pass) <= seconds


def measure_untraced(session, seconds):
    """Samples per metric, the values that are not the median of their
    samples, and each task's wall and relative times per pass."""
    samples = {name: [] for name, _, _ in REPORTED}
    per_task, elapsed = {}, []
    while True:
        setups = session.setup(SETUPS_PER_PASS)
        times, refs, spent = session.run_pass()
        elapsed.append(spent)
        # The pass's first reference run follows the set-ups directly.
        samples["setup_wall_s"] += setups
        samples["setup_s"] += [s / refs[0][0] * REFERENCE_S for s in setups]
        rel = relative_times(times, refs)
        samples["wall_s"].append(sum(t[0] for t in times))
        samples["cpu_s"].append(sum(t[1] for t in times))
        samples["wall_rel"].append(sum(r[0] for r in rel))
        samples["cpu_rel"].append(sum(r[1] for r in rel))
        for task, t, r in zip(session.tasks, times, rel):
            per_task.setdefault(task.label, []).append({"wall_s": t[0], "wall_rel": r[0], "cpu_rel": r[1]})
        if not _budget_left(sum(elapsed), elapsed, seconds):
            break
    samples["peak_rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    # A pass's relative time mixes the noise of every task in it; the sum of
    # each task's median over the passes is steadier on a jittery host.
    values = {name: sum(statistics.median(p[name] for p in per) for per in per_task.values())
              for name in ("wall_rel", "cpu_rel")}
    return samples, values, per_task


def measure_traced(session, seconds, spans_path):
    """Alternating untraced and traced passes, then a counting pass."""
    tracer = tracing.Tracer()
    plain, traced, elapsed, layer_samples, backends = [], [], [], {}, {}
    with gzip.open(spans_path, "wt") as spans:
        while True:
            session.setup()
            times, _, spent = session.run_pass()
            plain.append(sum(t[0] for t in times))
            session.setup()
            tracer.reset()
            tracer.install()
            try:
                times, _, spent_traced = session.run_pass("tracing on", tracer)
            finally:
                tracer.uninstall()
            traced.append(sum(t[0] for t in times))
            elapsed.append(spent + spent_traced)
            agg = tracer.aggregate()
            for name, value in tracing.layer_metrics(agg).items():
                layer_samples.setdefault(name, []).append(value)
            backends = tracing.kernel_backends(agg)
            tracer.dump(spans, len(traced) - 1)
            if not _budget_left(sum(elapsed), elapsed, seconds):
                break
    session.setup()
    with tracing.FieldCallCounter(session.ffk.ffield.FieldSpec) as counter:
        session.run_pass("call counting on")
    layer_samples["ffield.mul_calls"] = [counter.counts["mul"]]
    layer_samples["ffield.pow_calls"] = [counter.counts["pow_"]]
    for name, value in tracing.field_op_ns(session.ffk.ffield, session.seed).items():
        layer_samples[name] = [value]
    layer_samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    layer_samples["trace.untraced_pass_s"] = plain
    layer_samples["trace.traced_pass_s"] = traced
    return layer_samples, backends


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ffkakeya", "cli.py")):
        print(f"perfbench: no ffkakeya sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = args.workload
    session = Session(workload, args.seed, args.smoke)
    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commit": commit_id(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    values = {}
    try:
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{args.seed}.jsonl.gz")
            samples, record["kernel_calls"] = measure_traced(session, args.seconds, spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
            specs = contract = tracing.PER_LAYER
        else:
            samples, values, record["task_times"] = measure_untraced(session, args.seconds)
            specs, contract = REPORTED, END_TO_END
    finally:
        session.close()
    checker = session.checker
    record.update(backend=session.ffk.kernels.BACKEND, tasks=[t.label for t in session.tasks],
                  attempted=checker.attempted, failed=checker.failed,
                  failed_frac=checker.failed / max(checker.attempted, 1))
    record["metrics"] = {
        name: {"value": values.get(name, statistics.median(samples[name])), "unit": unit,
               "samples": samples[name]}
        for name, unit, _ in specs
    }
    extra = sorted(set(samples) - {name for name, _, _ in specs})
    record["extra"] = {name: samples[name] for name in extra}
    out_path = args.out or os.path.join(
        OUT_DIR, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"runs": [record]}, fh, indent=1, sort_keys=True)

    print_table([record], specs)
    print(f"failed_frac {record['failed_frac']:.6g} (failed {checker.failed} of {checker.attempted} tasks)")
    if args.trace:
        print(f"tracing overhead {samples['trace.overhead_s'][0]:+.4f} s per pass; "
              f"spans in {record['spans_file']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": record["metrics"][name]["value"], "unit": unit}
                    for name, unit, _ in contract},
    }))
    return 0


# --- reporting over several runs ---


def _group(runs):
    groups = {}
    for r in runs:
        groups.setdefault(r["workload"], []).append(r)
    return groups


def print_table(runs, specs):
    print(f"{'workload':<9} {'metric':<44} {'value':>12} {'q1':>12} {'q3':>12} {'unit':<6} {'n':>3}")
    for workload, group in _group(runs).items():
        for name, unit, _ in specs:
            if name not in group[0]["metrics"]:
                continue
            med, q1, q3, n = summarize(group, name)
            print(f"{workload:<9} {name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {unit:<6} {n:>3}")
        failed = sum(r["failed"] for r in group)
        attempted = sum(r["attempted"] for r in group)
        print(f"{workload:<9} {'failed_frac':<44} {failed / max(attempted, 1):>12.6g} "
              f"{'':>12} {'':>12} {'1':<6} {attempted:>3}")


def run_all(args) -> int:
    """Each workload in its own process, --runs times with seeds seed, seed+1, ..."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in names:
        for i in range(args.runs):
            fd, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
            os.close(fd)
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", path] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            try:
                if proc.returncode != 0:
                    print(proc.stdout, end="")
                    print(f"perfbench: {name} seed {args.seed + i} exited {proc.returncode}", file=sys.stderr)
                    return 1
                with open(path) as fh:
                    runs.extend(json.load(fh)["runs"])
            finally:
                os.unlink(path)
    print_table(runs, tracing.PER_LAYER if args.trace else REPORTED)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
    return 0 if all(r["failed"] == 0 for r in runs) else 1


def _bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in doc.get("end_to_end", [])}


def compare(path_a, path_b) -> int:
    """Median and quartiles per workload and metric; flags moves beyond the bound."""
    with open(path_a) as fh:
        runs_a = _group(json.load(fh)["runs"])
    with open(path_b) as fh:
        runs_b = _group(json.load(fh)["runs"])
    bounds = _bounds()
    better = {name: b for name, _, b in REPORTED + tracing.PER_LAYER}
    print(f"{'workload':<9} {'metric':<44} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'change':>8}  flag")
    flagged = 0
    for workload in [w for w in runs_a if w in runs_b]:
        a_group, b_group = runs_a[workload], runs_b[workload]
        for name in [n for n in a_group[0]["metrics"] if n in b_group[0]["metrics"]]:
            a_med, a_q1, a_q3, a_n = summarize(a_group, name)
            b_med, b_q1, b_q3, b_n = summarize(b_group, name)
            change = (b_med - a_med) / a_med if a_med else 0.0
            flag = ""
            if name in bounds and abs(change) > bounds[name]:
                worse = change > 0 if better.get(name, "lower") == "lower" else change < 0
                flag = f"{'WORSE' if worse else 'BETTER'} (bound {bounds[name]:.0%})"
                flagged += worse
            print(f"{workload:<9} {name:<44} "
                  f"{f'{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}] n={a_n}':>34} "
                  f"{f'{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}] n={b_n}':>34} {change:>+8.1%}  {flag}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1, each in its own process")
    parser.add_argument("--out", help="result file (default: .perfbench-out/result-*.json)")
    parser.add_argument("--smoke", action="store_true", help="reduced task lists")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload in WORKLOADS and args.runs == 1:
        return run_one(args)
    if args.workload in WORKLOADS or args.workload == "all":
        return run_all(args)
    parser.error(f"unknown workload {args.workload!r}")


if __name__ == "__main__":
    sys.exit(main())
