"""Benchmark harness for the pmdg CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # each workload in turn
    python3 perfbench/run.py --write-golden [--workload NAME]

Each workload is one or more parts, and each part a fixed list of
``pmdg`` invocations (see WORKLOADS.md).  The harness is one client in
a closed loop: it starts one invocation at a time, each in a fresh
interpreter, and waits for it before starting the next.  It starts no
threads.  A round runs every invocation of the workload once, in an
order shuffled by the seed; rounds repeat until the next invocation
would overrun ``--seconds`` of measured time.  The inputs never change.

Every report is compared with the golden copy in ``golden/``; an
invocation that differs counts as failed.

With ``--trace 0`` the harness prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds (the traced
ones run through ``traced.py``) and prints the per-layer metrics.  The
metric names and units are read from BENCHMARK.json.  The last line of
stdout is the result as one JSON object; the lines before it give each
metric with its unit, each part's figures and the run environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
TRACED = os.path.join(HERE, "traced.py")
SRC = "src"
PACKAGE = os.path.join(SRC, "pmdg")
OUT_DIR = ".perfbench-out"
BENCHMARK_JSON = "BENCHMARK.json"

PARTS = {
    "report-default": [["all"]],
    "k5-certify": [
        ["graph", "--k", "5"],
        ["spectra", "--k", "5"],
        ["ekr", "--k", "5"],
        ["polytope", "--k", "5"],
    ],
    "cycle-scan": [["cayley", "--k", "28"], ["cayley", "--k", "30"]],
    "enumerate-k7": [["counts", "--k", "7"], ["graph", "--k", "6"]],
}
# The workloads named in BENCHMARK.json.  The three parts of large-k
# share one workload so that each run measures a full window of them.
WORKLOADS = {
    "report-default": ["report-default"],
    "large-k": ["k5-certify", "cycle-scan", "enumerate-k7"],
}
REPORT_FORMAT = ["--format", "json"]

# The two claims the README documents as honest failures of `pmdg all`.
EXPECTED_FAILURES = {
    "report-default": [
        ("strict-bound-nonexempt-labels", {"k": "3"}),
        ("small-degree-count", {"n": "10"}),
    ],
}
GOLDEN_FIELDS = ("claim", "params", "expected", "computed", "status")

# one launch varies by tens of ms, so setup_s is a median over launches:
# this many at the start of a run, then one before each round
SETUP_LAUNCHES_FIRST = 4
HARD_LIMIT_S = 170.0  # a run must end within 180 s


# ---------------------------------------------------------------------------
# golden reports


def _matches(record: dict, golden: dict) -> bool:
    """Same claim, and the record's params include every golden param."""
    return record.get("claim") == golden["claim"] and all(
        record.get("params", {}).get(k) == v for k, v in golden["params"].items()
    )


def invocation_problems(golden: dict, exit_code: int, report_text: str) -> list[str]:
    """Why one invocation counts as failed; an empty list means it passed.

    It fails if its exit code differs from the golden one, if a golden
    record is missing, if a golden record's status, expected value or
    computed value changed, or if a record the golden copy does not list
    as failing now fails.  A report with no records, or a golden entry
    with none, never passes.
    """
    problems = []
    if exit_code != golden["exit"]:
        problems.append(f"exit code {exit_code}, golden {golden['exit']}")
    try:
        records = json.loads(report_text) if report_text.strip() else []
    except json.JSONDecodeError:
        problems.append("report is not JSON")
        records = []
    if not isinstance(records, list):
        problems.append("report is not a list of records")
        records = []
    if not golden["records"]:
        problems.append("golden copy holds no records")
    if not records:
        problems.append("report holds no records")
    by_claim = defaultdict(list)
    for r in records:
        by_claim[r.get("claim")].append(r)
    for g in golden["records"]:
        found = [r for r in by_claim[g["claim"]] if _matches(r, g)]
        if not found:
            problems.append(f"missing {g['claim']} {g['params']}")
            continue
        r = found[0]
        for field in ("status", "expected", "computed"):
            if r.get(field) != g[field]:
                problems.append(
                    f"{g['claim']} {g['params']}: {field} {r.get(field)!r}, golden {g[field]!r}"
                )
    golden_fails = [g for g in golden["records"] if g["status"] == "fail"]
    for r in records:
        if r.get("status") == "fail" and not any(_matches(r, g) for g in golden_fails):
            problems.append(f"new failure {r.get('claim')} {r.get('params')}")
    return problems


def golden_path(part: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{part}.json")


def load_golden(part: str) -> dict[tuple, dict]:
    with open(golden_path(part)) as fh:
        data = json.load(fh)
    return {tuple(inv["args"]): inv for inv in data["invocations"]}


def golden_failures(invocations: list[dict]) -> list[tuple[str, dict]]:
    return [
        (r["claim"], r["params"])
        for inv in invocations
        for r in inv["records"]
        if r["status"] == "fail"
    ]


# ---------------------------------------------------------------------------
# running invocations


class RunDeadline(Exception):
    pass


def _alarm(signum, frame):
    raise RunDeadline


class Runner:
    """Starts pmdg children one at a time and reaps each with wait4."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        os.makedirs(OUT_DIR, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        signal.signal(signal.SIGALRM, _alarm)

    def spawn(self, argv: list[str]) -> tuple[float, int, float, str]:
        """Run argv; return (wall seconds, exit code, max RSS in MB, stdout)."""
        out_path = os.path.join(OUT_DIR, "stdout.txt")
        err_path = os.path.join(OUT_DIR, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            signal.alarm(max(1, math.ceil(self.deadline - time.monotonic())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except RunDeadline:
                proc.kill()
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise RunDeadline(" ".join(argv[1:])) from None
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            text = fh.read()
        return wall, code, usage.ru_maxrss / 1024.0, text

    def setup_time(self) -> float:
        """Seconds from launching an interpreter until pmdg.cli is imported."""
        code = "import time; import pmdg.cli; print(time.monotonic())"
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=self.env,
            capture_output=True,
            text=True,
            check=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        return float(done.stdout.strip()) - start


class Measure:
    """One workload: its invocations, the golden checks and the counters."""

    def __init__(self, workload: str, seed: int, runner: Runner):
        self.workload = workload
        # (part, arguments) of every invocation, in a fixed order
        self.invocations = [
            (part, inv + REPORT_FORMAT) for part in WORKLOADS[workload] for inv in PARTS[part]
        ]
        self.golden = {}
        for part in WORKLOADS[workload]:
            self.golden.update(load_golden(part))
        self.rng = random.Random(seed)
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[float] = []

    def order(self) -> list[int]:
        """The invocations' indices in seeded random order."""
        order = list(range(len(self.invocations)))
        self.rng.shuffle(order)
        return order

    def invoke(self, i: int, traced: bool = False) -> tuple[float, float, dict | None]:
        """Run invocation i and check it; return (wall s, max RSS MB, trace)."""
        part, args = self.invocations[i]
        if traced:
            trace_path = os.path.join(OUT_DIR, f"{part}-{i}.trace.json")
            argv = [sys.executable, TRACED, trace_path, "--", *args]
        else:
            argv = [sys.executable, "-m", "pmdg", *args]
        self.attempted += 1
        secs, code, rss, text = self.runner.spawn(argv)
        problems = invocation_problems(self.golden[tuple(args)], code, text)
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(args)}: {p}" for p in problems]
        trace = None
        if traced:
            with open(trace_path) as fh:
                trace = json.load(fh)
        return secs, rss, trace

    def one_round(self, traced: bool = False) -> dict:
        """Run each invocation once, in seeded random order."""
        wall = 0.0
        traces = []
        for i in self.order():
            secs, _, trace = self.invoke(i, traced)
            wall += secs
            if traced:
                traces.append(trace)
        return {"wall": wall, "traces": traces}


# ---------------------------------------------------------------------------
# metrics


def trace_totals(traces: list[dict]) -> dict:
    """Sum the traced totals of one round's invocations."""
    tot = {"calls": defaultdict(float), "self_s": defaultdict(float),
           "yielded": defaultdict(float), "distinct_builds": 0, "builds": 0}
    for t in traces:
        for key in ("calls", "self_s", "yielded"):
            for name, v in t[key].items():
                tot[key][name] += v
        # a per-k artifact can only be shared inside one process
        tot["distinct_builds"] += t["distinct_keys"].get("graphs.build_graph", 0)
        tot["builds"] += t["calls"].get("graphs.build_graph", 0)
    return tot


def layer_metric(name: str, tot: dict, traced_wall: float, plain_wall: float) -> float:
    """Resolve one per-layer metric name against a traced round.

    ``<layer>.self_s|calls|yielded`` sums over the layer;
    ``<layer>.<function>.self_s|calls|yielded`` reads one function.
    """
    if name == "trace.overhead_s":
        return traced_wall - plain_wall
    if name == "trace.coverage":
        return sum(tot["self_s"].values()) / traced_wall
    if name == "graphs.build_reuse_ratio":
        return tot["distinct_builds"] / tot["builds"] if tot["builds"] else 0.0
    prefix, _, kind = name.rpartition(".")
    if kind not in ("self_s", "calls", "yielded") or not prefix:
        raise KeyError(name)
    table = tot[kind]
    if "." in prefix:
        return table.get(prefix, 0.0)
    return sum(v for n, v in table.items() if n.split(".", 1)[0] == prefix)


def _git_commit() -> str | None:
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


_NUMPY_PROBE = """
import ctypes, glob, json, os, numpy
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    dll = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(dll, sym):
            threads = getattr(dll, sym)()
            break
print(json.dumps({"numpy": numpy.__version__, "blas_threads": threads}))
"""


def environment(runner: Runner, workload: str, args) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE], env=runner.env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_pmdg_lines": lines,
    }


def load_metric_specs() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def reference_task_s() -> float:
    """Seconds for a fixed pure-Python task that does not touch pmdg.

    Integer arithmetic, Fraction elimination on a Hilbert matrix, and
    tuple and dict churn: the kinds of work the pmdg layers do.  Timed
    before each invocation, its median shows how fast the machine ran
    during the run.  It is recorded, not used to scale the metrics: it
    does not follow pmdg's times closely enough (see WORKLOADS.md).
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    n = 18
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seen: dict = {}
    for i in range(20_000):
        t = tuple(sorted((i % 7, i % 5, i % 3, i % 11)))
        seen[t] = seen.get(t, 0) + 1
    return time.perf_counter() - start


def plain_rounds(job: Measure, runner: Runner, seconds: float):
    """Run rounds until the next invocation would overrun ``seconds``.

    Only the invocations' own wall time counts towards ``seconds``; the
    first round always runs whole.  A setup launch precedes each round,
    so that the launches meet the same machine phases as the
    invocations.  Returns each invocation's (wall s, RSS MB) samples,
    the setup times and the number of rounds begun.  The reference task
    runs before each invocation; its times go to ``job.reference``.
    """
    setups = [runner.setup_time() for _ in range(SETUP_LAUNCHES_FIRST)]
    samples: list[list[tuple[float, float]]] = [[] for _ in job.invocations]
    measured = 0.0
    rounds = 0
    while True:
        for n, i in enumerate(job.order()):
            if samples[i] and measured + statistics.median(w for w, _ in samples[i]) > seconds:
                return samples, setups, rounds
            if n == 0:
                setups.append(runner.setup_time())
                rounds += 1
            job.reference.append(reference_task_s())
            wall, rss, _ = job.invoke(i)
            samples[i].append((wall, rss))
            measured += wall


def measure(workload: str, args, specs: dict, runner: Runner) -> tuple[dict, Measure, dict]:
    job = Measure(workload, args.seed, runner)
    run_start = time.monotonic()
    # the first launch compiles bytecode; users pay that once, not per run
    runner.setup_time()

    def time_left(per_round: float) -> bool:
        return time.monotonic() - run_start + per_round <= args.seconds

    if not args.trace:
        samples, setups, rounds = plain_rounds(job, runner, args.seconds)
        walls = [statistics.median(w for w, _ in x) for x in samples]
        rss = [statistics.median(r for _, r in x) for x in samples]
        values = {
            "wall_s": sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
            "op_ok_ratio": 1.0 - job.failed / job.attempted,
        }
        parts = {}
        for (part, _), w, r in zip(job.invocations, walls, rss):
            figures = parts.setdefault(part, {"wall_s": 0.0, "peak_rss_mb": 0.0})
            figures["wall_s"] += w
            figures["peak_rss_mb"] = max(figures["peak_rss_mb"], r)
        info = {
            "reference_s": statistics.median(job.reference),
            "reference_runs": len(job.reference),
            "rounds": rounds,
            "setup_launches": len(setups),
            "parts": parts,
            "invocations": {
                " ".join(args[:-2]): {"samples": len(x), "median_s": w}
                for (_, args), x, w in zip(job.invocations, samples, walls)
            },
        }
        specs_used = specs["end_to_end"]
    else:
        plain, traced = [], []
        while not traced or time_left(
            statistics.median(p["wall"] for p in plain)
            + statistics.median(t["wall"] for t in traced)
        ):
            plain.append(job.one_round())
            traced.append(job.one_round(traced=True))
        plain_wall = statistics.median(p["wall"] for p in plain)
        totals = [(trace_totals(t["traces"]), t["wall"]) for t in traced]
        values = {
            spec["name"]: statistics.median(
                layer_metric(spec["name"], tot, wall, plain_wall) for tot, wall in totals
            )
            for spec in specs["per_layer"]
        }
        info = {"rounds": len(plain) + len(traced), "traced_rounds": len(traced)}
        specs_used = specs["per_layer"]
    metrics = {
        s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs_used
    }
    return metrics, job, info


def write_golden(parts: list[str]) -> int:
    runner = Runner(deadline=time.monotonic() + 3600)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in parts:
        invocations = []
        for inv in PARTS[name]:
            args = inv + REPORT_FORMAT
            _, code, _, text = runner.spawn([sys.executable, "-m", "pmdg", *args])
            records = [{f: r[f] for f in GOLDEN_FIELDS} for r in json.loads(text)]
            invocations.append({"args": args, "exit": code, "records": records})
        fails = golden_failures(invocations)
        expected = EXPECTED_FAILURES.get(name, [])
        if sorted(map(repr, fails)) != sorted(map(repr, expected)) or not all(
            inv["records"] for inv in invocations
        ):
            print(f"{name}: failing claims {fails}, expected {expected}; golden not written",
                  file=sys.stderr)
            return 1
        with open(golden_path(name), "w") as fh:
            json.dump({"workload": name, "invocations": invocations}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote golden/{name}.json: {sum(len(i['records']) for i in invocations)} records")
    return 0


def run_workload(workload: str, args, specs: dict) -> dict | None:
    """Measure one workload and print its lines; None if it hit the run limit."""
    runner = Runner(deadline=time.monotonic() + HARD_LIMIT_S)
    env = environment(runner, workload, args)
    try:
        metrics, job, info = measure(workload, args, specs, runner)
    except (RunDeadline, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload}: killed `{e}` at the {HARD_LIMIT_S:.0f} s run limit",
              file=sys.stderr)
        return None
    for name, m in metrics.items():
        print(f"{workload}  {name:40s} {m['value']:14.6f} {m['unit']}")
    if "reference_s" in info:
        print(f"{workload}  reference task median {info['reference_s']:.6f} s"
              f" over {info['reference_runs']} runs")
    if len(info.get("parts", ())) > 1:
        for part, figures in info["parts"].items():
            print(f"{workload}  part {part:16s} wall_s {figures['wall_s']:10.6f} s"
                  f"  peak_rss_mb {figures['peak_rss_mb']:10.3f} MB")
    print("run: " + json.dumps(info))
    print("env: " + json.dumps(env))
    for line in job.problems[:20]:
        print(f"failed: {line}")
    return {
        "correct": job.failed == 0,
        "attempted": job.attempted,
        "failed": job.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="record the current reports as the golden copies")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"perfbench: no {PACKAGE}/cli.py here; run from the root of a pmdg checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload in (None, "all") else [args.workload]
    parts = [part for name in names for part in WORKLOADS[name]]
    if args.write_golden:
        return write_golden(parts)
    if args.workload is None:
        p.error("--workload is required")
    missing = [golden_path(n) for n in parts if not os.path.isfile(golden_path(n))]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    results = {}
    for name in names:
        results[name] = run_workload(name, args, specs)
        if results[name] is None:
            return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
