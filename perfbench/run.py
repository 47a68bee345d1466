"""finloc benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a finloc checkout:

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in its own child process (``perfbench/worker.py``) with
finloc imported from the checkout's ``src``, an address-space limit
(``RLIMIT_AS``) and a wall-clock timeout, so a blow-up becomes a failed op
instead of an out-of-memory kill.  One caller runs the ops in a closed loop,
no threads.  A run measures whole passes over the workload's op list; their
number is ``--seconds`` over the workload's nominal pass time, at least one,
so every run of every commit does the same work.

``--trace 0`` reports the end-to-end metrics: setup_s (median over several
child set-ups), run_s (median pass), op_p50_ms and op_tail_ms (the median
and the highest percentile with at least ten samples beyond it, both as
Harrell-Davis estimates over the op latencies) and peak_rss_mb.
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics plus trace.overhead_s.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import TRACED  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run: four set-up-only children and the run
RUN_BUDGET_S = 170.0  # every child of one workload run ends within this
MEM_LIMIT_MB = 1024  # RLIMIT_AS of each child; peak RSS is at most ~50 MB
TRACE_DIR = ".perfbench"

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]
MODULES = ["lattice", "present", "relation", "modb", "sheaf", "tannaka",
           "galois", "cli"]
# per-op work counts reported per pass, besides calls and self time
COUNTS = [
    "lattice.from_order.elements", "lattice.power_locale.elements",
    "lattice.function_lattice.elements", "lattice.locale_morphisms.checked",
    "present.lattice.elements", "galois.etale_module.elements",
    "galois.equivalence_check.candidates",
]
# per-op counts that are the answer itself: the oracle checks them, so they
# are printed per pass in the detail line but are not per-layer metrics
ANSWER_COUNTS = [
    "lattice.locale_morphisms.found", "galois.enumerate_bijection_cones.yielded",
    "sheaf.enumerate_sheaves.yielded", "galois.enumerate_actions.found",
    "galois.enumerate_comodules.found",
]
# set-up work, as seconds of self time in the traced set-up or as calls
SETUP_LAYERS = [("lattice.all_locales", "self_s"), ("cli.parse", "self_s"),
                ("galois.GaloisCoend.init", "calls"),
                ("tannaka.Coend.init", "calls")]


def span_names() -> list:
    return list(dict.fromkeys(name for _, _, name, _ in TRACED))


def per_layer_catalog() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(c, "count") for c in COUNTS]
    out += [(f"{m}.errors", "count") for m in MODULES]
    out += [(f"setup.{name}.{stat}", "s" if stat == "self_s" else "count")
            for name, stat in SETUP_LAYERS]
    out += [("trace.run_s", "s"), ("trace.overhead_s", "s")]
    return out


# -- provenance -------------------------------------------------------------


def provenance(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join("src", "finloc"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(root, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "rlimit_as_mb": MEM_LIMIT_MB, "seed": seed,
            "pythonhashseed": hash_seed(seed)}


def hash_seed(seed: int) -> str:
    return str(seed % 4294967296)


# -- children -----------------------------------------------------------------


class Child:
    """Outcome of one worker process."""

    def __init__(self, spawn: float):
        self.spawn = spawn
        self.ready = None
        self.ops = []  # (id, pass, seconds, ok, error)
        self.answers = {}  # (pass, id) -> answer as JSON
        self.passes = []  # (pass, seconds, failed ids)
        self.end = None
        self.returncode = None
        self.timed_out = False
        self.stderr = ""

    @property
    def setup_s(self):
        return None if self.ready is None else self.ready - self.spawn

    @property
    def complete(self) -> bool:
        return self.end is not None and self.returncode == 0


def run_child(workload: str, seed: int, passes: int, mem_mb: int,
              deadline: float, trace_out: str | None = None) -> Child:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--passes", str(passes)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = hash_seed(seed)
    limit = mem_mb * 1024 * 1024

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    child = Child(time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, preexec_fn=limit_memory)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        child.timed_out = True
    child.returncode = proc.returncode
    child.stderr = err
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = msg.get("kind")
        if kind == "ready":
            child.ready = msg["t"]
        elif kind == "op":
            child.ops.append((msg["id"], msg["i"], msg["s"], msg["ok"],
                              msg["error"]))
            child.answers[(msg["i"], msg["id"])] = msg["answer"]
        elif kind == "pass":
            child.passes.append((msg["i"], msg["s"], msg["failed"]))
        elif kind == "end":
            child.end = msg
    return child


def tally(child: Child) -> tuple[int, int]:
    """(attempted, failed) ops of a measuring child.

    An op fails on a wrong answer, an exception (MemoryError included), a
    cross-op check after its pass, or a timeout or crash while it ran."""
    attempted = len(child.ops)
    late = {(i, op) for i, _, failed in child.passes for op in failed}
    failed = sum(1 for op, i, _, ok, _ in child.ops
                 if not ok or (i, op) in late)
    if not child.complete and child.ready is not None:
        attempted += 1  # the op in flight when the child died
        failed += 1
    return attempted, failed


HD_STEPS = 16  # midpoint-rule steps per order-statistic slot


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: order statistics weighted by
    the Beta(p(n+1), (1-p)(n+1)) mass of their slot.  Unlike a single order
    statistic it moves little when the quantile falls between two groups of
    ops of very different cost, where one sample crossing over would make
    the sample quantile jump from one group to the other."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # midpoint rule on the slot [i/n, (i+1)/n]
        pts = ((i + (k + 0.5) / HD_STEPS) / n for k in range(HD_STEPS))
        weights.append(sum(math.exp((a - 1) * math.log(x)
                                    + (b - 1) * math.log1p(-x) - log_beta)
                           for x in pts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it, estimated by Harrell-Davis; the maximum when there
    are ten samples or fewer."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0
    p = (n - 10) / n
    return hd_quantile(latencies, p), 100.0 * p


# -- one workload ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        c = run_child(workload, seed, 0, MEM_LIMIT_MB, deadline)
        if not c.complete:
            return failed_result(c, "set-up child failed")
        setups.append(c.setup_s)
    child = run_child(workload, seed, passes, MEM_LIMIT_MB, deadline)
    attempted, failed = tally(child)
    if child.ready is None or not child.ops:
        return failed_result(child, "measuring child failed before its ops")
    setups.append(child.setup_s)
    lat = [s for _, _, s, _, _ in child.ops]
    value, pct = tail(lat)
    rss_kb = child.end["rss_kb"] if child.end else 0
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(s for _, s, _ in child.passes)
        if child.passes else sum(lat),
        "op_p50_ms": 1000 * hd_quantile(lat, 0.5),
        "op_tail_ms": 1000 * value,
        "peak_rss_mb": rss_kb / 1024,
    }
    detail = {
        "passes": len(child.passes), "op_samples": len(lat),
        "op_tail_percentile": round(pct, 2), "setup_samples": len(setups),
        "fail_ratio": failed / attempted,
        "failures": [(op, i, e) for op, i, _, ok, e in child.ops if not ok],
        "timed_out": child.timed_out,
    }
    return {"correct": failed == 0 and child.complete, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in END_TO_END},
            "detail": detail, "stderr": child.stderr if failed else ""}


def trace(workload: str, seed: int, seconds: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    plain = run_child(workload, seed, passes, MEM_LIMIT_MB, deadline)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-s{seed}.json.gz")
    traced = run_child(workload, seed, passes, MEM_LIMIT_MB, deadline,
                       path)
    attempted, failed = 0, 0
    for c in (plain, traced):
        a, f = tally(c)
        attempted += a
        failed += f
    if not (plain.complete and traced.complete and plain.passes
            and traced.passes):
        return failed_result(traced if plain.complete else plain,
                             "traced or untraced child failed")
    summary = traced.end["trace"]
    n = len(traced.passes)
    run_s = statistics.median(s for _, s, _ in traced.passes)
    plain_s = statistics.median(s for _, s, _ in plain.passes)
    stats, counts = summary["stats"], summary["counts"]
    values = {}
    for name in span_names():
        calls, self_s = stats["ops"].get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
    for c in COUNTS:
        values[c] = counts["ops"].get(c, 0) / n
    for m in MODULES:
        values[f"{m}.errors"] = sum(summary["errors"][ph].get(m, 0)
                                    for ph in ("setup", "ops"))
    for name, stat in SETUP_LAYERS:
        calls, self_s = stats["setup"].get(name, (0, 0.0))
        values[f"setup.{name}.{stat}"] = self_s if stat == "self_s" else calls
    values["trace.run_s"] = run_s
    values["trace.overhead_s"] = run_s - plain_s
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in per_layer_catalog()},
            "detail": {"passes": n, "trace_file": path,
                       "answer_counts": {c: counts["ops"].get(c, 0) / n
                                         for c in ANSWER_COUNTS},
                       "layer_split": layer_split(workload, values),
                       "fail_ratio": failed / attempted if attempted else 1.0},
            "stderr": ""}


def layer_split(workload: str, values: dict) -> list:
    """Spans the workload is predicted to leave at 0 calls but called."""
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        zero = json.load(fh)["workloads"][workload]["zero_calls"]
    return [name for name in zero if values[f"{name}.calls"] != 0]


def failed_result(child: Child, why: str) -> dict:
    attempted, failed = tally(child)
    return {"correct": False, "attempted": max(1, attempted),
            "failed": max(1, failed), "metrics": {}, "error": why,
            "detail": {"timed_out": child.timed_out,
                       "returncode": child.returncode},
            "stderr": child.stderr[-2000:]}


# -- output --------------------------------------------------------------------


def fmt(v: float) -> str:
    return f"{v:.6g}"


def report(workload: str, res: dict) -> None:
    print(f"== {workload}: correct={res['correct']} attempted={res['attempted']}"
          f" failed={res['failed']}")
    if res.get("error"):
        print(f"   error: {res['error']}")
    if res["stderr"]:
        print("   child stderr (tail):")
        for line in res["stderr"].splitlines()[-20:]:
            print(f"     {line}")
    for name, m in res["metrics"].items():
        print(f"   {name:<46} {fmt(m['value']):>14} {m['unit']}")
    d = res["detail"]
    if "fail_ratio" in d:
        print(f"   {'fail_ratio':<46} {fmt(d['fail_ratio']):>14} ratio")
    print(f"   detail: {json.dumps(d, default=str)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "finloc", "__init__.py")):
        print("error: run from the root of a finloc checkout "
              "(src/finloc not found)", file=sys.stderr)
        return 2
    print(f"# provenance {json.dumps(provenance(ns.seed))}")
    names = list(workloads.WORKLOADS) if ns.workload == "all" else [ns.workload]
    fn = trace if ns.trace else measure
    results = {}
    for w in names:
        results[w] = fn(w, ns.seed, ns.seconds)
        report(w, results[w])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": metrics}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
