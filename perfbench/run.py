"""deszeta benchmark: exact tables, regular and continued evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload numeric-regular --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each pass of a workload runs the whole seeded item list in one fresh
interpreter (caches start cold, as for every ``deszeta`` invocation); passes
run one after another until ``--seconds`` have been spent, and at least
``MIN_PASSES`` of them.  ``wall_s`` sums each item's fastest time over the
passes.  Checks and reference values are computed in this process and never
timed.  With ``--trace 1`` one more pass runs with every layer wrapped (see
tracing.py) and the per-layer metrics are printed.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
``failed`` counts items that raised, were refused, were accepted with a true
error above the tolerance, or printed exact output that differs from the
recorded seed output.  ``correct`` is false when an exact output differs
from the recorded one or a numeric output is not a finite number; accuracy
short of the tolerance is graded through ``failed`` and the error metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "deszeta")
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import workloads as W  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9
CHILD_TIMEOUT = 170
MODULES = ("__init__", "cli", "coeffs", "cyclotomic", "exact", "numeric",
           "series", "values", "verify")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run or cannot check the program."""


def child_env():
    """Environment of every child: the package from src/, the default
    double-precision kernel, and a fixed hash seed."""
    env = dict(os.environ)
    env.pop("DESING_PRECISION", None)  # switches the kernel to mpmath, ~35x slower
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def spawn(job, env):
    """Run one child on ``job``; returns (reply, seconds from spawn to import done)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchmarkError("child failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    reply = json.loads(proc.stdout)
    return reply, reply["ready"] - start


def measure_setup(env):
    spawn({"kind": "setup"}, env)  # compiles bytecode on a fresh checkout; not counted
    return [spawn({"kind": "setup"}, env)[1] for _ in range(SETUP_SAMPLES)]


def run_passes(job, env, seconds, min_passes):
    passes = []
    start = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        passes.append(spawn(job, env)[0])
    return passes


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f)["commands"]


def check_exact(items, passes):
    digests = load_digests()
    outcomes = []
    for index, item in enumerate(items):
        want = digests.get(item["name"], {}).get(str(item["variant"]))
        if want is None or want["argv"] != item["argv"]:
            raise BenchmarkError("no recorded output for %s variant %d"
                                 % (item["name"], item["variant"]))
        worst = M.OK
        for p in passes:
            outcome = M.classify_exact(p["results"][index], want["sha256"])
            if outcome != M.OK:
                worst = outcome
        outcomes.append(worst)
    return {"outcomes": outcomes, "max_abs_err": 0.0, "err_ratio_max": 0.0,
            "finite": True}


def numeric_references(items):
    """Reference value of every point: the exact closed form for grid points,
    the recorded mpmath value (references.json) for all others."""
    import reference as R

    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as f:
        recorded = json.load(f)
    refs = []
    for item in items:
        if item["grid"] is not None:
            refs.append(complex(float(R.grid_value(*item["grid"], *item["g"]))))
            continue
        want = recorded.get(item["ref"])
        if want is None or any(want[key] != item[key] for key in W.POINT_KEYS):
            raise BenchmarkError("no recorded reference for point %s" % item["ref"])
        refs.append(complex(*want["value"]))
    return refs


def check_numeric(items, passes):
    results = passes[0]["results"]
    finite = all(
        math.isfinite(r["value"][0]) and math.isfinite(r["value"][1])
        and math.isfinite(r["err"]) and r["err"] >= 0
        for p in passes for r in p["results"] if r["status"] == M.OK
    )
    max_err, max_ratio, outcomes = M.numeric_accuracy(results, numeric_references(items),
                                                      W.TOL)
    return {"outcomes": outcomes, "max_abs_err": max_err, "err_ratio_max": max_ratio,
            "finite": finite}


def point_latencies(passes, tol):
    """desing2 latency of every accepted point of every pass, in ms."""
    return [r["time"] * 1e3 for p in passes for r in p["results"]
            if r["status"] == M.OK and r["err"] <= tol]


def environment():
    try:
        import mpmath
        mp_version = mpmath.__version__
    except ImportError:
        mp_version = "missing"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "mpmath": mp_version}


def run_workload(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise BenchmarkError("package source not found at %s" % PACKAGE)
    env = child_env()
    items = W.items(workload, seed)
    kind = "exact" if workload == "exact-tables" else "numeric"
    job = {"kind": kind, "items": items, "tol": W.TOL}

    setup = measure_setup(env)
    passes = run_passes(job, env, seconds, 1 if trace else MIN_PASSES)
    if kind == "exact":
        check = check_exact(items, passes)
        latencies = []
    else:
        check = check_numeric(items, passes)
        latencies = point_latencies(passes, W.TOL)
    outcomes = check["outcomes"]
    wall = M.best_item_sum(passes)
    summary = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "setup_samples": len(setup), "env": environment(),
        "outcomes": {o: outcomes.count(o) for o in M.OUTCOMES},
        "outcomes_list": outcomes,
        "correct": check["finite"] and M.MISMATCH not in outcomes,
        "attempted": len(items), "failed": sum(o != M.OK for o in outcomes),
        "end_to_end": {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        },
        "report": {
            "point_p50_ms": (M.percentile(latencies, 50), "ms"),
            "point_p95_ms": (M.percentile(latencies, 95), "ms"),
            "point_samples": (len(latencies), "count"),
            "fail_frac": (M.fail_frac(outcomes), "1"),
            "max_abs_err": (check["max_abs_err"], "1"),
            "err_ratio_max": (check["err_ratio_max"], "1"),
        },
    }
    if trace:
        summary["per_layer"] = traced_metrics(workload, seed, job, env, passes, summary)
    return summary


def traced_metrics(workload, seed, job, env, passes, summary):
    """Per-layer metrics: one more pass with every layer wrapped."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    traced = spawn(dict(job, trace=True, spans_out=os.path.join(
        out_dir, "spans-%s-seed%d.jsonl" % (workload, seed))), env)[0]
    numeric = job["kind"] == "numeric"
    t = traced["trace"]
    layers = M.layer_metrics(t["calls"], t["self_s"], t["counts"],
                             traced["results"] if numeric else [],
                             summary["outcomes_list"] if numeric else [])
    report = summary["report"]
    for name in ("point_p50_ms", "point_p95_ms", "point_samples", "max_abs_err",
                 "err_ratio_max"):
        layers["numeric." + name] = report[name][0] or 0.0
    lines = M.line_counts([os.path.join(PACKAGE, f) for f in sorted(os.listdir(PACKAGE))
                           if f.endswith(".py")])
    for name in MODULES:
        layers["lines." + name] = lines.get(name, 0)
    layers["lines.total"] = sum(lines.values())
    layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(
        p["wall_s"] for p in passes)
    return layers


def print_report(summary):
    env = summary["env"]
    print("# workload=%s seed=%d passes=%d setup_samples=%d python=%s nproc=%d mpmath=%s"
          % (summary["workload"], summary["seed"], summary["passes"],
             summary["setup_samples"], env["python"], env["nproc"], env["mpmath"]))
    print("# outcomes %s" % " ".join("%s=%d" % kv for kv in summary["outcomes"].items()))
    rows = list(summary["end_to_end"].items()) + list(summary["report"].items())
    for name, (value, unit) in rows:
        shown = "n/a" if value is None else "%.6g" % value
        print("%-24s %14s %s" % (name, shown, unit))


def declared(section):
    """(name, unit) of every metric BENCHMARK.json declares in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def result(summary, trace):
    """The result object: end-to-end metrics, or per-layer ones when traced."""
    if trace:
        values = summary["per_layer"]
        section = "per_layer"
    else:
        values = {name: value for name, (value, _) in summary["end_to_end"].items()}
        section = "end_to_end"
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in declared(section)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                     for name in names]
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    for summary in summaries:
        print_report(summary)
    results = [result(summary, bool(args.trace)) for summary in summaries]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s/%s" % (s["workload"], name): metric
                        for s, r in zip(summaries, results)
                        for name, metric in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
