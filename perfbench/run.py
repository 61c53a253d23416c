"""End-to-end benchmark of the ``lagsol`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload expander-export --seed 1 --seconds 20 --trace 0

The job list comes from the seed (see workloads.py).  Each measured run is a
fresh interpreter (child.py) with BLAS threads set to 1, driving
``lagsol.cli.main`` in a closed loop with a single client, so the package's
process-wide caches start cold as they do for a CLI invocation.

``--trace 0`` measures set-up time (several fresh interpreters importing
``lagsol.cli`` and building its parser; the median is reported), then one
untraced run of ``--seconds`` seconds, and prints the end-to-end metrics.
``--trace 1`` runs the job list untraced for half the time, then runs the
same jobs again with the layer tracer installed, and prints the per-layer
metrics with ``trace.overhead_ratio`` = traced job time / untraced job time.

Timings in the metrics are at the reference machine speed: each is rescaled
by the speed probe timed next to it (speed.py).  ``jobs_per_s`` is
successful jobs per second of job time so rescaled; the loop around the
jobs adds under 1%.  The raw wall-clock figures are printed above the
result line.

Every job passes through the correctness gate (gate.py).  A job that exits
non-zero or raises counts as failed, grouped by subcommand and exit code or
exception type on standard output.  A job that exits 0 with output that
breaks an invariant or its reference counts as failed and makes the run
incorrect.  Units that failed when the reference was recorded are not
measured; after the measured loop the untraced run re-runs a fixed sample of
them (workloads.defect_units) and prints how each ends, outside the counts
and metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SUBCOMMANDS = ("expander", "shrinker", "periodic", "periodic-search", "translator",
               "invert-angles", "verify", "flow-family")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_CODE = ("import lagsol.cli as c; c.build_parser(); "
              "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()")


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("LAGSOL_OUTDIR", None)
    return env


def measure_setup(root, env):
    """Seconds from starting an interpreter to lagsol.cli imported and its
    parser built, for SETUP_PROBES fresh interpreters; returns (times, the
    speed probe timed before each)."""
    times, probes = [], []
    speed.probe()   # the first call pays one-time costs
    for _ in range(SETUP_PROBES):
        probes.append(speed.probe())
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("lagsol.cli failed to import")
    return times, probes


def run_child(root, env, work, name, units, seconds, trace, timeout=CHILD_TIMEOUT_S,
              defects=()):
    """One measured run in a fresh interpreter, then the defect units; returns
    its result dict."""
    spec_path = os.path.join(work, f"{name}_spec.json")
    result_path = os.path.join(work, f"{name}_result.json")
    spec = {"units": units, "seconds": seconds, "trace": trace, "defects": list(defects),
            "work": os.path.join(work, name),
            "spans": os.path.join(work, "spans.csv") if trace else None}
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path,
                    result_path], cwd=root, env=env, check=True,
                   timeout=timeout)
    with open(result_path) as fh:
        result = json.load(fh)
    if trace:
        keep = os.path.join(root, ".perfbench", "last_trace_spans.csv")
        shutil.move(spec["spans"], keep)
    shutil.rmtree(spec["work"], ignore_errors=True)
    return result


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["jobs"]


def judge(records, reference):
    """Mark each record ok / failed / wrong and return the counts."""
    for rec in records:
        if rec["rc"] != 0:
            rec["status"] = "failed"
            continue
        ref = reference.get(rec["key"])
        if ref is not None:
            rec["problems"] = rec["problems"] + gate.compare(rec["numbers"], ref)
        rec["status"] = "wrong" if rec["problems"] else "ok"
    return Counter(rec["status"] for rec in records)


def report_failures(records, label):
    """Failed jobs grouped by subcommand and exit code or exception type."""
    groups = Counter()
    for rec in records:
        if rec["status"] == "failed":
            why = (rec["error"].split(":", 1)[0] if rec["error"]
                   else f"exit {rec['rc']}")
            groups[(rec["cmd"], why)] += 1
        elif rec["status"] == "wrong":
            groups[(rec["cmd"], "wrong output")] += 1
    for (cmd, why), n in sorted(groups.items()):
        print(f"[{label}] failed: {cmd:16s} {why:28s} x{n}")
    for rec in records:
        if rec["status"] == "wrong":
            print(f"[{label}] wrong output {rec['key']}: {'; '.join(rec['problems'])}")


def digits(residual):
    """Correct decimal digits of a residual, capped at double precision."""
    return -math.log10(max(residual, 1e-16))


def job_times(result):
    """Each job's seconds at the reference speed."""
    recs = result["records"]
    return speed.at_reference_speed([r["seconds"] for r in recs],
                                    [r["probe"] for r in recs])


def end_to_end(result, setup):
    recs = result["records"]
    times = job_times(result)
    ok_times = [t for t, r in zip(times, recs) if r["status"] == "ok"]
    soliton = [r["soliton"] for r in recs if r["soliton"] is not None]
    residual = [r["residual"] for r in recs if r["residual"] is not None]
    if len(ok_times) < 2:
        raise RuntimeError("fewer than two successful jobs; nothing to report")
    raw_ok = [r["seconds"] for r in recs if r["status"] == "ok"]
    print(f"raw wall clock: setup {statistics.median(setup[0]):.4f} s, "
          f"{len(ok_times) / result['wall_s']:.4f} jobs/s, "
          f"p50 {statistics.median(raw_ok):.4f} s; machine speed "
          f"{speed.REFERENCE_S / statistics.median(r['probe'] for r in recs):.3f} "
          "x reference")
    return {
        "setup_s": (statistics.median(speed.at_reference_speed(*setup)), "s"),
        "jobs_per_s": (len(ok_times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(ok_times), "s"),
        "job_p90_s": (statistics.quantiles(ok_times, n=10)[8], "s"),
        "success_rate": (len(ok_times) / len(recs), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "accuracy_digits": (statistics.median(map(digits, soliton or residual)), "digits"),
    }


def layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_per_eval", "_per_orbit", "_per_job", "newton_iters")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    if name.endswith("max_drift"):
        return "abs"
    return "count"


def per_layer(untraced, traced):
    m = dict(traced["layers"])
    m["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    for sub in SUBCOMMANDS:
        times = [r["seconds"] for r in untraced["records"] if r["cmd"] == sub]
        m[f"cli.{sub}.jobs"] = len(times)
        m[f"cli.{sub}.p50_s"] = statistics.median(times) if times else 0.0
    return {k: (v, layer_unit(k)) for k, v in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PATTERNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lagsol", "cli.py")):
        print("perfbench: run from the root of a lagsol checkout (src/lagsol missing)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    work = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    units = workloads.job_units(args.workload, args.seed)
    defects = workloads.defect_units(args.workload, args.seed)
    reference = load_reference()
    print(f"workload {args.workload}, seed {args.seed}, pool "
          f"{workloads.pool_name(args.seed)}, {len(units)} units available; "
          + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    try:
        if args.trace:
            plain = run_child(root, env, work, "plain", units, args.seconds / 2, False,
                              defects=defects)
            done = units[:plain["units"]]
            traced = run_child(root, env, work, "traced", done, None, True)
            passes = {"untraced": plain, "traced": traced}
        else:
            setup = measure_setup(root, env)
            plain = run_child(root, env, work, "plain", units, args.seconds, False,
                              defects=defects)
            passes = {"untraced": plain}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if plain["units"] == len(units):
        print("warning: the job pool ran out before the time was up")
    correct = True
    for label, res in passes.items():
        counts = judge(res["records"], reference)
        report_failures(res["records"], label)
        print(f"[{label}] {len(res['records'])} jobs in {res['units']} units, "
              f"{res['wall_s']:.2f} s: " + ", ".join(f"{k} {v}" for k, v in
                                                     sorted(counts.items())))
        for cmd in sorted({r["cmd"] for r in res["records"]}):
            t = [r["seconds"] for r in res["records"] if r["cmd"] == cmd]
            print(f"[{label}]   {cmd:16s} {len(t):4d} jobs, median {statistics.median(t):.4f} s")
        correct = correct and counts["wrong"] == 0
    known = plain["defect_records"]
    counts = judge(known, reference)
    report_failures(known, "known defects")
    if known:
        print(f"[known defects] {len(known)} jobs run apart from the measured ones (a sample "
              f"of the units that failed when the reference was recorded, and jobs that "
              f"raise): {counts['failed']} still fail, {counts['ok']} now pass")
    correct = correct and counts["wrong"] == 0
    if args.trace:
        leftovers = traced["leftover_wrappers"]
        if leftovers:
            print("tracer left wrappers installed: " + ", ".join(leftovers))
        correct = correct and not leftovers
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setup)
    recs = plain["records"]
    checked = [r[k] for r in recs for k in ("soliton", "residual") if r[k] is not None]
    if checked:
        print(f"worst checked residual {max(checked):.3e} "
              f"({digits(max(checked)):.2f} digits) over {len(checked)} jobs")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": sum(r["status"] != "ok" for r in recs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
