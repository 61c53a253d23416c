"""One measured run, in a fresh interpreter: ``python3 child.py SPEC RESULT``.

SPEC (JSON) holds the units to run, the time budget, the output directory,
whether to trace, and the known-defect units to run once the measured loop
and its peak RSS are done; ``lagsol`` is imported from PYTHONPATH.  The child
imports ``lagsol.cli`` once and calls ``main(argv)`` for each job, one after
the other (a closed loop with a single client).  Only the ``main`` call is
timed; a speed probe (speed.py) runs just before it.  Standard output is
captured in memory; exported files are parsed and checked after the loop
ends.  RESULT receives per-job records (with their probe times), the run's
wall time and peak RSS, the defect units' records, and, when traced, the
per-layer summary.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402


def run_job(cli_main, argv, tr):
    """Call main(argv) once.

    Returns (exit code, or None when main raised; seconds; stdout; the
    exception as "Type: message" or None; stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tr is None:
                rc = cli_main(argv)
            else:
                with tr.span("cli.main"):
                    rc = cli_main(argv)
        except SystemExit as exc:   # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:    # a traceback: recorded as a failed job
            rc = None
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return rc, dt, out.getvalue(), error, err.getvalue()


def run_units(cli_main, units, workdir, seconds=None, tr=None):
    """Run units one after the other until the budget (None: all) is spent;
    returns (raw runs, wall seconds)."""
    runs = []
    t_start = perf_counter()
    for u, unit in enumerate(units):
        if seconds is not None and perf_counter() - t_start >= seconds:
            break
        outdir = os.path.join(workdir, f"u{u}")
        for job in unit:
            argv = [a.replace("{out}", outdir) for a in job["argv"]]
            if tr is not None:
                tr.current_job = len(runs)
            p = speed.probe()
            runs.append((u, job, argv, p) + run_job(cli_main, argv, tr))
    return runs, perf_counter() - t_start


def check_runs(runs):
    """Per-job records, with the invariants checked on jobs that exited 0."""
    records = []
    for u, job, argv, p, rc, dt, stdout, error, stderr in runs:
        rec = {"unit": u, "key": job["key"], "cmd": job["cmd"], "seconds": dt, "probe": p,
               "rc": rc, "error": error, "problems": [], "numbers": {},
               "soliton": None, "residual": None}
        if rc == 0:
            try:
                rec.update(gate.check_job(job, argv, stdout))
            except (OSError, KeyError, ValueError) as exc:
                rec["problems"] = [f"output missing or malformed: {exc!r}"]
        elif stderr:
            rec["stderr"] = stderr.strip().splitlines()[-1]
        records.append(rec)
    return records


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from lagsol.cli import main as cli_main

    tr = tracing.Tracer().install() if spec["trace"] else None
    speed.probe()   # the first call pays one-time costs
    try:
        runs, wall = run_units(cli_main, spec["units"], spec["work"], spec["seconds"], tr)
    finally:
        if tr is not None:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    defect_runs, _ = run_units(cli_main, spec.get("defects", []),
                               os.path.join(spec["work"], "defects"))

    records = check_runs(runs)
    result = {"wall_s": wall, "units": len({r["unit"] for r in records}),
              "peak_rss_mb": peak_rss_mb, "records": records,
              "defect_records": check_runs(defect_runs)}
    if tr is not None:
        result["layers"] = tr.summary(len(records))
        result["leftover_wrappers"] = tracing.leftover_wrappers()
        if spec.get("spans"):
            tr.write_spans(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
