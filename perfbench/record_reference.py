"""Record the reference key numbers of every pooled job: ``reference.json``.

Run from the root of a source checkout, at the commit whose numbers become
the reference:

    python3 perfbench/record_reference.py

Every unit of every workload pool (the main pool and the held-out pool) is
run once, untimed, through the same child process as a measured run.  Jobs
that exit 0 and pass the invariants have their key numbers stored (S, gamma,
phibar, the solved a, the solved alphas and A); jobs that fail get no entry,
so the gate checks only their invariants if a later commit makes them pass.
A unit with a failing job is listed under ``failed_units`` with the cause:
the measured runs leave it out, and each run re-runs a sample of these
units apart from its measured jobs (workloads.defect_units).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

WORKERS = 2


def record(root, env, work, workload, pool_name):
    units = [u for lst in workloads.pool(workload, pool_name).values() for u in lst]
    res = run.run_child(root, env, work, f"{workload}-{pool_name}", units, None, False,
                        timeout=None)
    jobs, failed, cost, failed_units = {}, Counter(), Counter(), {}
    for rec in res["records"]:
        unit = rec["key"].rsplit("/", 1)[0]
        cost[unit] += rec["seconds"]
        if rec["rc"] == 0 and not rec["problems"]:
            if rec["numbers"]:
                # 13 significant digits: four more than the tightest tolerance
                jobs[rec["key"]] = {k: [float(f"{x:.13g}") for x in v]
                                    for k, v in rec["numbers"].items()}
        else:
            why = (rec["error"].split(":", 1)[0] if rec["error"] else
                   f"exit {rec['rc']}" if rec["rc"] != 0 else "wrong output")
            failed_units.setdefault(unit, f"{rec['cmd']}: {why}")
            failed[(rec["cmd"], rec["error"] or f"exit {rec['rc']}",
                    "; ".join(rec["problems"]))] += 1
    return workload, pool_name, len(res["records"]), jobs, failed, cost, failed_units


def main():
    root = os.getcwd()
    env = run.child_env(root)
    work = os.path.join(root, ".perfbench", "record")
    os.makedirs(work, exist_ok=True)
    tasks = [(w, p) for w in workloads.PATTERNS for p in ("main", "heldout")]
    jobs, cost, failed_units = {}, {}, {}
    try:
        with ThreadPoolExecutor(WORKERS) as ex:
            futures = [ex.submit(record, root, env, work, w, p) for w, p in tasks]
            for fut in futures:
                w, p, n, got, failed, unit_cost, bad = fut.result()
                jobs.update(got)
                cost.update(unit_cost)
                failed_units.update(bad)
                print(f"{w} / {p}: {n} jobs, {len(got)} reference entries")
                for (cmd, why, problems), k in sorted(failed.items()):
                    print(f"    no entry: {cmd} {why} {problems} x{k}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write('{"jobs": {\n' + _lines(jobs) + '\n},\n"unit_seconds": {\n' + _lines(cost, 4)
                 + '\n},\n"failed_units": {\n' + _lines(failed_units) + "\n}}\n")


def _lines(table, digits=None):
    return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v if digits is None else round(v, digits))}"
                      for k, v in sorted(table.items()))


if __name__ == "__main__":
    main()
