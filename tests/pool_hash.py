"""One SHA-256 per benchmark pool over everything the CLI gives back.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/pool_hash.py

Every unit of perfbench's ``workloads.job_units`` and ``defect_units`` for
the three workloads at seeds 1 and 801372 runs in this process, through
``child.run_units``, into a temporary directory.  Each job adds its key,
its exit code (or the type of the exception it raised) and its stdout to
the hash; then each file its unit wrote adds its name and bytes.  The
unit's output directory is replaced by ``{out}`` in stdout and in the
files.  stderr is left out: a traceback holds the paths of the checkout.

Two trees that print the same lines give byte-identical outputs on the
pools.  perfbench is imported, never written.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import child  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("expander-export", "orbit-export", "inverse-solve")
SEEDS = (1, 801372)


def _update(h, *parts):
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)


def hash_units(cli_main, units, workdir) -> tuple:
    """(SHA-256 hex digest, job count) over the units, each run in its own
    directory under workdir."""
    h, jobs = hashlib.sha256(), 0
    for u, unit in enumerate(units):
        where = os.path.join(workdir, str(u))
        outdir = os.path.join(where, "u0")
        runs, _ = child.run_units(cli_main, [unit], where)
        for _, job, _, _, rc, _, stdout, error, _ in runs:
            code = rc if error is None else error.split(":", 1)[0]
            _update(h, job["key"], code, stdout.replace(outdir, "{out}"))
            jobs += 1
        for base, dirs, files in os.walk(outdir):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    data = fh.read().replace(outdir.encode(), b"{out}")
                _update(h, os.path.relpath(path, outdir), data)
    return h.hexdigest(), jobs


def main() -> int:
    from lagsol.cli import main as cli_main

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                units = workloads.job_units(workload, seed) + workloads.defect_units(
                    workload, seed)
                digest, jobs = hash_units(cli_main, units,
                                          os.path.join(tmp, f"{workload}-{seed}"))
                _update(total, workload, seed, digest)
                print(f"{workload} seed {seed}: {digest} ({jobs} jobs)", flush=True)
    print(f"total: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
