"""The cost of a fresh CLI call: two report lines, not a check.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/fresh_cli_times.py

The first line says whether ``import lagsol.cli`` loads a scipy module.  The
second gives, per subcommand, the median wall time of one default-size call,
each in a new interpreter, over REPEATS rounds.  The calls write their files
to a temporary directory; ``verify`` re-reads the ``expander`` export.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 5
PROBE = ("import sys, lagsol.cli; print(any(m == 'scipy' or m.startswith('scipy.') "
         "for m in sys.modules))")


def calls(outdir: str) -> list:
    """(subcommand, argv) of one default-size call each, in run order."""
    out = f"--outdir={outdir}"
    return [
        ("expander", ["expander", "--alpha=1", "--a=1,2", out]),
        ("invert-angles", ["invert-angles", "--alpha=1", "--target=0.3,0.4"]),
        ("translator", ["translator", "--alpha=1", "--a=1,2", out]),
        ("periodic --mesh", ["periodic", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4",
                             "--alpha=0.5", "--mesh", out]),
        ("shrinker --mesh", ["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1",
                             "--mesh", out]),
        ("periodic-search", ["periodic-search", "--lambdas=1,1,-1",
                             "--alpha=-1.2666666666666666",
                             "--gamma=-3.5075391617039733,-2.338359441135982,"
                             "1.4030156646815894", out]),
        ("flow-family", ["flow-family", "--lambdas=1,-1", "--alphas=1,2", "--A=0.4",
                         "--alpha=0.5", "--t=-1,0,1", out]),
        ("verify", ["verify", f"--mesh={os.path.join(outdir, 'expander_mesh.csv')}",
                    f"--record={os.path.join(outdir, 'expander_record.txt')}"]),
    ]


def fresh_call(argv) -> float:
    """Wall time of python -m lagsol.cli argv in a new interpreter."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "lagsol.cli", *argv], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def main(outdir: str) -> None:
    loaded = subprocess.run([sys.executable, "-c", PROBE], check=True, capture_output=True,
                            text=True).stdout.strip() == "True"
    print(f"import lagsol.cli loads scipy: {'yes' if loaded else 'no'}")
    times = {name: [] for name, _ in calls(outdir)}
    for _ in range(REPEATS):
        for name, argv in calls(outdir):
            times[name].append(fresh_call(argv))
    print(f"fresh CLI call, median of {REPEATS} processes: "
          + ", ".join(f"{name} {statistics.median(ts):.2f} s" for name, ts in times.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
