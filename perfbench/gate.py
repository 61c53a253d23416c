"""Per-job correctness gate.

A job succeeds when it exits 0, the paper's invariants hold on what it
printed or exported, and its key numbers match the reference recorded at
the benchmark's baseline commit.  ``check_job`` does the first two inside
the run's child process, after the job's timer stopped; ``compare`` does the
reference match in the parent.

Reference tolerances come from the solvers' own tolerances:

- S, gamma and phibar are quadratures at relative tolerance 1e-11; a later
  change may move them by its own error estimate, so they must agree to
  100 x 1e-11 = 1e-9 relative;
- the solved curvatures a come from Newton at residual 1e-10; allowing a
  Jacobian condition number up to 1e4 gives 1e-6 relative;
- the solved alphas and A of periodic-search come from Newton at holonomy
  tolerance 1e-8; the same allowance gives 1e-4 relative.

Each bound is applied as tol * (1 + |reference|): relative for large
values, absolute near zero.

The ODE tolerance (1e-11) is not in this list: no key number is integrated.
Its accuracy shows in the FD-oracle soliton residual of each verified mesh.
"""

from __future__ import annotations

import csv
import math
import os

QUAD_TOL = 1e-9        # 100 x quadrature rel_tol 1e-11
NEWTON_A_TOL = 1e-6    # 1e4 x Newton tolerance 1e-10
SEARCH_TOL = 1e-4      # 1e4 x periodic-search tolerance 1e-8
TOLERANCES = {"phibar": QUAD_TOL, "S": QUAD_TOL, "gamma": QUAD_TOL,
              "a": NEWTON_A_TOL, "alphas": SEARCH_TOL, "A": SEARCH_TOL}

HALF_PI = 0.5 * math.pi


def pairs_of(text: str) -> dict:
    """key = value lines of a CLI's standard output or summary file."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out[k.strip()] = v.strip()
    return out


def _floats(s: str):
    return [float(v) for v in s.split(",") if v.strip()]


def _read(path):
    with open(path) as fh:
        return fh.read()


def _arg(argv, name):
    for a in argv:
        if a.startswith(f"--{name}="):
            return a.split("=", 1)[1]
    raise KeyError(name)


def _sign_follows(gamma_sum: float, alpha: float, n: int) -> bool:
    """sign(sum gamma) = sign(alpha), unless the sum is within holonomy noise."""
    return gamma_sum * alpha > 0 or abs(gamma_sum) <= 1e-8 * n


def check_job(job, argv, stdout: str) -> dict:
    """Invariants of one job that exited 0.

    Returns {"problems": [...], "numbers": {...}, "soliton": float|None,
    "residual": float|None}; an empty problem list means the invariants hold.
    """
    cmd, ex = job["cmd"], job["expect"]
    problems, numbers = [], {}
    soliton = residual = None
    out = pairs_of(stdout)

    def need(cond, what):
        if not cond:
            problems.append(what)

    if cmd in ("expander", "translator", "periodic", "shrinker") and ex.get("mesh", True):
        summary = pairs_of(_read(os.path.join(_arg(argv, "outdir"),
                                              f"{cmd}_summary.txt")))
        need(summary.get("passed") == "true", "export verification did not pass")
        soliton = float(summary["max_soliton"])
        if cmd == "expander":
            alpha = ex["alpha"]
            angle_sum = float(summary["angle_sum"])
            if alpha > 0:
                need(angle_sum < HALF_PI, "angle_sum >= pi/2 for alpha > 0")
            else:
                need(abs(angle_sum - HALF_PI) <= 1e-8, "angle_sum != pi/2 for alpha = 0")
            need((summary["theta_constant"] == "true") == (alpha == 0.0),
                 "theta_constant disagrees with alpha = 0")
            with open(os.path.join(_arg(argv, "outdir"), "expander_planes.csv")) as fh:
                rows = list(csv.DictReader(fh))
            numbers["phibar"] = [float(r["plane1_angle"]) for r in rows]

    if cmd in ("periodic", "shrinker"):
        u1, u2, S = float(out["u1"]), float(out["u2"]), float(out["S"])
        gamma = _floats(out["gamma"])
        need(u1 < 0.0 < u2, "turning points do not bracket the base point")
        need(S > 0.0, "period S is not positive")
        need(_sign_follows(float(out["gamma_sum"]), ex["alpha"], len(gamma)),
             "sign of gamma_sum does not follow alpha")
        numbers["S"] = [S]
        numbers["gamma"] = gamma

    elif cmd == "verify":
        need(out.get("passed") == "true" and "verification: PASS" in stdout,
             "verify round trip did not pass")
        soliton = float(out["max_soliton"])

    elif cmd == "invert-angles":
        residual = float(out["residual"])
        need(residual <= ex["tol"], "invert-angles residual above tolerance")
        numbers["a"] = _floats(out["a"])

    elif cmd == "periodic-search":
        residual = float(out["residual"])
        gamma = _floats(out["gamma"])
        need(residual <= ex["tol"], "periodic-search residual above tolerance")
        need(_sign_follows(sum(gamma), ex["alpha"], len(gamma)),
             "sign of gamma_sum does not follow alpha")
        numbers["alphas"] = _floats(out["alphas"])
        numbers["A"] = [float(out["A"])]

    elif cmd == "flow-family":
        fam = pairs_of(_read(os.path.join(_arg(argv, "outdir"), "flow_family_family.txt")))
        for i, t in enumerate(ex["t"]):
            need((fam.get(f"singular_{i}") == "true") == (t == 0.0),
                 f"slice {i}: singular flag disagrees with t = {t!r}")
            need(os.path.isfile(fam.get(f"file_{i}", "")), f"slice {i} file missing")

    return {"problems": problems, "numbers": numbers, "soliton": soliton,
            "residual": residual}


def compare(numbers: dict, reference: dict) -> list:
    """Mismatches between a job's key numbers and its reference values."""
    bad = []
    for name, ref in reference.items():
        got = numbers.get(name)
        tol = TOLERANCES[name]
        if got is None or len(got) != len(ref):
            bad.append(f"{name}: expected {len(ref)} values, got {got!r}")
            continue
        for g, r in zip(got, ref):
            if not abs(g - r) <= tol * (1.0 + abs(r)):
                bad.append(f"{name}: {g!r} differs from reference {r!r}")
    return bad
