"""Seeded job lists for the three benchmark workloads.

A workload is a repeating pattern of unit kinds.  A unit is one CLI job, or
an export job followed by the ``verify`` job that re-reads its files.  Every
unit is drawn from a fixed pool (one per workload) whose parameters come
from the documented input ranges, so every job has a value in the recorded
reference.  The run seed orders each kind's pool: units are sorted by the
cost recorded with the reference and cut into strata of STRATUM units, and
each round takes one random unit from every stratum, strata in random
order.  Every run therefore sees the same mix of kinds and of cheap and
costly inputs, with distinct parameters in each job.

The held-out seed draws from a second pool generated from its own seed, so
no job it runs is ever seen while tuning on other seeds.

A unit that failed when the reference was recorded (``failed_units`` in
reference.json: translator jobs at alpha = 0 and periodic-search targets the
solver does not reach) is left out of the measured runs, so every measured
job is one the program completes.  The defects stay in view: each run also
runs ``defect_units``, a fixed sample of those units plus jobs that raise
inside the CLI, and reports how they end apart from the measured jobs.

Argument lists contain the token ``{out}`` where the job's output directory
goes; the runner substitutes it.  Negative numbers are always passed as
``--opt=value`` because argparse reads ``--alpha -0.5`` as a flag.
"""

from __future__ import annotations

import json
import math
import os
import random

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
STRATUM = 4
POOL_SEED = 20080124
HELDOUT_SEED = 801372

# unit kinds per workload, in the order one pattern period runs them
PATTERNS = {
    "expander-export": ("expander", "translator-expander", "expander"),
    "orbit-export": ("periodic-mesh", "shrinker-mesh", "translator-orbit",
                     "periodic-mesh", "shrinker-mesh", "flow-family"),
    "inverse-solve": ("invert-angles", "orbit-analysis", "periodic-search",
                      "invert-angles", "orbit-analysis", "invert-angles",
                      "periodic-search", "orbit-analysis"),
}

# units generated per kind and pool; runs stop early if a kind runs out
POOL_SIZE = {
    "expander": 240, "translator-expander": 120,
    "periodic-mesh": 160, "shrinker-mesh": 160, "translator-orbit": 80,
    "flow-family": 80,
    "invert-angles": 600, "orbit-analysis": 600, "periodic-search": 400,
}

# larger than the CLI default of 25 x 16
EXPORT_MESH = ("--mesh-samples", "30", "--mesh-count", "20")
# small, so a run holds a few hundred orbit jobs: each mesh sample and each
# FD stencil point of an orbit profile is a separate integration from s = 0.
# One FD point per export and per verify keeps every orbit job kind between
# about 0.04 and 0.15 s, so the median job is not on a gap between two kinds.
ORBIT_MESH = ("--mesh-samples", "4", "--mesh-count", "3", "--fd-checks", "1")
VERIFY_FD_CHECKS = "--fd-checks=1"
QMAX_CHOICES = (64, 4096, 100000)
CASE_A_LAMBDAS = ((1.0, 1.0), (1.0, 1.0, 1.0))
CASE_B_LAMBDAS = ((1.0, -1.0), (1.0, 1.0, -1.0), (1.0, -1.0, -1.0))
# recorded failures re-run by every run, per kind and cause
DEFECT_SAMPLE = 2


def _fl(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


def _opt(name, value) -> str:
    if isinstance(value, (tuple, list)):
        return f"--{name}={_fl(value)}"
    return f"--{name}={value!r}"


def _log_uniform(rng, lo, hi) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _expander_alpha(rng) -> float:
    """alpha = 0 (minimal) for about a quarter of jobs, else in (0.2, 2)."""
    return 0.0 if rng.random() < 0.25 else rng.uniform(0.2, 2.0)


def _orbit_spec(rng, lambdas, alpha):
    """conftest.make_orbit_spec style: radii in [0.5, 3], A a fraction 0.3-0.9
    of the first-integral ceiling sqrt(G(0)) = sqrt(prod alphas) at the base."""
    alphas = [_log_uniform(rng, 0.5, 3.0) for _ in lambdas]
    A = rng.uniform(0.3, 0.9) * math.sqrt(math.prod(alphas))
    return list(lambdas), alphas, A, alpha


def _mixed_alpha(rng) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0)


def _spec_opts(lambdas, alphas, A, alpha, with_lambdas=True):
    opts = [_opt("lambdas", lambdas)] if with_lambdas else []
    return opts + [_opt("alphas", alphas), _opt("A", A), _opt("alpha", alpha)]


def _job(cmd, argv, **expect):
    return {"cmd": cmd, "argv": [cmd] + list(argv), "expect": expect}


# -- unit generators (each returns a list of jobs) ---------------------------

def _unit_expander(rng):
    n = rng.choice((2, 3))
    alpha = _expander_alpha(rng)
    a = [_log_uniform(rng, 0.3, 30.0) for _ in range(n)]
    argv = [_opt("alpha", alpha), _opt("a", a), *EXPORT_MESH,
            f"--seed={rng.randrange(1000)}", "--outdir={out}"]
    return [_job("expander", argv, alpha=alpha)]


def _unit_translator_expander(rng):
    nb = rng.choice((1, 2))   # total dimension n = nb + 1 in {2, 3}
    alpha = _expander_alpha(rng)
    a = [_log_uniform(rng, 0.3, 30.0) for _ in range(nb)]
    argv = [_opt("alpha", alpha), _opt("a", a), *EXPORT_MESH,
            f"--seed={rng.randrange(1000)}", "--outdir={out}"]
    return [_job("translator", argv, alpha=alpha)]


def _export_and_verify(cmd, rng, lambdas, alpha, with_lambdas):
    lam, alphas, A, alpha = _orbit_spec(rng, lambdas, alpha)
    argv = _spec_opts(lam, alphas, A, alpha, with_lambdas) + [
        "--mesh", *ORBIT_MESH, f"--seed={rng.randrange(1000)}", "--outdir={out}"]
    prefix = "{out}/" + cmd
    verify = ["--mesh=" + prefix + "_mesh.csv", "--record=" + prefix + "_record.txt",
              VERIFY_FD_CHECKS]
    return [_job(cmd, argv, alpha=alpha, mesh=True), _job("verify", verify)]


def _unit_periodic_mesh(rng):
    return _export_and_verify("periodic", rng, rng.choice(CASE_B_LAMBDAS),
                              _mixed_alpha(rng), True)


def _unit_shrinker_mesh(rng):
    return _export_and_verify("shrinker", rng, rng.choice(CASE_A_LAMBDAS),
                              -rng.uniform(0.2, 2.0), False)


def _unit_translator_orbit(rng):
    if rng.random() < 0.5:
        lam, alphas, A, alpha = _orbit_spec(rng, (1.0, -1.0), _mixed_alpha(rng))
    else:
        lam, alphas, A, alpha = _orbit_spec(rng, (1.0, 1.0), -rng.uniform(0.2, 2.0))
    argv = _spec_opts(lam, alphas, A, alpha) + [
        *ORBIT_MESH, f"--seed={rng.randrange(1000)}", "--outdir={out}"]
    return [_job("translator", argv, alpha=alpha)]


def _unit_flow_family(rng):
    lam, alphas, A, alpha = _orbit_spec(rng, rng.choice(CASE_B_LAMBDAS), _mixed_alpha(rng))
    ts = [-rng.uniform(0.5, 2.0), 0.0, rng.uniform(0.5, 2.0)]
    argv = _spec_opts(lam, alphas, A, alpha) + [
        _opt("t", ts), "--mesh-samples=4", "--mesh-count=3",
        f"--seed={rng.randrange(1000)}", "--outdir={out}"]
    return [_job("flow-family", argv, t=ts)]


def _unit_invert_angles(rng):
    """Targets drawn as angles: sum < pi/2 for alpha > 0, = pi/2 for alpha = 0."""
    n = rng.choice((2, 3))
    alpha = _expander_alpha(rng)
    total = 0.5 * math.pi if alpha == 0.0 else 0.5 * math.pi * rng.uniform(0.2, 0.95)
    w = [rng.expovariate(1.0) for _ in range(n)]
    target = [total * x / sum(w) for x in w[:-1]]
    target.append(total - sum(target))
    argv = [_opt("alpha", alpha), _opt("target", target)]
    return [_job("invert-angles", argv, alpha=alpha, tol=1e-10)]


def _unit_orbit_analysis(rng):
    if rng.random() < 0.5:
        cmd, lam, alpha = "periodic", rng.choice(CASE_B_LAMBDAS), _mixed_alpha(rng)
    else:
        cmd, lam, alpha = "shrinker", rng.choice(CASE_A_LAMBDAS), -rng.uniform(0.2, 2.0)
    lam, alphas, A, alpha = _orbit_spec(rng, lam, alpha)
    argv = _spec_opts(lam, alphas, A, alpha, cmd == "periodic") + [
        f"--qmax={rng.choice(QMAX_CHOICES)}", "--outdir={out}"]
    return [_job(cmd, argv, alpha=alpha, mesh=False)]


def harmonic_limit_gamma(lambdas, alphas):
    """Closed-form holonomy limits -2 pi lambda_j / (alpha_j sqrt(2 sum alpha_k^-2))
    for data whose critical point sits at u = 0."""
    norm = math.sqrt(2.0 * sum(a ** -2.0 for a in alphas))
    return [-2.0 * math.pi * l / (a * norm) for l, a in zip(lambdas, alphas)]


def _unit_periodic_search(rng):
    """Targets at the harmonic limit of drawn data; a quarter nudged 1-5% off.

    The rate is chosen as alpha = -sum(lambda_j / alpha_j), which puts the
    critical point of the drawn data at u = 0.
    """
    lam = rng.choice(CASE_A_LAMBDAS + CASE_B_LAMBDAS)
    alphas = [_log_uniform(rng, 0.5, 3.0) for _ in lam]
    alpha = -sum(l / a for l, a in zip(lam, alphas))
    gamma = harmonic_limit_gamma(lam, alphas)
    nudged = rng.random() < 0.25
    if nudged:
        gamma = [g * (1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.05))
                 for g in gamma]
    argv = [_opt("lambdas", lam), _opt("alpha", alpha), _opt("gamma", gamma),
            "--outdir={out}"]
    return [_job("periodic-search", argv, alpha=alpha, tol=1e-8, nudged=nudged)]


UNIT_MAKERS = {
    "expander": _unit_expander,
    "translator-expander": _unit_translator_expander,
    "periodic-mesh": _unit_periodic_mesh,
    "shrinker-mesh": _unit_shrinker_mesh,
    "translator-orbit": _unit_translator_orbit,
    "flow-family": _unit_flow_family,
    "invert-angles": _unit_invert_angles,
    "orbit-analysis": _unit_orbit_analysis,
    "periodic-search": _unit_periodic_search,
}


def pool_name(seed: int) -> str:
    return "heldout" if seed == HELDOUT_SEED else "main"


def pool(workload: str, name: str):
    """{kind: [unit, ...]} for one workload; unit jobs carry reference keys."""
    base = HELDOUT_SEED if name == "heldout" else POOL_SEED
    out = {}
    for kind in dict.fromkeys(PATTERNS[workload]):
        rng = random.Random(f"{base}:{kind}")
        units = []
        for i in range(POOL_SIZE[kind]):
            jobs = UNIT_MAKERS[kind](rng)
            for part, job in enumerate(jobs):
                job["key"] = f"{name}/{kind}/{i}/{part}"
            units.append(jobs)
        out[kind] = units
    return out


def _recorded(table):
    try:
        with open(REFERENCE) as fh:
            return json.load(fh).get(table, {})
    except FileNotFoundError:
        return {}


# jobs that raise inside lagsol.cli.main rather than exit with a code
RAISING_JOBS = {
    "expander-export": [_job("expander", ["--alpha=1.0", "--a=1,foo", "--outdir={out}"],
                             alpha=1.0)],
    "inverse-solve": [_job("periodic-search", ["--lambdas=1,-1", "--alpha=1.0",
                                               "--gamma=-2,1.5", "--outdir={out}"],
                           alpha=1.0, tol=1e-8, nudged=True)],
}


def defect_units(workload: str, seed: int):
    """Units the measured runs leave out because they fail: the first
    DEFECT_SAMPLE recorded failures of each kind and cause in the seed's
    pool, then the workload's RAISING_JOBS."""
    failed = _recorded("failed_units")
    units, taken = [], {}
    for kind, lst in pool(workload, pool_name(seed)).items():
        for unit in lst:
            why = failed.get(unit[0]["key"].rsplit("/", 1)[0])
            if why is not None and taken.get((kind, why), 0) < DEFECT_SAMPLE:
                taken[(kind, why)] = taken.get((kind, why), 0) + 1
                units.append(unit)
    for i, job in enumerate(RAISING_JOBS.get(workload, ())):
        units.append([dict(job, key=f"defect/{job['cmd']}/{i}/0")])
    return units


def stratified_order(rng, costs):
    """Indices into costs, every round holding one unit of each cost stratum."""
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    strata = [ranked[k:k + STRATUM] for k in range(0, len(ranked), STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    while any(strata):
        rng.shuffle(strata)
        order += [stratum.pop() for stratum in strata if stratum]
    return order


def job_units(workload: str, seed: int):
    """The run's units in order: the workload pattern over stratified orders
    of each kind's pool, without the units in ``failed_units``."""
    if workload not in PATTERNS:
        raise ValueError(f"unknown workload {workload!r}")
    recorded, failed = _recorded("unit_seconds"), _recorded("failed_units")
    units = {kind: [u for u in lst if u[0]["key"].rsplit("/", 1)[0] not in failed]
             for kind, lst in pool(workload, pool_name(seed)).items()}
    rng = random.Random(seed)
    order = {}
    for kind, lst in units.items():
        costs = [recorded.get(u[0]["key"].rsplit("/", 1)[0], 0.0) for u in lst]
        order[kind] = iter(stratified_order(rng, costs))
    out = []
    for _ in range(max(POOL_SIZE.values())):
        for kind in PATTERNS[workload]:
            i = next(order[kind], None)
            if i is None:
                return out
            out.append(units[kind][i])
    return out
