"""Command-line front end.

Subcommands construct soliton families, invert the asymptotic angle map,
search for periodic data, export meshes and reports, and independently
re-verify exported artifacts.  Every option can also be supplied through a
plain ``key = value`` config file (``--config``); an explicit flag wins over
the file.  Outputs are deterministic: identical configuration produces
byte-identical files.

Exit codes: 0 all checks pass, 2 validation error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (LagsolError, NumericalError, ValidationError,
                     VerificationError)
from .expander import (ExpanderProfile, angle_map, asymptotic_angles,
                       invert_angle_map)
from .meshing import centred_mesh, flow_slice_mesh, translator_mesh
from .params import SolitonParams
from .periodic import (PeriodicSpec, brakke_family, compute_orbit,
                       detect_periodicity, search_periodic_data, topology_tag)
from .translator import TranslatorProfile
from .verify import VerificationThresholds, require_verified, verify_mesh

PROG = "lagsol"
OUTDIR_ENV = "LAGSOL_OUTDIR"


# -- option plumbing ---------------------------------------------------------

def _f(v):
    return float(v)


def _i(v):
    return int(v)


def _s(v):
    return str(v)


def _fs(v):
    if isinstance(v, (tuple, list)):
        return tuple(float(x) for x in v)
    parts = [p for p in str(v).split(",") if p.strip()]
    if not parts:
        raise ValidationError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _b(v):
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {v!r}")


@dataclass(frozen=True)
class _Opt:
    name: str
    conv: object
    default: object = None
    help: str = ""
    required: bool = False
    flag: bool = False


_COMMON = (
    _Opt("outdir", _s, None, "output directory (default: $" + OUTDIR_ENV + " or .)"),
    _Opt("prefix", _s, None, "output file prefix (default: the subcommand name)"),
)


def _add_options(sp, opts):
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="key = value file supplying any of the options below")
    for o in opts:
        arg = "--" + o.name
        if o.flag:
            sp.add_argument(arg, action="store_true", default=argparse.SUPPRESS,
                            help=o.help)
        else:
            sp.add_argument(arg, default=argparse.SUPPRESS, metavar="V",
                            help=o.help)


def _merge_options(args, opts):
    """Defaults, then config-file values, then explicit flags."""
    byname = {o.name: o for o in opts}
    vals = {o.name: o.default for o in opts}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        for k, v in fileio.read_keyvalues(cfg_path).items():
            k = k.replace("_", "-")
            if k not in byname:
                raise ValidationError(f"{cfg_path}: unknown config key {k!r}")
            vals[k] = v
    ns = vars(args)
    for o in opts:
        attr = o.name.replace("-", "_")
        if attr in ns:
            vals[o.name] = ns[attr]
    out = {}
    for o in opts:
        v = vals[o.name]
        if v is None:
            if o.required:
                raise ValidationError(f"missing required option --{o.name}")
            out[o.name] = None
        else:
            out[o.name] = o.conv(v)
    _validate_counts(out)
    return out


def _validate_counts(cfg):
    for key in ("samples", "mesh-samples", "mesh-count"):
        if cfg.get(key) is not None and cfg[key] < 2:
            raise ValidationError(f"--{key} must be at least 2")
    for key in ("tol", "qmax", "y-max", "t-max", "radius", "rho-max", "fd-checks"):
        if cfg.get(key) is not None and cfg[key] <= 0:
            raise ValidationError(f"--{key} must be positive")


def _outpath(cfg, default_prefix, suffix):
    outdir = cfg.get("outdir") or os.environ.get(OUTDIR_ENV) or "."
    prefix = cfg.get("prefix") or default_prefix
    d = Path(outdir)
    d.mkdir(parents=True, exist_ok=True)
    return d / f"{prefix}_{suffix}"


def _wrote(path):
    print(f"wrote {path}")


def _print_pairs(pairs):
    for k, v in pairs:
        print(f"{k} = {v}")


def _fmt_list(vals):
    return ",".join(repr(float(v)) for v in vals)


def _export_verified(cfg, name, profile, mesh, extra_pairs=()) -> int:
    """Write the mesh (CSV, and PLY on request) and the profile record, verify
    the mesh independently, then write its summary followed by extra_pairs."""
    p = _outpath(cfg, name, "mesh.csv")
    fileio.write_mesh_csv(p, mesh)
    _wrote(p)
    if cfg["ply"]:
        p = _outpath(cfg, name, "mesh.ply")
        fileio.write_mesh_ply(p, mesh, project3d=cfg["project3d"])
        _wrote(p)
    p = _outpath(cfg, name, "record.txt")
    fileio.write_profile_record(p, profile)
    _wrote(p)
    report = verify_mesh(profile, mesh,
                         VerificationThresholds(fd_checks=cfg["fd-checks"]))
    p = _outpath(cfg, name, "summary.txt")
    fileio.write_keyvalues(p, report.summary_pairs() + list(extra_pairs))
    _wrote(p)
    print(f"verification: {'PASS' if report.passed else 'FAIL'}")
    for line in report.failures:
        print(line)
    require_verified(report)
    return 0


# -- expander ----------------------------------------------------------------

_EXPANDER_OPTS = _COMMON + (
    _Opt("alpha", _f, None, "expansion rate (>= 0)", required=True),
    _Opt("a", _fs, None, "profile curvatures a_1,...,a_n", required=True),
    _Opt("psi", _fs, None, "phase offsets (default zeros)"),
    _Opt("samples", _i, 200, "rows in the profile table"),
    _Opt("y-max", _f, 1.5, "profile parameter range [-y_max, y_max]"),
    _Opt("mesh-samples", _i, 25, "curve samples in the exported mesh"),
    _Opt("mesh-count", _i, 16, "base points per curve sample"),
    _Opt("seed", _i, 0, "mesh base-point seed"),
    _Opt("fd-checks", _i, 8, "points cross-checked against the FD oracle"),
    _Opt("ply", _b, False, "also write a PLY vertex cloud", flag=True),
    _Opt("project3d", _b, False, "project the PLY cloud to 3D", flag=True),
)


def cmd_expander(cfg) -> int:
    profile = ExpanderProfile(cfg["alpha"], cfg["a"], cfg["psi"])
    ys = np.linspace(-cfg["y-max"], cfg["y-max"], cfg["samples"])

    p = _outpath(cfg, "expander", "profile.csv")
    fileio.write_profile_csv(p, profile, ys)
    _wrote(p)

    angles = asymptotic_angles(profile)
    p = _outpath(cfg, "expander", "planes.csv")
    fileio.write_plane_report_csv(p, angles)
    _wrote(p)

    mesh_ts = np.linspace(-cfg["y-max"], cfg["y-max"], cfg["mesh-samples"])
    mesh = centred_mesh(profile, mesh_ts, cfg["mesh-count"], seed=cfg["seed"])
    thetas = [profile.theta_of(float(y)) for y in mesh_ts]
    span = max(thetas) - min(thetas)
    return _export_verified(cfg, "expander", profile, mesh, [
        ("theta_span", repr(span)),
        ("theta_constant", "true" if span < 1e-10 else "false"),
        ("angle_sum", repr(angles.total)),
    ])


# -- invert-angles -----------------------------------------------------------

_INVERT_OPTS = _COMMON + (
    _Opt("alpha", _f, None, "expansion rate (>= 0)", required=True),
    _Opt("target", _fs, None, "target asymptotic angles", required=True),
    _Opt("tol", _f, 1e-10, "Newton tolerance"),
    _Opt("write-report", _b, False, "also write the report file", flag=True),
)


def cmd_invert_angles(cfg) -> int:
    a = invert_angle_map(cfg["alpha"], cfg["target"], tol=cfg["tol"])
    achieved = angle_map(cfg["alpha"], tuple(a))
    residual = float(np.max(np.abs(achieved - np.asarray(cfg["target"]))))
    pairs = [
        ("a", _fmt_list(a)),
        ("achieved", _fmt_list(achieved)),
        ("target", _fmt_list(cfg["target"])),
        ("residual", repr(residual)),
    ]
    _print_pairs(pairs)
    if cfg["write-report"]:
        p = _outpath(cfg, "invert_angles", "report.txt")
        fileio.write_keyvalues(p, pairs)
        _wrote(p)
    return 0


# -- periodic / shrinker -----------------------------------------------------

_PERIODIC_OPTS = _COMMON + (
    _Opt("lambdas", _fs, None, "quadric signs (+-1, positives first)", required=True),
    _Opt("alphas", _fs, None, "base radii squared alpha_1,...,alpha_n", required=True),
    _Opt("A", _f, None, "first-integral value (> 0)", required=True),
    _Opt("alpha", _f, None, "rescaling rate", required=True),
    _Opt("psi", _fs, None, "phase offsets (default zeros)"),
    _Opt("qmax", _i, 64, "largest denominator tried by the rationality check"),
    _Opt("tol", _f, None, "rationality tolerance (default 1e-9 * qmax)"),
    _Opt("mesh", _b, False, "export a mesh (full period when periodic)", flag=True),
    _Opt("mesh-samples", _i, 25, "curve samples in the exported mesh"),
    _Opt("mesh-count", _i, 16, "base points per curve sample"),
    _Opt("seed", _i, 0, "mesh base-point seed"),
    _Opt("rho-max", _f, 1.2, "radial extent of non-compact quadric factors"),
    _Opt("fd-checks", _i, 8, "points cross-checked against the FD oracle"),
    _Opt("ply", _b, False, "also write a PLY vertex cloud", flag=True),
    _Opt("project3d", _b, False, "project the PLY cloud to 3D", flag=True),
)

_SHRINKER_OPTS = tuple(o for o in _PERIODIC_OPTS if o.name != "lambdas")


def _periodic_report(cfg, spec) -> int:
    orbit = compute_orbit(spec)
    kwargs = {"qmax": cfg["qmax"]}
    if cfg["tol"] is not None:
        kwargs["tol"] = cfg["tol"]
    verdict = detect_periodicity(orbit, **kwargs)
    topo = topology_tag(spec) if verdict.periodic else ""

    pairs = [("case", orbit.case),
             ("u1", repr(orbit.u1)), ("u2", repr(orbit.u2)),
             ("S", repr(orbit.S)), ("gamma", _fmt_list(orbit.gamma)),
             ("gamma_sum", repr(orbit.gamma_sum)),
             ("periodic", "true" if verdict.periodic else "false")]
    if verdict.periodic:
        pairs += [("r", str(verdict.r)),
                  ("p", ",".join(str(v) for v in verdict.p)),
                  ("T", repr(verdict.T)),
                  ("topology", topo)]
    pairs += [("max_residual", repr(verdict.max_residual))]
    _print_pairs(pairs)

    p = _outpath(cfg, cfg["_name"], "orbit.csv")
    fileio.write_orbit_report_csv(p, orbit, verdict, topo)
    _wrote(p)

    if not cfg["mesh"]:
        return 0
    profile = orbit.profile()
    span = verdict.T if verdict.periodic else orbit.S
    ts = np.linspace(0.0, span, cfg["mesh-samples"])
    mesh = centred_mesh(profile, ts, cfg["mesh-count"], seed=cfg["seed"],
                        rho_max=cfg["rho-max"])
    return _export_verified(cfg, cfg["_name"], profile, mesh)


def cmd_periodic(cfg) -> int:
    params = SolitonParams(cfg["lambdas"], 1.0, cfg["alpha"])
    spec = PeriodicSpec(params, cfg["alphas"], cfg["A"], cfg["psi"])
    cfg["_name"] = "periodic"
    return _periodic_report(cfg, spec)


def cmd_shrinker(cfg) -> int:
    # compact case: every lambda positive, which forces alpha < 0
    n = len(cfg["alphas"])
    params = SolitonParams((1.0,) * n, 1.0, cfg["alpha"])
    spec = PeriodicSpec(params, cfg["alphas"], cfg["A"], cfg["psi"])
    cfg["_name"] = "shrinker"
    return _periodic_report(cfg, spec)


# -- periodic-search ---------------------------------------------------------

_SEARCH_OPTS = _COMMON + (
    _Opt("lambdas", _fs, None, "quadric signs (+-1, positives first)", required=True),
    _Opt("alpha", _f, None, "rescaling rate", required=True),
    _Opt("gamma", _fs, None, "target holonomies gamma_1,...,gamma_n", required=True),
    _Opt("tol", _f, 1e-8, "search tolerance on the holonomies"),
    _Opt("max-iter", _i, 60, "Newton iteration budget"),
    _Opt("qmax", _i, 64, "largest denominator tried by the rationality check"),
)


def cmd_periodic_search(cfg) -> int:
    spec = search_periodic_data(cfg["lambdas"], cfg["alpha"], cfg["gamma"],
                                tol=cfg["tol"], max_iter=cfg["max-iter"])
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit, qmax=cfg["qmax"])
    pairs = [("alphas", _fmt_list(spec.alphas)), ("A", repr(spec.A)),
             ("gamma", _fmt_list(orbit.gamma)),
             ("residual", repr(float(np.max(np.abs(
                 np.asarray(orbit.gamma) - np.asarray(cfg["gamma"])))))),
             ("periodic", "true" if verdict.periodic else "false")]
    if verdict.periodic:
        pairs += [("r", str(verdict.r)),
                  ("p", ",".join(str(v) for v in verdict.p)),
                  ("T", repr(verdict.T))]
    _print_pairs(pairs)
    p = _outpath(cfg, "periodic_search", "search.txt")
    fileio.write_keyvalues(p, pairs)
    _wrote(p)
    p = _outpath(cfg, "periodic_search", "orbit.csv")
    fileio.write_orbit_report_csv(p, orbit, verdict,
                                  topology_tag(spec) if verdict.periodic else "")
    _wrote(p)
    return 0


# -- translator --------------------------------------------------------------

_TRANSLATOR_OPTS = _COMMON + (
    _Opt("alpha", _f, None, "rate of the profile equations", required=True),
    _Opt("a", _fs, None, "expander-base curvatures (graphical branch)"),
    _Opt("lambdas", _fs, None, "orbit-base quadric signs (oscillating branch)"),
    _Opt("alphas", _fs, None, "orbit-base radii squared"),
    _Opt("A", _f, None, "orbit-base first integral"),
    _Opt("psi", _fs, None, "phase offsets (default zeros)"),
    _Opt("K-re", _f, None, "real part of the integration constant K"),
    _Opt("K-im", _f, None, "imaginary part of the integration constant K"),
    _Opt("t-min", _f, None, "curve parameter range start (default -t-max)"),
    _Opt("t-max", _f, 1.2, "curve parameter range end"),
    _Opt("mesh-samples", _i, 25, "curve samples in the exported mesh"),
    _Opt("mesh-count", _i, 16, "base points per curve sample"),
    _Opt("radius", _f, 1.5, "radius of the flat base-coordinate ball"),
    _Opt("seed", _i, 0, "mesh base-point seed"),
    _Opt("fd-checks", _i, 8, "points cross-checked against the FD oracle"),
    _Opt("ply", _b, False, "also write a PLY vertex cloud", flag=True),
    _Opt("project3d", _b, False, "project the PLY cloud to 3D", flag=True),
)


def cmd_translator(cfg) -> int:
    K = None
    if cfg["K-re"] is not None or cfg["K-im"] is not None:
        K = complex(cfg["K-re"] or 0.0, cfg["K-im"] or 0.0)
    if cfg["a"] is not None:
        profile = TranslatorProfile.from_expander_base(
            cfg["alpha"], cfg["a"], cfg["psi"], K=K)
    elif cfg["lambdas"] is not None:
        if cfg["alphas"] is None or cfg["A"] is None:
            raise ValidationError(
                "an orbit base needs --lambdas, --alphas and --A together")
        params = SolitonParams(cfg["lambdas"], 1.0, cfg["alpha"])
        spec = PeriodicSpec(params, cfg["alphas"], cfg["A"], cfg["psi"])
        profile = TranslatorProfile.from_orbit_base(spec, K=K)
    else:
        raise ValidationError(
            "specify the base: --a (expander base) or --lambdas/--alphas/--A")

    t_max = cfg["t-max"]
    t_min = cfg["t-min"] if cfg["t-min"] is not None else -t_max
    ts = np.linspace(t_min, t_max, cfg["mesh-samples"])
    mesh = translator_mesh(profile, ts, cfg["mesh-count"],
                           radius=cfg["radius"], seed=cfg["seed"])
    pairs = [("maslov_constant", repr(profile.maslov_constant)),
             ("oscillating_base", "true" if profile.oscillates else "false")]
    if profile.alpha != 0.0 and cfg["a"] is not None:
        anchor = profile.immersion(np.zeros(profile.base.n), 0.0)[-1]
        pairs += [("anchor_re", repr(float(anchor.real))),
                  ("anchor_im", repr(float(anchor.imag))),
                  ("anchor_expected_im", repr(-math.pi / (2.0 * profile.alpha)))]
    return _export_verified(cfg, "translator", profile, mesh, pairs)


# -- verify ------------------------------------------------------------------

_VERIFY_OPTS = _COMMON + (
    _Opt("mesh", _s, None, "mesh CSV to verify", required=True),
    _Opt("record", _s, None, "profile record the mesh claims to sample", required=True),
    _Opt("fd-checks", _i, 8, "points cross-checked against the FD oracle"),
    _Opt("residuals", _s, None, "optional per-point residual CSV to write"),
)


def cmd_verify(cfg) -> int:
    profile = fileio.read_profile_record(cfg["record"])
    mesh = fileio.read_mesh_csv(cfg["mesh"])
    report = verify_mesh(profile, mesh,
                         VerificationThresholds(fd_checks=cfg["fd-checks"]),
                         collect_rows=cfg["residuals"] is not None)
    _print_pairs(report.summary_pairs())
    if cfg["residuals"]:
        fileio.write_residual_csv(cfg["residuals"], report.rows)
        _wrote(cfg["residuals"])
    print(f"verification: {'PASS' if report.passed else 'FAIL'}")
    require_verified(report)
    return 0


# -- flow-family -------------------------------------------------------------

_FLOW_OPTS = _COMMON + (
    _Opt("lambdas", _fs, None, "quadric signs (mixed: 1 <= m < n)", required=True),
    _Opt("alphas", _fs, None, "base radii squared", required=True),
    _Opt("A", _f, None, "first-integral value (> 0)", required=True),
    _Opt("alpha", _f, None, "rescaling rate", required=True),
    _Opt("psi", _fs, None, "phase offsets (default zeros)"),
    _Opt("t", _fs, None, "time values, e.g. --t=-1,0,1", required=True),
    _Opt("mesh-samples", _i, 25, "curve samples per slice"),
    _Opt("mesh-count", _i, 16, "base points per curve sample"),
    _Opt("seed", _i, 0, "mesh base-point seed"),
    _Opt("rho-max", _f, 1.2, "radial extent of non-compact quadric factors"),
)


def cmd_flow_family(cfg) -> int:
    params = SolitonParams(cfg["lambdas"], 1.0, cfg["alpha"])
    spec = PeriodicSpec(params, cfg["alphas"], cfg["A"], cfg["psi"])
    orbit = compute_orbit(spec)
    profile = orbit.profile()
    ss = np.linspace(0.0, orbit.S, cfg["mesh-samples"])
    pairs = []
    for i, t in enumerate(cfg["t"]):
        fam = brakke_family(spec, t)
        mesh = flow_slice_mesh(profile, t, ss, cfg["mesh-count"],
                               seed=cfg["seed"], rho_max=cfg["rho-max"])
        p = _outpath(cfg, "flow_family", f"slice{i}.csv")
        fileio.write_mesh_csv(p, mesh)
        _wrote(p)
        pairs += [(f"t_{i}", repr(float(t))),
                  (f"topology_{i}", fam.topology),
                  (f"singular_{i}", "true" if fam.singular else "false"),
                  (f"file_{i}", str(p))]
        line = f"t = {float(t)!r}: {fam.topology}"
        if fam.singular:
            line += " (singular at the origin)"
        print(line)
    p = _outpath(cfg, "flow_family", "family.txt")
    fileio.write_keyvalues(p, pairs)
    _wrote(p)
    return 0


# -- parser and dispatch -----------------------------------------------------

_SUBCOMMANDS = (
    ("expander", _EXPANDER_OPTS, cmd_expander,
     "construct an expanding (or minimal) profile and export its artifacts"),
    ("shrinker", _SHRINKER_OPTS, cmd_shrinker,
     "compact closed-orbit case: all quadric signs positive, alpha < 0"),
    ("periodic", _PERIODIC_OPTS, cmd_periodic,
     "analyze a closed-orbit spec: turning points, period, holonomies, verdict"),
    ("periodic-search", _SEARCH_OPTS, cmd_periodic_search,
     "solve for data whose holonomies hit a target"),
    ("translator", _TRANSLATOR_OPTS, cmd_translator,
     "construct a translating soliton on a non-centred quadric"),
    ("invert-angles", _INVERT_OPTS, cmd_invert_angles,
     "invert the asymptotic angle map: angles -> curvatures a"),
    ("verify", _VERIFY_OPTS, cmd_verify,
     "independently re-verify an exported mesh against its profile record"),
    ("flow-family", _FLOW_OPTS, cmd_flow_family,
     "export time slices of the associated eternal flow"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="construct, analyze and verify Lagrangian soliton families")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts, func, help_text in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        _add_options(sp, opts)
        sp.set_defaults(_func=func, _opts=opts)
    return parser


_parser = lru_cache(maxsize=None)(build_parser)     # built on main's first call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _merge_options(args, args._opts)
        return args._func(cfg)
    except VerificationError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 3
    except LagsolError as exc:  # any future subclass: treat as validation
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
