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
import warnings
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
from .params import SolitonParams, require_finite
from .periodic import (OrbitConditioningWarning, PeriodicSpec, compute_orbit,
                       detect_periodicity, search_periodic_data, topology_tag)
from .translator import TranslatorProfile
from .verify import FD_CHECKS, require_verified, verify_mesh

PROG = "lagsol"
OUTDIR_ENV = "LAGSOL_OUTDIR"


# -- option plumbing ---------------------------------------------------------

def _fs(v):
    parts = [p for p in str(v).split(",") if p.strip()]
    if not parts:
        raise ValidationError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _scalar(kind, expected):
    def conv(v):
        try:
            return kind(v)
        except ValueError:
            raise ValidationError(f"expected {expected}, got {v!r}") from None
    return conv


_i, _f = _scalar(int, "an integer"), _scalar(float, "a number")


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


# option groups shared by several subcommands
_COMMON = (
    _Opt("outdir", str, None, "output directory (default: $" + OUTDIR_ENV + " or .)"),
    _Opt("prefix", str, None, "output file prefix (default: the subcommand name)"),
)
_PSI = _Opt("psi", _fs, None, "phase offsets (default zeros)")
_MESH = (
    _Opt("mesh-samples", _i, 25, "curve samples in the exported mesh"),
    _Opt("mesh-count", _i, 16, "base points per curve sample"),
    _Opt("seed", _i, 0, "mesh base-point seed"),
)
_FD_CHECKS = _Opt("fd-checks", _i, FD_CHECKS, "points cross-checked against the FD oracle")
_EXPORT = (
    _FD_CHECKS,
    _Opt("ply", _b, False, "also write a PLY vertex cloud", flag=True),
    _Opt("project3d", _b, False, "project the PLY cloud to 3D", flag=True),
)
_RHO_MAX = _Opt("rho-max", _f, 1.2, "radial extent of non-compact quadric factors")
_QMAX = _Opt("qmax", _i, 64, "largest denominator tried by the rationality check")


def _orbit_opts(required: bool = True):
    """lambdas, alphas, A, alpha and psi: the data of a closed orbit."""
    return (
        _Opt("lambdas", _fs, None, "quadric signs +-1, the +1s first", required),
        _Opt("alphas", _fs, None, "base radii squared alpha_1,...,alpha_n", required),
        _Opt("A", _f, None, "first-integral value (> 0)", required),
        _Opt("alpha", _f, None, "rescaling rate", required=True),
        _PSI,
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
    """Defaults, then config-file values, then explicit flags.  A converter's
    ValidationError, or a bound's breach, names where its value came from."""
    byname = {o.name: o for o in opts}
    vals = {o.name: o.default for o in opts}
    source = {o.name: f"--{o.name}" for o in opts}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        for k, v in fileio.read_keyvalues(cfg_path).items():
            k = k.replace("_", "-")
            if k not in byname:
                raise ValidationError(f"{cfg_path}: unknown config key {k!r}")
            vals[k], source[k] = v, f"{cfg_path}: {k}"
    ns = vars(args)
    for o in opts:
        attr = o.name.replace("-", "_")
        if attr in ns:
            vals[o.name], source[o.name] = ns[attr], f"--{o.name}"
    out = {}
    for o in opts:
        v = vals[o.name]
        if v is None:
            if o.required:
                raise ValidationError(f"missing required option --{o.name}")
            out[o.name] = None
        else:
            try:
                out[o.name] = o.conv(v)
            except ValidationError as e:
                raise ValidationError(f"{source[o.name]}: {e}") from None
    _validate_counts(out, source)
    return out


def _validate_counts(cfg, source):
    for key in ("samples", "mesh-samples", "mesh-count"):
        if cfg.get(key) is not None and cfg[key] < 2:
            raise ValidationError(f"{source[key]} must be at least 2")
    for key in ("seed", "max-iter"):
        if cfg.get(key) is not None and cfg[key] < 0:
            raise ValidationError(f"{source[key]} must be non-negative")
    for key in ("tol", "qmax", "y-max", "t-max", "radius", "rho-max", "fd-checks"):
        if cfg.get(key) is not None:
            require_finite(source[key], (cfg[key],))
            if cfg[key] <= 0:
                raise ValidationError(f"{source[key]} must be positive")


def _write(cfg, name, suffix, writer, *args, **kwargs):
    """Write <outdir>/<prefix>_<suffix> with writer(path, *args, **kwargs),
    report it on stdout and return its path; the prefix defaults to name."""
    outdir = Path(cfg.get("outdir") or os.environ.get(OUTDIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{cfg.get('prefix') or name}_{suffix}"
    writer(path, *args, **kwargs)
    print(f"wrote {path}")
    return path


def _print_pairs(pairs):
    for k, v in pairs:
        print(f"{k} = {v}")


def _export_verified(cfg, name, profile, mesh, extra_pairs=()) -> int:
    """Write the mesh (CSV, and PLY on request) and the profile record, verify
    the mesh independently, then write its summary followed by extra_pairs."""
    csv_file = _write(cfg, name, "mesh.csv", fileio.write_mesh_csv, mesh)
    if cfg["ply"]:
        _write(cfg, name, "mesh.ply", fileio.write_mesh_ply, mesh,
               project3d=cfg["project3d"], csv_file=csv_file)
    _write(cfg, name, "record.txt", fileio.write_profile_record, profile)
    report = verify_mesh(profile, mesh, cfg["fd-checks"])
    _write(cfg, name, "summary.txt", fileio.write_keyvalues,
           report.summary_pairs() + list(extra_pairs))
    print(f"verification: {'PASS' if report.passed else 'FAIL'}")
    for line in report.failures:
        print(line)
    require_verified(report)
    return 0


def _orbit_spec(cfg, lambdas=None) -> PeriodicSpec:
    """The orbit data of cfg; lambdas, when given, replaces --lambdas."""
    params = SolitonParams(lambdas or cfg["lambdas"], 1.0, cfg["alpha"])
    return PeriodicSpec(params, cfg["alphas"], cfg["A"], cfg["psi"])


def _verdict_pairs(verdict, *periodic_extra):
    """The periodicity verdict's report lines; periodic_extra follows T."""
    pairs = [("periodic", "true" if verdict.periodic else "false")]
    if verdict.periodic:
        pairs += [("r", str(verdict.r)),
                  ("p", ",".join(str(v) for v in verdict.p)),
                  ("T", repr(verdict.T)),
                  *periodic_extra]
    return pairs


# -- expander ----------------------------------------------------------------

_EXPANDER_OPTS = _COMMON + (
    _Opt("alpha", _f, None, "expansion rate (>= 0)", required=True),
    _Opt("a", _fs, None, "profile curvatures a_1,...,a_n", required=True),
    _PSI,
    _Opt("samples", _i, 200, "rows in the profile table"),
    _Opt("y-max", _f, 1.5, "profile parameter range [-y_max, y_max]"),
) + _MESH + _EXPORT


def cmd_expander(cfg) -> int:
    profile = ExpanderProfile(cfg["alpha"], cfg["a"], cfg["psi"])
    ys = np.linspace(-cfg["y-max"], cfg["y-max"], cfg["samples"])
    _write(cfg, "expander", "profile.csv", fileio.write_profile_csv, profile, ys)
    angles = asymptotic_angles(profile)
    _write(cfg, "expander", "planes.csv", fileio.write_plane_report_csv, angles)

    mesh_ts = np.linspace(-cfg["y-max"], cfg["y-max"], cfg["mesh-samples"])
    mesh = centred_mesh(profile, mesh_ts, cfg["mesh-count"], seed=cfg["seed"])
    span = float(mesh.thetas.max() - mesh.thetas.min())
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
        ("a", fileio.fmt_floats(a)),
        ("achieved", fileio.fmt_floats(achieved)),
        ("target", fileio.fmt_floats(cfg["target"])),
        ("residual", repr(residual)),
    ]
    _print_pairs(pairs)
    if cfg["write-report"]:
        _write(cfg, "invert_angles", "report.txt", fileio.write_keyvalues, pairs)
    return 0


# -- periodic / shrinker -----------------------------------------------------

_PERIODIC_OPTS = _COMMON + _orbit_opts() + (
    _QMAX,
    _Opt("tol", _f, None, "rationality tolerance (default 1e-9 * qmax)"),
    _Opt("mesh", _b, False, "export a mesh (full period when periodic)", flag=True),
) + _MESH + (_RHO_MAX,) + _EXPORT

_SHRINKER_OPTS = tuple(o for o in _PERIODIC_OPTS if o.name != "lambdas")


def _periodic_report(cfg, spec, name) -> int:
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit, qmax=cfg["qmax"], tol=cfg["tol"])
    topo = topology_tag(spec) if verdict.periodic else ""

    pairs = [("case", orbit.case),
             ("u1", repr(orbit.u1)), ("u2", repr(orbit.u2)),
             ("S", repr(orbit.S)), ("gamma", fileio.fmt_floats(orbit.gamma)),
             ("gamma_sum", repr(orbit.gamma_sum)),
             *_verdict_pairs(verdict, ("topology", topo)),
             ("max_residual", repr(verdict.max_residual))]
    _print_pairs(pairs)
    if cfg["mesh"]:     # before any file is written, so a failing mesh writes none
        profile = orbit.profile()
        span = verdict.T if verdict.periodic else orbit.S
        ts = np.linspace(0.0, span, cfg["mesh-samples"])
        mesh = centred_mesh(profile, ts, cfg["mesh-count"], seed=cfg["seed"],
                            rho_max=cfg["rho-max"])
    _write(cfg, name, "orbit.csv", fileio.write_orbit_report_csv, orbit, verdict, topo)
    return _export_verified(cfg, name, profile, mesh) if cfg["mesh"] else 0


def cmd_periodic(cfg) -> int:
    return _periodic_report(cfg, _orbit_spec(cfg), "periodic")


def cmd_shrinker(cfg) -> int:
    # compact case: every lambda positive, which forces alpha < 0
    spec = _orbit_spec(cfg, (1.0,) * len(cfg["alphas"]))
    return _periodic_report(cfg, spec, "shrinker")


# -- periodic-search ---------------------------------------------------------

_SEARCH_OPTS = _COMMON + _orbit_opts()[:1] + (
    _Opt("alpha", _f, None, "rescaling rate", required=True),
    _Opt("gamma", _fs, None, "target holonomies gamma_1,...,gamma_n", required=True),
    _Opt("tol", _f, 1e-8, "search tolerance on the holonomies"),
    _Opt("max-iter", _i, 60, "Newton iteration budget"),
    _QMAX,
)


def cmd_periodic_search(cfg) -> int:
    spec = search_periodic_data(cfg["lambdas"], cfg["alpha"], cfg["gamma"],
                                tol=cfg["tol"], max_iter=cfg["max-iter"])
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit, qmax=cfg["qmax"])
    pairs = [("alphas", fileio.fmt_floats(spec.alphas)), ("A", repr(spec.A)),
             ("gamma", fileio.fmt_floats(orbit.gamma)),
             ("residual", repr(float(np.max(np.abs(
                 np.asarray(orbit.gamma) - np.asarray(cfg["gamma"])))))),
             *_verdict_pairs(verdict)]
    _print_pairs(pairs)
    _write(cfg, "periodic_search", "search.txt", fileio.write_keyvalues, pairs)
    _write(cfg, "periodic_search", "orbit.csv", fileio.write_orbit_report_csv, orbit,
           verdict, topology_tag(spec) if verdict.periodic else "")
    return 0


# -- translator --------------------------------------------------------------

_TRANSLATOR_OPTS = _COMMON + (
    _Opt("a", _fs, None, "expander-base curvatures (graphical branch)"),
) + _orbit_opts(required=False) + (
    _Opt("K-re", _f, None, "real part of the integration constant K"),
    _Opt("K-im", _f, None, "imaginary part of the integration constant K"),
    _Opt("t-min", _f, None, "curve parameter range start (default -t-max)"),
    _Opt("t-max", _f, 1.2, "curve parameter range end"),
    _Opt("radius", _f, 1.5, "radius of the flat base-coordinate ball"),
) + _MESH + _EXPORT


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
        profile = TranslatorProfile.from_orbit_base(_orbit_spec(cfg), K=K)
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
        # z at the base origin and curve origin is beta there
        anchor = profile.beta(profile.base.curve([0.0]).row(0))
        pairs += [("anchor_re", repr(float(anchor.real))),
                  ("anchor_im", repr(float(anchor.imag))),
                  ("anchor_expected_im", repr(-math.pi / (2.0 * profile.alpha)))]
    return _export_verified(cfg, "translator", profile, mesh, pairs)


# -- verify ------------------------------------------------------------------

_VERIFY_OPTS = _COMMON + (
    _Opt("mesh", str, None, "mesh CSV to verify", required=True),
    _Opt("record", str, None, "profile record the mesh claims to sample", required=True),
    _FD_CHECKS,
    _Opt("residuals", str, None, "optional per-point residual CSV to write"),
)


def cmd_verify(cfg) -> int:
    profile = fileio.read_profile_record(cfg["record"])
    mesh = fileio.read_mesh_csv(cfg["mesh"])
    report = verify_mesh(profile, mesh, cfg["fd-checks"],
                         collect_rows=cfg["residuals"] is not None)
    _print_pairs(report.summary_pairs())
    if cfg["residuals"]:
        fileio.write_residual_csv(cfg["residuals"], report.table)
        print(f"wrote {cfg['residuals']}")
    print(f"verification: {'PASS' if report.passed else 'FAIL'}")
    require_verified(report)
    return 0


# -- flow-family -------------------------------------------------------------

_FLOW_OPTS = _COMMON + _orbit_opts() + (
    _Opt("t", _fs, None, "time values, e.g. --t=-1,0,1", required=True),
) + _MESH + (_RHO_MAX,)


def cmd_flow_family(cfg) -> int:
    spec = _orbit_spec(cfg)
    orbit = compute_orbit(spec)
    profile = orbit.profile()
    ss = np.linspace(0.0, orbit.S, cfg["mesh-samples"])
    for t in cfg["t"]:   # every t checked before any file is written
        require_finite("t", (t,))
    pairs = []
    for i, t in enumerate(cfg["t"]):
        mesh = flow_slice_mesh(profile, t, ss, cfg["mesh-count"],
                               seed=cfg["seed"], rho_max=cfg["rho-max"])
        p = _write(cfg, "flow_family", f"slice{i}.csv", fileio.write_mesh_csv, mesh)
        topo = topology_tag(spec, np.sign(t))
        pairs += [(f"t_{i}", repr(float(t))),
                  (f"topology_{i}", topo),
                  (f"singular_{i}", "true" if t == 0 else "false"),
                  (f"file_{i}", str(p))]
        print(f"t = {float(t)!r}: {topo}" + (" (singular at the origin)" if t == 0 else ""))
    _write(cfg, "flow_family", "family.txt", fileio.write_keyvalues, pairs)
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


def _show_warning(show):
    """showwarning printing an OrbitConditioningWarning or a RuntimeWarning
    (numpy's overflow and invalid-value warnings) as one lagsol line."""
    def shown(message, category, *rest):
        if issubclass(category, (OrbitConditioningWarning, RuntimeWarning)):
            print(f"{PROG}: warning: {message}", file=sys.stderr)
        else:
            show(message, category, *rest)
    return shown


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning(warnings.showwarning)
        try:
            return args._func(_merge_options(args, args._opts))
        except (LagsolError, OSError) as exc:
            print(f"{PROG}: {exc}", file=sys.stderr)
            if isinstance(exc, VerificationError):
                return 4
            if isinstance(exc, NumericalError):
                return 3
            return 2    # validation errors, unreadable files and any future subclass


if __name__ == "__main__":
    sys.exit(main())
