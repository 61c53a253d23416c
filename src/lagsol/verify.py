"""Independent verification of exported meshes against their profile records.

The checks here recompute everything from scratch: intrinsic coordinates are
reconstructed from the raw mesh points, frames are rebuilt, and the soliton
equation is cross-checked against a finite-difference mean curvature oracle
on a deterministic subset of points.  Nothing is trusted from export time
except the profile record and the point coordinates themselves.

Each invariant is accepted at a fixed module constant (``RECONSTRUCTION_TOL``
through ``SOLITON_TOL``); only the number of FD cross-checks is a parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, VerificationError
from .geometry import angle_gap, centred_frame, centred_fd_mean_curvature
from .translator import TranslatorProfile, translator_fd_mean_curvature


# acceptance level of each recomputed invariant
RECONSTRUCTION_TOL = 1e-9   # |z - x * w| / (1 + |z|)
QUADRIC_TOL = 5e-10         # |sum lambda x^2 - 1|, inside the frame validator's own gate
STORED_ANGLE_TOL = 1e-8     # stored theta vs recomputed theta
LAGRANGIAN_TOL = 1e-10      # max |Im <f_a, f_b>|
ANGLE_TOL = 1e-9            # arg det(frame) vs theta, mod 2 pi
SOLITON_TOL = 1e-3          # relative, against the FD oracle
FD_CHECKS = 8               # default number of points receiving the FD cross-check


class _Worst:
    """Track the largest residual in a category and where it happened.

    A NaN residual counts as the worst value, and the first one is kept, so
    that a non-finite point cannot pass as a small residual.
    """

    __slots__ = ("value", "index")

    def __init__(self):
        self.value = 0.0
        self.index = -1

    def update(self, value: float, index: int):
        if not math.isnan(self.value) and not value <= self.value:
            self.value = value
            self.index = index

    def update_all(self, values: np.ndarray, indices: np.ndarray):
        """update() with each value and index in turn, in one array pass."""
        if not len(values):
            return
        nan = np.isnan(values)
        k = int(np.argmax(nan)) if nan.any() else int(np.argmax(values))
        self.update(float(values[k]), int(indices[k]))


@dataclass
class VerificationReport:
    kind: str
    count: int
    maxima: dict = field(default_factory=dict)
    failures: tuple = ()
    violations: tuple = ()
    rows: tuple = ()  # per-point residuals when collected

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_pairs(self):
        pairs = [("kind", self.kind), ("points", str(self.count)),
                 ("passed", "true" if self.passed else "false")]
        pairs += [("max_" + k, repr(float(v))) for k, v in sorted(self.maxima.items())]
        for i, msg in enumerate(self.failures):
            pairs.append((f"failure_{i}", msg))
        return pairs


def _fd_subset(count: int, fd_checks: int) -> np.ndarray:
    if fd_checks <= 0 or count == 0:
        return np.array([], dtype=int)
    return np.unique(np.linspace(0, count - 1, min(fd_checks, count)).round().astype(int))


def _runs(ts: np.ndarray):
    """(start, stop) of each run of equal consecutive curve parameters."""
    if not len(ts):
        return []
    edges = [0, *(np.flatnonzero(ts[1:] != ts[:-1]) + 1).tolist(), len(ts)]
    return list(zip(edges[:-1], edges[1:]))


def _finish(kind, count, worst, thresholds_by_name, rows=()):
    maxima = {name: w.value for name, w in worst.items()}
    violations = []
    failures = []
    for name, w in worst.items():
        tol = thresholds_by_name[name]
        if not w.value <= tol:   # NaN is a violation
            violations.append((name, w.value, tol))
            failures.append(
                f"{name} residual {w.value:.6e} exceeds {tol:.1e} at point {w.index}")
    return VerificationReport(kind, count, maxima, tuple(failures),
                              tuple(violations), tuple(rows))


@dataclass(frozen=True)
class _Kind:
    """What one kind of profile brings to the shared verification loop."""

    name: str
    curve: object       # the centred profile sampled by the leading coordinates
    thresholds: dict    # every invariant, in report order, with its threshold
    gate: tuple         # invariants a point must meet before its frame is checked
    data: object        # curve record row -> the kind's own data at that t
    own: object         # (x, z, theta, data) -> per-row residuals of the kind's own invariants
    frame: object       # (x, c) -> FramedPoint of the stacked rows x on curve row c
    oracle: object      # (x, t) -> FD mean curvature at one point
    drive: object       # FramedPoint -> the term equal to H on a soliton, per row


def _centred_kind(profile) -> _Kind:
    lam = np.asarray(profile.lambdas, dtype=float)
    return _Kind(
        "centred", profile,
        {"reconstruction": RECONSTRUCTION_TOL, "quadric": QUADRIC_TOL,
         "stored_angle": STORED_ANGLE_TOL, "lagrangian": LAGRANGIAN_TOL,
         "angle": ANGLE_TOL, "soliton": SOLITON_TOL},
        ("reconstruction", "quadric"),
        lambda c: None,
        lambda x, z, theta, _: {"quadric": np.abs(np.sum(lam * x * x, axis=-1) - 1.0)},
        lambda x, c: centred_frame(profile, x, c),
        lambda x, t: centred_fd_mean_curvature(profile, x, t),
        lambda fp: profile.alpha * fp.normal_projection(fp.z))


def _translator_kind(profile: TranslatorProfile) -> _Kind:
    base = profile.base
    lam = np.asarray(base.lambdas, dtype=float)
    maslov_ref = profile.maslov_constant
    T = profile.translation_vector()

    def own(x, z, theta, beta):
        zn = -0.5 * np.sum(lam * x * x, axis=-1) + beta
        return {"last_coordinate": np.abs(z[:, -1] - zn) / (1.0 + np.abs(zn)),
                "maslov": np.abs(theta + profile.alpha * z[:, -1].imag - maslov_ref)}

    return _Kind(
        "translator", base,
        {"reconstruction": RECONSTRUCTION_TOL, "last_coordinate": RECONSTRUCTION_TOL,
         "stored_angle": STORED_ANGLE_TOL, "maslov": STORED_ANGLE_TOL,
         "lagrangian": LAGRANGIAN_TOL, "angle": ANGLE_TOL, "soliton": SOLITON_TOL},
        ("reconstruction",),
        profile.beta,
        own,
        profile.frame_at,
        lambda x, t: translator_fd_mean_curvature(profile, x, t),
        lambda fp: fp.normal_projection(T))


def verify_mesh(profile, mesh, fd_checks: int = FD_CHECKS,
                *, collect_rows: bool = False) -> VerificationReport:
    """Recompute every invariant of a mesh and report the worst residuals.

    fd_checks points, spread evenly over the mesh, also get the FD mean
    curvature cross-check.  The returned report carries one failure line per
    violated invariant, naming it and locating the worst offending point.
    With collect_rows the per-point residual table (closed-form soliton
    residual, not the FD one) is kept on the report.
    """
    if isinstance(profile, TranslatorProfile):
        kind = _translator_kind(profile)
    elif getattr(profile, "kind", None) == "centred":
        kind = _centred_kind(profile)
    else:
        raise ValidationError(
            f"cannot verify meshes for profile kind {getattr(profile, 'kind', None)!r}")
    if mesh.n != profile.n:
        noun = "profile" if kind.name == "centred" else "translator"
        raise ValidationError(
            f"mesh has {mesh.n} complex coordinates but the {noun} needs {profile.n}")
    count = len(mesh)
    ts = np.asarray(mesh.params, dtype=float)
    thetas = np.asarray(mesh.thetas, dtype=float)
    # one curve read over the distinct parameters; each run of equal t reads its row
    grid, row_of = np.unique(ts, return_inverse=True)
    curve = kind.curve.curve(grid)
    worst = {name: _Worst() for name in kind.thresholds}
    fd_at = set(_fd_subset(count, fd_checks).tolist())
    rows = []

    # one pass per run of equal t: every row of a run shares the curve data,
    # so its residuals and frames are computed as stacked arrays
    for lo, hi in _runs(ts):
        t = float(ts[lo])
        index = np.arange(lo, hi)
        z = mesh.points[lo:hi]
        c = curve.row(row_of[lo])
        w, theta, data = c.w, float(c.theta), kind.data(c)
        zc = z[:, :len(w)]
        x = (zc / w).real
        res = {"reconstruction": np.max(np.abs(zc - x * w), axis=1)
               / (1.0 + np.max(np.abs(z), axis=1)),
               "stored_angle": angle_gap(thetas[lo:hi] - theta),
               **kind.own(x, z, theta, data)}
        for name, values in res.items():
            worst[name].update_all(values, index)
        # frame checks need points that are actually on the immersion
        on = np.logical_and.reduce([res[name] <= kind.thresholds[name]
                                    for name in kind.gate])
        framed = index[on]
        lag = ang = sol = np.empty(0)
        if len(framed):
            fp = kind.frame(x[on], c)
            lag, ang = fp.lagrangian_residual, fp.angle_residual
            worst["lagrangian"].update_all(lag, framed)
            worst["angle"].update_all(ang, framed)
            drive = kind.drive(fp)
            if collect_rows:
                sol = np.linalg.norm(drive - fp.mean_curvature(), axis=-1)
        if collect_rows:
            table = np.full((hi - lo, 3), math.nan)
            table[on] = np.column_stack([lag, ang, sol])
            rows += [(i, t, *r) for i, r in zip(range(lo, hi), table.tolist())]
        for k, i in enumerate(framed.tolist()):
            if i not in fd_at:
                continue
            H_fd = kind.oracle(x[i - lo], t)
            H_norm = float(np.linalg.norm(H_fd))
            if profile.alpha == 0.0:
                # minimal case: the equation is H = 0, so the check is absolute
                worst["soliton"].update(H_norm, i)
            else:
                num = float(np.linalg.norm(drive[k] - H_fd))
                worst["soliton"].update(num / max(H_norm, 1e-12), i)

    return _finish(kind.name, count, worst, kind.thresholds, rows)


def require_verified(report: VerificationReport) -> VerificationReport:
    """Raise VerificationError for the worst violated invariant unless all passed."""
    if not report.passed:
        name, value, tol = max(report.violations, key=lambda v: v[1] / v[2])
        raise VerificationError(name, value, tol)
    return report
