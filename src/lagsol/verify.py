"""Independent verification of exported meshes against their profile records.

The checks here recompute everything from scratch: intrinsic coordinates are
reconstructed from the raw mesh points, frames are rebuilt, and the soliton
equation is cross-checked against a finite-difference mean curvature oracle
on a deterministic subset of points.  Nothing is trusted from export time
except the profile record and the point coordinates themselves.

A mesh is checked in one pass of whole arrays: one curve read over its
distinct parameters, one record row per point, each invariant as one array
over the points, one stack of frames over the points that pass the gate,
and one FD batch.

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
    """What one kind of profile brings to the shared verification pass."""

    name: str
    curve: object       # the centred profile sampled by the leading coordinates
    thresholds: dict    # every invariant, in report order, with its threshold
    gate: tuple         # invariants a point must meet before its frame is checked
    own: object         # (x, z, c) -> per-point residuals of the kind's own invariants
    frame: object       # (x, c) -> FramedPoint of the stacked points x, one row of c each
    oracle: object      # (xs, c) -> FD mean curvature at the points xs on their record rows c
    drive: object       # FramedPoint -> the term equal to H on a soliton, per point


def _centred_kind(profile) -> _Kind:
    lam = np.asarray(profile.lambdas, dtype=float)
    return _Kind(
        "centred", profile,
        {"reconstruction": RECONSTRUCTION_TOL, "quadric": QUADRIC_TOL,
         "stored_angle": STORED_ANGLE_TOL, "lagrangian": LAGRANGIAN_TOL,
         "angle": ANGLE_TOL, "soliton": SOLITON_TOL},
        ("reconstruction", "quadric"),
        lambda x, z, c: {"quadric": np.abs(np.sum(lam * x * x, axis=-1) - 1.0)},
        lambda x, c: centred_frame(profile, x, c),
        lambda xs, c: centred_fd_mean_curvature(profile, xs, c),
        lambda fp: profile.alpha * fp.normal_projection(fp.z))


def _translator_kind(profile: TranslatorProfile) -> _Kind:
    maslov_ref = profile.maslov_constant
    T = profile.translation_vector()

    def own(x, z, c):
        zn = profile.immersion(x, c)[:, -1]
        return {"last_coordinate": np.abs(z[:, -1] - zn) / (1.0 + np.abs(zn)),
                "maslov": np.abs(c.theta + profile.alpha * z[:, -1].imag - maslov_ref)}

    return _Kind(
        "translator", profile.base,
        {"reconstruction": RECONSTRUCTION_TOL, "last_coordinate": RECONSTRUCTION_TOL,
         "stored_angle": STORED_ANGLE_TOL, "maslov": STORED_ANGLE_TOL,
         "lagrangian": LAGRANGIAN_TOL, "angle": ANGLE_TOL, "soliton": SOLITON_TOL},
        ("reconstruction",),
        own,
        profile.frame_at,
        lambda xs, c: translator_fd_mean_curvature(profile, xs, c),
        lambda fp: fp.normal_projection(T))


def verify_mesh(profile, mesh, fd_checks: int = FD_CHECKS,
                *, collect_rows: bool = False) -> VerificationReport:
    """Recompute every invariant of a mesh and report the worst residuals.

    One pass over the whole mesh: the curve is read once over its distinct
    parameters, every point gets the record row of its parameter, and each
    invariant is one array over the points.  The frames are one stack over
    the points that pass the gate, and fd_checks points spread evenly over
    the mesh also get the FD mean curvature cross-check, as one batch.  The
    returned report carries one failure line per violated invariant, naming
    it and locating the worst offending point.
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
    index = np.arange(count)
    # one curve read over the distinct parameters, gathered to one row per point
    grid, row_of = np.unique(ts, return_inverse=True)
    c = kind.curve.curve(grid).row(row_of)
    z = mesh.points
    zc = z[:, :c.w.shape[-1]]
    x = (zc / c.w).real
    res = {"reconstruction": np.max(np.abs(zc - x * c.w), axis=1)
           / (1.0 + np.max(np.abs(z), axis=1)),
           "stored_angle": angle_gap(np.asarray(mesh.thetas, dtype=float) - c.theta),
           **kind.own(x, z, c)}
    worst = {name: _Worst() for name in kind.thresholds}
    for name, values in res.items():
        worst[name].update_all(values, index)

    # frame checks need points that are actually on the immersion
    on = np.logical_and.reduce([res[name] <= kind.thresholds[name] for name in kind.gate])
    framed = index[on]
    lag = ang = sol = np.empty(0)
    if len(framed):
        fp = kind.frame(x[on], c.row(on))
        lag, ang = fp.lagrangian_residual, fp.angle_residual
        worst["lagrangian"].update_all(lag, framed)
        worst["angle"].update_all(ang, framed)
        drive = kind.drive(fp)
        if collect_rows:
            sol = np.linalg.norm(drive - fp.mean_curvature(), axis=-1)
        # the FD cross-check of the framed points of the subset, as one batch
        fd = np.isin(framed, _fd_subset(count, fd_checks))
        if fd.any():
            H_fd = kind.oracle(x[on][fd], c.row(framed[fd]))
            H_norm = np.linalg.norm(H_fd, axis=-1)
            if profile.alpha == 0.0:
                # minimal case: the equation is H = 0, so the check is absolute
                worst["soliton"].update_all(H_norm, framed[fd])
            else:
                num = np.linalg.norm(drive[fd] - H_fd, axis=-1)
                worst["soliton"].update_all(num / np.maximum(H_norm, 1e-12), framed[fd])
    rows = ()
    if collect_rows:
        table = np.full((count, 3), math.nan)
        table[on] = np.column_stack([lag, ang, sol])
        rows = [(i, t, *r) for i, t, r in zip(range(count), ts.tolist(), table.tolist())]
    return _finish(kind.name, count, worst, kind.thresholds, rows)


def require_verified(report: VerificationReport) -> VerificationReport:
    """Raise VerificationError for the worst violated invariant unless all passed."""
    if not report.passed:
        name, value, tol = max(report.violations, key=lambda v: v[1] / v[2])
        raise VerificationError(name, value, tol)
    return report
