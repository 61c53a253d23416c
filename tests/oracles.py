"""Independent references the tests check the package against.

The package integrates only the reduced system (u, phi_1..phi_n, theta).
Here the full system in w_1..w_n in C and theta runs through the same
stepper, so the tests can check the reduction against it:

    dw_j/ds  = lambda_j e^{i theta} conj(w_1 ... w_{j-1} w_{j+1} ... w_n)
    dtheta/ds = alpha Im(e^{-i theta} w_1 ... w_n)

The real state is [Re w_1, Im w_1, ..., Re w_n, Im w_n, theta].

The module also holds the point-by-point finite-difference mean curvature
the package's batched one replaced, the central-difference Jacobian the
periodic search's forward one is checked against, the per-value file writers
(csv.writer rows of repr(float) fields) that the package's streamed row
writer must match byte for byte, the breakpoint ladders of the QUADPACK
references for expander integrals, and small helpers only tests call.
"""

import csv
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from lagsol import geometry, translator
from lagsol.errors import ValidationError
from lagsol.fileio import projection_matrix
from lagsol.geometry import _tangent_bases, fd_step
from lagsol.periodic import PeriodicSpec, critical_point
from lagsol.reduced_ode import (DEFAULT_ATOL, DEFAULT_RTOL, DOMAIN_FLOOR, ESCAPE_COLLAR,
                                TrajectorySpec, _run_two_sided, reduced_system)


def stationary_spec(params, alphas, psi=None) -> PeriodicSpec:
    """Data with A pinned at sqrt(G(u_*)), the Hamiltonian stationary value."""
    probe = PeriodicSpec(params, alphas, 1.0, psi)
    u_star = critical_point(probe)
    A = math.exp(0.5 * probe.log_G(u_star))
    return PeriodicSpec(params, alphas, A, psi)


def central_difference_jacobian(residual, x, h: float = 1e-6) -> np.ndarray:
    """(residual(x + h e_k) - residual(x - h e_k)) / 2h column by column:
    the reference for the periodic search's forward-difference Jacobian.
    Both sides must be feasible (residual not None)."""
    return np.array([(residual(x + h * e) - residual(x - h * e)) / (2.0 * h)
                     for e in np.eye(len(x))]).T


def log_growth(alpha: float, a, t: float) -> float:
    """E(t) = alpha t^2 + sum log1p(a_k t^2) of an expander, so P = expm1(E) / t^2."""
    t2 = t * t
    return alpha * t2 + sum(math.log1p(x * t2) for x in a)


def inv_sqrt_P(alpha: float, a, t: float) -> float:
    """P(t)^(-1/2) of an expander in scalar arithmetic, the limit
    (sum a + alpha)^(-1/2) at t = 0 and |t| e^(-E/2) past E = 700."""
    if t == 0.0:
        return 1.0 / math.sqrt(sum(a) + alpha)
    E = log_growth(alpha, a, t)
    if E > 700.0:
        return abs(t) * math.exp(-0.5 * E)
    return abs(t) / math.sqrt(math.expm1(E))


def scale_breaks(alpha: float, a: tuple):
    """Characteristic t-scales of an expander, each expanded into a geometric
    ladder: breakpoints for QUADPACK references over [0, y].

    The phase and arc integrands turn over at t ~ a_j^{-1/2} but their
    power-law shoulders extend for several decades; a single breakpoint lets
    the adaptive rule skip the shoulder entirely when the scales are extreme
    (a ~ 1e13 say), so each scale contributes a 10^k ladder of breakpoints.
    """
    base = {1.0 / math.sqrt(x) for x in a}
    base.add(1.0 / math.sqrt(sum(a) + alpha))
    out = set()
    for b in base:
        for k in range(-1, 8):
            v = b * 10.0 ** k
            if v < 10.0:
                out.add(v)
    out.add(1.0)
    return sorted(out)


def reduced_rhs(spec: TrajectorySpec, y):
    """Right-hand side of the reduced system at state y = [u, phi_1.., theta]."""
    return np.asarray(reduced_system(spec)[0](0.0, np.asarray(y, dtype=float).tolist()))


@dataclass(frozen=True)
class ReducedState:
    s: float
    u: float
    phis: tuple
    theta: float

    @property
    def phi(self) -> float:
        return sum(self.phis)


@dataclass(frozen=True)
class FullState:
    s: float
    ws: tuple
    theta: float

    @property
    def radii(self):
        return tuple(abs(w) for w in self.ws)


def state_at(traj, i: int) -> ReducedState:
    """Sample i of a ReducedTrajectory."""
    return ReducedState(float(traj.s[i]), float(traj.u[i]),
                        tuple(traj.phis[i]), float(traj.theta[i]))


class FullTrajectory:
    """Accepted samples of one full-system integration, ordered by s.

    phis holds the continuous argument lift of each w_j, anchored at the base
    point's phi0 and accumulated through principal-branch increments between
    consecutive samples (steps are small at the default tolerances).
    """

    def __init__(self, spec: TrajectorySpec, s, ws, theta, phis):
        self.spec = spec
        self.s = s
        self.ws = ws
        self.theta = theta
        self.phis = phis

    @property
    def u(self):
        """Height recovered from the radii, averaged over coordinates."""
        lam = self.spec.params.lambdas
        vals = (np.abs(self.ws) ** 2 - np.array(self.spec.alphas)) * np.array(lam)
        return vals.mean(axis=1)

    def lift_residuals(self):
        """max_j |r_j^2 - alpha_j - lambda_j u| with the shared height estimate."""
        lam = np.array(self.spec.params.lambdas)
        r2 = np.abs(self.ws) ** 2
        pred = np.array(self.spec.alphas) + np.outer(self.u, lam)
        return np.abs(r2 - pred).max(axis=1)

    def __len__(self):
        return len(self.s)


def _make_full_rhs(spec: TrajectorySpec):
    lam = spec.lambdas
    alpha = spec.params.alpha
    n = spec.n
    nan = (math.nan,) * (2 * n + 1)

    def rhs(s, y):
        y = np.asarray(y)
        w = y[0:2 * n:2] + 1j * y[1:2 * n:2]
        if (w.real ** 2 + w.imag ** 2).min() <= DOMAIN_FLOOR:
            return nan
        theta = y[2 * n]
        # prefix/suffix products give prod_{k != j} w_k without division
        pre = np.empty(n + 1, dtype=complex)
        suf = np.empty(n + 1, dtype=complex)
        pre[0] = 1.0
        suf[n] = 1.0
        for k in range(n):
            pre[k + 1] = pre[k] * w[k]
            suf[n - 1 - k] = suf[n - k] * w[n - 1 - k]
        others = pre[:n] * suf[1:]
        eit = math.cos(theta) + 1j * math.sin(theta)
        dw = lam * eit * np.conj(others)
        out = np.empty(2 * n + 1)
        out[0:2 * n:2] = dw.real
        out[1:2 * n:2] = dw.imag
        out[2 * n] = alpha * (np.conj(eit) * pre[n]).imag
        return out.tolist()

    return rhs


def full_first_integral(spec: TrajectorySpec, y) -> float:
    y = np.asarray(y)
    n = spec.n
    w = y[0:2 * n:2] + 1j * y[1:2 * n:2]
    r2 = w.real ** 2 + w.imag ** 2
    u = float(np.mean((r2 - np.array(spec.alphas)) * spec.params.lambdas))
    W = np.prod(w)
    theta = y[2 * n]
    eit = math.cos(theta) - 1j * math.sin(theta)
    return math.exp(0.5 * spec.params.alpha * u) * (eit * W).imag


def integrate_full(spec: TrajectorySpec, s_min: float, s_max: float, *,
                   rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                   targets=(), dense: bool = True) -> FullTrajectory:
    """Integrate the full system over [s_min, s_max] (must contain 0)."""
    n = spec.n
    alphas = np.array(spec.alphas)
    w0 = np.sqrt(alphas) * np.exp(1j * np.array(spec.phi0))
    y0 = np.empty(2 * n + 1)
    y0[0:2 * n:2] = w0.real
    y0[1:2 * n:2] = w0.imag
    y0[2 * n] = spec.theta0

    rhs = _make_full_rhs(spec)
    conserved = lambda y: full_first_integral(spec, y)

    def near(y):
        y = np.asarray(y)
        w = y[0:2 * n:2] + 1j * y[1:2 * n:2]
        return (w.real ** 2 + w.imag ** 2).min() < ESCAPE_COLLAR

    s, y = _run_two_sided(rhs, 0.0, y0, s_min, s_max, rtol, atol,
                          targets, dense, conserved, near)

    ws = y[:, 0:2 * n:2] + 1j * y[:, 1:2 * n:2]
    theta = y[:, 2 * n]
    # continuous argument lift anchored at the base point
    i0 = int(np.argmin(np.abs(s)))
    phis = np.empty((len(s), n))
    phis[i0] = spec.phi0
    for i in range(i0 + 1, len(s)):
        phis[i] = phis[i - 1] + np.angle(ws[i] / ws[i - 1])
    for i in range(i0 - 1, -1, -1):
        phis[i] = phis[i + 1] + np.angle(ws[i] / ws[i + 1])
    return FullTrajectory(spec, s, ws, theta, phis)


def lift_state(spec: TrajectorySpec, state: ReducedState) -> FullState:
    """Rebuild the full state; r_j^2 = alpha_j + lambda_j u holds by construction."""
    lam = spec.params.lambdas
    ws = tuple(
        math.sqrt(a + l * state.u) * complex(math.cos(p), math.sin(p))
        for a, l, p in zip(spec.alphas, lam, state.phis)
    )
    return FullState(state.s, ws, state.theta)


# -- the per-point finite-difference oracle ----------------------------------
#
# The package's FD mean curvature reads the stacked stencils of all its points
# through geometry.curve_chart, with one curve read.  This is the
# point-by-point form it replaced: a chart object called once per stencil
# point, with one curve read per call, and a looped Laplace-Beltrami.

class CentredChart:
    """Local chart (xi, t) around (x0, t0) on a centred-profile immersion.

    Base points move in the tangent plane at x0 and are pulled back to the
    quadric by the radial scaling x -> x sqrt(1 / sum lambda x^2).  The
    tangent basis is the package's, so both charts read the same base points.
    """

    def __init__(self, profile, x0, t0: float):
        self.profile = profile
        self.x0 = np.asarray(x0, dtype=float)
        self.t0 = float(t0)
        self.lam = np.asarray(profile.lambdas, dtype=float)
        self.basis = _tangent_bases(profile.lambdas, self.x0[None])[0]

    def base_point(self, xi):
        x = self.x0 + np.asarray(xi) @ self.basis
        q = float(np.sum(self.lam * x * x))
        if q <= 0:
            raise ValidationError("chart left the quadric's radial domain")
        return x * math.sqrt(1.0 / q)

    def __call__(self, coords):
        coords = np.asarray(coords, dtype=float)
        x = self.base_point(coords[:-1])
        t = self.t0 + coords[-1]
        return x * self.profile.curve([t]).w[0]


class TranslatorChart:
    """Chart (xi, t) around (x0, t0); the base coordinates are already flat."""

    def __init__(self, profile, x0, t0: float):
        self.profile = profile
        self.x0 = np.asarray(x0, dtype=float)
        self.t0 = float(t0)

    def __call__(self, coords):
        coords = np.asarray(coords, dtype=float)
        c = self.profile.base.curve([self.t0 + coords[-1]]).row(0)
        return self.profile.immersion(self.x0 + coords[:-1], c)


def fd_derivatives(F, xi0: np.ndarray, h: float):
    """Central first and second derivatives of F: R^n -> C^n on a full stencil."""
    n = xi0.size
    F0 = F(xi0)
    d1 = np.empty((n,) + F0.shape, dtype=complex)
    d2 = np.empty((n, n) + F0.shape, dtype=complex)
    for a in range(n):
        xp = xi0.copy(); xp[a] += h
        xm = xi0.copy(); xm[a] -= h
        Fp, Fm = F(xp), F(xm)
        d1[a] = (Fp - Fm) / (2.0 * h)
        d2[a, a] = (Fp - 2.0 * F0 + Fm) / (h * h)
    for a in range(n):
        for b in range(a + 1, n):
            xpp = xi0.copy(); xpp[a] += h; xpp[b] += h
            xpm = xi0.copy(); xpm[a] += h; xpm[b] -= h
            xmp = xi0.copy(); xmp[a] -= h; xmp[b] += h
            xmm = xi0.copy(); xmm[a] -= h; xmm[b] -= h
            mixed = (F(xpp) - F(xpm) - F(xmp) + F(xmm)) / (4.0 * h * h)
            d2[a, b] = mixed
            d2[b, a] = mixed
    return d1, d2


def laplace_beltrami(d1, d2):
    """Mean curvature from chart derivatives: g^{ab}(d2_ab - Gamma^c_ab d1_c)."""
    n = d1.shape[0]
    g = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            g[a, b] = float(np.sum(d1[a] * np.conj(d1[b])).real)
    ginv = np.linalg.inv(g)
    # dg[a, b, d] = partial_a g_{bd} = <d2_ab, d1_d> + <d1_b, d2_ad>
    dg = np.empty((n, n, n))
    for a in range(n):
        for b in range(n):
            for d in range(n):
                dg[a, b, d] = float(
                    np.sum(d2[a, b] * np.conj(d1[d])).real
                    + np.sum(d1[b] * np.conj(d2[a, d])).real)
    H = np.zeros(d1.shape[1:], dtype=complex)
    for a in range(n):
        for b in range(n):
            acc = d2[a, b].astype(complex).copy()
            for c in range(n):
                gamma = 0.0
                for d in range(n):
                    gamma += 0.5 * ginv[c, d] * (dg[a, b, d] + dg[b, a, d] - dg[d, a, b])
                acc -= gamma * d1[c]
            H += ginv[a, b] * acc
    return H


def pointwise_fd_mean_curvature(profile, x, t: float):
    """(H, values): the per-point FD mean curvature at (x, t), h and h/2
    Richardson extrapolated, and every chart value in the order it was read."""
    if profile.kind == "translator":
        chart, u = TranslatorChart(profile, x, t), profile.base.curve([t]).u[0]
    else:
        chart, u = CentredChart(profile, x, t), profile.curve([t]).u[0]
    values = []

    def F(coords):
        values.append(chart(coords))
        return values[-1]

    h = fd_step(u)
    levels = [laplace_beltrami(*fd_derivatives(F, np.zeros(profile.n), step))
              for step in (h, 0.5 * h)]
    return (4.0 * levels[1] - levels[0]) / 3.0, np.array(values)


def stacked_fd_mean_curvature(profile, xs, ts):
    """(H, values, grid): the package's FD mean curvature at the points
    (xs[i], ts[i]) after one read of their curve records, as verify reads
    them, then the values its chart returned, in stencil order, and the
    parameters of its one curve read."""
    curve = profile.base.curve if profile.kind == "translator" else profile.curve
    c = curve(np.asarray(ts, dtype=float))
    real = geometry.curve_chart
    values, grids = [], []

    def spy(base, rows, curve, ts):
        def read(grid):
            grids.append(grid)
            return curve(grid)
        chart = real(base, rows, read, ts)

        def recorded(coords):
            values.append(chart(coords))
            return values[-1]
        return recorded

    with mock.patch.object(geometry, "curve_chart", spy), \
            mock.patch.object(translator, "curve_chart", spy):
        if profile.kind == "translator":
            H = translator.translator_fd_mean_curvature(profile, xs, c)
        else:
            H = geometry.centred_fd_mean_curvature(profile, xs, c)
    assert len(values) == len(grids) == 1
    return H, values[0], grids[0]


# -- per-value file writers ----------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


def write_mesh_csv(path, mesh) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = []
        for j in range(1, mesh.n + 1):
            header += [f"Re z{j}", f"Im z{j}"]
        writer.writerow(header + ["s_or_y", "theta"])
        for z, t, theta in zip(mesh.points, mesh.params, mesh.thetas):
            row = []
            for zz in z:
                row += [_fmt(zz.real), _fmt(zz.imag)]
            row += [_fmt(t), _fmt(theta)]
            writer.writerow(row)


def write_mesh_ply(path, mesh, *, project3d: bool = False) -> None:
    real = np.empty((len(mesh), 2 * mesh.n))
    real[:, 0::2] = mesh.points.real
    real[:, 1::2] = mesh.points.imag
    if project3d:
        real = real @ projection_matrix(2 * mesh.n).T
    if real.shape[1] >= 3:
        coords, extras = real[:, :3], real[:, 3:]
        extra_names = [f"c{k + 4}" for k in range(extras.shape[1])]
    else:
        coords = np.column_stack([real, np.zeros((len(mesh), 3 - real.shape[1]))])
        extras, extra_names = np.empty((len(mesh), 0)), []
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(mesh)}\n")
        for name in ["x", "y", "z"] + extra_names + ["s_or_y", "theta"]:
            fh.write(f"property double {name}\n")
        fh.write("end_header\n")
        for i in range(len(mesh)):
            vals = [*coords[i], *extras[i], mesh.params[i], mesh.thetas[i]]
            fh.write(" ".join(_fmt(v) for v in vals) + "\n")


def write_profile_csv(path, profile, y_values) -> None:
    n = profile.n
    c = profile.curve(y_values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"r_{j}" for j in range(1, n + 1)]
                        + [f"phi_{j}" for j in range(1, n + 1)] + ["theta"])
        for i in range(len(c.t)):
            writer.writerow([_fmt(v) for v in [c.t[i], *c.r[i], *c.phis[i], c.theta[i]]])


def write_trajectory_csv(path, traj) -> None:
    n = traj.spec.n
    resid = traj.first_integral_residuals()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "u"] + [f"phi_{j + 1}" for j in range(n)]
                        + ["theta", "first_integral_residual"])
        for i in range(len(traj)):
            row = [traj.s[i], traj.u[i], *traj.phis[i], traj.theta[i], resid[i]]
            writer.writerow([_fmt(v) for v in row])


def write_residual_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "s_or_y", "lagrangian_residual",
                         "angle_residual", "soliton_residual"])
        for pid, t, lag, ang, sol in rows:
            writer.writerow([str(pid), _fmt(t), _fmt(lag), _fmt(ang), _fmt(sol)])


def write_plane_report_csv(path, angles) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "plane1_angle", "plane2_angle"])
        for j, (p, q) in enumerate(zip(angles.plane_plus, angles.plane_minus), start=1):
            writer.writerow([str(j), _fmt(p), _fmt(q)])


def write_orbit_report_csv(path, orbit, verdict=None, topology: str = "") -> None:
    n = len(orbit.gamma)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u1", "u2", "S"] + [f"gamma_{j}" for j in range(1, n + 1)]
                        + ["case_tag", "periodic_r", "topology_tag"])
        r = ""
        if verdict is not None and verdict.periodic:
            r = str(verdict.r)
        writer.writerow([_fmt(orbit.u1), _fmt(orbit.u2), _fmt(orbit.S)]
                        + [_fmt(g) for g in orbit.gamma]
                        + [orbit.case, r, topology])
