"""The soliton ODE system in full and reduced form, with conservative integration.

Full system (state w_1..w_n in C, theta in R):

    dw_j/ds  = lambda_j e^{i theta} conj(w_1 ... w_{j-1} w_{j+1} ... w_n)
    dtheta/ds = alpha Im(e^{-i theta} w_1 ... w_n)

Writing w_j = r_j e^{i phi_j} one finds r_j^2 = alpha_j + lambda_j u for a
single shared height u with u = 0 at the base point, and the system closes on
(u, phi_1..phi_n, theta):

    du/ds     = 2 sqrt(Q) cos(phi - theta),        Q(u) = prod(alpha_j + lambda_j u)
    dphi_j/ds = -lambda_j sqrt(Q) sin(phi - theta) / (alpha_j + lambda_j u)
    dtheta/ds = alpha sqrt(Q) sin(phi - theta),    phi = sum phi_j

Both routes conserve sqrt(Q) e^{alpha u / 2} sin(phi - theta); the integrator
enforces that at step granularity.  u must stay inside the band where every
alpha_j + lambda_j u > 0; leaving it raises DomainEscape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import odeint
from .errors import ValidationError
from .params import SolitonParams

DOMAIN_FLOOR = 1e-12  # radius-squared value treated as having left the band
ESCAPE_COLLAR = 1e-6

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

_NAN_CACHE = {}


def _nan_vec(dim):
    v = _NAN_CACHE.get(dim)
    if v is None:
        v = np.full(dim, np.nan)
        v.setflags(write=False)
        _NAN_CACHE[dim] = v
    return v


@dataclass(frozen=True)
class TrajectorySpec:
    """Initial data for one trajectory of the (normalized) soliton system.

    alphas are the squared radii at the base point s0, i.e. u(s0) = 0.
    """

    params: SolitonParams
    alphas: tuple
    phi0: tuple
    theta0: float
    s0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "phi0", tuple(float(p) for p in self.phi0))
        object.__setattr__(self, "theta0", float(self.theta0))
        object.__setattr__(self, "s0", float(self.s0))
        if not self.params.is_normalized:
            raise ValidationError("TrajectorySpec requires normalized params (lambdas +-1, C=1)")
        if len(self.alphas) != self.params.n or len(self.phi0) != self.params.n:
            raise ValidationError("alphas and phi0 must have length n")
        if any(a <= 0 for a in self.alphas):
            raise ValidationError("alphas must be positive")

    @classmethod
    def with_first_integral(cls, params, alphas, A, phi0=None, s0=0.0, branch="principal"):
        """Choose theta0 so the conserved quantity equals A at the base point."""
        alphas = tuple(float(a) for a in alphas)
        n = len(alphas)
        phi0 = tuple(float(p) for p in (phi0 if phi0 is not None else (0.0,) * n))
        root_q = math.sqrt(math.prod(alphas))
        ratio = A / root_q
        if abs(ratio) > 1.0:
            raise ValidationError(f"|A| = {abs(A):.6g} exceeds sqrt(Q(0)) = {root_q:.6g}")
        delta = math.asin(ratio)
        if branch == "reflected":
            delta = math.pi - delta
        return cls(params, alphas, phi0, sum(phi0) - delta, s0)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def lambdas(self):
        return np.array(self.params.lambdas)

    @property
    def first_integral_value(self) -> float:
        """Value of sqrt(Q) e^{alpha u/2} sin(phi - theta) at the base point."""
        return math.sqrt(math.prod(self.alphas)) * math.sin(sum(self.phi0) - self.theta0)

    def band(self):
        """Open u-interval on which all radii stay positive."""
        lam = self.params.lambdas
        lo = max((-a for a, l in zip(self.alphas, lam) if l > 0), default=-math.inf)
        hi = min((a for a, l in zip(self.alphas, lam) if l < 0), default=math.inf)
        return lo, hi

    def initial_state(self):
        y = np.empty(self.n + 2)
        y[0] = 0.0
        y[1:self.n + 1] = self.phi0
        y[self.n + 1] = self.theta0
        return y


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


def eval_Q(spec: TrajectorySpec, u):
    """Radius-squared product Q(u) = prod(alpha_j + lambda_j u)."""
    u = np.asarray(u, dtype=float)
    rad = np.array(spec.alphas) + np.outer(u, spec.lambdas) if u.ndim else \
        np.array(spec.alphas) + u * np.array(spec.lambdas)
    return rad.prod(axis=-1)


def reduced_rhs(spec: TrajectorySpec, y):
    """Right-hand side of the reduced system at state y = [u, phi_1.., theta]."""
    return np.asarray(reduced_system(spec)[0](0.0, np.asarray(y, dtype=float)))


def reduced_system(spec: TrajectorySpec):
    """(rhs, conserved, near_escape) of the reduced system for odeint.integrate.

    The stepper calls these on one 1-D state of n + 2 entries per stage, a
    size at which numpy's per-call overhead outweighs the arithmetic, so
    they work on Python floats.  rhs returns NaNs outside the band;
    conserved is first_integral on a single state.
    """
    pairs = tuple(zip(spec.alphas, spec.params.lambdas))
    alpha = spec.params.alpha
    n = spec.n
    nan = (math.nan,) * (n + 2)

    def rhs(s, y):
        u, *angles = y.tolist()
        rad = [a + l * u for a, l in pairs]
        if min(rad) <= DOMAIN_FLOOR:
            return nan
        sq = math.sqrt(math.prod(rad))
        d = sum(angles[:n]) - angles[n]
        sin_d = math.sin(d)
        c = -sq * sin_d
        return [2.0 * sq * math.cos(d), *[c * (l / r) for (_, l), r in zip(pairs, rad)],
                alpha * sq * sin_d]

    def conserved(y):
        u, *angles = y.tolist()
        q = math.prod([a + l * u for a, l in pairs])
        return math.sqrt(q) * math.exp(0.5 * alpha * u) * math.sin(sum(angles[:n]) - angles[n])

    def near_escape(y):
        u = float(y[0])
        return min(a + l * u for a, l in pairs) < ESCAPE_COLLAR

    return rhs, conserved, near_escape


def first_integral(spec: TrajectorySpec, y) -> float:
    """Conserved quantity sqrt(Q) e^{alpha u/2} sin(phi - theta) of a reduced state."""
    y = np.asarray(y, dtype=float)
    n = spec.n
    u = y[..., 0]
    rad = np.array(spec.alphas) + np.multiply.outer(u, np.array(spec.params.lambdas))
    q = np.prod(rad, axis=-1)
    d = np.sum(y[..., 1:n + 1], axis=-1) - y[..., n + 1]
    return np.sqrt(q) * np.exp(0.5 * spec.params.alpha * u) * np.sin(d)


class ReducedTrajectory:
    """Accepted samples of one reduced integration, ordered by s."""

    def __init__(self, spec: TrajectorySpec, s: np.ndarray, y: np.ndarray, stats=None):
        self.spec = spec
        self.s = s
        self.y = y
        self.stats = stats or {}

    @property
    def u(self):
        return self.y[:, 0]

    @property
    def phis(self):
        return self.y[:, 1:self.spec.n + 1]

    @property
    def theta(self):
        return self.y[:, -1]

    @property
    def phi(self):
        return self.phis.sum(axis=1)

    def radii(self):
        return np.sqrt(np.array(self.spec.alphas) + np.outer(self.u, self.spec.params.lambdas))

    def first_integral_residuals(self):
        return first_integral(self.spec, self.y) - self.spec.first_integral_value

    def state_at(self, i: int) -> ReducedState:
        return ReducedState(float(self.s[i]), float(self.u[i]),
                            tuple(self.phis[i]), float(self.theta[i]))

    def __len__(self):
        return len(self.s)


class FullTrajectory:
    """Accepted samples of one full-system integration, ordered by s.

    phis holds the continuous argument lift of each w_j, anchored at the base
    point's phi0 and accumulated through principal-branch increments between
    consecutive samples (steps are small at the default tolerances).
    """

    def __init__(self, spec: TrajectorySpec, s, ws, theta, phis, stats=None):
        self.spec = spec
        self.s = s
        self.ws = ws
        self.theta = theta
        self.phis = phis
        self.stats = stats or {}

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

    def state_at(self, i: int) -> FullState:
        return FullState(float(self.s[i]), tuple(self.ws[i]), float(self.theta[i]))

    def __len__(self):
        return len(self.s)


def _run_two_sided(rhs, s0, y0, s_min, s_max, rtol, atol, targets, dense,
                   conserved, drift_factor, near):
    if not (s_min <= s0 <= s_max):
        raise ValidationError("integration interval must contain the base point s0")
    targets = sorted(float(t) for t in targets)

    legs = []
    if s_min < s0:
        back = [t for t in targets if t < s0]
        back.sort(reverse=True)
        r = odeint.integrate(rhs, s0, y0, s_min, rtol=rtol, atol=atol,
                             conserved=conserved, drift_factor=drift_factor,
                             targets=back, dense=dense, near_escape=near)
        legs.append((r.s[::-1][:-1], r.y[::-1][:-1], r))
    legs.append((np.array([s0]), y0[None, :].copy(), None))
    if s_max > s0:
        fwd = [t for t in targets if t > s0]
        r = odeint.integrate(rhs, s0, y0, s_max, rtol=rtol, atol=atol,
                             conserved=conserved, drift_factor=drift_factor,
                             targets=fwd, dense=dense, near_escape=near)
        legs.append((r.s[1:], r.y[1:], r))

    s = np.concatenate([l[0] for l in legs])
    y = np.concatenate([l[1] for l in legs])
    stats = {
        "n_accepted": sum(l[2].n_accepted for l in legs if l[2]),
        "n_rejected_error": sum(l[2].n_rejected_error for l in legs if l[2]),
        "n_rejected_drift": sum(l[2].n_rejected_drift for l in legs if l[2]),
        "max_step_drift": max((l[2].max_drift for l in legs if l[2]), default=0.0),
    }
    return s, y, stats


def integrate_reduced(spec: TrajectorySpec, s_min: float, s_max: float, *,
                      rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                      targets=(), dense: bool = True,
                      drift_factor: float = 10.0) -> ReducedTrajectory:
    """Integrate the reduced system over [s_min, s_max] (must contain s0)."""
    rhs, conserved, near = reduced_system(spec)
    s, y, stats = _run_two_sided(rhs, spec.s0, spec.initial_state(), s_min, s_max,
                                 rtol, atol, targets, dense, conserved,
                                 drift_factor, near)
    return ReducedTrajectory(spec, s, y, stats)


def sample_reduced(spec: TrajectorySpec, s_points, *, rtol: float = DEFAULT_RTOL,
                   atol: float = DEFAULT_ATOL) -> ReducedTrajectory:
    """States at exactly the requested s values (plus the base point)."""
    s_points = sorted(set(float(t) for t in s_points))
    lo = min(s_points + [spec.s0])
    hi = max(s_points + [spec.s0])
    traj = integrate_reduced(spec, lo, hi, rtol=rtol, atol=atol,
                             targets=s_points, dense=False)
    keep = np.isin(traj.s, np.array(s_points))
    return ReducedTrajectory(spec, traj.s[keep], traj.y[keep], traj.stats)


def _make_full_rhs(spec: TrajectorySpec):
    lam = spec.lambdas
    alpha = spec.params.alpha
    n = spec.n
    nan = _nan_vec(2 * n + 1)

    def rhs(s, y):
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
        return out

    return rhs


def full_first_integral(spec: TrajectorySpec, y) -> float:
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
                   targets=(), dense: bool = True,
                   drift_factor: float = 10.0) -> FullTrajectory:
    """Integrate the full system over [s_min, s_max] (must contain s0)."""
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
        w = y[0:2 * n:2] + 1j * y[1:2 * n:2]
        return (w.real ** 2 + w.imag ** 2).min() < ESCAPE_COLLAR

    s, y, stats = _run_two_sided(rhs, spec.s0, y0, s_min, s_max, rtol, atol,
                                 targets, dense, conserved, drift_factor, near)

    ws = y[:, 0:2 * n:2] + 1j * y[:, 1:2 * n:2]
    theta = y[:, 2 * n]
    # continuous argument lift anchored at the base point
    i0 = int(np.argmin(np.abs(s - spec.s0)))
    phis = np.empty((len(s), n))
    phis[i0] = spec.phi0
    for i in range(i0 + 1, len(s)):
        phis[i] = phis[i - 1] + np.angle(ws[i] / ws[i - 1])
    for i in range(i0 - 1, -1, -1):
        phis[i] = phis[i + 1] + np.angle(ws[i] / ws[i + 1])
    return FullTrajectory(spec, s, ws, theta, phis, stats)


def lift_state(spec: TrajectorySpec, state: ReducedState) -> FullState:
    """Rebuild the full state; r_j^2 = alpha_j + lambda_j u holds by construction."""
    lam = spec.params.lambdas
    ws = tuple(
        math.sqrt(a + l * state.u) * complex(math.cos(p), math.sin(p))
        for a, l, p in zip(spec.alphas, lam, state.phis)
    )
    return FullState(state.s, ws, state.theta)
