"""The soliton ODE system and its reduced form, with conservative integration.

Full system (state w_1..w_n in C, theta in R):

    dw_j/ds  = lambda_j e^{i theta} conj(w_1 ... w_{j-1} w_{j+1} ... w_n)
    dtheta/ds = alpha Im(e^{-i theta} w_1 ... w_n)

Writing w_j = r_j e^{i phi_j} one finds r_j^2 = alpha_j + lambda_j u for a
single shared height u with u = 0 at the base point, and the system closes on
(u, phi_1..phi_n, theta):

    du/ds     = 2 sqrt(Q) cos(phi - theta),        Q(u) = prod(alpha_j + lambda_j u)
    dphi_j/ds = -lambda_j sqrt(Q) sin(phi - theta) / (alpha_j + lambda_j u)
    dtheta/ds = alpha sqrt(Q) sin(phi - theta),    phi = sum phi_j

Both systems conserve sqrt(Q) e^{alpha u / 2} sin(phi - theta); the
integrator enforces that at step granularity.  Only the reduced system is
integrated here (the full one is the test suite's independent oracle).  u
must stay inside the band where every alpha_j + lambda_j u > 0; leaving it
raises DomainEscape.
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

@dataclass(frozen=True)
class TrajectorySpec:
    """Initial data for one trajectory of the (normalized) soliton system.

    alphas are the squared radii at the base point s = 0, i.e. u(0) = 0.
    """

    params: SolitonParams
    alphas: tuple
    phi0: tuple
    theta0: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "phi0", tuple(float(p) for p in self.phi0))
        object.__setattr__(self, "theta0", float(self.theta0))
        if not self.params.is_normalized:
            raise ValidationError("TrajectorySpec requires normalized params (lambdas +-1, C=1)")
        if len(self.alphas) != self.params.n or len(self.phi0) != self.params.n:
            raise ValidationError("alphas and phi0 must have length n")
        if any(a <= 0 for a in self.alphas):
            raise ValidationError("alphas must be positive")

    @classmethod
    def with_first_integral(cls, params, alphas, A, phi0=None):
        """theta0 with cos(phi - theta) > 0 and the conserved quantity A at s = 0."""
        alphas = tuple(float(a) for a in alphas)
        n = len(alphas)
        phi0 = tuple(float(p) for p in (phi0 if phi0 is not None else (0.0,) * n))
        root_q = math.sqrt(math.prod(alphas))
        ratio = A / root_q
        if abs(ratio) > 1.0:
            raise ValidationError(f"|A| = {abs(A):.6g} exceeds sqrt(Q(0)) = {root_q:.6g}")
        return cls(params, alphas, phi0, sum(phi0) - math.asin(ratio))

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

    def initial_state(self):
        y = np.empty(self.n + 2)
        y[0] = 0.0
        y[1:self.n + 1] = self.phi0
        y[self.n + 1] = self.theta0
        return y


def reduced_system(spec: TrajectorySpec):
    """(rhs, conserved, near_escape) of the reduced system for odeint.integrate.

    The stepper calls these on one state of n + 2 floats per stage, a size
    at which numpy's per-call overhead outweighs the arithmetic, so they
    work on Python floats: rhs(s, y) takes the state y = [u, phi_1.., theta]
    as a list (any sequence of floats) and returns its derivative as a list,
    all NaN outside the band; conserved(y) is first_integral on a single
    state; near_escape(y) says whether some radius squared is under
    ESCAPE_COLLAR.
    """
    pairs = tuple(zip(spec.alphas, spec.params.lambdas))
    alpha = spec.params.alpha
    n = spec.n
    nan = (math.nan,) * (n + 2)

    def rhs(s, y):
        u = y[0]
        rad = [a + l * u for a, l in pairs]
        if min(rad) <= DOMAIN_FLOOR:
            return nan
        sq = math.sqrt(math.prod(rad))
        d = sum(y[1:n + 1]) - y[n + 1]
        sin_d = math.sin(d)
        c = -sq * sin_d
        return [2.0 * sq * math.cos(d), *[c * (l / r) for (_, l), r in zip(pairs, rad)],
                alpha * sq * sin_d]

    def conserved(y):
        u = y[0]
        q = math.prod([a + l * u for a, l in pairs])
        return math.sqrt(q) * math.exp(0.5 * alpha * u) * math.sin(sum(y[1:n + 1]) - y[n + 1])

    def near_escape(y):
        u = y[0]
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

    def first_integral_residuals(self):
        return first_integral(self.spec, self.y) - self.spec.first_integral_value

    def __len__(self):
        return len(self.s)


def _run_two_sided(rhs, s0, y0, s_min, s_max, rtol, atol, targets, dense,
                   conserved, near):
    if not (s_min <= s0 <= s_max):
        raise ValidationError("integration interval must contain the base point s = 0")
    targets = sorted(float(t) for t in targets)

    legs = []
    if s_min < s0:
        back = [t for t in targets if t < s0]
        back.sort(reverse=True)
        r = odeint.integrate(rhs, s0, y0, s_min, rtol=rtol, atol=atol,
                             conserved=conserved,
                             targets=back, dense=dense, near_escape=near)
        legs.append((r.s[::-1][:-1], r.y[::-1][:-1], r))
    legs.append((np.array([s0]), y0[None, :].copy(), None))
    if s_max > s0:
        fwd = [t for t in targets if t > s0]
        r = odeint.integrate(rhs, s0, y0, s_max, rtol=rtol, atol=atol,
                             conserved=conserved,
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
                      targets=(), dense: bool = True) -> ReducedTrajectory:
    """Integrate the reduced system over [s_min, s_max] (must contain 0)."""
    rhs, conserved, near = reduced_system(spec)
    s, y, stats = _run_two_sided(rhs, 0.0, spec.initial_state(), s_min, s_max,
                                 rtol, atol, targets, dense, conserved, near)
    return ReducedTrajectory(spec, s, y, stats)


def sample_reduced(spec: TrajectorySpec, s_points, *, rtol: float = DEFAULT_RTOL,
                   atol: float = DEFAULT_ATOL) -> ReducedTrajectory:
    """States at exactly the requested s values (plus the base point)."""
    s_points = sorted(set(float(t) for t in s_points))
    lo = min(s_points + [0.0])
    hi = max(s_points + [0.0])
    traj = integrate_reduced(spec, lo, hi, rtol=rtol, atol=atol,
                             targets=s_points, dense=False)
    keep = np.isin(traj.s, np.array(s_points))
    return ReducedTrajectory(spec, traj.s[keep], traj.y[keep], traj.stats)
