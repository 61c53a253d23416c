"""The full soliton system, integrated independently of the reduction.

The package integrates only the reduced system (u, phi_1..phi_n, theta).
Here the full system in w_1..w_n in C and theta runs through the same
stepper, so the tests can check the reduction against it:

    dw_j/ds  = lambda_j e^{i theta} conj(w_1 ... w_{j-1} w_{j+1} ... w_n)
    dtheta/ds = alpha Im(e^{-i theta} w_1 ... w_n)

The real state is [Re w_1, Im w_1, ..., Re w_n, Im w_n, theta].
"""

import math
from dataclasses import dataclass

import numpy as np

from lagsol.reduced_ode import (DEFAULT_ATOL, DEFAULT_RTOL, DOMAIN_FLOOR, ESCAPE_COLLAR,
                                TrajectorySpec, _run_two_sided)


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

    s, y, stats = _run_two_sided(rhs, 0.0, y0, s_min, s_max, rtol, atol,
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
    return FullTrajectory(spec, s, ws, theta, phis, stats)


def lift_state(spec: TrajectorySpec, state: ReducedState) -> FullState:
    """Rebuild the full state; r_j^2 = alpha_j + lambda_j u holds by construction."""
    lam = spec.params.lambdas
    ws = tuple(
        math.sqrt(a + l * state.u) * complex(math.cos(p), math.sin(p))
        for a, l, p in zip(spec.alphas, lam, state.phis)
    )
    return FullState(state.s, ws, state.theta)
