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
integrated here (the full one is the test suite's independent oracle), from
the base state of a periodic.PeriodicSpec, at odeint's one tolerance pair
(odeint.RTOL, ATOL: see there why it is that tight).  states(spec) is the
package's one reader of its states: a chained cache, so the last digits of a
state depend on the order of the queries.  u must stay inside the band where
every alpha_j + lambda_j u > 0; leaving it raises DomainEscape.
"""

from __future__ import annotations

import math

import numpy as np

from . import odeint
from .codegen import compiled
from .errors import ValidationError
from .geometry import ChainCache

DOMAIN_FLOOR = 1e-12  # radius-squared value treated as having left the band
ESCAPE_COLLAR = 1e-6


def base_state(spec) -> np.ndarray:
    """[0, psi_1.., sum(psi) - asin(A / sqrt(Q(0)))]: the state at s = 0 of
    a periodic.PeriodicSpec, with first integral A and cos(phi - theta) > 0."""
    root_q = math.sqrt(math.prod(spec.alphas))
    ratio = spec.A / root_q
    if abs(ratio) > 1.0:
        raise ValidationError(f"|A| = {abs(spec.A):.6g} exceeds sqrt(Q(0)) = {root_q:.6g}")
    return np.array([0.0, *spec.psi, sum(spec.psi) - math.asin(ratio)])


def _generate(n):
    """Source of make(pairs, alpha) for n phases, which returns the reduced
    system's (rhs, conserved, near_escape) and the orbit weight's (log_G,
    dlog_G) with a_j, lambda_j and alpha in closure locals.  Each is
    straight-line code on the unpacked state u, p0.., th or on u: r_j = a_j +
    l_j u, and every product and sum is spelled left to right from the start
    math.prod and CPython 3.11's sum() use (the 1.0 of a product is exact and
    dropped; the 0.0 of a sum is kept, as it turns a -0.0 first phase into
    0.0).  log_G and dlog_G are alpha u + log(a_j + l_j u) + ... and alpha +
    l_j / (a_j + l_j u) + ..., in the order of the loop form they replaced.
    """
    J = range(n)
    state = "u, " + "".join(f"p{j}, " for j in J) + "th"
    rads = [f"r{j}" for j in J]
    phase = "".join(["0.0", *(f" + p{j}" for j in J), " - th"])
    lines = [
        f"NAN = (nan,)*{n + 2}",
        "",
        "def make(pairs, alpha):",
        f"    {''.join(f'(a{j}, l{j}), ' for j in J)}= pairs",
        "    half = 0.5*alpha",
        "",
        "    def rhs(s, y):",
        f"        {state} = y",
        *[f"        r{j} = a{j} + l{j}*u" for j in J],
        f"        if {' or '.join(f'{r} <= {DOMAIN_FLOOR!r}' for r in rads)}:",
        "            return NAN",
        f"        sq = sqrt({'*'.join(rads)})",
        f"        d = {phase}",
        "        sin_d = sin(d)",
        "        c = -sq*sin_d",
        f"        return [2.0*sq*cos(d), {''.join(f'c*(l{j}/r{j}), ' for j in J)}alpha*sq*sin_d]",
        "",
        "    def conserved(y):",
        f"        {state} = y",
        f"        return sqrt({'*'.join(f'(a{j} + l{j}*u)' for j in J)})*exp(half*u)*sin({phase})",
        "",
        "    def near_escape(y):",
        "        u = y[0]",
        f"        return {' or '.join(f'a{j} + l{j}*u < {ESCAPE_COLLAR!r}' for j in J)}",
        "",
        "    def log_G(u):",
        f"        return alpha*u{''.join(f' + log(a{j} + l{j}*u)' for j in J)}",
        "",
        "    def dlog_G(u):",
        f"        return alpha{''.join(f' + l{j}/(a{j} + l{j}*u)' for j in J)}",
        "",
        "    return rhs, conserved, near_escape, log_G, dlog_G",
    ]
    return "\n".join(lines) + "\n"


def reduced_system(spec):
    """(rhs, conserved, near_escape, log_G, dlog_G) of the reduced system of
    a periodic.PeriodicSpec: straight-line code generated once per n (see
    codegen).  Only the spec's n, alphas and params are read.

    rhs(s, y) takes the state y = [u, phi_1.., theta] as a list (any
    sequence of floats) and returns its derivative as a list, all NaN
    outside the band; conserved(y) is first_integral on a single state;
    near_escape(y) says whether some radius squared is under ESCAPE_COLLAR;
    the first three are what odeint.integrate takes.  log_G(u) is log of the
    orbit weight G(u) = Q(u) e^{alpha u}, and dlog_G(u) its derivative.
    """
    make = compiled(_generate, spec.n)["make"]
    return make(tuple(zip(spec.alphas, spec.params.lambdas)), spec.params.alpha)


def first_integral(spec, y) -> float:
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

    def __init__(self, spec, s: np.ndarray, y: np.ndarray):
        self.spec = spec
        self.s = s
        self.y = y

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
        return first_integral(self.spec, self.y) - self.spec.A

    def __len__(self):
        return len(self.s)


def _run_two_sided(rhs, y0, s_min, s_max, conserved, near):
    """Every accepted step of one integration from s = 0 to each of s_min
    and s_max, as (s, y) ordered by s."""
    if not (s_min <= 0.0 <= s_max):
        raise ValidationError("integration interval must contain the base point s = 0")
    back, fwd = (odeint.integrate(rhs, 0.0, y0, end, conserved=conserved, near_escape=near)
                 for end in (s_min, s_max))
    return np.concatenate([back.s[:0:-1], fwd.s]), np.concatenate([back.y[:0:-1], fwd.y])


def integrate_reduced(spec, s_min: float, s_max: float) -> ReducedTrajectory:
    """The reduced system over [s_min, s_max] (must contain 0): every
    accepted step of one integration from s = 0 to each end."""
    rhs, conserved, near = reduced_system(spec)[:3]
    return ReducedTrajectory(spec, *_run_two_sided(rhs, base_state(spec), s_min, s_max,
                                                   conserved, near))


def states(spec) -> ChainCache:
    """The states of spec's reduced system, held by s in a geometry.ChainCache
    that starts with the base state.  Each chain of missing parameters is one
    integration from its start that ends exactly on its farthest parameter,
    and the parameters inside a step are read from the stepper's 7th-order
    interpolant.  So mesh samples chain into one pass over their span, and
    the points of the FD oracle's one sorted stencil batch on each side of a
    held centre are one integration from it.  The last digits of a state
    depend on the order of the queries."""
    rhs, conserved, near = reduced_system(spec)[:3]

    def advance(chains, starts):
        return [odeint.integrate(rhs, ch[0], y0, ch[-1], conserved=conserved,
                                 near_escape=near, targets=ch[1:]).y[1:]
                for ch, y0 in zip(chains, starts)]

    return ChainCache(advance, base_state(spec), "curve parameter")


def sample_reduced(spec, s_points) -> ReducedTrajectory:
    """The states at the sorted distinct s_points, read from a fresh states(spec)."""
    s = sorted(set(float(t) for t in s_points))
    return ReducedTrajectory(spec, np.array(s), states(spec).get(s))
