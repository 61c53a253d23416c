"""Periodic and quasi-periodic orbits of the reduced system on centred quadrics.

Admissible data (normalized lambdas, C = 1, A > 0) comes in two families:

  case (a): all lambda_j = +1 and alpha < 0  (compact quadric, shrinkers),
  case (b): lambdas (+1 x m, -1 x (n-m)) with 1 <= m < n, any alpha.

On the band where all radii are positive, G(u) = Q(u) e^{alpha u} is strictly
log-concave with a unique interior critical point u_*.  The orbit analysis
re-bases the data once so u_* = 0; the shift alpha_j -> alpha_j + lambda_j u_*
must be accompanied by A -> A e^{-alpha u_*/2}, which leaves the orbit, its
period and its holonomies unchanged.  The orbit profiles take the spec they
are handed: PeriodicOrbit.profile() hands them the rebased one, and a
profile record stores it.

With G(0) = A^2 exactly, u stays pinned at 0 and the angles evolve linearly
(Hamiltonian stationary case).  With A^2 < G(0), u oscillates between the two
roots u_1 < 0 < u_2 of G(u) = A^2 with period

    S = integral_{u1}^{u2} dv / sqrt(Q(v) - A^2 e^{-alpha v})

and each phase advances per period by the holonomy

    gamma_j = -integral_{u1}^{u2} A lambda_j dv
              / ((alpha_j + lambda_j v) sqrt(G(v) - A^2)).

The turning points are the Newton roots of the concave W = log G - 2 log A:
started where W <= 0, Newton moves monotonically onto each of them.
G - A^2 is evaluated as A^2 expm1(log G - 2 log A) so the integrands stay
accurate through the endpoint cancellation, and the sin^2 substitution of
quadutil removes the inverse-square-root singularities exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadutil
from .errors import (CaseMismatch, InvalidTarget, NonConvergence, ToleranceFailure,
                     ValidationError)
from .expander import damped_newton
from .geometry import CurveRecord, curve_views
from .params import SolitonParams, require_finite
from .reduced_ode import reduced_system, states

CASE_I_REL_TOL = 1e-12
CONDITIONING_MARGIN = 1e-10
SCAN_CHUNK = 4096      # denominators tried per array pass of the periodicity scan
TURNING_POINT_MAX_ITER = 100   # Newton steps per turning point; the pools need 25 at most
# the open interval of the angle an n = 1 shrinker turns per swing, at every
# alpha < 0 by dilation (Abresch-Langer 1986): -sqrt(2) pi at the circle,
# -pi in the small-amplitude limit
AL_GAMMA = (-math.sqrt(2.0) * math.pi, -math.pi)


class OrbitConditioningWarning(UserWarning):
    """Oscillation data lies so close to the stationary case that the
    turning points and period are determined only to a few digits."""


@dataclass(frozen=True)
class PeriodicSpec:
    """Orbit data: normalized params, base radii squared, first integral A > 0.

    psi are the phases phi_j at the base point; they do not influence the
    orbit shape, only where the trajectory sits in the angle torus.
    """

    params: SolitonParams
    alphas: tuple
    A: float
    psi: tuple = None

    def __post_init__(self):
        alphas = require_finite("alphas", self.alphas)
        object.__setattr__(self, "A", require_finite("A", (self.A,))[0])
        psi = require_finite("psi", self.psi) if self.psi is not None else (0.0,) * len(alphas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "psi", psi)
        n = self.params.n
        if len(alphas) != n or len(psi) != n:
            raise ValidationError("alphas and psi must have length n")
        if any(a <= 0 for a in alphas):
            raise ValidationError("alphas must be positive")
        if self.A <= 0:
            raise ValidationError("A must be positive")
        m = self.params.num_positive
        if m == n:
            if self.params.alpha >= 0:
                raise ValidationError(
                    "all-positive lambdas admit bounded oscillation only for alpha < 0")
        elif m == 0:
            raise ValidationError("at least one lambda must be +1 (flip u -> -u otherwise)")

    @property
    def n(self) -> int:
        return self.params.n

    def band(self):
        lam = self.params.lambdas
        lo = max(-a for a, l in zip(self.alphas, lam) if l > 0)
        hi = min((a for a, l in zip(self.alphas, lam) if l < 0), default=math.inf)
        return lo, hi

    @property
    def log_G(self):
        """u -> log G(u), G(u) = prod(alpha_j + lambda_j u) e^{alpha u}, from
        the reduced system's generated kernel (see codegen).  Bind it once
        where it is called in a loop; the spec builds it on first use."""
        return self._log_G_pair[0]

    @property
    def dlog_G(self):
        """u -> d/du log G(u), generated with log_G."""
        return self._log_G_pair[1]

    @cached_property
    def _log_G_pair(self):
        return reduced_system(self)[3:]


def critical_point(spec: PeriodicSpec) -> float:
    """The unique u_* in the band with d/du log G = 0 (G maximal there)."""
    lo, hi = spec.band()
    dlog_G = spec.dlog_G
    # bracket: dlog_G -> +inf at the lower radius collapse, negative far right
    span = (hi - lo) if math.isfinite(hi) else max(1.0, -lo)
    a = lo + span * 1e-12
    while dlog_G(a) <= 0:
        span *= 0.5
        a = lo + span * 1e-12
        # a == lo once span * 1e-12 is below half an ulp of lo
        if span < 1e-200 or a == lo:
            raise ValidationError("could not bracket the critical point from below")
    if math.isfinite(hi):
        span = hi - lo
        b = hi - span * 1e-12
        while dlog_G(b) >= 0:
            span *= 0.5
            b = hi - span * 1e-12
            if span < 1e-200:
                raise ValidationError("could not bracket the critical point from above")
    else:
        b = _outward_bracket(lambda u: dlog_G(u) >= 0, max(1.0, a + 1.0), "critical point")
    try:
        return quadutil.brentq(dlog_G, a, b, xtol=1e-15, rtol=8.9e-16)
    except RuntimeError as exc:     # brentq's iteration budget
        raise NonConvergence(f"critical point: {exc}") from exc


def rebase(spec: PeriodicSpec):
    """Shift the base height so the critical point sits at u = 0.

    Returns (rebased spec, u_crit).  A is rescaled by e^{-alpha u_*/2}; the
    orbit and all its invariants are unchanged.  Orbit data is rebased once,
    in _analyse: the critical point of a rebased spec is 0 only to roundoff,
    so rebasing it again would move its alphas by an ulp.
    """
    u_crit = critical_point(spec)
    A = spec.A * math.exp(-0.5 * spec.params.alpha * u_crit)
    if A == 0.0:
        raise ValidationError(
            f"re-basing A to the critical point u_* = {u_crit:.6g} underflows:"
            " A e^(-alpha u_*/2) is below the smallest double")
    alphas = tuple(a + l * u_crit for a, l in zip(spec.alphas, spec.params.lambdas))
    return PeriodicSpec(spec.params, alphas, A, spec.psi), u_crit


def _stationary_margin(spec: PeriodicSpec) -> float:
    """(G(0) - A^2)/G(0) for a rebased spec; 0 exactly at the stationary case."""
    w0 = spec.log_G(0.0) - 2.0 * math.log(spec.A)
    return -math.expm1(-w0)


def _analyse(spec: PeriodicSpec):
    """Re-base spec once and classify it.

    Returns (rebased spec, u_*, case, stationary margin); raises when A lies
    above the maximum of sqrt(G).
    """
    based, u_crit = rebase(spec)
    margin = _stationary_margin(based)
    if margin < -CASE_I_REL_TOL:
        raise ValidationError(
            f"A = {spec.A:.12g} exceeds the maximum sqrt(G(u_*)); no bounded orbit")
    case = "hamiltonian_stationary" if abs(margin) <= CASE_I_REL_TOL else "oscillating"
    return based, u_crit, case, margin


def classify_case(spec: PeriodicSpec) -> str:
    """'hamiltonian_stationary' when A^2 = G(u_*) to 1e-12 relative, else 'oscillating'."""
    return _analyse(spec)[2]


def holonomies(spec: PeriodicSpec) -> np.ndarray:
    """Per-period phase advances gamma_j of an oscillating spec."""
    based, _, case, _ = _analyse(spec)
    if case == "hamiltonian_stationary":
        raise CaseMismatch("stationary data has no oscillation band")
    return np.array(quadutil.orbit_quad(based, *_based_turning_points(based), period=False))


def _based_turning_points(based: PeriodicSpec):
    """Turning points of a rebased oscillating spec: Newton from each bracket end."""
    lnA2 = 2.0 * math.log(based.A)
    log_G, dlog_G = based.log_G, based.dlog_G
    W = lambda u: log_G(u) - lnA2
    lo, hi = based.band()
    u1 = _newton_root(W, dlog_G, _edge_bracket(W, lo, "left"))
    right = (_edge_bracket(W, hi, "right") if math.isfinite(hi)
             else _outward_bracket(lambda u: W(u) > 0, 1.0, "right turning point"))
    return u1, _newton_root(W, dlog_G, right)


def _edge_bracket(W, edge: float, side: str) -> float:
    """The first of edge (1 - t), t = 1/2, 1/4, ..., where W <= 0: the end
    of the turning point's bracket on the side of the finite band edge."""
    t = 0.5
    while W(edge - edge * t) > 0:
        t *= 0.5
        if t < 1e-14:
            raise ValidationError(f"{side} turning point collapsed onto the band edge")
    return edge - edge * t


def _outward_bracket(inside, b: float, what: str) -> float:
    """The first of b, 2b, 4b, ... where inside is false: the end of a
    bracket on the side of an infinite band edge."""
    while inside(b):
        b *= 2.0
        if b > 1e200:
            raise ValidationError(f"{what} bracket ran away")
    return b


def _newton_root(W, dW, u: float) -> float:
    """The root of the concave W, of derivative dW, between u, where
    W(u) <= 0, and 0: each Newton step lands between its start and the root,
    so |u| decreases until roundoff stops it.  Returns the last iterate that moved."""
    for _ in range(TURNING_POINT_MAX_ITER):
        un = u - W(u) / dW(u)
        if not abs(un) < abs(u):
            return u
        u = un
    raise NonConvergence(f"turning point: Newton did not settle in {TURNING_POINT_MAX_ITER} steps")


def _harmonic_limits(based: PeriodicSpec):
    """(S, gamma) in the limit A^2 -> G(0) of small oscillations:
    S = 2 pi (2 prod alpha_k sum alpha_k^{-2})^{-1/2} and
    gamma_j = -2 pi lambda_j alpha_j^{-1} (2 sum alpha_k^{-2})^{-1/2}."""
    alphas = np.array(based.alphas)
    inv_sq = float(np.sum(alphas ** -2.0))
    gamma = -2.0 * math.pi * np.array(based.params.lambdas) / (
        alphas * math.sqrt(2.0 * inv_sq))
    return 2.0 * math.pi / math.sqrt(2.0 * float(np.prod(alphas)) * inv_sq), tuple(gamma)


@dataclass(frozen=True)
class PeriodicOrbit:
    """Computed orbit invariants of a PeriodicSpec; u1 and u2 are heights
    over the given spec's base point."""

    based: PeriodicSpec         # the spec rebased so the critical point sits at u = 0
    case: str                   # 'hamiltonian_stationary' or 'oscillating'
    u1: float
    u2: float
    S: float
    gamma: tuple

    @property
    def gamma_sum(self) -> float:
        return float(sum(self.gamma))

    def profile(self):
        """The orbit's curve: the u = 0 closed form when stationary, else the ODE."""
        cls = (HamiltonianStationaryProfile if self.case == "hamiltonian_stationary"
               else OrbitProfile)
        return cls(self.based)


def compute_orbit(spec: PeriodicSpec) -> PeriodicOrbit:
    """Turning points, period and holonomies; stationary data gets the harmonic
    limits, and data within CONDITIONING_MARGIN of it an OrbitConditioningWarning."""
    based, shift, case, margin = _analyse(spec)
    if case == "hamiltonian_stationary":
        return PeriodicOrbit(based, case, shift, shift, *_harmonic_limits(based))
    if margin < CONDITIONING_MARGIN:
        warnings.warn(
            f"(G(0) - A^2)/G(0) = {margin:.3e}; turning points and period are"
            " ill-conditioned this close to the stationary case",
            OrbitConditioningWarning, stacklevel=2)
    u1, u2 = _based_turning_points(based)
    S, *gamma = quadutil.orbit_quad(based, u1, u2)
    return PeriodicOrbit(based, case, u1 + shift, u2 + shift, S, tuple(gamma))


# -- periodicity detection ---------------------------------------------------

@dataclass(frozen=True)
class PeriodicityVerdict:
    periodic: bool
    r: int | None
    p: tuple | None
    T: float | None
    max_residual: float


def detect_periodicity(orbit: PeriodicOrbit, *, qmax: int = 64,
                       tol: float = None) -> PeriodicityVerdict:
    """Decide whether the orbit closes up, and report a period.

    The fit of r is max_j |gamma_j - 2 pi p_j / r| in radians, p_j = rint(r
    gamma_j / 2 pi), for the phase advances gamma_j per step S.  The orbit is
    periodic iff some r <= qmax fits within tol; then r is the least such r
    (so gcd(r, p) = 1: a common factor g would make r / g fit), T = r S, p_j
    counts the turns of phase j over T, sum p_j is the Maslov index of the
    closed loop, and max_residual is the fit of r.  Otherwise max_residual is
    the best fit over 1..qmax, so periodic holds iff max_residual <= tol.
    An oscillating orbit steps by one swing, of period S and holonomies gamma;
    a stationary orbit has no swing, so one turn of its first phase stands in
    for one, at the rates of _phase_rates.
    """
    if tol is None:
        tol = 1e-9 * qmax
    if orbit.case == "hamiltonian_stationary":
        rates = _phase_rates(orbit.based)
        S = 2.0 * math.pi / abs(rates[0])
        gamma = [2.0 * math.pi * w / abs(rates[0]) for w in rates]
    else:
        S, gamma = orbit.S, orbit.gamma
    gs, best = np.array(gamma)[:, None], math.inf
    for lo in range(1, qmax + 1, SCAN_CHUNK):
        r = np.arange(lo, min(lo + SCAN_CHUNK, qmax + 1), dtype=float)
        p = np.rint(gs / (2.0 * math.pi) * r)
        resid = np.abs(gs - 2.0 * math.pi * p / r).max(axis=0)
        hit = np.flatnonzero(resid <= tol)
        if hit.size:
            i = int(hit[0])
            return PeriodicityVerdict(True, lo + i, tuple(int(pj) for pj in p[:, i]),
                                      (lo + i) * S, float(resid[i]))
        best = min(best, float(resid.min()))
    return PeriodicityVerdict(False, None, None, None, best)


# -- orbit profiles: ODE-backed, and the closed-form stationary one ---------

def _phase_rates(based: PeriodicSpec) -> tuple:
    """omega_j = -lambda_j A / alpha_j: the phase rates of rebased stationary data."""
    return tuple(-l * based.A / a for l, a in zip(based.params.lambdas, based.alphas))


class OrbitProfile:
    """ODE-backed centred profile of an oscillating spec, kept as handed: the
    rebased spec of a PeriodicOrbit or a profile record, integrated from u = 0.
    Its states are read from reduced_ode.states, whose chained cache makes
    the last digits of a state depend on the order of the queries.
    """

    kind = "centred"

    def __init__(self, spec: PeriodicSpec):
        self._hold(spec)
        self._states = states(spec)

    def _hold(self, spec: PeriodicSpec):
        self.spec, self.lambdas, self.alpha, self.n = (
            spec, spec.params.lambdas, spec.params.alpha, spec.n)

    # curve reads the states through prefetch because perfbench's tracer
    # spans it (ROADMAP item 1)
    def prefetch(self, s_values) -> np.ndarray:
        """The states at s_values, one read of the state cache."""
        return self._states.get(s_values)

    def curve(self, ts) -> CurveRecord:
        """The curve record at the parameters ts, from one prefetch."""
        ts = np.asarray(ts, dtype=float)
        st = self.prefetch(ts)
        n, lam = self.n, np.array(self.lambdas)
        u, phis, theta = st[:, 0], st[:, 1:n + 1], st[:, -1]
        r = np.sqrt(np.array(self.spec.alphas) + lam * u[:, None])
        w = r * np.exp(1j * phis)
        # dw_j/ds = lambda_j e^{i theta} conj(prod_{k != j} w_k)
        full = np.prod(w, axis=1, keepdims=True)
        wdot = lam * np.exp(1j * theta)[:, None] * np.conj(full / w)
        theta_rate = self.alpha * self.spec.A * np.exp(-0.5 * self.alpha * u)
        # u = mean of lambda_j (|w_j|^2 - alpha_j)
        u_rate = np.mean(2.0 * lam * (np.conj(w) * wdot).real, axis=1)
        return CurveRecord(ts, u, r, phis, w, wdot, theta, theta_rate, u_rate,
                           np.ones(len(ts)))

    # called nowhere in lagsol: perfbench's tracer wraps these names, so they
    # stay until it stops (ROADMAP item 1)
    w_of, wdot_of, theta_of, u_of, phis_of, theta_rate_of = curve_views(
        "w", "wdot", "theta", "u", "phis", "theta_rate")


class HamiltonianStationaryProfile(OrbitProfile):
    """The u = 0 solution of the orbit system at A^2 = G(0), in closed form:

    phi_j(s) = psi_j + omega_j s,  omega_j = -lambda_j A / alpha_j (_phase_rates),
    theta(s) = sum(psi) - pi/2 + alpha A s.

    OrbitProfile.curve assembles the record from these states, so dw_j/ds
    is i omega_j w_j.  spec is kept as handed, so it must be rebased
    stationary data.  No ODE is built: A may sit a rounding error above the
    sqrt(Q(0)) that the ODE's initial data allows.
    """

    def __init__(self, spec: PeriodicSpec):
        if abs(_stationary_margin(spec)) > CASE_I_REL_TOL:
            raise CaseMismatch("data does not satisfy A^2 = G(0); the u = 0 closed"
                               " form needs rebased stationary data")
        self._hold(spec)

    def prefetch(self, s_values) -> np.ndarray:
        """The states (u, phi, theta) at s_values, in closed form."""
        ts = np.asarray(s_values, dtype=float)[:, None]
        phis = np.array(self.spec.psi) + np.array(_phase_rates(self.spec)) * ts
        theta = sum(self.spec.psi) - 0.5 * math.pi + self.alpha * self.spec.A * ts
        return np.hstack([np.zeros_like(ts), phis, theta])

    # called nowhere in lagsol: perfbench's tracer wraps these names, so they
    # stay until it stops (ROADMAP item 1)
    w_of, wdot_of, theta_of, u_of, phis_of, theta_rate_of = curve_views(
        "w", "wdot", "theta", "u", "phis", "theta_rate")


# -- data search -------------------------------------------------------------

def search_periodic_data(lambdas, alpha: float, gamma_target, *,
                         tol: float = 1e-8, max_iter: int = 60) -> PeriodicSpec:
    """Find (alphas, A) whose holonomies hit gamma_target, by damped Newton.

    Unknowns are (log alpha_1..log alpha_n, log A); the system couples the
    critical-point constraint sum(lambda_j/alpha_j) + alpha = 0 (which fixes
    the re-basing gauge) with the n holonomy equations.  The Jacobian is a
    forward difference at the held residual, n + 1 holonomy solves, so an
    undamped iteration costs n + 2; infeasible trials (A beyond the G
    maximum) and trials whose exponentials overflow or whose holonomy
    quadrature fails are damped away.
    """
    lambdas = tuple(float(l) for l in lambdas)
    params = SolitonParams(lambdas, 1.0, float(alpha))
    target = np.asarray(gamma_target, dtype=float)
    require_finite("gamma_target", target.tolist())
    n = len(lambdas)
    if target.size != n:
        raise ValidationError("gamma_target must have length n")
    if lambdas == (1.0,) and alpha < 0 and not AL_GAMMA[0] < target[0] < AL_GAMMA[1]:
        raise InvalidTarget(
            f"gamma = {float(target[0])!r} is outside the open interval (-sqrt(2) pi, -pi)"
            f" = {AL_GAMMA!r} of the angles the n = 1 shrinkers (Abresch-Langer curves)"
            " turn per swing")

    def residual(x):
        try:
            with np.errstate(over="raise"):
                alphas = tuple(np.exp(x[:n]))
            A = math.exp(x[n])
            gam = holonomies(PeriodicSpec(params, alphas, A))
        except (ValidationError, ValueError, OverflowError, FloatingPointError,
                ToleranceFailure):
            # infeasible (A beyond the G maximum, or stationary: CaseMismatch),
            # overflowing or unintegrable trial: damped away
            return None
        constraint = sum(l / a for l, a in zip(lambdas, alphas)) + alpha
        return np.concatenate([[constraint], gam - target])

    x, r = _search_seed(params, residual)

    def jacobian(x, r):
        """Forward differences against the residual r held at x, so n + 1
        holonomy solves: column k is (residual(x + h e_k) - r)/h, backward
        (r - residual(x - h e_k))/h where x + h e_k is infeasible, and zero
        where both sides are."""
        J, h = np.zeros((n + 1, n + 1)), 1e-6
        for k in range(n + 1):
            xp = x.copy(); xp[k] += h
            rp = residual(xp)
            if rp is not None:
                J[:, k] = (rp - r) / h
                continue
            xm = x.copy(); xm[k] -= h
            rm = residual(xm)
            if rm is not None:
                J[:, k] = (r - rm) / h
        return J

    x = damped_newton(residual, jacobian, x, r, tol=tol, max_iter=max_iter,
                      what="periodic data search")
    return PeriodicSpec(params, tuple(np.exp(x[:n])), math.exp(x[n]))


def _search_seed(params: SolitonParams, residual):
    """The feasible (x, r) of least residual norm, the first of equal norms,
    on a coarse scan: symmetric-ish alphas at five scales, each with A at
    0.3, 0.6 and 0.9 of its ceiling sqrt(G(u_*)).  A scale whose spec or
    rebase raises is skipped."""
    found = []
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        alphas = np.full(params.n, scale)
        # adjust the first slot so the constraint is roughly met when possible
        s_rest = sum(l / a for l, a in zip(params.lambdas[1:], alphas[1:])) + params.alpha
        if params.lambdas[0] > 0 and s_rest < 0:
            alphas[0] = -1.0 / s_rest
        try:
            based, _ = rebase(PeriodicSpec(params, tuple(alphas), 1.0))
            Amax = math.exp(0.5 * based.log_G(0.0))
            for frac in (0.3, 0.6, 0.9):
                x = np.concatenate([np.log(alphas), [math.log(frac * Amax)]])
                r = residual(x)
                if r is not None:
                    found.append((x, r))
        except (ValidationError, ValueError):
            continue
    if not found:
        raise ValidationError("could not find a feasible starting point for the search")
    return min(found, key=lambda xr: float(np.linalg.norm(xr[1])))


def topology_tag(spec: PeriodicSpec, level: int = 1) -> str:
    """Submanifold type of a closed orbit's immersion over the quadric level
    sum lambda_j x_j^2 = level (+1, 0 or -1); level -1 swaps the m positive
    directions for the n - m negative ones, and level 0 is the cone."""
    m, n = spec.params.num_positive, spec.n
    if level == 0:
        return f"cone over S1 x S{m - 1} x S{n - m - 1}"
    if level < 0:
        m = n - m
    return f"S1 x S{n - 1}" if m == n else f"S1 x S{m - 1} x R{n - m}"
