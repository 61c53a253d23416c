"""Expander and minimal profiles on the centred quadric sum(x_j^2) = 1.

A profile is parametrized by the height coordinate y (the signed square root
of u - u_*, with u_* the turning value of u).  With a_j > 0 and rate
alpha >= 0:

    r_j(y)   = sqrt(1/a_j + y^2)
    phi_j(y) = psi_j + integral_0^y dt / ((1/a_j + t^2) sqrt(P(t)))
    theta(y) = sum_j phi_j(y) + arg(y + i P(y)^(-1/2))

where P(t) = (prod_k (1 + a_k t^2) e^{alpha t^2} - 1) / t^2, P(0) = sum a_k
+ alpha.  As y -> +-inf each phi_j gains the asymptotic increment

    phibar_j = integral_0^inf dt / ((1/a_j + t^2) sqrt(P(t)))

and the profile is asymptotic to the two Lagrangian planes with coordinate
angles psi_j + phibar_j and psi_j - phibar_j.  The map a -> phibar is the
angle map; it satisfies sum phibar_j < pi/2 for alpha > 0 with equality in
the minimal case alpha = 0, and is inverted here by a damped Newton
iteration in logarithmic coordinates.  Dilating an expander rescales alpha
and a together and keeps its asymptotic planes, so phibar(k alpha, k a) =
phibar(alpha, a): phibar is integrated at the scale where P(0) = 1, and the
Newton start, the symmetric scale a = (c,..,c), is a one-dimensional solve
in beta = alpha / c.

P is computed via expm1/log1p, so small t loses nothing to cancellation,
and as t e^(-E/2) once E = log(1 + t^2 P) exceeds 700.  Each quantity runs
on one rule of ``quadutil``:

- the angle map phibar: one double-exponential family (``improper_quad``)
  of n + n^2 members, phibar and its Jacobian on the same nodes
  (``_angle_pass``); exports, inversion reports and each Newton iterate's
  residual and Jacobian all read it.  The DE map spreads the decades between
  the peak scales 1/sqrt(a_j) evenly, so a ~ 1e13 needs no special handling;
- the phases phi_j(y) - psi_j and the arc parameter s(y), which only
  minimal-base translators read: Gauss-Legendre panels over the gaps
  between heights (``gauss_panels``), on phibar's integrand
  ``_phase_family`` and on ds/dy (``_arc_rate``).  Each profile holds one
  ``geometry.ChainCache`` of each, so a batch of heights is one call per
  quantity, and a single height is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidTarget, NonConvergence, ToleranceFailure, ValidationError
from .geometry import ChainCache, CurveRecord, curve_views
from .params import require_finite
from .quadutil import gauss_panels, improper_quad

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10
RELATIVE_BELOW = 1e-6   # angle j is solved to tol min(1, |target_j| / RELATIVE_BELOW)
NEWTON_HALVINGS = 15    # step halvings before a damped Newton solve stalls
# the symmetric seed: its accuracy and largest step in log beta (so in log c),
# the |log beta| and |log c| past which it gives up, and its iteration cap
SEED_TOL, SEED_MAX_STEP, SEED_MAX_LOG, SEED_MAX_ITER = 1e-3, 10.0, 700.0, 100
EPS = float(np.finfo(float).eps)
MAX_HEIGHT = math.sqrt(np.finfo(float).max)    # the largest height whose square is finite


@dataclass(frozen=True)
class ExpanderProfile:
    """Profile data (alpha, a, psi) with the base point at the turning value
    y = 0, where u = 0; the implied base radii are alpha_j = 1/a_j.
    """

    alpha: float
    a: tuple
    psi: tuple = None
    _phases: ChainCache = field(default=None, init=False, repr=False, compare=False)
    _arcs: ChainCache = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha, a = _angle_map_args(self.alpha, self.a)
        psi = require_finite("psi", self.psi) if self.psi is not None else (0.0,) * len(a)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "psi", psi)
        if len(psi) != len(a):
            raise ValidationError("psi must have the same length as a")
        # the exact integrals from 0 to h = |y| of d phi_j and ds, by h
        object.__setattr__(self, "_phases", ChainCache(_gauss_chains(
            _phase_family(self.alpha, a), "phi increment"), np.zeros(len(a)), "profile height"))
        object.__setattr__(self, "_arcs", ChainCache(_gauss_chains(
            _arc_family(self.alpha, a), "arc parameter"), np.zeros(1), "profile height"))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def lambdas(self):
        return (1.0,) * self.n

    @property
    def first_integral_value(self) -> float:
        """A < 0 branch: A^2 = G(0) = prod(1/a_j)."""
        return -math.sqrt(math.prod(1.0 / x for x in self.a))

    @property
    def kind(self) -> str:
        return "centred"

    def curve(self, ys) -> CurveRecord:
        """The curve record at the heights ys (see profile_eval)."""
        return profile_eval(self, ys)

    # called nowhere in lagsol: perfbench's tracer wraps these names, so they
    # stay until it stops (ROADMAP item 1)
    w_of, wdot_of, theta_of = curve_views("w", "wdot", "theta")


@dataclass(frozen=True)
class AngleVector:
    """Asymptotic angle increments phibar_j together with the base phases."""

    phibar: tuple
    psi: tuple

    @property
    def total(self) -> float:
        return sum(self.phibar)

    @property
    def plane_plus(self) -> tuple:
        """Coordinate angles of the y -> +inf asymptotic plane."""
        return tuple(p + b for p, b in zip(self.psi, self.phibar))

    @property
    def plane_minus(self) -> tuple:
        """Coordinate angles of the y -> -inf asymptotic plane."""
        return tuple(p - b for p, b in zip(self.psi, self.phibar))


def _gauss_chains(rates, what: str):
    """The advance of a ChainCache of integrals from 0 of the members of
    rates(t) -> (members, nodes): the gaps of every chain are one
    gauss_panels family, and each chain adds its gaps to its start row in
    turn."""
    def advance(chains, starts):
        gaps = gauss_panels(rates, np.concatenate([ch[:-1] for ch in chains]),
                            np.concatenate([ch[1:] for ch in chains]), what=what)
        ends = np.cumsum([len(ch) - 1 for ch in chains])[:-1]
        return [np.cumsum(np.column_stack([row, steps]), axis=1)[:, 1:].T
                for row, steps in zip(starts, np.split(gaps, ends, axis=1))]
    return advance


def profile_eval(profile: ExpanderProfile, ys) -> CurveRecord:
    """The curve record at the heights ys, one batch of the phase cache:
    radii r_j = sqrt(1/a_j + y^2), lifted phases, theta, and the rates in y,
    dw_j/dy = e^(i phi_j) (y + i P^(-1/2)) / r_j, d theta/dy = -alpha P^(-1/2)
    and ds/dy (_arc_rate), which relates y to the system parameter."""
    ys = np.asarray(ys, dtype=float)
    hs = np.abs(ys)
    huge = np.isfinite(hs) & (hs > MAX_HEIGHT)     # the phase cache rejects inf and nan
    if huge.any():
        raise ValidationError(f"profile height {ys[np.argmax(huge)]:g} is too large:"
                              " its square overflows")
    inc = profile._phases.get(hs)
    phis = np.array(profile.psi) + np.where(ys[:, None] >= 0.0, inc, -inc)
    alpha, a = profile.alpha, profile.a
    grown = _growth_arrays(alpha, np.array(a)[:, None], hs)
    t2, _, isp, _ = grown
    r = np.sqrt(1.0 / np.array(a) + t2[:, None])
    turn = np.exp(1j * phis)
    # math.atan2: numpy's arctan2 differs from it in the last bit for a few
    # percent of arguments, and theta reaches the translator FD through beta
    arg = [math.atan2(i, y) for i, y in zip(isp.tolist(), ys.tolist())]
    return CurveRecord(ys, t2, r, phis, r * turn,
                       turn * (ys[:, None] / r + 1j * isp[:, None] / r),
                       phis.sum(axis=1) + arg, -alpha * isp, 2.0 * ys,
                       _arc_rate(alpha, a, hs, grown))


def _growth_arrays(alpha: float, av: np.ndarray, t: np.ndarray):
    """t^2, E, P(t)^(-1/2) and L = sum log1p(a_k t^2) at heights t >= 0 (av:
    a as a column).

    E = alpha t^2 + L and P = expm1(E) / t^2, so P^(-1/2) is
    t / sqrt(expm1(E)), and t e^(-E/2) once E exceeds 700.  P(t) = P(0)(1 + d)
    with 0 <= d <= t^2 P(0) / 2 and E = t^2 P(0) to first order, so where
    E <= eps, t^2 cannot move P and P^(-1/2) is its t -> 0 limit
    (sum a + alpha)^(-1/2).  The quotient loses digits there and is 0 / 0
    once t^2 underflows, so it sees E floored at eps and is discarded.
    """
    t2 = t * t
    L = np.log1p(av * t2).sum(axis=0)
    E = alpha * t2 + L
    isp = np.where(E > 700.0, t * np.exp(-0.5 * E),
                   t / np.sqrt(np.expm1(np.minimum(np.maximum(E, EPS), 700.0))))
    isp[E <= EPS] = 1.0 / math.sqrt(float(av.sum()) + alpha)
    return t2, E, isp, L


def _arc_rate(alpha: float, a: tuple, t: np.ndarray, grown) -> np.ndarray:
    """ds/dy = e^(alpha t^2 / 2) sqrt(prod a / P(t)) at heights t >= 0, from
    grown = _growth_arrays(alpha, a, t).  Past E = 700, P^(-1/2) = t e^(-E/2)
    and the exponents combine to -L / 2, which forming alpha t^2 - E would
    cancel."""
    t2, E, isp, L = grown
    return math.sqrt(math.prod(a)) * np.where(
        E > 700.0, t * np.exp(-0.5 * L), isp * np.exp(0.5 * np.minimum(alpha * t2, 700.0)))


def _arc_family(alpha: float, a: tuple):
    """t -> (1, nodes) array of ds/dy, t > 0."""
    av = np.array(a)[:, None]
    return lambda t: _arc_rate(alpha, a, t, _growth_arrays(alpha, av, t))[None]


def _phase_family(alpha: float, a: tuple):
    """t -> (n, nodes) array of d phi_j / dt = a_j / (1 + a_j t^2) P(t)^(-1/2), t > 0."""
    av = np.array(a)[:, None]

    def rates(t):
        t2, _, isp, _ = _growth_arrays(alpha, av, t)
        return av / (1.0 + av * t2) * isp
    return rates


def asymptotic_angles(profile: ExpanderProfile) -> AngleVector:
    """Asymptotic plane data of the profile, read from the joint pass."""
    return AngleVector(tuple(_angle_pass(profile.alpha, profile.a)[0].tolist()), profile.psi)


def _angle_map_args(alpha: float, a) -> tuple:
    """(alpha, a) as floats, checked for the profile and the angle map."""
    (alpha,) = require_finite("alpha", (alpha,))
    a = require_finite("a", a)
    if alpha < 0:
        raise ValidationError("alpha must be non-negative")
    if not a or any(x <= 0 for x in a):
        raise ValidationError("a must be non-empty, with every a_j positive")
    k = alpha + sum(a)
    if math.isinf(k):
        raise ValidationError("alpha + sum(a) overflows")
    if min(a) < np.finfo(float).tiny * max(1.0, k):    # a_j or a_j / k subnormal
        raise ValidationError("every a_j and a_j / (alpha + sum(a)) must be a normal double")
    return alpha, a


def angle_map(alpha: float, a) -> np.ndarray:
    """The angle map a -> phibar for the zero-phase profile, read from the
    joint pass (_angle_pass)."""
    return np.array(_angle_pass(*_angle_map_args(alpha, a))[0])


def angle_map_jacobian(alpha: float, a) -> np.ndarray:
    """d phibar_j / d a_k by differentiating under the integral sign, read
    from the joint pass (_angle_pass)."""
    return np.array(_angle_pass(*_angle_map_args(alpha, a))[1])


def _angle_family(alpha: float, a: tuple):
    """t -> (n + n^2, nodes) array: the integrands of phibar_j, then those of
    d phibar_j / d a_k, row-major in (j, k), t > 0.

    With W = prod(1+a_k t^2) e^{alpha t^2} = 1 + t^2 P one has
    dP/da_k = W / (1 + a_k t^2), which gives integrands proportional to
    t^2 / ((1 - e^{-E})(1 + a_k t^2)) times phibar_j's own; the k = j entry
    picks up the extra derivative of the 1/(1/a_j + t^2) prefactor.
    """
    n = len(a)
    av = np.array(a)[:, None]
    diag = np.arange(n)

    def rates(t):
        t2, E, isp, _ = _growth_arrays(alpha, av, t)
        one_minus = np.maximum(-np.expm1(-E), 1e-300)
        q = 1.0 / (1.0 + av * t2)                     # (n, nodes)
        g = av * q * isp
        jac = -g[:, None, :] * (t2 / (2.0 * one_minus)) * q[None, :, :]
        jac[diag, diag] += isp * q * q                # entry (j, j)
        return np.concatenate([g, jac.reshape(n * n, -1)])
    return rates


@lru_cache(maxsize=256)
def _angle_pass(alpha: float, a: tuple) -> tuple:
    """The one phibar routine: (phibar, d phibar / d a) at checked (alpha, a)
    from one DE family of n + n^2 members, a Newton iterate in one pass."""
    n, k = len(a), alpha + sum(a)     # integrated at (alpha / k, a / k), where P(0) = 1
    out = improper_quad(_angle_family(alpha / k, tuple(x / k for x in a)),
                        what="angle map and jacobian")
    phibar, jac = out[:n], out[n:].reshape(n, n) / k
    phibar.flags.writeable = jac.flags.writeable = False
    return phibar, jac


def _validate_target(alpha: float, target: np.ndarray):
    if np.any(target <= 0) or np.any(target >= math.pi / 2):
        raise InvalidTarget("each target angle must lie strictly between 0 and pi/2")
    s = float(target.sum())
    if alpha > 0:
        if s >= math.pi / 2:
            raise InvalidTarget(
                f"sum of target angles is {s:.12g}; expanding profiles require a sum"
                " strictly below pi/2")
    elif alpha == 0:
        if abs(s - math.pi / 2) > 1e-8:
            raise InvalidTarget(
                f"sum of target angles is {s:.12g}; minimal profiles require the sum"
                " to equal pi/2")
    else:
        raise ValidationError("inversion is defined for alpha >= 0")


def _symmetric_seed(alpha: float, n: int, target_sum: float) -> float:
    """Scale c with sum of angle_map(alpha, (c,..,c)) matching the target sum.

    Dilating an expander rescales alpha and a together and keeps its
    asymptotic planes, so phibar(k alpha, k a) = phibar(alpha, a) and the
    sum is S(beta) = n phibar_1(beta, (1,..,1)) at beta = alpha / c, falling
    from pi/2 at beta = 0 to 0 at infinity.  x = log beta solves S = target
    by a bracketed Newton iteration on the logit log(S / (pi/2 - S)), about
    linear in x in both tails, to SEED_TOL.  Each iterate is one joint pass
    (_angle_pass): the Euler identity beta d phibar/d beta = -sum_k a_k
    d phibar/d a_k gives dS/dx = -n sum_k J_1k at a = (1,..,1).

    Angle sums within 1e-8 of the pi/2 ceiling cannot be resolved (the
    deficit nears quadrature noise); those are seeded by extrapolating
    the near-ceiling power law of the deficit in beta from two resolvable
    values.
    """
    ones = (1.0,) * n

    def log_beta(tsum):
        goal = math.log(tsum / (0.5 * math.pi - tsum))
        lo, hi, x = -math.inf, math.inf, 0.0
        for _ in range(SEED_MAX_ITER):
            phibar, jac = _angle_pass(math.exp(x), ones)
            total = n * float(phibar[0])
            deficit = 0.5 * math.pi - total
            if total <= 0.0 or deficit <= 0.0:     # at 0 or pi/2 to quadrature noise
                f, slope = (math.inf if deficit <= 0.0 else -math.inf), 0.0
            else:
                f = math.log(total / deficit) - goal
                slope = -n * float(jac[0].sum()) * 0.5 * math.pi / (total * deficit)
            if f > 0.0:
                lo = x
            else:
                hi = x
            new = x - f / slope if slope < 0.0 else math.nan
            if not lo < new < hi or abs(new - x) > SEED_MAX_STEP:
                new = (0.5 * (lo + hi) if math.isfinite(lo + hi)
                       else x + math.copysign(SEED_MAX_STEP, f))
            if abs(new - x) < SEED_TOL:
                return new
            if abs(new) > SEED_MAX_LOG:
                break
            x = new
        raise NonConvergence("could not bracket the symmetric seed scale")

    deficit = 0.5 * math.pi - target_sum
    if alpha > 0 and 0 < deficit < 1e-8:
        ref1, ref2 = 1e-6, 1e-5
        x1 = log_beta(0.5 * math.pi - ref1)
        x2 = log_beta(0.5 * math.pi - ref2)
        slope = (x1 - x2) / math.log(ref1 / ref2)   # d log(beta) / d log(deficit)
        x = x1 + slope * math.log(deficit / ref1)
    else:
        x = log_beta(target_sum)
    log_c = math.log(alpha) - x
    if abs(log_c) > SEED_MAX_LOG:
        raise NonConvergence("could not bracket the symmetric seed scale")
    return math.exp(log_c)


def damped_newton(residual, jacobian, x, r, *, tol: float, max_iter: int,
                  what: str) -> np.ndarray:
    """The x with |residual(x)| < tol in every component (tol a scalar or one
    per component), by damped Newton from x, whose residual is r.  Each step
    solves J step = -r, J = jacobian(x, r), by least squares where J is
    singular, and is halved until the trial's residual is not None
    (infeasible) and its norm falls, at most NEWTON_HALVINGS times.  An
    infeasible start (r None) fails like a stalled solve."""
    if r is None:
        raise NonConvergence(f"{what} starts outside the feasible set")
    for _ in range(max_iter):
        if (np.abs(r) < tol).all():
            return x
        J, rnorm = jacobian(x, r), float(np.linalg.norm(r))
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        for k in range(NEWTON_HALVINGS):
            trial = x + 0.5 ** k * step
            tr = residual(trial)
            if tr is not None and float(np.linalg.norm(tr)) < rnorm:
                break
        else:
            raise NonConvergence(f"{what} stalled (damping exhausted)")
        x, r = trial, tr
    if (np.abs(r) < tol).all():
        return x
    raise NonConvergence(f"{what} did not converge in {max_iter} iterations")


def invert_angle_map(alpha: float, target, *, tol: float = NEWTON_TOL) -> np.ndarray:
    """Solve angle_map(alpha, a) = target for a by damped log-space Newton.

    Each iterate is one joint pass (_angle_pass), which the residual and the
    Jacobian both read.  A trial is feasible iff _angle_map_args accepts
    exp(log a), its pass meets the quadrature tolerance and its Jacobian is
    finite; others are damped away, and an infeasible start raises
    NonConvergence.  Angle j is solved to tol min(1, |target_j| /
    RELATIVE_BELOW), so a target below tol is still reached to a fraction of
    itself: below RELATIVE_BELOW its equation is log(phibar_j / target_j) =
    0, solved to tol / RELATIVE_BELOW, on which Newton steps near the face
    phibar_j -> 0 are about exact (phibar_j is about a power of a_j there).
    At alpha = 0 the angles sum to pi/2 at every scale, so sum(a) = 1
    replaces the dependent last equation and picks the returned
    representative; every tolerance is then divided by n - 1, and the
    sum(a) = 1 row keeps tol / (n - 1).
    """
    target = np.asarray(target, dtype=float)
    (alpha,) = require_finite("alpha", (alpha,))
    require_finite("target angles", target.tolist())
    n = target.size
    if alpha == 0.0 and n == 1:
        # every a gives phibar = pi/2; only that target is admissible
        if abs(float(target[0]) - math.pi / 2) > 1e-8:
            raise InvalidTarget("the one-dimensional minimal profile has angle pi/2")
        return np.array([1.0])
    _validate_target(alpha, target)

    tiny = np.abs(target) < RELATIVE_BELOW
    tols = np.where(tiny, tol / RELATIVE_BELOW, tol)
    if tiny.any():
        # seeded from the solution with the tiny targets raised to
        # RELATIVE_BELOW (the largest target gives the raise up where the
        # sum must stay), each tiny a_j then scaled by target_j /
        # RELATIVE_BELOW, as phibar_j is about proportional to a_j there
        raised = np.where(tiny, RELATIVE_BELOW, target)
        if alpha == 0.0 or raised.sum() >= 0.5 * math.pi:
            raised[np.argmax(target)] -= raised.sum() - target.sum()
        a = invert_angle_map(alpha, raised, tol=tol) * np.where(tiny, target / RELATIVE_BELOW, 1.0)
    elif alpha == 0.0:
        a = np.full(n, 1.0 / n)
    else:
        a = np.full(n, _symmetric_seed(alpha, n, float(target.sum())))
    if alpha == 0.0:    # the last angle carries the errors of the n - 1 solved ones
        tols = tols / (n - 1)
        tols[-1] = tol / (n - 1)

    def residual(ell):
        try:
            with np.errstate(over="ignore"):    # an overflowing trial is infeasible
                args = _angle_map_args(alpha, np.exp(ell))
            phibar, jac = _angle_pass(*args)
        except (ValidationError, ToleranceFailure):
            return None
        r = phibar - target
        if tiny.any():
            if not (phibar[tiny] > 0.0).all():
                return None
            r[tiny] = np.log(phibar[tiny] / target[tiny])
        if alpha == 0.0:    # sum(a) = 1 replaces the dependent last equation
            r[-1] = sum(args[1]) - 1.0
        return r if np.isfinite(jac).all() else None

    def jacobian(ell, r):
        a = np.exp(ell)
        J = angle_map_jacobian(alpha, tuple(a.tolist())) * a[None, :]  # d/d log a
        if tiny.any():      # d log phibar_j / d log a
            J[tiny] /= angle_map(alpha, tuple(a.tolist()))[tiny, None]
        return J if alpha > 0.0 else np.vstack([J[:-1], a])    # d sum(a) / d log a

    with np.errstate(divide="ignore"):     # a seed a_j that underflowed to 0 is infeasible
        ell = np.log(a)
    a = np.exp(damped_newton(residual, jacobian, ell, residual(ell), tol=tols,
                             max_iter=NEWTON_MAX_ITER, what="angle map inversion"))
    return a / a.sum() if alpha == 0.0 else a


def s_of_y(profile: ExpanderProfile, ys) -> np.ndarray:
    """Arc parameter of the enclosing ODE flow at the heights ys (any shape),
    measured from the turning point: odd in y, and read from the profile's
    arc cache, the integrals of ds/dy (_arc_rate) from 0 to |y|."""
    ys = np.asarray(ys, dtype=float)
    return np.copysign(profile._arcs.get(np.abs(ys).ravel()).reshape(ys.shape), ys)
