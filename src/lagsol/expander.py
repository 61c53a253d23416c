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
iteration in logarithmic coordinates.

P is computed via expm1/log1p, so small t loses nothing to cancellation,
and as t e^(-E/2) once E = log(1 + t^2 P) exceeds 700.  Each quantity runs
on one rule of ``quadutil``:

- the angle map phibar and its Jacobian: one double-exponential family each
  (``improper_quad``); the DE map spreads the decades between the peak
  scales 1/sqrt(a_j) evenly, so a ~ 1e13 needs no special handling;
- the phases phi_j(y) - psi_j: Gauss-Legendre panels over the gaps between
  heights (``gauss_panels``) on phibar's integrand ``_phase_family``, a
  whole batch of heights in one call; the profile table and the meshes
  fill the per-profile cache this way (``ExpanderProfile.prefetch``), and
  a single height is a batch of one;
- s_of_y, which only minimal-base translators read: QUADPACK, with
  geometric ladders of breakpoints at the peak scales (``_scale_breaks``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidTarget, NonConvergence, ValidationError
from .params import require_finite
from .quadutil import finite_quad, gauss_panels, improper_quad

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class ExpanderProfile:
    """Profile data (alpha, a, psi) with the base point at the turning value.

    u_star records the turning value of u in an enclosing s-parametrization;
    for profiles built directly from (alpha, a) it is zero and the implied
    base radii are alpha_j = 1/a_j.
    """

    alpha: float
    a: tuple
    psi: tuple = None
    u_star: float = 0.0
    _phases: "_PhaseCache" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        psi = tuple(float(p) for p in self.psi) if self.psi is not None else (0.0,) * len(a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "u_star", float(self.u_star))
        require_finite("alpha", (self.alpha,))
        require_finite("a", a)
        require_finite("psi", psi)
        if self.alpha < 0:
            raise ValidationError("expander profiles need alpha >= 0")
        if any(x <= 0 for x in a):
            raise ValidationError("profile curvatures a_j must be positive")
        if len(psi) != len(a):
            raise ValidationError("psi must have the same length as a")
        object.__setattr__(self, "_phases", _PhaseCache(self.alpha, a))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def lambdas(self):
        return (1.0,) * self.n

    @property
    def first_integral_value(self) -> float:
        """A < 0 branch: A^2 = G(u_*) = prod(1/a_j) e^{alpha u_*}."""
        return -math.sqrt(math.prod(1.0 / x for x in self.a) * math.exp(self.alpha * self.u_star))

    @property
    def kind(self) -> str:
        return "centred"

    # -- pointwise evaluation (geometry-facing surface) ----------------------

    def w_of(self, y: float):
        pt = profile_eval(self, y)
        return np.array(pt.w)

    def theta_of(self, y: float) -> float:
        return profile_eval(self, y).theta

    def u_of(self, y: float) -> float:
        return self.u_star + y * y

    def prefetch(self, ys) -> None:
        """Hold the phases at every height of ys, integrated as one batch."""
        self._phases.fill([abs(float(y)) for y in ys])

    def wdot_of(self, y: float):
        """dw/dy: radii grow like y/r_j, phases like 1/(r_j^2 sqrt(P))."""
        pt = profile_eval(self, y)
        isp = _inv_sqrt_P(self.alpha, self.a, y)
        r = np.array(pt.r)
        return np.exp(1j * np.array(pt.phis)) * (y / r + 1j * isp / r)

    def theta_rate_of(self, y: float) -> float:
        """d theta/dy = -alpha / sqrt(P(y)); zero for minimal (alpha = 0) profiles."""
        return -self.alpha * _inv_sqrt_P(self.alpha, self.a, y)

    def s_rate_of(self, y: float) -> float:
        """ds/dy relating y to the system parameter: e^{alpha y^2/2} sqrt(prod a / P)."""
        pref = math.exp(0.5 * self.alpha * y * y) * math.sqrt(math.prod(self.a))
        return pref * _inv_sqrt_P(self.alpha, self.a, y)


@dataclass(frozen=True)
class ProfilePoint:
    y: float
    r: tuple
    phis: tuple
    theta: float

    @property
    def w(self) -> tuple:
        return tuple(r * complex(math.cos(p), math.sin(p)) for r, p in zip(self.r, self.phis))


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


def _log_growth(alpha: float, a: tuple, t: float) -> float:
    """E(t) = alpha t^2 + sum log(1 + a_k t^2); P = expm1(E)/t^2."""
    t2 = t * t
    return alpha * t2 + sum(math.log1p(x * t2) for x in a)


def _inv_sqrt_P(alpha: float, a: tuple, t: float) -> float:
    """P(t)^(-1/2)."""
    if t == 0.0:
        return 1.0 / math.sqrt(sum(a) + alpha)
    E = _log_growth(alpha, a, t)
    if E > 700.0:
        return abs(t) * math.exp(-0.5 * E)
    return abs(t) / math.sqrt(math.expm1(E))


def _scale_breaks(alpha: float, a: tuple):
    """Characteristic t-scales, each expanded into a geometric ladder.

    The s_of_y integrand turns over at t ~ a_j^{-1/2} but its power-law
    shoulders extend for several decades; a single breakpoint lets the
    adaptive rule skip the shoulder entirely when the scales are extreme
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


class _PhaseCache:
    """Exact phase increments integral_0^h d phi_j, by height h = |y| >= 0.

    A height not yet held is integrated from the held height nearest to it
    (0 is always held); the missing heights that share that start and lie
    on one side of it chain outward from it, gap by gap.  So sorted heights
    make one pass over their span, an FD stencil point integrates only its
    offset from its centre, and every gap of a batch is one Gauss-Legendre
    family.  The last digits of a value depend on the order of the queries.
    """

    def __init__(self, alpha: float, a: tuple):
        self.rates = _phase_family(alpha, a)
        self.heights = [0.0]                      # sorted
        self.values = {0.0: (0.0,) * len(a)}

    def fill(self, hs) -> None:
        """Hold every height of hs (each >= 0)."""
        legs = {}
        for h in sorted(set(hs) - self.values.keys()):
            if not math.isfinite(h):
                raise ValidationError(f"profile height {h!r} is not finite")
            k = bisect.bisect(self.heights, h)
            near = min(self.heights[max(k - 1, 0):k + 1], key=lambda c: abs(c - h))
            legs.setdefault((near, h > near), []).append(h)
        if not legs:
            return
        chains = [[near] + (targets if up else targets[::-1])
                  for (near, up), targets in legs.items()]
        gaps = gauss_panels(self.rates, [c for ch in chains for c in ch[:-1]],
                            [c for ch in chains for c in ch[1:]], what="phi increment")
        ends = np.cumsum([len(ch) - 1 for ch in chains])[:-1]
        for ch, steps in zip(chains, np.split(gaps, ends, axis=1)):
            vals = np.cumsum(np.column_stack([self.values[ch[0]], steps]), axis=1)
            self.values.update(zip(ch[1:], map(tuple, vals[:, 1:].T.tolist())))
        self.heights = sorted(self.values)

    def increments(self, y: float) -> tuple:
        """integral_0^y of the phi_j integrands, one value per j (odd in y)."""
        h = abs(y)
        inc = self.values.get(h)
        if inc is None:
            self.fill((h,))
            inc = self.values[h]
        return inc if y >= 0.0 else tuple(-v for v in inc)


def profile_eval(profile: ExpanderProfile, y: float) -> ProfilePoint:
    """Radii, lifted phases and the Lagrangian angle at height y."""
    y = float(y)
    a = profile.a
    inc = profile._phases.increments(y)
    r = tuple(math.sqrt(1.0 / aj + y * y) for aj in a)
    phis = tuple(p + i for p, i in zip(profile.psi, inc))
    theta = sum(phis) + math.atan2(_inv_sqrt_P(profile.alpha, a, y), y)
    return ProfilePoint(y, r, phis, theta)


def profile_table(profile: ExpanderProfile, ys):
    """profile_eval at each height of ys, as arrays: radii and lifted phases
    (len(ys), n) and theta (len(ys),).  The phases are one batch."""
    ys = np.asarray(ys, dtype=float)
    profile.prefetch(ys)
    held = profile._phases.values
    inc = np.array([held[abs(y)] for y in ys.tolist()]).reshape(len(ys), profile.n)
    phis = np.array(profile.psi) + np.where(ys[:, None] >= 0.0, inc, -inc)
    r = np.sqrt(1.0 / np.array(profile.a) + (ys * ys)[:, None])
    arg = [math.atan2(_inv_sqrt_P(profile.alpha, profile.a, y), y) for y in ys.tolist()]
    return r, phis, phis.sum(axis=1) + arg


def _growth_arrays(alpha: float, av: np.ndarray, t: np.ndarray):
    """t^2, E and P^(-1/2) at nodes t > 0 (av: a as a column), as in _inv_sqrt_P."""
    t2 = t * t
    E = alpha * t2 + np.log1p(av * t2).sum(axis=0)
    isp = np.where(E > 700.0, t * np.exp(-0.5 * E),
                   t / np.sqrt(np.expm1(np.minimum(E, 700.0))))
    return t2, E, isp


def _phase_family(alpha: float, a: tuple):
    """t -> (n, nodes) array of d phi_j / dt = a_j / (1 + a_j t^2) P(t)^(-1/2), t > 0."""
    av = np.array(a)[:, None]

    def rates(t):
        t2, _, isp = _growth_arrays(alpha, av, t)
        return av / (1.0 + av * t2) * isp
    return rates


@lru_cache(maxsize=10_000)
def _phibar(alpha: float, a: tuple) -> tuple:
    return tuple(improper_quad(_phase_family(alpha, a), what="asymptotic angle").tolist())


def asymptotic_angles(profile: ExpanderProfile) -> AngleVector:
    """Asymptotic plane data of the profile (improper quadrature)."""
    return AngleVector(_phibar(profile.alpha, profile.a), profile.psi)


def _angle_map_args(alpha: float, a) -> tuple:
    a = tuple(float(x) for x in a)
    require_finite("alpha", (alpha,))
    require_finite("a", a)
    if alpha < 0:
        raise ValidationError("angle map is defined for alpha >= 0")
    if any(x <= 0 for x in a):
        raise ValidationError("angle map needs positive a_j")
    return float(alpha), a


def angle_map(alpha: float, a) -> np.ndarray:
    """The angle map a -> phibar for the zero-phase profile."""
    return np.array(_phibar(*_angle_map_args(alpha, a)))


def angle_map_jacobian(alpha: float, a) -> np.ndarray:
    """d phibar_j / d a_k by differentiating under the integral sign.

    With W = prod(1+a_k t^2) e^{alpha t^2} = 1 + t^2 P one has
    dP/da_k = W / (1 + a_k t^2), which gives integrands proportional to
    t^2 / ((1 - e^{-E})(1 + a_k t^2)); the k = j entry picks up the extra
    derivative of the 1/(1/a_j + t^2) prefactor.
    """
    alpha, a = _angle_map_args(alpha, a)
    n = len(a)
    av = np.array(a)[:, None]
    diag = np.arange(n)

    def rates(t):
        t2, E, isp = _growth_arrays(alpha, av, t)
        one_minus = np.maximum(-np.expm1(-E), 1e-300)
        q = 1.0 / (1.0 + av * t2)                     # (n, nodes)
        g = av * q * isp
        out = -g[:, None, :] * (t2 / (2.0 * one_minus)) * q[None, :, :]
        out[diag, diag] += isp * q * q                # entry (j, j)
        return out.reshape(n * n, -1)

    return improper_quad(rates, what="angle map jacobian").reshape(n, n)


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

    Angle sums within ~1e-9 of the pi/2 ceiling cannot be bracketed reliably
    (the deficit is below quadrature noise); those are seeded by extrapolating
    the near-ceiling power law of the deficit from two resolvable values.
    """
    from scipy.optimize import brentq

    def sum_of(lc):
        return n * float(angle_map(alpha, (math.exp(lc),) * n)[0])

    def seed_for(tsum):
        def g(lc):
            return sum_of(lc) - tsum
        lo, hi = -5.0, 5.0
        while g(lo) > 0 and lo > -70:
            lo -= 10.0
        while g(hi) < 0 and hi < 70:
            hi += 10.0
        if g(lo) > 0 or g(hi) < 0:
            raise NonConvergence("could not bracket the symmetric seed scale")
        return brentq(g, lo, hi, xtol=1e-3)

    deficit = 0.5 * math.pi - target_sum
    if alpha > 0 and 0 < deficit < 1e-9:
        ref1, ref2 = 1e-6, 1e-5
        lc1 = seed_for(0.5 * math.pi - ref1)
        lc2 = seed_for(0.5 * math.pi - ref2)
        slope = (lc1 - lc2) / math.log(ref2 / ref1)  # d log(a) / d log(1/deficit)
        return math.exp(lc1 + slope * math.log(ref1 / deficit))
    return math.exp(seed_for(target_sum))


def invert_angle_map(alpha: float, target, *, tol: float = NEWTON_TOL) -> np.ndarray:
    """Solve angle_map(alpha, a) = target for a by damped log-space Newton.

    For alpha = 0 the map is scale invariant (only defined up to the ray
    through a); the returned representative satisfies sum(a) = 1.
    """
    target = np.asarray(target, dtype=float)
    require_finite("alpha", (alpha,))
    require_finite("target angles", target.tolist())
    n = target.size
    if alpha == 0.0 and n == 1:
        # every a gives phibar = pi/2; only that target is admissible
        if abs(float(target[0]) - math.pi / 2) > 1e-8:
            raise InvalidTarget("the one-dimensional minimal profile has angle pi/2")
        return np.array([1.0])
    _validate_target(alpha, target)

    if alpha == 0.0:
        a = np.full(n, 1.0 / n)
    else:
        a = np.full(n, _symmetric_seed(alpha, n, float(target.sum())))

    ell = np.log(a)
    resid = angle_map(alpha, tuple(np.exp(ell))) - target
    rnorm = float(np.linalg.norm(resid))
    for _ in range(NEWTON_MAX_ITER):
        if float(np.abs(resid).max()) < tol:
            break
        a = np.exp(ell)
        J = angle_map_jacobian(alpha, tuple(a)) * a[None, :]  # d/d log a
        if alpha == 0.0:
            step, *_ = np.linalg.lstsq(J, -resid, rcond=None)
        else:
            step = np.linalg.solve(J, -resid)
        # damped update: halve until the residual actually decreases
        lam = 1.0
        for _ in range(12):
            trial = ell + lam * step
            tr_resid = angle_map(alpha, tuple(np.exp(trial))) - target
            tr_norm = float(np.linalg.norm(tr_resid))
            if tr_norm < rnorm:
                break
            lam *= 0.5
        else:
            raise NonConvergence("angle map inversion stalled (damping exhausted)")
        ell, resid, rnorm = trial, tr_resid, tr_norm
    if not float(np.abs(resid).max()) < tol:
        raise NonConvergence(f"angle map inversion did not reach |residual| < {tol:g}"
                             f" in {NEWTON_MAX_ITER} iterations")
    a = np.exp(ell)
    return a / a.sum() if alpha == 0.0 else a


def s_of_y(profile: ExpanderProfile, y: float) -> float:
    """Arc parameter of the enclosing ODE flow, measured from the turning point.

    ds/dy = e^{alpha y^2 / 2} prod(a_k)^{1/2} / sqrt(P(y)), smooth through
    y = 0.
    """
    alpha, a = profile.alpha, profile.a
    pref = math.exp(0.5 * sum(math.log(x) for x in a))

    def integrand(t):
        if t == 0.0:
            return pref / math.sqrt(sum(a) + alpha)
        E = _log_growth(alpha, a, t)
        halfe = 0.5 * alpha * t * t - 0.5 * E
        # e^{alpha t^2/2} / sqrt(P) = |t| e^{alpha t^2/2 - E/2} / sqrt(1 - e^{-E})
        one_minus = -math.expm1(-E)
        return pref * abs(t) * math.exp(halfe) / math.sqrt(one_minus)

    val = finite_quad(integrand, 0.0, abs(y), breaks=_scale_breaks(alpha, a),
                      what="arc parameter")
    return math.copysign(val, y)
