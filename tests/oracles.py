"""Independent references the tests check the package against.

The package integrates only the reduced system (u, phi_1..phi_n, theta).
Here the full system in w_1..w_n in C and theta runs through the same
stepper, so the tests can check the reduction against it:

    dw_j/ds  = lambda_j e^{i theta} conj(w_1 ... w_{j-1} w_{j+1} ... w_n)
    dtheta/ds = alpha Im(e^{-i theta} w_1 ... w_n)

The real state is [Re w_1, Im w_1, ..., Re w_n, Im w_n, theta].

The module also holds the loop form of the DOP853 step that odeint's
generated straight-line step must match bit for bit, the closure form of
the reduced system that its generated kernel must match likewise, the
closure form of the orbit quadrature's integrand and the loop form of
log G that their generated kernels must match likewise, the
point-by-point finite-difference mean curvature the package's batched one
replaced, the central-difference Jacobian the periodic search's forward one
is checked against, the per-value file writers (csv.writer rows of
repr(float) fields) that the package's streamed row writer must match byte
for byte, the breakpoint ladders of the QUADPACK references for expander
integrals, and small helpers only tests call.
"""

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np
from scipy.integrate import quad

from lagsol import geometry, odeint, translator
from lagsol.errors import ValidationError
from lagsol.fileio import projection_matrix
from lagsol.geometry import _tangent_bases, fd_step
from lagsol.periodic import PeriodicSpec, critical_point
from lagsol.params import SolitonParams
from lagsol.quadutil import REL_TOL, _checked
from lagsol.reduced_ode import (DOMAIN_FLOOR, ESCAPE_COLLAR, _run_two_sided, base_state,
                                reduced_system)


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


def reference_reduced_system(spec: PeriodicSpec):
    """The closure form of reduced_ode.reduced_system, the reference its
    generated straight-line kernel must match bit for bit: the radii as a
    list, min, math.prod and sum on a slice (on 3.11, 0.0 + p_1 + ... in
    order, as 3.12's sum() compensates)."""
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


def reference_log_G(spec: PeriodicSpec, u: float) -> float:
    """The loop form of PeriodicSpec.log_G, the reference its generated
    straight-line function must match bit for bit."""
    s = spec.params.alpha * u
    for a, l in zip(spec.alphas, spec.params.lambdas):
        s += math.log(a + l * u)
    return s


def reference_dlog_G(spec: PeriodicSpec, u: float) -> float:
    """The loop form of PeriodicSpec.dlog_G."""
    s = spec.params.alpha
    for a, l in zip(spec.alphas, spec.params.lambdas):
        s += l / (a + l * u)
    return s


def reference_orbit_numers(based: PeriodicSpec, period: bool = True) -> list:
    """(what, numer(v, radii)) of the period (when period) and the n
    holonomies: the numerators quadutil's generated orbit integrand spells out."""
    alpha, A = based.params.alpha, based.A
    numers = [("holonomy", lambda v, rad, j=j, lj=lj: -A * lj / rad[j])
              for j, lj in enumerate(based.params.lambdas)]
    if period:
        numers.insert(0, ("oscillation period", lambda v, rad: math.exp(0.5 * alpha * v)))
    return numers


def reference_orbit_rates(spec: PeriodicSpec, u1: float, u2: float, numers):
    """The closure form of quadutil's orbit integrand, the reference its
    generated straight-line kernel must match bit for bit: xi -> the list
    of numer(v, radii) / sqrt(G(v) - A^2) * dv/dxi over numers, with a
    radius list and a log1p loop anchored at the nearer turning point."""
    du = u2 - u1
    lam = spec.params.lambdas
    alpha = spec.params.alpha
    A2 = spec.A ** 2
    d1 = [a + l * u1 for a, l in zip(spec.alphas, lam)]
    d2 = [a + l * u2 for a, l in zip(spec.alphas, lam)]

    def rates(xi):
        sx, cx = math.sin(xi), math.cos(xi)
        dl = du * sx * sx       # v - u1, full relative precision
        dr = du * cx * cx       # u2 - v
        if dl <= dr:
            w = alpha * dl
            rad = [dj + lj * dl for dj, lj in zip(d1, lam)]
            for dj, lj in zip(d1, lam):
                w += math.log1p(lj * dl / dj)
            v = u1 + dl
        else:
            w = -alpha * dr
            rad = [dj - lj * dr for dj, lj in zip(d2, lam)]
            for dj, lj in zip(d2, lam):
                w += math.log1p(-lj * dr / dj)
            v = u2 - dr
        gap = A2 * math.expm1(w) if w > 0.0 else A2 * 1e-300
        root = math.sqrt(gap)
        return [numer(v, rad) / root * du * 2.0 * sx * cx for _, numer in numers]

    return rates


def reference_orbit_quad(spec: PeriodicSpec, u1: float, u2: float, numer) -> float:
    """One stand-alone QUADPACK call of the reference integrand of one
    (what, numer) member, with orbit_quad's breakpoints and tolerances."""
    rates = reference_orbit_rates(spec, u1, u2, [numer])
    du = u2 - u1
    lam = spec.params.lambdas
    pts = []
    for dj in (a + l * u1 for a, l in zip(spec.alphas, lam)):
        t = dj / du
        if 0.0 < t < 0.05:
            pts += [math.asin(math.sqrt(t)), math.asin(math.sqrt(min(10 * t, 0.5)))]
    for dj in (a + l * u2 for a, l in zip(spec.alphas, lam)):
        t = dj / du
        if 0.0 < t < 0.05:
            pts += [math.pi / 2 - math.asin(math.sqrt(t)),
                    math.pi / 2 - math.asin(math.sqrt(min(10 * t, 0.5)))]
    pts = sorted(set(p for p in pts if 0.0 < p < math.pi / 2))
    res = quad(lambda x: rates(x)[0], 0.0, math.pi / 2, epsabs=0.0, epsrel=REL_TOL,
               limit=400, points=pts or None, full_output=1)
    return _checked(res, numer[0])


def kernel_spec(lambdas, alphas, alpha):
    """What reduced_ode.reduced_system reads of a PeriodicSpec (n, alphas,
    params), for the systems it rejects: every lambda -1, or every lambda +1
    at alpha >= 0.  The kernels take any state."""
    params = SolitonParams(lambdas, 1.0, alpha)
    return SimpleNamespace(n=params.n, alphas=tuple(alphas), params=params)


def state_with_first_integral(alphas, A, psi) -> list:
    """[0, psi.., sum(psi) - asin(A / sqrt(Q(0)))], built by hand: the
    state at u = 0 with first integral A, for any |A| <= sqrt(Q(0)), zero
    and negative A included (a PeriodicSpec holds A > 0)."""
    return [0.0, *psi, sum(psi) - math.asin(A / math.sqrt(math.prod(alphas)))]


def reduced_rhs(spec: PeriodicSpec, y):
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
    point's psi and accumulated through principal-branch increments between
    consecutive samples (steps are small at odeint's tolerances).
    """

    def __init__(self, spec: PeriodicSpec, s, ws, theta, phis):
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


def full_rhs(spec: PeriodicSpec):
    """rhs(s, y) of the full system on the real state, a list; NaN outside the band."""
    lam = np.array(spec.params.lambdas)
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


def full_first_integral(spec: PeriodicSpec, y) -> float:
    y = np.asarray(y)
    n = spec.n
    w = y[0:2 * n:2] + 1j * y[1:2 * n:2]
    r2 = w.real ** 2 + w.imag ** 2
    u = float(np.mean((r2 - np.array(spec.alphas)) * spec.params.lambdas))
    W = np.prod(w)
    theta = y[2 * n]
    eit = math.cos(theta) - 1j * math.sin(theta)
    return math.exp(0.5 * spec.params.alpha * u) * (eit * W).imag


def full_initial_state(alphas, y0) -> np.ndarray:
    """The real full state of the reduced state y0 = [0, phi_1.., theta] at
    the base point: w_j = sqrt(alpha_j) e^{i phi_j}."""
    n = len(alphas)
    w0 = np.sqrt(np.array(alphas)) * np.exp(1j * np.array(y0[1:n + 1]))
    y = np.empty(2 * n + 1)
    y[0:2 * n:2] = w0.real
    y[1:2 * n:2] = w0.imag
    y[2 * n] = y0[n + 1]
    return y


def integrate_full(spec: PeriodicSpec, s_min: float, s_max: float) -> FullTrajectory:
    """Integrate the full system over [s_min, s_max] (must contain 0)."""
    n = spec.n
    y0 = full_initial_state(spec.alphas, base_state(spec))
    rhs = full_rhs(spec)
    conserved = lambda y: full_first_integral(spec, y)

    def near(y):
        y = np.asarray(y)
        w = y[0:2 * n:2] + 1j * y[1:2 * n:2]
        return (w.real ** 2 + w.imag ** 2).min() < ESCAPE_COLLAR

    s, y = _run_two_sided(rhs, y0, s_min, s_max, conserved, near)

    ws = y[:, 0:2 * n:2] + 1j * y[:, 1:2 * n:2]
    theta = y[:, 2 * n]
    # continuous argument lift anchored at the base point
    i0 = int(np.argmin(np.abs(s)))
    phis = np.empty((len(s), n))
    phis[i0] = spec.psi
    for i in range(i0 + 1, len(s)):
        phis[i] = phis[i - 1] + np.angle(ws[i] / ws[i - 1])
    for i in range(i0 - 1, -1, -1):
        phis[i] = phis[i + 1] + np.angle(ws[i] / ws[i + 1])
    return FullTrajectory(spec, s, ws, theta, phis)


def lift_state(spec: PeriodicSpec, state: ReducedState) -> FullState:
    """Rebuild the full state; r_j^2 = alpha_j + lambda_j u holds by construction."""
    lam = spec.params.lambdas
    ws = tuple(
        math.sqrt(a + l * state.u) * complex(math.cos(p), math.sin(p))
        for a, l, p in zip(spec.alphas, lam, state.phis)
    )
    return FullState(state.s, ws, state.theta)


# -- the loop-form DOP853 step -------------------------------------------------

def _lsum(terms) -> float:
    """0.0 + t_0 + t_1 + ..., left to right: the sum CPython 3.11's sum()
    forms from floats, spelled as a loop because 3.12's sum() compensates."""
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _combine(y, hd, K, row):
    """y + hd sum(a K[j]) over the (j, a) of a tableau row, component by component."""
    return [v + hd * _lsum(a * K[j][m] for j, a in row) for m, v in enumerate(y)]


def _stages(rhs, s, hd, y, K, stages) -> bool:
    """Evaluate the given stages into K; False at the first non-finite one."""
    for i in stages:
        K[i] = rhs(s + odeint._C[i] * hd, _combine(y, hd, K, odeint._A[i]))
        if not _finite(K[i]):
            return False
    return True


def _error_norm(K, hd, y0, y1, rtol, atol) -> float:
    """Hairer's combined estimate |h| e5^2 / sqrt(n (e5^2 + 0.01 e3^2)), with
    e5, e3 the norms of the two error rows over atol + rtol max(|y0|, |y1|)."""
    e5 = e3 = 0.0
    for m, (a, b) in enumerate(zip(y0, y1)):
        a, b = abs(a), abs(b)
        sc = atol + rtol * (a if a >= b else b)
        e5 += (_lsum(c * K[j][m] for j, c in zip(odeint._E_STAGES, odeint._E5)) / sc) ** 2
        e3 += (_lsum(c * K[j][m] for j, c in zip(odeint._E_STAGES, odeint._E3)) / sc) ** 2
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(hd) * e5 / math.sqrt(len(y0) * (e5 + 0.01 * e3))


def reference_step(rhs, s, hd, s_new, y, f, rtol, atol):
    """The loop form of odeint's generated step: same arguments, same result."""
    K = [None] * 16
    K[0] = f
    if not _stages(rhs, s, hd, y, K, range(1, 12)):
        return None
    y_new = _combine(y, hd, K, odeint._A[12])
    K[12] = f_new = rhs(s_new, y_new)
    if not _finite(f_new):
        return None
    return (y_new, f_new, _error_norm(K, hd, y, y_new, rtol, atol),
            tuple(v for j in odeint._KEPT for v in K[j]))


def reference_extend(rhs, s, hd, y, y_new, ks):
    """The loop form of odeint's generated extension: the three extension
    stages, then the interpolant's seven coefficients per component."""
    d = len(y)
    K = [None] * 16
    for i, j in enumerate(odeint._KEPT):
        K[j] = ks[i * d:(i + 1) * d]
    if not _stages(rhs, s, hd, y, K, range(13, 16)):
        return None
    f0, f1 = K[0], K[12]
    dy = [b - a for a, b in zip(y, y_new)]
    rows = [dy,
            [hd * a - d for a, d in zip(f0, dy)],
            [2.0 * d - hd * (a + b) for d, a, b in zip(dy, f0, f1)],
            *[_combine([0.0] * d, hd, K, row) for row in odeint._D]]
    return list(zip(*rows))


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


def write_profile_csv(path, c) -> None:
    n = c.r.shape[1]
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
