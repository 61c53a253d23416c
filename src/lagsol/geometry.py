"""Pointwise differential geometry of the constructed Lagrangians.

A centred profile (expander, shrinker or periodic orbit) immerses the product
of a quadric { sum lambda_j x_j^2 = 1 } with its curve parameter via

    F(x, t) = (x_1 w_1(t), ..., x_n w_n(t)),

a translating profile sends a free base point x in R^{n-1} to

    z(x, t) = (x_1 w_1(t), ..., x_{n-1} w_{n-1}(t), -1/2 sum lambda_j x_j^2 + beta(t)).

Everything here works from a small duck-typed profile surface: n, alpha,
lambdas, u_of(t), w_of(t), wdot_of(t), theta_of(t), theta_rate_of(t) (plus
beta data for translators, supplied by the caller through TranslatorChart).
Every profile's quadric is normalized to 1 on the right-hand side.

The frame at a point consists of the quadric tangent directions multiplied
into w plus the curve velocity.  From its complex Gram matrix M = F^H F we
get the induced metric g = Re M, the Lagrangian defect max |Im M|, the
Lagrangian angle as arg det of the frame, the mean curvature H = J grad
theta, and the normal projections entering the soliton equations.  A slow
finite-difference mean curvature (Laplace-Beltrami of the immersion on a
local chart, Richardson extrapolated) serves as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FD_STEP_SCALE = 1e-3


def quadric_tangent_basis(lambdas, x):
    """Orthonormal tangent basis of { sum lambda_j x_j^2 = C } at x.

    Returns an (n-1, n) array of row vectors orthogonal to the gradient
    direction nu ~ (lambda_1 x_1, ..., lambda_n x_n), built by Gram-Schmidt
    from the coordinate axes with the axis of largest |lambda_j x_j| dropped
    (deterministic pivot).  The orientation is fixed so that the rows followed
    by nu form a right-handed basis of R^n.
    """
    lam = np.asarray(lambdas, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    grad = lam * x
    norm = np.linalg.norm(grad)
    if norm == 0:
        raise ValidationError("quadric gradient vanishes; point is singular")
    nu = grad / norm
    drop = int(np.argmax(np.abs(grad)))
    rows = []
    for k in range(n):
        if k == drop:
            continue
        v = np.zeros(n)
        v[k] = 1.0
        v -= (v @ nu) * nu
        for e in rows:
            v -= (v @ e) * e
        vn = np.linalg.norm(v)
        if vn < 1e-12:
            raise ValidationError("degenerate tangent basis at quadric point")
        rows.append(v / vn)
    basis = np.array(rows).reshape(n - 1, n)
    if n > 1:
        full = np.vstack([basis, nu[None, :]])
        if np.linalg.det(full) < 0:
            basis[0] = -basis[0]
    return basis


def _tangent_bases(lambdas, xs) -> np.ndarray:
    """quadric_tangent_basis at each row of xs, as one (m, n-1, n) array.

    Same pivot, Gram-Schmidt order and orientation, but the dot products sum
    over stacked rows, so entries agree with quadric_tangent_basis to
    roundoff rather than bit for bit.  The frames use this; the FD chart
    keeps quadric_tangent_basis, so the oracle's arithmetic stays its own.
    """
    lam = np.asarray(lambdas, dtype=float)
    m, n = xs.shape
    grad = lam * xs
    norm = np.linalg.norm(grad, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValidationError("quadric gradient vanishes; point is singular")
    nu = grad / norm
    drop = np.argmax(np.abs(grad), axis=-1)
    slots = np.arange(n - 1)
    axes = slots + (slots >= drop[:, None])       # the kept axes, in order
    basis = np.empty((m, n - 1, n))
    for k in range(n - 1):
        v = np.zeros((m, n))
        v[np.arange(m), axes[:, k]] = 1.0
        v -= np.sum(v * nu, axis=-1, keepdims=True) * nu
        for e in basis[:, :k].swapaxes(0, 1):
            v -= np.sum(v * e, axis=-1, keepdims=True) * e
        vn = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(vn < 1e-12):
            raise ValidationError("degenerate tangent basis at quadric point")
        basis[:, k] = v / vn
    if n > 1:
        flip = np.linalg.det(np.concatenate([basis, nu[:, None, :]], axis=1)) < 0
        basis[flip, 0] *= -1.0
    return basis


def angle_gap(d):
    """|d| after wrapping d to [-pi, pi], elementwise; equals
    abs(math.remainder(d, 2 pi)) exactly, and is NaN where d is not finite."""
    with np.errstate(invalid="ignore"):
        r = np.fmod(d, 2.0 * math.pi)
    r = np.where(r > math.pi, r - 2.0 * math.pi, np.where(r < -math.pi, r + 2.0 * math.pi, r))
    return _per_point(np.abs(r))


def _per_point(values):
    """A float for one point, the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _mv(A, v):
    """A v over the leading axes of either."""
    return (A @ v[..., None])[..., 0]


def _vm(v, A):
    """v A (v a row vector) over the leading axes of either."""
    return (v[..., None, :] @ A)[..., 0, :]


@dataclass
class FramedPoint:
    """Frame and first fundamental data at one point of the immersion.

    A stack of points at one curve parameter is one FramedPoint whose arrays
    carry a leading point axis; the residuals are then arrays over it.
    """

    z: np.ndarray             # immersion point in C^n
    frame: np.ndarray         # (n, n) complex; row a is the tangent vector f_a
    gram: np.ndarray          # complex Gram matrix M = conj(frame) frame^T
    theta: float              # Lagrangian angle carried by the profile
    theta_rate: float         # d theta / dt in the chart's curve parameter

    @classmethod
    def of(cls, z, frame, theta, theta_rate, *, stacked: bool) -> "FramedPoint":
        """Frame data from stacked z and frame; one point unless stacked."""
        gram = frame @ np.conj(frame.swapaxes(-1, -2))
        if not stacked:
            z, frame, gram = z[0], frame[0], gram[0]
        return cls(z, frame, gram, float(theta), float(theta_rate))

    @property
    def metric(self) -> np.ndarray:
        return self.gram.real

    @property
    def lagrangian_residual(self):
        return _per_point(np.abs(self.gram.imag).max(axis=(-2, -1)))

    @property
    def angle_residual(self):
        """|arg det frame - theta| wrapped to (-pi, pi]."""
        return angle_gap(np.angle(np.linalg.det(self.frame)) - self.theta)

    def metric_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.metric)

    def tangent_projection(self, v: np.ndarray) -> np.ndarray:
        """Real-orthogonal projection of v in C^n ~ R^2n onto the tangent space."""
        coeff = _mv(self.frame, np.conj(v))
        comp = _mv(self.metric_inverse(), coeff.real)
        return _vm(comp, self.frame)

    def normal_projection(self, v: np.ndarray) -> np.ndarray:
        return v - self.tangent_projection(v)

    def mean_curvature(self) -> np.ndarray:
        """H = J grad theta; theta varies only along the curve direction."""
        ginv = self.metric_inverse()
        return 1j * self.theta_rate * _vm(ginv[..., -1, :], self.frame)


def centred_frame(profile, x, t: float) -> FramedPoint:
    """Frame of F(x, t) = x * w(t) at curve parameter t and a quadric point x,
    or a stack of them (shape (m, n)); the curve is read once either way."""
    x = np.asarray(x, dtype=float)
    n = profile.n
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValidationError("quadric point has wrong dimension")
    xs = x.reshape(-1, n)
    qc = np.sum(np.asarray(profile.lambdas) * xs * xs, axis=-1)
    off = np.abs(qc - 1.0) > 1e-9
    if off.any():
        raise ValidationError(
            f"point is not on the quadric: sum lambda x^2 = {float(qc[off][0])!r},"
            " expected 1.0")
    w = np.asarray(profile.w_of(t))
    wdot = np.asarray(profile.wdot_of(t))
    basis = _tangent_bases(profile.lambdas, xs)
    frame = np.concatenate([basis * w, (xs * wdot)[:, None, :]], axis=1)
    return FramedPoint.of(xs * w, frame, profile.theta_of(t), profile.theta_rate_of(t),
                          stacked=x.ndim == 2)


# -- finite-difference mean curvature ---------------------------------------

def fd_step(u: float) -> float:
    """Chart step h = FD_STEP_SCALE * sqrt(1 + |u|), tied to the local radius scale."""
    return FD_STEP_SCALE * math.sqrt(1.0 + abs(u))


def _fd_derivatives(F, xi0: np.ndarray, h: float):
    """Central first and second derivatives of F: R^n -> C^n on a full stencil."""
    n = xi0.size
    F0 = F(xi0)
    d1 = np.empty((n,) + F0.shape, dtype=complex)
    d2 = np.empty((n, n) + F0.shape, dtype=complex)
    plus = []
    minus = []
    for a in range(n):
        xp = xi0.copy(); xp[a] += h
        xm = xi0.copy(); xm[a] -= h
        Fp, Fm = F(xp), F(xm)
        plus.append(Fp); minus.append(Fm)
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


def _laplace_beltrami(d1, d2):
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


def mean_curvature_fd(F, xi0, h: float, *, richardson: bool = True) -> np.ndarray:
    """Finite-difference H = Laplace-Beltrami of the immersion F at chart point xi0.

    Second-order central differences; with richardson=True the h and h/2
    results are extrapolated to fourth order.
    """
    xi0 = np.asarray(xi0, dtype=float)
    d1, d2 = _fd_derivatives(F, xi0, h)
    Hh = _laplace_beltrami(d1, d2)
    if not richardson:
        return Hh
    d1, d2 = _fd_derivatives(F, xi0, 0.5 * h)
    Hh2 = _laplace_beltrami(d1, d2)
    return (4.0 * Hh2 - Hh) / 3.0


class CentredChart:
    """Local chart (xi, t) around (x0, t0) on a centred-profile immersion.

    Base points move in the tangent plane at x0 and are pulled back to the
    quadric by the radial scaling x -> x sqrt(1 / sum lambda x^2).
    """

    def __init__(self, profile, x0, t0: float):
        self.profile = profile
        self.x0 = np.asarray(x0, dtype=float)
        self.t0 = float(t0)
        self.n = profile.n
        self.lam = np.asarray(profile.lambdas, dtype=float)
        if self.n > 1:
            self.basis = quadric_tangent_basis(profile.lambdas, self.x0)

    def base_point(self, xi):
        if self.n == 1:
            return self.x0
        x = self.x0 + np.asarray(xi) @ self.basis
        q = float(np.sum(self.lam * x * x))
        if q <= 0:
            raise ValidationError("chart left the quadric's radial domain")
        return x * math.sqrt(1.0 / q)

    def __call__(self, coords):
        coords = np.asarray(coords, dtype=float)
        x = self.base_point(coords[:-1])
        t = self.t0 + coords[-1]
        return x * np.asarray(self.profile.w_of(t))

    def center(self):
        return np.zeros(self.n)


def centred_fd_mean_curvature(profile, x, t: float) -> np.ndarray:
    """Finite-difference H at (x, t); the analytic route is mean_curvature()."""
    chart = CentredChart(profile, x, t)
    return mean_curvature_fd(chart, chart.center(), fd_step(profile.u_of(t)))
