"""Pointwise differential geometry of the constructed Lagrangians.

A centred profile (expander, shrinker or periodic orbit) immerses the product
of a quadric { sum lambda_j x_j^2 = 1 } with its curve parameter via

    F(x, t) = (x_1 w_1(t), ..., x_n w_n(t)),

a translating profile sends a free base point x in R^{n-1} to

    z(x, t) = (x_1 w_1(t), ..., x_{n-1} w_{n-1}(t), -1/2 sum lambda_j x_j^2 + beta(t)).

Everything here works from a small duck-typed profile surface: n, alpha,
lambdas, u_of(t), w_of(t), wdot_of(t), theta_of(t), theta_rate_of(t).
Every profile's quadric is normalized to 1 on the right-hand side.

The frame at a point consists of the quadric tangent directions multiplied
into w plus the curve velocity.  From its complex Gram matrix M = F^H F we
get the induced metric g = Re M, the Lagrangian defect max |Im M|, the
Lagrangian angle as arg det of the frame, the mean curvature H = J grad
theta, and the normal projections entering the soliton equations.

A finite-difference mean curvature serves as an independent cross-check, for
centred profiles and translators alike: the Laplace-Beltrami operator of the
immersion on a local chart (xi, t), Richardson extrapolated.  curve_chart
pairs a base map of the chart offsets xi with the immersion rows of a kind;
the whole central-difference stencil of both Richardson levels is one array
of offsets, the curve is read once per distinct t, and the differences and
Laplace-Beltrami contractions run over the stacked values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FD_STEP_SCALE = 2e-3


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
    """Chart step h = FD_STEP_SCALE * sqrt(1 + |u|), tied to the local radius scale.

    The scale balances the two errors of the Richardson pair: roundoff in
    the second differences grows like eps / h^2, truncation like h^4.  At
    1e-3 roundoff dominated: a minimal profile's |H_fd| read 9.3e-10 where
    H = 0, and 2e-3 cut that to 2.6e-10 and the median soliton residual of
    the benchmark's export jobs by 2-4x.  At 4e-3 truncation took over: the
    worst orbit-export residual rose from 4.8e-9 to 7.8e-8.
    """
    return FD_STEP_SCALE * math.sqrt(1.0 + abs(u))


def _fd_levels(F, n: int, steps) -> np.ndarray:
    """Second-order FD mean curvature at each step, one row per step.

    F maps an (m, n) stack of chart offsets to the (m, k) immersion values.
    One stacked stencil covers every step: per step, the centre, then +-h
    along each axis a, then (+h, +h), (+h, -h), (-h, +h), (-h, -h) along each
    pair a < b.  Differences are central, elementwise over the stack.
    """
    ia, ib = np.triu_indices(n, 1)
    axes = np.arange(n)
    signs = np.zeros((1 + 2 * n + 4 * len(ia), n))
    signs[1 + 2 * axes, axes], signs[2 + 2 * axes, axes] = 1.0, -1.0
    pair_rows = 1 + 2 * n + 4 * np.arange(len(ia))
    for k, (sa, sb) in enumerate(((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))):
        signs[pair_rows + k, ia], signs[pair_rows + k, ib] = sa, sb
    h = np.asarray(steps, dtype=float)[:, None, None]
    V = np.asarray(F((h * signs).reshape(-1, n)), dtype=complex)
    k = V.shape[-1]
    V = V.reshape(len(h), len(signs), k)
    F0, Fp, Fm = V[:, :1], V[:, 1:2 * n + 1:2], V[:, 2:2 * n + 1:2]
    Q = V[:, 2 * n + 1:].reshape(len(h), len(ia), 4, k)
    d1 = (Fp - Fm) / (2.0 * h)
    d2 = np.empty((len(h), n, n, k), dtype=complex)
    d2[:, axes, axes] = (Fp - 2.0 * F0 + Fm) / (h * h)
    mixed = (Q[:, :, 0] - Q[:, :, 1] - Q[:, :, 2] + Q[:, :, 3]) / (4.0 * h * h)
    d2[:, ia, ib] = d2[:, ib, ia] = mixed
    # Laplace-Beltrami g^ab (d2_ab - Gamma^c_ab d1_c) of the chart metric
    # g_ab = Re<d1_a, d1_b>, whose Christoffel symbols are Gamma_ab,d = Re<d2_ab, d1_d>
    ginv = np.linalg.inv(np.einsum("lak,lbk->lab", d1, d1.conj()).real)
    gamma = np.einsum("lcd,labk,ldk->labc", ginv, d2, d1.conj()).real
    return np.einsum("lab,labk->lk", ginv, d2 - np.einsum("labc,lck->labk", gamma, d1))


def mean_curvature_fd(F, n: int, h: float) -> np.ndarray:
    """Finite-difference H = Laplace-Beltrami of the immersion at the origin of
    the n-dimensional chart F: the h and h/2 levels of _fd_levels,
    Richardson extrapolated to fourth order."""
    Hh, Hh2 = _fd_levels(F, n, (h, 0.5 * h))
    return (4.0 * Hh2 - Hh) / 3.0


def curve_chart(base, rows, t0: float):
    """The chart (xi, t) -> rows(base(xi), t0 + t) on (m, n) stacks of offsets,
    for an immersion of an n-fold in C^n.

    base maps stacked offsets xi to base points; rows(xs, t) immerses a stack
    of base points at curve parameter t.  The curve is read once per distinct
    t, in the order the stack first reaches it, so profiles whose caches
    depend on query order see the queries of a point-by-point chart.
    """
    def chart(coords):
        xs, dts = base(coords[:, :-1]), coords[:, -1]
        out = np.empty(coords.shape, dtype=complex)     # n-folds in C^n
        for dt in dict.fromkeys(dts.tolist()):
            at = dts == dt
            out[at] = rows(xs[at], t0 + dt)
        return out
    return chart


def _quadric_base(lambdas, x0):
    """Base map of a chart around the quadric point x0: offsets move in the
    tangent plane at x0 and are pulled back to the quadric by the radial
    scaling x -> x sqrt(1 / sum lambda x^2)."""
    lam = np.asarray(lambdas, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.size == 1:            # the quadric is two points: the chart moves in t only
        return lambda xi: np.tile(x0, (len(xi), 1))
    basis = quadric_tangent_basis(lam, x0)

    def base(xi):
        x = x0 + xi @ basis
        q = np.sum(lam * x * x, axis=-1, keepdims=True)
        if np.any(q <= 0):
            raise ValidationError("chart left the quadric's radial domain")
        return x * np.sqrt(1.0 / q)
    return base


def centred_fd_mean_curvature(profile, x, t: float) -> np.ndarray:
    """Finite-difference H at (x, t); the analytic route is mean_curvature()."""
    chart = curve_chart(_quadric_base(profile.lambdas, x),
                        lambda xs, s: xs * np.asarray(profile.w_of(s)), t)
    return mean_curvature_fd(chart, profile.n, fd_step(profile.u_of(t)))
