"""Pointwise differential geometry of the constructed Lagrangians.

A centred profile (expander, shrinker or periodic orbit) immerses the product
of a quadric { sum lambda_j x_j^2 = 1 } with its curve parameter via

    F(x, t) = (x_1 w_1(t), ..., x_n w_n(t)),

a translating profile sends a free base point x in R^{n-1} to

    z(x, t) = (x_1 w_1(t), ..., x_{n-1} w_{n-1}(t), -1/2 sum lambda_j x_j^2 + beta(t)).

Everything here reads a profile through n, lambdas and one method,
curve(ts): the CurveRecord of the curve at an array of parameters ts, from
one batch of the profile's cache, a ChainCache (expander phases and arc
parameter, orbit states).  Every profile's quadric is normalized to 1 on the
right-hand side.

The frame at a point consists of the quadric tangent directions multiplied
into w plus the curve velocity.  From its complex Gram matrix M = F^H F we
get the induced metric g = Re M, the Lagrangian defect max |Im M|, the
Lagrangian angle as arg det of the frame, the mean curvature H = J grad
theta, and the normal projections entering the soliton equations.

A finite-difference mean curvature serves as an independent cross-check, for
centred profiles and translators alike: the Laplace-Beltrami operator of the
immersion on a local chart (xi, t) around each point, Richardson
extrapolated.  The FD points of a mesh are one batch: the central-difference
stencils of every point and both Richardson levels are one array of offsets,
curve_chart reads the curve once over their sorted distinct parameters, and
the differences and Laplace-Beltrami contractions run over the stacked
values.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

FD_STEP_SCALE = 2e-3


class CurveRecord(NamedTuple):
    """A profile curve at m parameters t: one entry per parameter, (m,) or
    (m, n) arrays.  The rates are derivatives in t; s is the system parameter
    of the phase equations, so s_rate is 1 for curves parametrized by s."""

    t: np.ndarray           # curve parameters
    u: np.ndarray           # u = mean of lambda_j (|w_j|^2 - alpha_j)
    r: np.ndarray           # (m, n) radii |w_j|
    phis: np.ndarray        # (m, n) lifted phases arg w_j
    w: np.ndarray           # (m, n) complex curve points
    wdot: np.ndarray        # (m, n) dw/dt
    theta: np.ndarray       # Lagrangian angle
    theta_rate: np.ndarray  # d theta/dt
    u_rate: np.ndarray      # du/dt
    s_rate: np.ndarray      # ds/dt

    def row(self, i) -> "CurveRecord":
        """The entries at the i-th parameter: scalars, and (n,) arrays; for an
        index array, the record at those parameters."""
        return CurveRecord(*(field[i] for field in self))


class ChainCache:
    """Rows of a curve quantity held by parameter, the first the row at
    parameter 0, and reached by chaining.

    get(ts) first reaches the parameters it does not hold, each from the held
    parameter nearest to it (one searchsorted over the sorted held ones; the
    lower on a tie).  The missing parameters that share a start and lie on
    one side of it form one chain, running outward from it; advance(chains,
    starts) takes the chains, each a list of parameters led by its start,
    with their start rows, and returns each chain's rows after its start.
    So sorted parameters make one pass over their span, and an FD stencil
    point is reached from its centre.  The last digits of a row depend on
    the order of the queries.  The rows are held in a dict: the batches are
    small, and numpy's per-call cost on them outweighed the array work.
    """

    def __init__(self, advance, row, what: str):
        self.advance, self.what = advance, what
        self.ts, self.rows = [0.0], {0.0: np.asarray(row, dtype=float)}

    def get(self, ts) -> np.ndarray:
        """The rows at the parameters ts, one per parameter."""
        ts, rows = np.asarray(ts, dtype=float).tolist(), self.rows
        missing = [t for t in ts if t not in rows]
        if missing:
            self._reach(missing)
        return np.array([rows[t] for t in ts]).reshape((len(ts),) + rows[0.0].shape)

    def _reach(self, ts):
        """Hold the parameters ts, none of them held yet."""
        bad = [t for t in ts if not math.isfinite(t)]
        if bad:
            raise ValidationError(f"{self.what} {bad[0]!r} is not finite")
        ts = sorted(set(ts))
        held, legs = [-math.inf, *self.ts, math.inf], {}     # held[k] < t < held[k + 1]
        for t, k in zip(ts, np.searchsorted(self.ts, ts).tolist()):
            up = t - held[k] <= held[k + 1] - t
            legs.setdefault((held[k + 1 - up], up), []).append(t)
        chains = [[t0, *(leg if up else leg[::-1])] for (t0, up), leg in legs.items()]
        for chain, rows in zip(chains, self.advance(chains, [self.rows[c[0]] for c in chains])):
            self.rows.update(zip(chain[1:], rows))
        self.ts = list(heapq.merge(self.ts, ts))


def curve_views(*fields):
    """Per-point views of a profile's curve(), one method t -> curve([t]).field[0]
    for each field named."""
    return tuple(lambda self, t, f=f: getattr(self.curve([t]), f)[0] for f in fields)


def _tangent_bases(lambdas, xs) -> np.ndarray:
    """Orthonormal tangent bases of { sum lambda_j x_j^2 = 1 } at the rows of
    xs, as one (m, n-1, n) array.

    Each basis is Gram-Schmidt on the coordinate axes, with the axis of
    largest |lambda_j x_j| dropped (a deterministic pivot), against the
    gradient direction nu ~ (lambda_1 x_1, ..., lambda_n x_n); its rows
    followed by nu are right-handed.  At n = 1 the bases are empty.
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
    """|d| after wrapping d to [-pi, pi], elementwise over an array; equals
    abs(math.remainder(d, 2 pi)) exactly, and is NaN where d is not finite."""
    with np.errstate(invalid="ignore"):
        r = np.fmod(d, 2.0 * math.pi)
    return np.abs(np.where(r > math.pi, r - 2.0 * math.pi,
                           np.where(r < -math.pi, r + 2.0 * math.pi, r)))


def _mv(A, v):
    """A v over the leading axes of either."""
    return (A @ v[..., None])[..., 0]


def _inv_or_nan(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices, NaN for a singular one.  The whole
    stack goes to np.linalg.inv at once, and is split only when it holds a
    singular matrix."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if m.ndim == 2:
            return np.full_like(m, np.nan)
        return np.stack([_inv_or_nan(mi) for mi in m])


def _vm(v, A):
    """v A (v a row vector) over the leading axes of either."""
    return (v[..., None, :] @ A)[..., 0, :]


@dataclass
class FramedPoint:
    """Frames and first fundamental data at a stack of m points of the
    immersion: every array carries a leading point axis, theta and
    theta_rate included, and the residuals are arrays over it."""

    z: np.ndarray             # (m, n) immersion points in C^n
    frame: np.ndarray         # (m, n, n) complex; row a of frame[i] is the tangent vector f_a
    gram: np.ndarray          # complex Gram matrices M = conj(frame) frame^T
    theta: np.ndarray         # Lagrangian angle carried by the profile, per point
    theta_rate: np.ndarray    # d theta / dt in the chart's curve parameter, per point

    @classmethod
    def of(cls, z, frame, theta, theta_rate) -> "FramedPoint":
        """Frame data from the stacked z and frame."""
        return cls(z, frame, frame @ np.conj(frame.swapaxes(-1, -2)), theta, theta_rate)

    @property
    def metric(self) -> np.ndarray:
        return self.gram.real

    @property
    def lagrangian_residual(self):
        return np.abs(self.gram.imag).max(axis=(-2, -1))

    @property
    def angle_residual(self):
        """|arg det frame - theta| wrapped to (-pi, pi]."""
        return angle_gap(np.angle(np.linalg.det(self.frame)) - self.theta)

    def metric_inverse(self) -> np.ndarray:
        return _inv_or_nan(self.metric)

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
        return 1j * np.expand_dims(self.theta_rate, -1) * _vm(ginv[..., -1, :], self.frame)


def centred_frame(profile, xs, c: CurveRecord) -> FramedPoint:
    """Frames of F(x, t) = x * w(t) at a stack of quadric points xs (shape
    (m, n)), on a curve record c with one row per point."""
    xs = np.asarray(xs, dtype=float)
    n = profile.n
    if xs.ndim != 2 or xs.shape[-1] != n:
        raise ValidationError(f"quadric points must be an (m, {n}) stack")
    qc = np.sum(np.asarray(profile.lambdas) * xs * xs, axis=-1)
    off = np.abs(qc - 1.0) > 1e-9
    if off.any():
        raise ValidationError(
            f"point is not on the quadric: sum lambda x^2 = {float(qc[off][0])!r},"
            " expected 1.0")
    basis = _tangent_bases(profile.lambdas, xs)
    frame = np.concatenate([basis * c.w[:, None, :], (xs * c.wdot)[:, None, :]], axis=1)
    return FramedPoint.of(xs * c.w, frame, c.theta, c.theta_rate)


# -- finite-difference mean curvature ---------------------------------------

def fd_step(u):
    """Chart step h = FD_STEP_SCALE * sqrt(1 + |u|), tied to the local radius
    scale; elementwise over an array of heights u.

    The scale balances the two errors of the Richardson pair: roundoff in
    the second differences grows like eps / h^2, truncation like h^4.  At
    1e-3 roundoff dominated: a minimal profile's |H_fd| read 9.3e-10 where
    H = 0, and 2e-3 cut that to 2.6e-10 and the median soliton residual of
    the benchmark's export jobs by 2-4x.  At 4e-3 truncation took over: the
    worst orbit-export residual rose from 4.8e-9 to 7.8e-8.
    """
    return FD_STEP_SCALE * np.sqrt(1.0 + np.abs(u))


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
    ginv = _inv_or_nan(np.einsum("lak,lbk->lab", d1, d1.conj()).real)
    gamma = np.einsum("lcd,labk,ldk->labc", ginv, d2, d1.conj()).real
    return np.einsum("lab,labk->lk", ginv, d2 - np.einsum("labc,lck->labk", gamma, d1))


def mean_curvature_fd(F, n: int, h) -> np.ndarray:
    """Finite-difference H = Laplace-Beltrami of the immersion at the origin of
    the n-dimensional chart F: the h and h/2 levels of _fd_levels,
    Richardson extrapolated to fourth order.

    With an (m,) array of steps, one per point, F reads the stencils of the m
    points in turn (each point's h level, then its h/2 level) and the result
    is (m, k), one Richardson pair per point.
    """
    h = np.asarray(h, dtype=float)
    steps = np.stack([h, 0.5 * h], axis=-1)
    levels = _fd_levels(F, n, steps.ravel()).reshape(steps.shape + (-1,))
    return (4.0 * levels[..., 1, :] - levels[..., 0, :]) / 3.0


def curve_chart(base, immerse, curve, ts):
    """The charts (xi, t) -> immerse(base(xi), curve at ts_i + t) of m points
    at the curve parameters ts, for immersions of n-folds in C^n.

    The chart maps an (m R, n) stack of offsets, R consecutive ones per
    point in the order of ts, to their (m R, n) immersion values.  base maps
    the (m, R, n - 1) offsets xi of the points to base points; immerse(xs, c)
    immerses the stacked base points xs on a curve record c with one row per
    point.  The curve is read once, over the sorted distinct parameters of
    the whole stack.
    """
    def chart(coords):
        coords = coords.reshape(len(ts), -1, coords.shape[-1])
        xs = base(coords[..., :-1])
        grid, at = np.unique((ts[:, None] + coords[..., -1]).ravel(), return_inverse=True)
        return immerse(xs.reshape(-1, xs.shape[-1]), curve(grid).row(at))
    return chart


def _quadric_base(lambdas, x0s):
    """Base map of the charts around the quadric points x0s: each point's
    offsets move in its tangent plane and are pulled back to the quadric by
    the radial scaling x -> x sqrt(1 / sum lambda x^2)."""
    lam = np.asarray(lambdas, dtype=float)
    bases = _tangent_bases(lam, x0s)

    def base(xi):
        x = x0s[:, None, :] + xi @ bases
        q = np.sum(lam * x * x, axis=-1, keepdims=True)
        if np.any(q <= 0):
            raise ValidationError("chart left the quadric's radial domain")
        return x * np.sqrt(1.0 / q)
    return base


def centred_fd_mean_curvature(profile, xs, c: CurveRecord) -> np.ndarray:
    """Finite-difference H at the quadric points xs (m, n) on the rows c of
    the profile's curve record, one per point, as an (m, n) array; the
    analytic route is mean_curvature()."""
    xs = np.asarray(xs, dtype=float)
    chart = curve_chart(_quadric_base(profile.lambdas, xs),
                        lambda x, c: x * c.w, profile.curve, c.t)
    return mean_curvature_fd(chart, profile.n, fd_step(c.u))
