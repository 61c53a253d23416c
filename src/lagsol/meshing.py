"""Deterministic point sampling on the constructed submanifolds.

Meshes are vertex clouds (no connectivity): rows of immersion points z in
C^n together with the curve parameter and the Lagrangian angle.  All
randomness is drawn from a seeded generator so identical inputs give
byte-identical outputs.

Base-point conventions: S^0 factors alternate {+1, -1} (except the n = 1
quadric, which uses only +1 so that arg det of the frame matches theta
rather than theta + pi), S^1 factors use equally spaced angles, and higher
spheres use normalized Gaussian samples.

Level conventions: quadric_base_points samples the level set
{ sum lambda_j x_j^2 = level } for level +1, 0 or -1.  Level +1 is the
quadric of the soliton meshes; -1 swaps the roles of the positive and
negative directions; 0 is the cone without its apex.  The flow slice at time
t lies on level sign(t), dilated by sqrt(|t|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CaseMismatch, ValidationError
from .params import require_finite


@dataclass
class Mesh:
    """Vertex cloud: points z, per-point curve parameter and angle."""

    points: np.ndarray             # (N, n) complex
    params: np.ndarray             # (N,) curve parameter s or y
    thetas: np.ndarray             # (N,)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _sphere_factor(dim: int, count: int, rng) -> np.ndarray:
    """count points on S^{dim-1} in R^dim."""
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    v = rng.normal(size=(count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def quadric_base_points(lambdas, count: int, *, seed: int = 0,
                        rho_max: float = 1.2, level: int = 1) -> np.ndarray:
    """count points on { sum lambda_j x_j^2 = level } for level +1, 0 or -1.

    All-positive lambdas at level 1 give the unit sphere (n = 1: the single
    point +1, repeated).  Mixed signs, m of n positive, give rows
    (a omega, b eta) with omega on S^{m-1} and eta on S^{n-m-1}.  The factor
    of the level's sign (omega at +1, eta at -1) is scaled by
    sqrt(1 + rho^2) and the other by rho, with rho swept over [0, rho_max];
    at level 0, the cone, both are scaled by rho over (0, rho_max].
    """
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    m = int(np.sum(lam > 0))
    if m == 0 or (m == n and level != 1):
        raise ValidationError("need at least one positive lambda" if m == 0
                              else f"need at least one negative lambda at level {level}")
    rng = np.random.default_rng(seed)
    if m == n:
        if n == 1:
            return np.ones((count, 1))
        return _sphere_factor(n, count, rng)
    require_finite("rho_max", (rho_max,))
    if level:
        rho = rho_max * np.arange(count) / max(count - 1, 1)
    else:
        rho = rho_max * (1.0 + np.arange(count)) / count
    omega = _sphere_factor(m, count, rng)
    eta = _sphere_factor(n - m, count, rng)
    lift, flat = np.sqrt(1.0 + rho * rho)[:, None], rho[:, None]
    return np.hstack([(lift if level > 0 else flat) * omega,
                      (lift if level < 0 else flat) * eta])


def ball_points(dim: int, count: int, *, radius: float = 1.0,
                seed: int = 0) -> np.ndarray:
    """count points in the closed ball of R^dim (line grid for dim = 1)."""
    require_finite("radius", (radius,))
    if dim == 1:
        return np.linspace(-radius, radius, count).reshape(count, 1)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return v * r


def _mesh(profile, t_values, xs, immerse) -> Mesh:
    """Rows t-major: every base sample x of xs at each t.

    The profile's curve is read once, over all of t_values, and one call
    immerse(X, c.row(at)) immerses every row: the base point X[k] on row
    at[k] of the curve record c.  A point that is not finite (an overflowing
    immersion) raises ValidationError.
    """
    t_values = np.asarray(t_values, dtype=float)
    c = profile.curve(t_values)
    at = np.repeat(np.arange(len(t_values)), len(xs))
    points = immerse(np.tile(xs, (len(t_values), 1)), c.row(at))
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValidationError(f"mesh point {k}, at curve parameter {t_values[at[k]]:g},"
                              " is not finite")
    return Mesh(points, t_values[at], c.theta[at])


def centred_mesh(profile, t_values, base_count: int, *, seed: int = 0,
                 rho_max: float = 1.2) -> Mesh:
    """Mesh of F(x, t) = x * w(t) over a t-grid and a fixed quadric sample."""
    xs = quadric_base_points(profile.lambdas, base_count, seed=seed, rho_max=rho_max)
    return _mesh(profile, t_values, xs, lambda x, c: x * c.w)


def translator_mesh(profile, t_values, base_count: int, *, radius: float = 1.5,
                    seed: int = 0) -> Mesh:
    """Mesh of a translator immersion over a t-grid and a base-ball sample."""
    xs = ball_points(profile.n - 1, base_count, radius=radius, seed=seed)
    return _mesh(profile.base, t_values, xs, profile.immersion)


def flow_slice_mesh(profile, t: float, s_values, base_count: int, *, seed: int = 0,
                    rho_max: float = 1.2) -> Mesh:
    """Mesh of the time-t slice of the eternal flow attached to a mixed-sign profile:
    the profile immersion over the quadric level sign(t), dilated by sqrt(|t|).
    t = 0 gives the cone, whose apex at the origin is the singular point."""
    lam = np.asarray(profile.lambdas)
    if not 0 < np.sum(lam > 0) < lam.size:
        raise CaseMismatch("the eternal flow family needs mixed signs (1 <= m < n)")
    level = np.sign(t)
    xs = quadric_base_points(profile.lambdas, base_count, seed=seed, rho_max=rho_max,
                             level=level)
    if level:
        xs = math.sqrt(abs(t)) * xs
    return _mesh(profile, s_values, xs, lambda x, c: x * c.w)
