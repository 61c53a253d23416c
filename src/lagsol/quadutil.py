"""Quadrature rules shared by the profile and orbit modules.

Each quantity runs on one rule:

- the angle map phibar_j and its Jacobian, integrals over [0, inf): one
  double-exponential (DE) family each, ``improper_quad`` (Takahasi-Mori
  1974): nodes t = exp(pi/2 sinh x), the trapezoid rule in x, h halved
  until, for every member, two levels differ by at most REL_TOL times that
  member's integral of |f|;
- the expander phase increments phi_j(y) - psi_j, integrals over finite
  gaps between heights: Gauss-Legendre panels, ``gauss_panels``, every gap
  of a batch and every member in one numpy call per level;
- the translator arc parameter s_of_y (``finite_quad``) and an orbit's
  period and holonomies (``orbit_quad``): QUADPACK, via scipy.

Orbit integrals go through v = u1 + (u2 - u1) sin^2(xi), whose Jacobian
sin(2 xi) cancels the inverse-square-root endpoint singularities.  The
orbit family over one interval shares a per-node core: ``shared_nodes``
computes it once per node and serves each integral, still one QUADPACK
call apiece, with the float a stand-alone integrand would give, so every
integral is bit-for-bit that of a separate call.  Every rule raises
ToleranceFailure when it cannot meet REL_TOL.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import ToleranceFailure

REL_TOL = 1e-11         # relative tolerance of every integral here

# DE rule: x range, first step, tail cut-off, levels; the nodes t and
# weights dt/dx of the finest level, of which level k takes every
# 2^(DE_MAX_LEVEL - k)-th
DE_X_LO, DE_X_HI, DE_H0, DE_TRIM = -5.0, 6.0, 0.5, 1e-18
DE_MIN_LEVEL, DE_MAX_LEVEL = 2, 8
_DE_STRIDE = 2 ** DE_MAX_LEVEL
_DE_X = np.linspace(DE_X_LO, DE_X_HI, round((DE_X_HI - DE_X_LO) / DE_H0) * _DE_STRIDE + 1)
_DE_T = np.exp(0.5 * math.pi * np.sinh(_DE_X))
_DE_DT = 0.5 * math.pi * np.cosh(_DE_X) * _DE_T

# Gauss-Legendre panels: the bisection levels and the live panels a family
# may use before it gives up; the 8-point nodes and weights on [-1, 1], as
# numpy.polynomial.legendre.leggauss(8) gives them, written out because
# computing them at import runs LAPACK's eigensolver (0.9 MB more memory)
GL_MAX_LEVEL, GL_MAX_PANELS = 50, 100_000
_GL_X = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267,
                  0.9602898564975362])
_GL_W = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
                  0.10122853629037706])
_GL_X, _GL_W = np.concatenate([-_GL_X[::-1], _GL_X]), np.concatenate([_GL_W[::-1], _GL_W])
GL_ORDER = len(_GL_X)


def _checked(res, what):
    if len(res) > 3:
        # QUADPACK attached a warning message; accept only if the error
        # estimate still meets the requested accuracy.
        val, abserr = res[0], res[1]
        if abserr > max(100 * REL_TOL * abs(val), 1e-12):
            raise ToleranceFailure(f"quadrature failed for {what}: est. error {abserr:.2e}")
        return val
    return res[0]


def shared_nodes(rates, n: int) -> list:
    """n scalar integrands; the j-th returns rates(x)[j], and rates runs once per x."""
    memo = lru_cache(maxsize=None)(rates)
    return [lambda x, j=j: memo(x)[j] for j in range(n)]


def finite_quad(f, a: float, b: float, *, breaks=(), what: str = "integral") -> float:
    """Adaptive integral of f over [a, b] with optional interior breakpoints."""
    if a == b:
        return 0.0
    pts = sorted(p for p in breaks if min(a, b) < p < max(a, b))
    res = quad(f, a, b, epsabs=0.0, epsrel=REL_TOL, limit=200,
               points=pts or None, full_output=1)
    return _checked(res, what)


def improper_quad(rates, *, what: str = "integral") -> np.ndarray:
    """Integrals over [0, inf) of the members of rates(t) -> (members, nodes).

    The first level finds where the terms matter; finer levels add
    midpoints only there.
    """
    def terms(nodes):
        return rates(_DE_T[nodes]) * _DE_DT[nodes]

    with np.errstate(all="ignore"):
        f = terms(slice(None, None, _DE_STRIDE))
        if not np.isfinite(f).all():
            raise ToleranceFailure(f"quadrature failed for {what}: integrand not finite")
        mag = np.abs(f)
        live = np.flatnonzero((mag > DE_TRIM * mag.sum(axis=1, keepdims=True)).any(axis=0))
        if live.size == 0:
            return np.zeros(len(f))
        i0, i1 = live[0] - 1, live[-1] + 1
        if i0 < 0 or i1 == mag.shape[1]:
            raise ToleranceFailure(f"quadrature failed for {what}: integrand has not "
                                   "decayed at the ends of the rule")
        total, total_abs = f[:, i0:i1 + 1].sum(axis=1), mag[:, i0:i1 + 1].sum(axis=1)
        h, step, est = DE_H0, _DE_STRIDE, DE_H0 * total
        for level in range(1, DE_MAX_LEVEL + 1):
            h, step = 0.5 * h, step // 2
            f = terms(slice(i0 * _DE_STRIDE + step, i1 * _DE_STRIDE, 2 * step))
            total, total_abs = total + f.sum(axis=1), total_abs + np.abs(f).sum(axis=1)
            gap, est = np.abs(h * total - est), h * total
            if level >= DE_MIN_LEVEL and np.all(gap <= REL_TOL * h * total_abs):
                return est
            if not np.isfinite(gap).all():
                break
    raise ToleranceFailure(f"quadrature failed for {what}: levels differ by "
                           f"{float(np.max(gap)):.2e}")


def gauss_panels(rates, lo, hi, *, what: str = "integral") -> np.ndarray:
    """Integrals over the gaps [lo_g, hi_g] of the members of rates(t) ->
    (members, nodes), as a (members, gaps) array; hi_g < lo_g negates.

    Each gap is a GL_ORDER-point panel checked against its two halves: the
    halves are taken when, for every member, their sum is within REL_TOL of
    the panel relative to that sum.  Otherwise each half becomes a panel,
    checked against its own halves.  A level is one rates call over the
    nodes of every panel it checks.
    """
    def panels(lo, hi):
        half = 0.5 * (hi - lo)
        f = rates(((lo + half)[:, None] + half[:, None] * _GL_X).ravel())
        return (f.reshape(len(f), len(lo), GL_ORDER) @ _GL_W) * half

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    m, mid, owner = len(lo), 0.5 * (lo + hi), np.arange(len(lo))
    with np.errstate(all="ignore"):
        f = panels(np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
        whole, parts = f[:, :m], f[:, m:]
        out = np.zeros_like(whole)
        for _ in range(GL_MAX_LEVEL):
            fine = parts[:, :m] + parts[:, m:]
            if not np.isfinite(fine).all():
                raise ToleranceFailure(f"quadrature failed for {what}: integrand not finite")
            gap = np.abs(fine - whole)
            done = (gap <= REL_TOL * np.abs(fine)).all(axis=0)
            np.add.at(out.T, owner[done], fine[:, done].T)
            if done.all():
                return out
            split = np.concatenate([~done, ~done])
            if np.count_nonzero(split) > GL_MAX_PANELS:
                break
            lo, hi = np.concatenate([lo, mid])[split], np.concatenate([mid, hi])[split]
            whole, owner = parts[:, split], np.concatenate([owner, owner])[split]
            m, mid = len(lo), 0.5 * (lo + hi)
            parts = panels(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
    raise ToleranceFailure(f"quadrature failed for {what}: panels and their halves "
                           f"differ by {float(np.max(gap)):.2e}")


def orbit_quad(spec, u1: float, u2: float, numers) -> list:
    """Integrals over one half-swing of numer(v, radii) / sqrt(G(v) - A^2),
    one per (what, numer) pair of numers, on shared nodes.

    spec is a rebased orbit spec (``periodic.PeriodicSpec``) and u1 < u2 its
    turning points.  Written in the angle variable of v = u1 + (u2-u1)
    sin^2(xi) so that the offsets from the turning points keep full relative
    precision, and with G - A^2 evaluated through log1p expansions anchored
    at the nearer turning point.  That matters when a radius factor nearly
    vanishes at an endpoint (the near-cone regime): the integrand then
    carries a spike of width (alpha_j + lambda_j u1) whose location is also
    handed to the adaptive scheme as breakpoints.
    """
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

    pts = []
    for dj in d1:
        t = dj / du
        if 0.0 < t < 0.05:
            pts += [math.asin(math.sqrt(t)), math.asin(math.sqrt(min(10 * t, 0.5)))]
    for dj in d2:
        t = dj / du
        if 0.0 < t < 0.05:
            pts += [math.pi / 2 - math.asin(math.sqrt(t)),
                    math.pi / 2 - math.asin(math.sqrt(min(10 * t, 0.5)))]
    pts = sorted(set(p for p in pts if 0.0 < p < math.pi / 2))
    return [_checked(quad(g, 0.0, math.pi / 2, epsabs=0.0, epsrel=REL_TOL, limit=400,
                          points=pts or None, full_output=1), what)
            for g, (what, _) in zip(shared_nodes(rates, len(numers)), numers)]
