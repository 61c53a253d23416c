"""Quadrature helpers shared by the profile and orbit modules.

Two substitutions keep every integral on a finite interval with a smooth
integrand: improper integrals over [0, inf) go through t = tan(xi), and
orbit integrals with inverse-square-root endpoint singularities go through
v = u1 + (u2 - u1) sin^2(xi), after which the Jacobian sin(2 xi) cancels the
singularity exactly.  Both wrap QUADPACK via scipy.

A family of integrals over one interval with the same breakpoints (the
phibar_j, the Jacobian entries d phibar_j / d a_k, the phase increments of
one gap, an orbit's S and gamma_j) shares an expensive per-node core.
``shared_nodes`` computes the family's values once per node and serves each
integral, still one QUADPACK call apiece, from that memo; dyadic bisection
puts the calls mostly on the same nodes.  Each value is the float expression
a stand-alone integrand would compute, and QUADPACK sees only the values, so
every integral is bit-for-bit that of a separate call.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.integrate import quad

from .errors import ToleranceFailure

DEFAULT_REL_TOL = 1e-11


def _checked(res, rel_tol, what):
    if len(res) > 3:
        # QUADPACK attached a warning message; accept only if the error
        # estimate still meets the requested accuracy.
        val, abserr = res[0], res[1]
        if abserr > max(100 * rel_tol * abs(val), 1e-12):
            raise ToleranceFailure(f"quadrature failed for {what}: est. error {abserr:.2e}")
        return val
    return res[0]


def shared_nodes(rates, n: int) -> list:
    """n scalar integrands; the j-th returns rates(x)[j], and rates runs once per x."""
    memo = lru_cache(maxsize=None)(rates)
    return [lambda x, j=j: memo(x)[j] for j in range(n)]


def finite_quad(f, a: float, b: float, *, rel_tol: float = DEFAULT_REL_TOL,
                breaks=(), what: str = "integral") -> float:
    """Adaptive integral of f over [a, b] with optional interior breakpoints."""
    if a == b:
        return 0.0
    pts = sorted(p for p in breaks if min(a, b) < p < max(a, b))
    res = quad(f, a, b, epsabs=0.0, epsrel=rel_tol, limit=200,
               points=pts or None, full_output=1)
    return _checked(res, rel_tol, what)


def improper_quad(f, *, rel_tol: float = DEFAULT_REL_TOL, scale_breaks=(),
                  what: str = "integral") -> float:
    """Adaptive integral of f over [0, inf) via t = tan(xi).

    scale_breaks lists t-values where the integrand changes character
    (e.g. peak widths ~ a^(-1/2) for large a); they become QUADPACK
    breakpoints so narrow features are never skipped.
    """

    def g(xi):
        t = math.tan(xi)
        c = math.cos(xi)
        return f(t) / (c * c)

    pts = sorted({math.atan(b) for b in scale_breaks if b > 0})
    pts = [p for p in pts if 0.0 < p < math.pi / 2]
    res = quad(g, 0.0, math.pi / 2, epsabs=0.0, epsrel=rel_tol, limit=200,
               points=pts or None, full_output=1)
    return _checked(res, rel_tol, what)


def orbit_quad(spec, u1: float, u2: float, numers, *,
               rel_tol: float = DEFAULT_REL_TOL) -> list:
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
    return [_checked(quad(g, 0.0, math.pi / 2, epsabs=0.0, epsrel=rel_tol, limit=400,
                          points=pts or None, full_output=1), rel_tol, what)
            for g, (what, _) in zip(shared_nodes(rates, len(numers)), numers)]
