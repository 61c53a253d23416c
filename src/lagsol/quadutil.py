"""Quadrature rules shared by the profile and orbit modules.

Each quantity runs on one rule:

- the angle map phibar_j, and phibar_j with its Jacobian for the angle map
  inversion, integrals over [0, inf): one double-exponential (DE) family
  each, ``improper_quad`` (Takahasi-Mori 1974): nodes t = exp(pi/2 sinh x),
  the trapezoid rule in x, h halved until, for every member, two levels
  differ by at most REL_TOL times that member's integral of |f|;
- the expander phase increments phi_j(y) - psi_j and arc parameter s(y),
  integrals over finite gaps between heights: Gauss-Legendre panels,
  ``gauss_panels``, every gap of a batch and every member in one numpy
  call per level;
- an orbit's period and holonomies (``orbit_quad``): QUADPACK, via scipy.

``finite_quad`` (QUADPACK over a finite interval) is left for perfbench's
tracer, which spans it, and for the tests' QUADPACK references.

scipy loads on first use.  The module-level ``__getattr__`` serves ``quad``
(``scipy.integrate``) and ``brentq`` (``scipy.optimize``, for
``periodic.critical_point``), importing them when a caller first reads
them: the two take about 0.4 s to import, and ``expander``,
``invert-angles`` and an expander-base ``translator`` never call them.  It
caches nothing, and every caller reads the name from this module at call
time, so a patch of ``quadutil.quad`` or of ``scipy.integrate.quad`` is
what the next call runs.

Orbit integrals go through v = u1 + (u2 - u1) sin^2(xi), whose Jacobian
sin(2 xi) cancels the inverse-square-root endpoint singularities.  The
orbit family over one interval shares a per-node core: ``shared_nodes``
computes it once per node and serves each integral, still one QUADPACK
call apiece, with the float a stand-alone integrand would give, so every
integral is bit-for-bit that of a separate call.  That per-node function,
the period and holonomy integrands at one xi, is generated once per n as
straight-line code (``_generate_orbit``, see codegen).  Every rule
raises ToleranceFailure when it cannot meet REL_TOL.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .codegen import compiled
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

_module = sys.modules[__name__]     # read quad through it: see __getattr__


def __getattr__(name):
    """quad and brentq from scipy, imported at first read (PEP 562)."""
    if name == "quad":
        import scipy.integrate
        return scipy.integrate.quad
    if name == "brentq":
        import scipy.optimize
        return scipy.optimize.brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    res = _module.quad(f, a, b, epsabs=0.0, epsrel=REL_TOL, limit=200,
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


def _generate_orbit(n, period):
    """Source of make(alphas, lam, alpha, A, u1, u2) for n radii, which
    returns rates(xi): the tuple of the period integrand (when period) and
    the n holonomy integrands at xi.  Straight-line code on closure locals,
    d1_j and d2_j being the radii squared at u1 and u2, with every
    expression of the closure form it replaced in that form's order: the
    log1p expansion anchored at the nearer turning point, then each member
    numer / root * du * 2.0 * sx * cx.
    """
    J = range(n)
    members = [f"-A*l{j}/r{j}" for j in J]
    if period:
        members.insert(0, "exp(0.5*alpha*v)")
    lines = [
        "def make(alphas, lam, alpha, A, u1, u2):",
        f"    {''.join(f'a{j}, ' for j in J)}= alphas",
        f"    {''.join(f'l{j}, ' for j in J)}= lam",
        *[f"    d1_{j} = a{j} + l{j}*u1" for j in J],
        *[f"    d2_{j} = a{j} + l{j}*u2" for j in J],
        "    du = u2 - u1",
        "    A2 = A**2",
        "",
        "    def rates(xi):",
        "        sx = sin(xi)",
        "        cx = cos(xi)",
        "        dl = du*sx*sx",
        "        dr = du*cx*cx",
        "        if dl <= dr:",
        *[f"            r{j} = d1_{j} + l{j}*dl" for j in J],
        f"            w = alpha*dl{''.join(f' + log1p(l{j}*dl/d1_{j})' for j in J)}",
        "            v = u1 + dl",
        "        else:",
        *[f"            r{j} = d2_{j} - l{j}*dr" for j in J],
        f"            w = -alpha*dr{''.join(f' + log1p(-l{j}*dr/d2_{j})' for j in J)}",
        "            v = u2 - dr",
        "        root = sqrt(A2*expm1(w) if w > 0.0 else A2*1e-300)",
        f"        return ({''.join(f'{m}/root*du*2.0*sx*cx, ' for m in members)})",
        "",
        "    return rates",
    ]
    return "\n".join(lines) + "\n"


def orbit_quad(spec, u1: float, u2: float, *, period: bool = True) -> list:
    """[S, gamma_1, ..., gamma_n] of one half-swing, or [gamma_1, ...,
    gamma_n] without the period, one QUADPACK call each on shared nodes.

    The integrals are of numer(v) / sqrt(G(v) - A^2) over [u1, u2], with
    numer = e^{alpha v / 2} for the period and -A lambda_j / (alpha_j +
    lambda_j v) for the holonomies.  spec is a rebased orbit spec
    (``periodic.PeriodicSpec``) and u1 < u2 its turning points.  Written in
    the angle variable of v = u1 + (u2-u1) sin^2(xi) so that the offsets
    from the turning points keep full relative precision, and with G - A^2
    evaluated through log1p expansions anchored at the nearer turning
    point.  That matters when a radius factor nearly vanishes at an
    endpoint (the near-cone regime): the integrand then carries a spike of
    width (alpha_j + lambda_j u1) whose location is also handed to the
    adaptive scheme as breakpoints.

    QUADPACK calls the integrand at every node, about 250,000 times per 75
    periodic-search jobs; it is generated per (n, period) as straight-line
    code (_generate_orbit, see codegen).  Without the period it computes no
    e^{alpha v / 2}, so holonomies raise only where the closure form did.
    """
    du, lam = u2 - u1, spec.params.lambdas
    make = compiled(_generate_orbit, spec.n, period)["make"]
    rates = make(spec.alphas, lam, spec.params.alpha, spec.A, u1, u2)
    whats = (["oscillation period"] if period else []) + ["holonomy"] * spec.n
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
    quad = _module.quad     # read once per call: each read runs __getattr__
    return [_checked(quad(g, 0.0, math.pi / 2, epsabs=0.0, epsrel=REL_TOL, limit=400,
                          points=pts or None, full_output=1), what)
            for g, what in zip(shared_nodes(rates, len(whats)), whats)]
