"""Quadrature families: the double-exponential engine, Gauss-Legendre
panels and the QUADPACK orbit family.

The orbit family (period and holonomies) must give bit-for-bit the values of
one QUADPACK call per component with a stand-alone integrand, and make
exactly as many calls; the stand-alone integrands are the closure form in
oracles.py, which the generated integrand must also match node by node.  The angle map and its Jacobian run on
``improper_quad``, the expander phases on ``gauss_panels``; both are checked
against an mpmath oracle in test_oracle.py.
"""

import math
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from lagsol import periodic, quadutil
from lagsol.codegen import compiled
from lagsol.errors import ToleranceFailure
from lagsol.expander import _phase_family
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec
from lagsol.quadutil import gauss_panels, improper_quad, shared_nodes
from oracles import (inv_sqrt_P, reference_orbit_numers, reference_orbit_quad,
                     reference_orbit_rates)

EXPANDER_CASES = [
    (1.0, (1.0, 2.0)),
    (0.0, (0.8, 1.5)),
    (0.5, (0.3, 1.0, 7.0)),
    (0.5, (1e6, 1.0)),
    (2.0, (1e-3, 30.0, 1.0)),
]


def phase_integrand(alpha, a, j):
    aj = a[j]
    return lambda t: aj / ((1.0 + aj * t * t)) * inv_sqrt_P(alpha, a, t)


def counted_quad():
    return mock.patch.object(quadutil, "quad", wraps=quadutil.quad)


def test_shared_nodes_evaluates_each_node_once():
    calls = []

    def rates(x):
        calls.append(x)
        return [x, 2.0 * x, -x]

    f0, f1, f2 = shared_nodes(rates, 3)
    assert (f0(0.5), f1(0.5), f2(0.5), f1(0.25), f0(0.25)) == (0.5, 1.0, -0.5, 0.5, 0.25)
    assert calls == [0.5, 0.25]


def test_improper_quad_integrates_a_family():
    def rates(t):
        return np.stack([np.exp(-t), 1.0 / (1.0 + t * t), t * np.exp(-t * t)])
    got = improper_quad(rates)
    assert got.shape == (3,)
    np.testing.assert_allclose(got, [1.0, math.pi / 2, 0.5], rtol=1e-15, atol=0)


@pytest.mark.parametrize("rates, why", [
    (lambda t: (t < 1.0)[None] * 1.0, "levels differ"),      # a jump: O(h) only
    (lambda t: np.where(t < 1.0, np.nan, 0.0)[None], "not finite"),
    (lambda t: 1.0 / (1.0 + t)[None], "not decayed"),        # diverges
])
def test_improper_quad_raises_unless_it_converges(rates, why):
    with pytest.raises(ToleranceFailure, match=why):
        improper_quad(rates, what="test integral")


def test_a_quadpack_warning_passes_only_an_error_estimate_within_tolerance():
    # quad returns (value, abserr, infodict, message) when it warns
    bound = 100 * quadutil.REL_TOL * 2.0
    assert quadutil._checked((2.0, 0.0, {}), "test integral") == 2.0
    assert quadutil._checked((2.0, bound, {}, "roundoff"), "test integral") == 2.0
    assert quadutil._checked((0.0, 1e-12, {}, "roundoff"), "test integral") == 0.0
    for res in ((2.0, 2.0 * bound, {}, "roundoff"), (0.0, 2e-12, {}, "roundoff")):
        with pytest.raises(ToleranceFailure, match="^quadrature failed for test integral: "):
            quadutil._checked(res, "test integral")


@pytest.mark.parametrize("alpha, a", EXPANDER_CASES)
def test_numpy_phase_integrand_matches_the_scalar_one(alpha, a):
    # at every node of the double-exponential rule; P^(-1/2) = t e^(-E/2)
    # carries E's rounding, up to 1e-13 relative where E nears 700
    t = quadutil._DE_T
    want = np.array([[phase_integrand(alpha, a, j)(x) for j in range(len(a))] for x in t]).T
    np.testing.assert_allclose(_phase_family(alpha, a)(t), want, rtol=1e-13, atol=0)


def test_gauss_legendre_nodes_are_numpys():
    x, w = np.polynomial.legendre.leggauss(quadutil.GL_ORDER)
    assert np.array_equal(quadutil._GL_X, x) and np.array_equal(quadutil._GL_W, w)


def test_gauss_panels_integrate_a_family_over_many_gaps():
    def rates(t):
        return np.stack([np.exp(-t), 1.0 / (1.0 + t * t), np.cos(t)])
    lo, hi = np.array([0.0, 0.5, 3.0, 2.0]), np.array([0.5, 3.0, 2.0, 10.0])
    got = gauss_panels(rates, lo, hi)
    want = np.array([np.exp(-lo) - np.exp(-hi), np.arctan(hi) - np.arctan(lo),
                     np.sin(hi) - np.sin(lo)])
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)
    assert got[0, 2] < 0.0                          # hi < lo negates


def test_gauss_panels_bisect_only_where_needed():
    # a peak of width 1e-4 at t = 0: only the panels next to it are bisected,
    # so each level checks a few panels (measured: at most 4), not 2^level
    nodes = []

    def rates(t):
        nodes.append(t.size // quadutil.GL_ORDER)
        return (1e-4 / (1e-8 + t * t))[None]
    got = gauss_panels(rates, [0.0, 1.0], [1.0, 2.0])
    want = [np.arctan(1e4), np.arctan(2e4) - np.arctan(1e4)]
    np.testing.assert_allclose(got[0], want, rtol=1e-11, atol=0)
    assert nodes[0] == 3 * 2                        # both gaps and their halves
    assert len(nodes) < 20 and max(nodes[1:]) <= 2 * 4


@pytest.mark.parametrize("rates, why", [
    (lambda t: (t < 0.3)[None] * 1.0, "differ"),             # a jump: O(width) only
    (lambda t: np.where(t < 0.3, np.nan, 0.0)[None], "not finite"),
    (lambda t: np.sin(1e9 * t)[None], "differ"),             # every panel fails
])
def test_gauss_panels_raise_unless_they_converge(rates, why):
    with mock.patch.object(quadutil, "GL_MAX_PANELS", 64), \
            pytest.raises(ToleranceFailure, match=why):
        gauss_panels(rates, [0.0], [1.0], what="test integral")


ORBIT_CASES = [
    ((1.0, -1.0), (1.0, 2.0), 0.4, 0.5),
    ((1.0, 1.0), (1.0, 1.5), 0.5, -1.0),
    ((1.0, 1.0, -1.0), (0.7, 1.3, 2.2), 0.5, -0.8),
    ((1.0, -1.0, -1.0), (1.0, 2.0, 3.0), 0.4, 0.5),
    # near-cone: a radius factor almost vanishes at a turning point, so the
    # integrals carry breakpoints
    ((1.0, -1.0), (1.0, 1.0), 1e-3, 0.0),
]


@pytest.mark.parametrize("lambdas, alphas, A, alpha", ORBIT_CASES)
def test_orbit_family_is_bit_identical(lambdas, alphas, A, alpha):
    # each member equals one stand-alone QUADPACK call of the closure-form
    # reference integrand, and the family makes one call per member
    spec = PeriodicSpec(SolitonParams(lambdas, 1.0, alpha), alphas, A)
    n = len(lambdas)
    with counted_quad() as q:
        orbit = periodic.compute_orbit(spec)
    assert q.call_count == 1 + n
    based = orbit.based
    u1, u2 = periodic._based_turning_points(based)
    S, *gamma = [reference_orbit_quad(based, u1, u2, numer)
                 for numer in reference_orbit_numers(based)]
    assert orbit.S == S
    assert orbit.gamma == tuple(gamma)
    with counted_quad() as q:
        assert tuple(periodic.holonomies(spec)) == tuple(gamma)
    assert q.call_count == n


def _generated(spec, u1, u2, period):
    """The generated orbit integrand that orbit_quad builds for spec."""
    make = compiled(quadutil._generate_orbit, spec.n, period)["make"]
    return make(spec.alphas, spec.params.lambdas, spec.params.alpha, spec.A, u1, u2)


def _outcome(f, *args):
    """What f(*args) gives as float.hex strings (equal iff equal bit for bit),
    or the type of what it raises."""
    try:
        v = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return [float(x).hex() for x in v]


def _orbit_specs(n):
    """Rebased orbit specs at n radii with their turning points: random data
    in case (a) or (b), with A near the stationary ceiling, in between, and
    far below it, where a radius nearly vanishes at a turning point (the
    near-cone regime)."""
    rng = random.Random(n)
    for _ in range(3):
        m = rng.randint(1, n)
        lambdas = (1.0,) * m + (-1.0,) * (n - m)
        alpha = -rng.uniform(0.2, 2.0) if m == n else rng.uniform(-2.0, 2.0)
        probe = PeriodicSpec(SolitonParams(lambdas, 1.0, alpha),
                             tuple(rng.uniform(0.3, 3.0) for _ in range(n)), 1.0)
        based, _ = periodic.rebase(probe)
        ceiling = math.exp(0.5 * based.log_G(0.0))
        for frac in (1.0 - 1e-6, 0.5, 1e-4):
            spec = PeriodicSpec(based.params, based.alphas, frac * ceiling)
            yield spec, periodic._based_turning_points(spec)


def _nodes(rng):
    """xi at both ends, where the expansion has w <= 0 and takes the floor,
    next to them and to the anchor switch at pi/4, and inside."""
    ends = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, math.pi / 2, math.nextafter(math.pi / 2, 0.0),
            math.pi / 2 - 1e-12, math.pi / 2 - 1e-6]
    mid = [math.pi / 4, math.nextafter(math.pi / 4, 0.0), math.nextafter(math.pi / 4, 2.0)]
    return ends + mid + [rng.uniform(0.0, math.pi / 2) for _ in range(40)]


@pytest.mark.parametrize("n", range(1, 6))
def test_the_generated_orbit_integrand_is_the_closure_form_bit_for_bit(n):
    rng = random.Random(-n)
    for spec, (u1, u2) in _orbit_specs(n):
        for period in (True, False):
            got = _generated(spec, u1, u2, period)
            ref = reference_orbit_rates(spec, u1, u2, reference_orbit_numers(spec, period))
            for xi in _nodes(rng):
                assert _outcome(got, xi) == _outcome(ref, xi), (spec, u1, u2, period, xi)


def _stand_in(lambdas, alphas, A, alpha):
    """A spec without PeriodicSpec's checks, so A may be 0."""
    return SimpleNamespace(params=SimpleNamespace(lambdas=lambdas, alpha=alpha),
                           alphas=alphas, A=A, n=len(lambdas))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("case, data, xi, raises", [
    # a zero radius at u1: log1p's argument divides by it
    ("zero radius", dict(alphas=0.0, u1=0.0, u2=1.0), 0.0, "ZeroDivisionError"),
    # a radius crossing zero inside [u1, u2]: log1p(-1) or below
    ("radius crossing zero", dict(alphas=0.25, u1=0.0, u2=1.0, lam=-1.0), 0.6, "ValueError"),
    # G - A^2 on the floor with A = 0: root = 0
    ("zero amplitude", dict(A=0.0), 0.3, "ZeroDivisionError"),
    # expm1 and the period's exp overflow
    ("expm1 overflow", dict(alpha=1e4, u1=-0.5, u2=0.5), 0.7, "OverflowError"),
    ("exp overflow", dict(alpha=1e4, u1=0.3, u2=0.5), 0.0, "OverflowError"),
])
def test_the_generated_orbit_integrand_raises_what_the_closure_form_raises(
        n, case, data, xi, raises):
    lam = (data.get("lam", 1.0),) + (1.0,) * (n - 1)
    alphas = (data.get("alphas", 1.0),) + (1.0,) * (n - 1)
    spec = _stand_in(lam, alphas, data.get("A", 0.5), data.get("alpha", -1.0))
    u1, u2 = data.get("u1", -0.5), data.get("u2", 0.5)
    ref = reference_orbit_rates(spec, u1, u2, reference_orbit_numers(spec))
    assert _outcome(ref, xi) == raises
    for period in (True, False):
        ref = reference_orbit_rates(spec, u1, u2, reference_orbit_numers(spec, period))
        assert _outcome(_generated(spec, u1, u2, period), xi) == _outcome(ref, xi)
