"""Quadrature families: the double-exponential engine, Gauss-Legendre
panels and the QUADPACK orbit family.

The orbit family (period and holonomies) must give bit-for-bit the values of
one QUADPACK call per component with a stand-alone integrand, and make
exactly as many calls; the stand-alone integrands below are written out one
function per component.  The angle map and its Jacobian run on
``improper_quad``, the expander phases on ``gauss_panels``; both are checked
against an mpmath oracle in test_oracle.py.
"""

import math
from unittest import mock

import numpy as np
import pytest

from lagsol import periodic, quadutil
from lagsol.errors import ToleranceFailure
from lagsol.expander import _phase_family
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec
from lagsol.quadutil import gauss_panels, improper_quad, orbit_quad, shared_nodes
from oracles import inv_sqrt_P

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
    spec = PeriodicSpec(SolitonParams(lambdas, 1.0, alpha), alphas, A)
    n = len(lambdas)
    with counted_quad() as q:
        orbit = periodic.compute_orbit(spec)
    assert q.call_count == 1 + n
    based = orbit.based
    u1, u2 = periodic._based_turning_points(based)

    def one(numer):
        return orbit_quad(based, u1, u2, [("integral", numer)])[0]

    S = one(lambda v, rad: math.exp(0.5 * based.params.alpha * v))
    gamma = tuple(one(lambda v, rad, j=j, lj=lj: -based.A * lj / rad[j])
                  for j, lj in enumerate(based.params.lambdas))
    assert orbit.S == S
    assert orbit.gamma == gamma
    with counted_quad() as q:
        assert tuple(periodic.holonomies(spec)) == gamma
    assert q.call_count == n
