"""Quadrature families and the double-exponential engine.

The QUADPACK families (the phase increments of one gap, an orbit's period
with its holonomies) must give bit-for-bit the values of one QUADPACK call
per component with a stand-alone integrand, and make exactly as many calls.
The stand-alone integrands below are written out one function per
component.  The angle map and its Jacobian run on ``improper_quad``, the
double-exponential engine; they are checked against an mpmath oracle in
test_oracle.py.
"""

import math
from unittest import mock

import numpy as np
import pytest

from lagsol import periodic, quadutil
from lagsol.errors import ToleranceFailure
from lagsol.expander import (ExpanderProfile, _inv_sqrt_P, _phase_family, _phase_rates,
                             _scale_breaks)
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec
from lagsol.quadutil import finite_quad, improper_quad, orbit_quad, shared_nodes

EXPANDER_CASES = [
    (1.0, (1.0, 2.0)),
    (0.0, (0.8, 1.5)),
    (0.5, (0.3, 1.0, 7.0)),
    (0.5, (1e6, 1.0)),
    (2.0, (1e-3, 30.0, 1.0)),
]


def phase_integrand(alpha, a, j):
    aj = a[j]
    return lambda t: aj / ((1.0 + aj * t * t)) * _inv_sqrt_P(alpha, a, t)


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
    scalar = _phase_rates(alpha, a)
    want = np.array([scalar(x) for x in t]).T
    np.testing.assert_allclose(_phase_family(alpha, a)(t), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("alpha, a", EXPANDER_CASES)
def test_phase_increment_family_is_bit_identical(alpha, a):
    n = len(a)
    breaks = _scale_breaks(alpha, a)
    phases = ExpanderProfile(alpha, a)._phases

    def gap(lo, hi, j):
        return finite_quad(phase_integrand(alpha, a, j), lo, hi, breaks=breaks)

    # (height, nearest held height it is integrated from)
    want = {}
    for h, near in ((1.0, 0.0), (1.5, 1.0), (0.2, 0.0), (0.9, 1.0), (3.0, 1.5)):
        base = want.get(near, (0.0,) * n)
        if h > near:
            want[h] = tuple(base[j] + gap(near, h, j) for j in range(n))
        else:
            want[h] = tuple(base[j] - gap(h, near, j) for j in range(n))
        with counted_quad() as q:
            assert phases.increments(h) == want[h]
        assert q.call_count == n
    assert phases.increments(-0.9) == tuple(-v for v in want[0.9])


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
