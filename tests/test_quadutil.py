"""Shared-node quadrature families.

Each family (the asymptotic angles phibar_j, the Jacobian entries
d phibar_j / d a_k, the phase increments of one gap, an orbit's period with
its holonomies) must give bit-for-bit the values of one QUADPACK call per
component with a stand-alone integrand, and make exactly as many calls.  The
stand-alone integrands below are written out one function per component.
"""

import math
from unittest import mock

import pytest

from lagsol import expander, periodic, quadutil
from lagsol.expander import ExpanderProfile, _inv_sqrt_P, _log_growth, _scale_breaks
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


def jacobian_integrand(alpha, a, j, k):
    def f(t):
        t2 = t * t
        E = _log_growth(alpha, a, t)
        isp = _inv_sqrt_P(alpha, a, t)
        gj = a[j] / (1.0 + a[j] * t2) * isp
        one_minus = -math.expm1(-E) if E > 1e-8 else max(E, 1e-300)
        val = -gj * t2 / (2.0 * one_minus * (1.0 + a[k] * t2))
        if j == k:
            val += isp / (1.0 + a[j] * t2) ** 2
        return val
    return f


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


@pytest.mark.parametrize("alpha, a", EXPANDER_CASES)
def test_phibar_family_is_bit_identical(alpha, a):
    expander._phibar.cache_clear()
    with counted_quad() as q:
        got = expander._phibar(alpha, a)
    assert q.call_count == len(a)
    breaks = _scale_breaks(alpha, a)
    assert got == tuple(improper_quad(phase_integrand(alpha, a, j), scale_breaks=breaks)
                        for j in range(len(a)))


@pytest.mark.parametrize("alpha, a", EXPANDER_CASES)
def test_jacobian_family_is_bit_identical(alpha, a):
    n = len(a)
    with counted_quad() as q:
        got = expander.angle_map_jacobian(alpha, a)
    assert q.call_count == n * n
    breaks = _scale_breaks(alpha, a)
    for j in range(n):
        for k in range(n):
            assert got[j, k] == improper_quad(jacobian_integrand(alpha, a, j, k),
                                              scale_breaks=breaks)


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
        assert periodic.period(spec) == S
        assert tuple(periodic.holonomies(spec)) == gamma
    assert q.call_count == 1 + n
