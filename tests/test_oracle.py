"""The angle map, its Jacobian, the expander phases, the orbit integrals and
their turning points against an mpmath oracle at 30 digits.

The oracle integrates phibar_j = int_0^inf a_j / (1 + a_j t^2) P(t)^(-1/2) dt
with mpmath's tanh-sinh rule, split at the scales 1/sqrt(a_k) and
1/sqrt(sum a + alpha), with P built from log1p / expm1 at working
precision.  Its Jacobian column k is the complex-step derivative
Im phibar(a + i h e_k) / h: no derivative formula is shared with the code
under test, and at h = 1e-30 a_k the step error is far below 30 digits.
The phases phi_j(y) are the same integrand over [0, y], summed over the
gaps between the checked heights, and the arc parameter s(y) is its rate
ds/dy over [0, y], checked far out, where ds/dy's exponents nearly cancel.
"""

import math
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from lagsol import expander
from lagsol.expander import ExpanderProfile, s_of_y
from lagsol.geometry import fd_step
from lagsol.params import SolitonParams
from lagsol.periodic import (OrbitConditioningWarning, PeriodicSpec, compute_orbit,
                             critical_point)
from oracles import inv_sqrt_P, log_growth, scale_breaks

DPS = 30
# scaled error |got - ref| / (1 + |ref|); measured 1.1e-16 or better.  The
# bound leaves room for other numpy builds' last bits, and still fails an
# integrand that is 1e-14 off near t = 0 (e.g. 1 - e^-E replaced by E)
TOL = 1e-15

# the cases of tests/test_quadutil.py
EXPANDER_CASES = [
    (1.0, (1.0, 2.0)),
    (0.0, (0.8, 1.5)),
    (0.5, (0.3, 1.0, 7.0)),
    (0.5, (1e6, 1.0)),
    (2.0, (1e-3, 30.0, 1.0)),
]
# extreme curvature ratios, a minimal case with a tiny a, a steep Gaussian
HARD_CASES = [
    (0.0, (1e13, 1.0)),
    (0.0, (1e13, 1.0, 1.0)),
    (0.0, (1e-3, 30.0, 1.0)),
    (30.0, (1.0, 2.0)),
]
MINIMAL_CASES = [c for c in EXPANDER_CASES + HARD_CASES if c[0] == 0.0]


def _mp_phibar(alpha, a):
    """phibar_j at (possibly complex) a, as mpmath numbers."""
    @lru_cache(maxsize=None)
    def isp(t):
        t2 = t * t
        E = alpha * t2 + mp.fsum(mp.log1p(x * t2) for x in a)
        return t / mp.sqrt(mp.expm1(E))

    re_a = [mp.re(x) for x in a]
    scales = sorted({1 / mp.sqrt(x) for x in re_a} | {1 / mp.sqrt(mp.fsum(re_a) + alpha)})
    pts = [mp.mpf(0)] + scales + [mp.inf]
    return [mp.quad(lambda t, x=x: x / (1 + x * t * t) * isp(t), pts) for x in a]


@lru_cache(maxsize=None)
def oracle_phibar(alpha, a):
    with mp.workdps(DPS):
        return np.array([float(v) for v in _mp_phibar(mp.mpf(alpha), [mp.mpf(x) for x in a])])


@lru_cache(maxsize=None)
def oracle_jacobian(alpha, a):
    n = len(a)
    J = np.empty((n, n))
    with mp.workdps(DPS):
        for k in range(n):
            h = mp.mpf(10) ** -DPS * a[k]
            ak = [mp.mpf(x) + (1j * h if i == k else 0) for i, x in enumerate(a)]
            J[:, k] = [float(mp.im(v) / h) for v in _mp_phibar(mp.mpf(alpha), ak)]
    return J


def quadpack_improper(f, alpha, a):
    """One stand-alone QUADPACK integral over [0, inf): t = tan(xi), with
    breakpoints at the atan of the scale ladders."""
    pts = sorted({math.atan(b) for b in scale_breaks(alpha, a)})
    val, _ = quad(lambda xi: f(math.tan(xi)) / math.cos(xi) ** 2, 0.0, math.pi / 2,
                  epsabs=0.0, epsrel=1e-11, limit=200, points=pts)
    return val


def phase_integrand(alpha, a, j):
    return lambda t: a[j] / (1.0 + a[j] * t * t) * inv_sqrt_P(alpha, a, t)


def jacobian_integrand(alpha, a, j, k):
    def f(t):
        t2 = t * t
        isp = inv_sqrt_P(alpha, a, t)
        one_minus = max(-math.expm1(-log_growth(alpha, a, t)), 1e-300)
        val = -a[j] / (1.0 + a[j] * t2) * isp * t2 / (2.0 * one_minus * (1.0 + a[k] * t2))
        if j == k:
            val += isp / (1.0 + a[j] * t2) ** 2
        return val
    return f


def assert_close(got, ref, tol=TOL):
    err = np.abs(np.asarray(got) - ref) / (1.0 + np.abs(ref))
    assert err.max() <= tol, f"max scaled error {err.max():.2e}"


def engine_phibar(alpha, a):
    expander._angle_pass.cache_clear()
    return np.array(expander._angle_pass(alpha, a)[0])


@pytest.mark.parametrize("alpha, a", EXPANDER_CASES)
def test_phibar_family_matches_oracle_and_quadpack(alpha, a):
    got = engine_phibar(alpha, a)
    assert_close(got, oracle_phibar(alpha, a))
    assert_close(got, [quadpack_improper(phase_integrand(alpha, a, j), alpha, a)
                       for j in range(len(a))])


@pytest.mark.parametrize("alpha, a", EXPANDER_CASES)
def test_jacobian_family_matches_oracle_and_quadpack(alpha, a):
    n = len(a)
    got = expander.angle_map_jacobian(alpha, a)
    assert_close(got, oracle_jacobian(alpha, a))
    assert_close(got, [[quadpack_improper(jacobian_integrand(alpha, a, j, k), alpha, a)
                        for k in range(n)] for j in range(n)])


@pytest.mark.parametrize("alpha, a", HARD_CASES)
def test_phibar_matches_oracle_in_hard_regimes(alpha, a):
    assert_close(engine_phibar(alpha, a), oracle_phibar(alpha, a))


@pytest.mark.parametrize("alpha, a", HARD_CASES)
def test_jacobian_matches_oracle_in_hard_regimes(alpha, a):
    assert_close(expander.angle_map_jacobian(alpha, a), oracle_jacobian(alpha, a))


def test_phibar_at_a_dilated_scale_matches_oracle_at_unit_scale():
    """phibar(k alpha, k a) = phibar(alpha, a): at k = 1e60 the engine
    integrates at the unit point of the dilation orbit."""
    assert_close(engine_phibar(1e60, (1e60, 2e60)), oracle_phibar(1.0, (1.0, 2.0)))


@pytest.mark.parametrize("alpha, a", MINIMAL_CASES)
def test_minimal_angles_sum_to_half_pi(alpha, a):
    # the identity checks the oracle itself, at its own precision
    with mp.workdps(DPS):
        total = mp.fsum(_mp_phibar(mp.mpf(0), [mp.mpf(x) for x in a]))
        assert abs(total - mp.pi / 2) < mp.mpf(10) ** (5 - DPS)
    assert abs(engine_phibar(alpha, a).sum() - math.pi / 2) <= 2 * math.ulp(math.pi / 2)


# -- expander phases ------------------------------------------------------------

# tests/test_expander.py's PHASE_CASES, then extreme curvature ratios at alpha = 0
PHASE_CASES = [(1.0, (1.0, 2.0)), (0.0, (0.8, 1.5)), (0.5, (1e6, 1.0)),
               (0.0, (1e-4, 1.0)), (0.0, (1e13, 1.0))]
# scaled error; measured 6.1e-16 or better
PHASE_TOL = 1e-12


def oracle_phases(alpha, a, heights):
    """{y: [phi_1, ..., phi_n, theta]} at psi = 0, at DPS digits.

    The phases accumulate over the gaps between the sorted |y|, each gap
    split at the decades of the scales 1/sqrt(a_k) and 1/sqrt(sum a + alpha)
    inside it; phi_j is odd in y.
    """
    with mp.workdps(DPS):
        al, av = mp.mpf(alpha), [mp.mpf(x) for x in a]

        def isp(t):
            if t == 0:
                return 1 / mp.sqrt(mp.fsum(av) + al)
            t2 = t * t
            return t / mp.sqrt(mp.expm1(al * t2 + mp.fsum(mp.log1p(x * t2) for x in av)))

        scales = {1 / mp.sqrt(x) for x in av} | {1 / mp.sqrt(mp.fsum(av) + al)}
        ladder = sorted(s * 10 ** k for s in scales for k in range(8))
        by_height, acc, prev = {}, [mp.mpf(0)] * len(a), mp.mpf(0)
        for h in sorted({abs(y) for y in heights}):
            pts = [prev] + [b for b in ladder if prev < b < h] + [mp.mpf(h)]
            acc = [v + mp.quad(lambda t, x=x: x / (1 + x * t * t) * isp(t), pts)
                   for v, x in zip(acc, av)]
            by_height[h], prev = (acc, isp(mp.mpf(h))), mp.mpf(h)
        out = {}
        for y in heights:
            acc, q = by_height[abs(y)]
            phis = [v if y >= 0 else -v for v in acc]
            out[y] = np.array([float(v) for v in phis]
                              + [float(mp.fsum(phis) + mp.atan2(q, mp.mpf(y)))])
        return out


def export_queries(prof):
    """Query prof as an expander export does: the 200-row table and the 30
    mesh heights as batches, then the FD stencil around three mesh heights
    one height at a time; returns a sample of the heights queried."""
    table, mesh = np.linspace(-1.5, 1.5, 200), np.linspace(-1.5, 1.5, 30)
    prof.curve(table)
    prof.curve(mesh)
    fd = []
    for y in mesh[[3, 14, 26]]:
        h = fd_step(prof.curve([y]).u[0])
        fd += [y + h, y - h, y + 0.5 * h, y - 0.5 * h]
    for y in fd:
        prof.curve([float(y)])
    return [float(y) for y in (*table[::20], table[-1], *mesh[::5], *fd)]


@pytest.mark.parametrize("alpha, a", PHASE_CASES)
def test_phases_match_oracle_at_export_heights(alpha, a):
    prof = ExpanderProfile(alpha, a)
    heights = export_queries(prof)
    ref = oracle_phases(alpha, a, heights)
    for y in heights:
        pt = prof.curve([y]).row(0)
        assert_close([*pt.phis, pt.theta], ref[y], PHASE_TOL)


# -- the arc parameter s(y) and its rate ---------------------------------------

# alpha > 0, then minimal cases; past E = 700 ds/dy once formed
# e^((alpha t^2 - E) / 2), whose terms cancel: 3.4e-9 off at y = 1e4
ARC_CASES = [(1.0, (1.0, 2.0)), (2.0, (1e-3, 30.0, 1.0)), (0.0, (1.0, 2.0)),
             (0.0, (1e13, 1.0))]
ARC_HEIGHTS = (1.0, 1e3, 1e4)
# relative error; measured 1.5e-15 or better
ARC_TOL = 1e-14


def oracle_arc(alpha, a, heights):
    """[[s(y), ds/dy] for y in heights] at DPS digits, with ds/dy =
    e^(alpha y^2 / 2) sqrt(prod a y^2 / expm1(E)) as written, and s its
    integral over [0, y] split at the decades of the scales."""
    with mp.workdps(DPS):
        al, av = mp.mpf(alpha), [mp.mpf(x) for x in a]

        def rate(t):
            if t == 0:
                return mp.sqrt(mp.fprod(av) / (mp.fsum(av) + al))
            E = al * t * t + mp.fsum(mp.log1p(x * t * t) for x in av)
            return mp.exp(al * t * t / 2) * mp.sqrt(mp.fprod(av) * t * t / mp.expm1(E))

        scales = {1 / mp.sqrt(x) for x in av} | {1 / mp.sqrt(mp.fsum(av) + al)}
        ladder = sorted(s * 10 ** k for s in scales for k in range(-1, 9))
        return np.array([[float(mp.quad(rate, [0] + [b for b in ladder if b < y] + [y])),
                          float(rate(mp.mpf(y)))] for y in heights])


@pytest.mark.parametrize("alpha, a", ARC_CASES)
def test_arc_parameter_and_rate_match_oracle_far_out(alpha, a):
    prof = ExpanderProfile(alpha, a)
    ys = np.array(ARC_HEIGHTS)
    ref = oracle_arc(alpha, a, ARC_HEIGHTS)
    got = np.column_stack([s_of_y(prof, ys), prof.curve(ys).s_rate])
    err = np.abs(got - ref) / ref
    assert err.max() <= ARC_TOL, f"max relative error {err.max():.2e}"


# -- orbit period, holonomies and turning points -------------------------------

# (lambdas, alpha, alphas, A): mixed signs, an all-positive shrinker, n = 3
# with one and with two positive lambdas, and a wider swing
ORBIT_CASES = [
    ((1, -1), 0.5, (1, 2), 0.4),
    ((1, 1), -1.0, (1, 1.5), 0.5),
    ((1, -1, -1), 0.5, (1, 2, 3), 0.4),
    ((1, 1, -1), -0.3, (0.7, 1.3, 2), 0.3),
    ((1, -1), 0.6, (1, 3), 0.5),
]
# scaled error; measured 1.2e-15 or better
ORBIT_TOL = 1e-14
# case: scaled tolerance of S and gamma, each over 10 times the error
# measured: a swing out to radii^2 of 5e-7 next to the cone (S = pi is off
# by 2.3e-11, the gammas by 1.1e-13 or less), and data at (G(0) - A^2)/G(0)
# = 1e-11 next to the stationary case, whose critical point is at 0 (1.5e-11)
HARD_ORBIT_CASES = {
    ((1, -1), 0.0, (1, 1), 1e-3): 3e-10,
    ((1, -1), 0.5, (1, 2 / 3), math.sqrt(2 / 3 * (1 - 1e-11))): 2e-10,
}
ALL_ORBIT_CASES = ORBIT_CASES + list(HARD_ORBIT_CASES)


@lru_cache(maxsize=None)
def oracle_roots(lambdas, alpha, alphas, A, u_star, u1, u2):
    """(u_*, u1, u2) at DPS digits: the critical point and the turning points
    (roots of log G = log A^2) found again with findroot, each bracketed
    around its float seed within the least d = 1e-12 (1 + |seed|) 10^k where
    the sign changes."""
    with mp.workdps(DPS):
        lam = [mp.mpf(l) for l in lambdas]
        al = [mp.mpf(a) for a in alphas]
        alpha, lnA2 = mp.mpf(alpha), 2 * mp.log(mp.mpf(A))

        def root(f, seed):
            x, d = mp.mpf(seed), 1e-12 * (1 + abs(seed))
            while f(x - d) * f(x + d) > 0:
                d *= 10
            return mp.findroot(f, (x - d, x + d), solver="anderson")

        log_G = lambda u: alpha * u + mp.fsum(mp.log(a + l * u) for a, l in zip(al, lam))
        u_star = root(lambda u: alpha + mp.fsum(l / (a + l * u) for a, l in zip(al, lam)),
                      u_star)
        u1, u2 = (root(lambda u: log_G(u) - lnA2, u) for u in (u1, u2))
        assert u1 < u_star < u2
        return u_star, u1, u2


def oracle_orbit(lambdas, alpha, alphas, A, u_star, u1, u2):
    """[S, gamma_1, ..., gamma_n] at DPS digits, between the turning points of
    oracle_roots.

    With v = u1 + (u2 - u1) sin^2(xi) each integrand is smooth on [0, pi/2];
    G(v) - A^2 is taken as G(end) expm1(log G(v) - log G(end)) from the
    nearer turning point, so no digits cancel next to either end.
    """
    _, u1, u2 = oracle_roots(lambdas, alpha, alphas, A, u_star, u1, u2)
    with mp.workdps(DPS):
        lam = [mp.mpf(l) for l in lambdas]
        al = [mp.mpf(a) for a in alphas]
        alpha, A = mp.mpf(alpha), mp.mpf(A)

        def log_growth(anchor, d):      # log G(anchor + d) - log G(anchor)
            return alpha * d + mp.fsum(mp.log1p(l * d / (a + l * anchor))
                                       for a, l in zip(al, lam))

        log_G = lambda u: log_growth(0, u) + mp.fsum(mp.log(a) for a in al)
        du = u2 - u1

        @lru_cache(maxsize=None)
        def at(xi):
            """(v, dv/dxi / sqrt(G(v) - A^2)) at xi."""
            s, c = mp.sin(xi), mp.cos(xi)
            anchor, d = (u1, du * s * s) if xi <= mp.pi / 4 else (u2, -du * c * c)
            gap = mp.exp(log_G(anchor)) * mp.expm1(log_growth(anchor, d))
            return anchor + d, 2 * du * s * c / mp.sqrt(gap)

        numers = [lambda v: mp.exp(alpha * v / 2)] + [
            lambda v, a=a, l=l: -A * l / (a + l * v) for a, l in zip(al, lam)]
        pts = [0, mp.pi / 4, mp.pi / 2]
        return np.array([float(mp.quad(lambda xi, f=f: f(at(xi)[0]) * at(xi)[1], pts))
                         for f in numers])


def computed_orbit(lambdas, alpha, alphas, A):
    """(orbit, critical point) of the package, with the conditioning warning
    of near-stationary data silenced."""
    spec = PeriodicSpec(SolitonParams(lambdas, 1.0, alpha), alphas, A)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrbitConditioningWarning)
        orbit = compute_orbit(spec)
    assert orbit.case == "oscillating"
    return orbit, critical_point(spec)


@pytest.mark.parametrize("lambdas, alpha, alphas, A", ALL_ORBIT_CASES)
def test_period_and_holonomies_match_oracle(lambdas, alpha, alphas, A):
    orbit, u_star = computed_orbit(lambdas, alpha, alphas, A)
    ref = oracle_orbit(lambdas, alpha, alphas, A, u_star, orbit.u1, orbit.u2)
    tol = HARD_ORBIT_CASES.get((lambdas, alpha, alphas, A), ORBIT_TOL)
    assert_close([orbit.S, *orbit.gamma], ref, tol)


@pytest.mark.parametrize("lambdas, alpha, alphas, A", ALL_ORBIT_CASES)
def test_turning_points_match_oracle_to_their_conditioning(lambdas, alpha, alphas, A):
    """|u - u*| <= 2 ulp(u*) + 8 eps (|alpha u*| + sum |log r_j^2| + 2 |log A|)
    / |W'(u*)| at each turning point u* of the oracle: the roundoff of W =
    log G - log A^2 near u*, over its slope."""
    orbit, u_star = computed_orbit(lambdas, alpha, alphas, A)
    roots = oracle_roots(lambdas, alpha, alphas, A, u_star, orbit.u1, orbit.u2)[1:]
    eps = np.finfo(float).eps
    for got, ref in zip((orbit.u1, orbit.u2), roots):
        with mp.workdps(DPS):
            rad = [mp.mpf(a) + l * ref for a, l in zip(alphas, lambdas)]
            size = abs(alpha * ref) + mp.fsum(abs(mp.log(r)) for r in rad) + 2 * abs(mp.log(A))
            slope = alpha + mp.fsum(l / r for l, r in zip(lambdas, rad))
            err, bound = float(abs(got - ref)), float(8 * eps * size / abs(slope))
        assert err <= 2 * math.ulp(float(ref)) + bound, f"error {err:.2e} at u* = {float(ref)!r}"
