"""Expander and minimal profiles on the centred quadric, and the angle map."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from lagsol import cli, expander, odeint, quadutil
from lagsol.errors import InvalidTarget, NonConvergence, ValidationError
from lagsol.expander import (NEWTON_HALVINGS, ExpanderProfile, angle_map, angle_map_jacobian,
                             asymptotic_angles, damped_newton, invert_angle_map, s_of_y)
from lagsol.geometry import fd_step
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec, compute_orbit
from lagsol.quadutil import finite_quad, gauss_panels
from oracles import log_growth, scale_breaks


def eval_P(profile: ExpanderProfile, t: float) -> float:
    """P(t), stable near t = 0; returns the limit sum(a) + alpha there."""
    if t == 0.0:
        return sum(profile.a) + profile.alpha
    E = log_growth(profile.alpha, profile.a, t)
    if E > 700.0:
        return math.inf
    return math.expm1(E) / (t * t)


def point(profile: ExpanderProfile, y: float):
    """The row of the curve record at height y."""
    return profile.curve([y]).row(0)


def test_profile_validation():
    with pytest.raises(ValidationError):
        ExpanderProfile(-1.0, (1.0,))
    with pytest.raises(ValidationError):
        ExpanderProfile(1.0, (1.0, 0.0))
    with pytest.raises(ValidationError):
        ExpanderProfile(1.0, (1.0,), psi=(0.0, 0.0))


@pytest.mark.parametrize("alpha, a", [(1.0, (0.0, 1.0)), (-1.0, (1.0, 1.0)),
                                      (1.0, (math.nan, 1.0))])
def test_angle_map_and_jacobian_reject_points_outside_the_domain(alpha, a):
    # the profile checks (alpha, a) through the same call, so with one message
    messages = set()
    for f in (angle_map, angle_map_jacobian, ExpanderProfile):
        with pytest.raises(ValidationError) as info:
            f(alpha, a)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_eval_P_values():
    prof = ExpanderProfile(0.0, (1.0, 1.0))
    # ((1+t^2)^2 - 1)/t^2 at t = 1
    assert eval_P(prof, 1.0) == pytest.approx(3.0, rel=1e-14)
    assert eval_P(prof, 0.0) == pytest.approx(2.0, abs=0)  # sum(a) + alpha
    # the t -> 0 limit is approached continuously
    assert eval_P(prof, 1e-8) == pytest.approx(2.0, rel=1e-12)
    prof2 = ExpanderProfile(1.0, (0.5, 2.0))
    assert eval_P(prof2, 0.0) == pytest.approx(3.5)
    assert eval_P(prof2, 2.0) > eval_P(prof2, 1.0) > eval_P(prof2, 0.5)


def test_profile_eval_at_origin():
    prof = ExpanderProfile(0.0, (1.0, 1.0))
    pt = point(prof, 0.0)
    assert tuple(pt.r) == pytest.approx((1.0, 1.0))
    assert tuple(pt.phis) == pytest.approx((0.0, 0.0))
    assert pt.theta == pytest.approx(math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_phases_where_the_height_squared_underflows(alpha):
    """Below |y| ~ 1e-154, y^2 underflows to 0 and P^(-1/2) takes its
    limit P(0)^(-1/2): phi_j - psi_j = y a_j P(0)^(-1/2) to roundoff."""
    prof = ExpanderProfile(alpha, (1.0, 2.0))
    y = 1e-170
    c = prof.curve([y, -y])
    expect = y * np.array(prof.a) / math.sqrt(sum(prof.a) + alpha)
    np.testing.assert_allclose(c.phis, [expect, -expect], rtol=1e-14, atol=0)
    for field in c:
        assert np.isfinite(field).all()


def test_minimal_profile_has_constant_angle():
    prof = ExpanderProfile(0.0, (1.0, 1.0), psi=(0.1, -0.3))
    for y in (-3.0, -0.5, 0.0, 0.7, 2.0, 6.0):
        assert point(prof, y).theta == pytest.approx(
            0.1 - 0.3 + math.pi / 2, abs=1e-12)


def test_symmetric_minimal_phases_closed_form():
    """For a = (1, 1), alpha = 0 the phase integral is arctan(t/sqrt(2+t^2))."""
    prof = ExpanderProfile(0.0, (1.0, 1.0))
    for y in (0.3, 1.0, 2.5, 8.0):
        expect = math.atan(y / math.sqrt(2.0 + y * y))
        pt = point(prof, y)
        assert pt.phis[0] == pytest.approx(expect, abs=1e-10)
        assert pt.phis[1] == pytest.approx(expect, abs=1e-10)
        # odd in y
        mt = point(prof, -y)
        assert mt.phis[0] == pytest.approx(-expect, abs=1e-10)


def test_asymptotic_angles_symmetric_minimal():
    ang = asymptotic_angles(ExpanderProfile(0.0, (1.0, 1.0)))
    np.testing.assert_allclose(ang.phibar, (math.pi / 4, math.pi / 4), atol=1e-10)
    assert ang.total == pytest.approx(math.pi / 2, abs=1e-10)


def test_asymptotic_angle_one_dimensional_minimal():
    for a1 in (0.2, 1.0, 7.0):
        ang = asymptotic_angles(ExpanderProfile(0.0, (a1,)))
        assert ang.phibar[0] == pytest.approx(math.pi / 2, abs=1e-10)


def test_asymptotic_angles_expanding_sum_below_ceiling():
    ang = asymptotic_angles(ExpanderProfile(1.0, (1.0, 1.0)))
    assert ang.phibar[0] == pytest.approx(ang.phibar[1], abs=1e-12)
    assert ang.total < math.pi / 2 - 1e-3


def test_angle_map_consistency_with_profile():
    for alpha, a in ((0.0, (0.3, 0.7)), (1.0, (1.0, 2.0)), (0.5, (1.0, 1.0, 2.0))):
        # alpha = 0 targets must sum to pi/2; scale the profile version freely
        prof_ang = np.array(asymptotic_angles(ExpanderProfile(alpha, a)).phibar)
        np.testing.assert_allclose(angle_map(alpha, a), prof_ang, atol=1e-10)


def test_angle_map_scale_invariance_minimal():
    base = angle_map(0.0, (0.4, 1.1, 2.0))
    for t in (0.1, 3.0, 40.0):
        np.testing.assert_allclose(angle_map(0.0, (0.4 * t, 1.1 * t, 2.0 * t)),
                                   base, atol=1e-10)
    assert base.sum() == pytest.approx(math.pi / 2, abs=1e-8)


def test_angle_map_large_dilation_approaches_ceiling():
    """alpha > 0: sum of angles along the ray ta tends to pi/2 from below."""
    sums = [float(angle_map(1.0, (t, 2.0 * t)).sum()) for t in (1.0, 1e2, 1e4)]
    assert sums[0] < sums[1] < sums[2] < math.pi / 2
    assert math.pi / 2 - sums[2] < 2e-2


def test_angle_map_quadrature_vs_independent_rule():
    """Cross-check one component against a plain high-order quadrature of the
    defining integrand on a split interval."""
    alpha, a = 0.7, (0.8, 1.6)

    def integrand(t):
        P = eval_P(ExpanderProfile(alpha, a), t)
        return a[0] / ((1.0 + a[0] * t * t) * math.sqrt(P))

    val, _ = quad(integrand, 0.0, 50.0, epsabs=1e-13, epsrel=1e-12, limit=300)
    tail, _ = quad(integrand, 50.0, np.inf, epsabs=1e-13, limit=100)
    assert angle_map(alpha, a)[0] == pytest.approx(val + tail, abs=1e-9)


def test_jacobian_against_finite_differences():
    alpha, a = 1.0, (0.9, 1.7)
    J = angle_map_jacobian(alpha, a)
    h = 1e-6
    for k in range(2):
        ap = list(a); ap[k] += h
        am = list(a); am[k] -= h
        fd = (angle_map(alpha, tuple(ap)) - angle_map(alpha, tuple(am))) / (2 * h)
        np.testing.assert_allclose(J[:, k], fd, rtol=5e-6, atol=1e-9)


def test_jacobian_sign_pattern(rng):
    """Diagonal entries positive, off-diagonal negative, at random points."""
    for _ in range(10):
        n = int(rng.integers(2, 4))
        alpha = float(rng.uniform(0.0, 2.0))
        a = tuple(np.exp(rng.uniform(-1.5, 1.5, size=n)))
        J = angle_map_jacobian(alpha, a)
        for j in range(n):
            for k in range(n):
                if j == k:
                    assert J[j, k] > 0
                else:
                    assert J[j, k] < 0


def test_jacobian_euler_relation(rng):
    """sum_k a_k dPhi_j/da_k is positive for alpha > 0 and zero for alpha = 0."""
    for _ in range(5):
        a = tuple(np.exp(rng.uniform(-1.0, 1.0, size=2)))
        ray0 = angle_map_jacobian(0.0, a) @ np.array(a)
        np.testing.assert_allclose(ray0, 0.0, atol=1e-9)
        ray1 = angle_map_jacobian(1.5, a) @ np.array(a)
        assert np.all(ray1 > 0)


def test_invert_round_trip():
    target = angle_map(1.0, (1.0, 1.0))
    a = invert_angle_map(1.0, target)
    np.testing.assert_allclose(a, (1.0, 1.0), atol=1e-8)


def test_invert_symmetric_target_gives_equal_entries():
    target = np.full(3, 0.4)
    a = invert_angle_map(0.8, target)
    assert np.ptp(a) < 1e-9
    np.testing.assert_allclose(angle_map(0.8, tuple(a)), target, atol=1e-10)


def test_invert_near_ceiling_target():
    """Angle sums just under pi/2 are reached far out along the scaling ray."""
    eps = 1e-12
    target = np.full(2, (math.pi / 2 - eps) / 2)
    a = invert_angle_map(1.0, target)
    assert np.linalg.norm(a) > 1e9
    np.testing.assert_allclose(angle_map(1.0, tuple(a)), target, atol=1e-10)


def test_invert_minimal_returns_unit_sum_representative():
    target = np.array([0.6, math.pi / 2 - 0.6])
    a = invert_angle_map(0.0, target)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(angle_map(0.0, tuple(a)), target, atol=1e-10)


def test_invert_minimal_converges_near_every_face():
    """At alpha = 0 sum(a) = 1 replaces the dependent last angle equation, so
    Newton is a square solve at every alpha: targets summing to pi/2 whose
    least angle (the distance to the nearest face) is log-uniform down to
    1e-12 all converge, to the unit-sum representative, with every angle
    within 1e-10."""
    rng = np.random.default_rng(8013721)
    for _ in range(60):
        n, least = int(rng.integers(2, 6)), 10.0 ** rng.uniform(-12.0, -1.0)
        rest = least + (math.pi / 2 - n * least) * rng.dirichlet(np.ones(n - 1))
        target = rng.permutation(np.concatenate([[least], rest]))
        a = invert_angle_map(0.0, target)
        assert abs(a.sum() - 1.0) <= 1e-15, (target, a)
        assert np.abs(angle_map(0.0, tuple(a)) - target).max() <= 1e-10, (target, a)


@pytest.mark.parametrize("alpha, target", [(1.0, (0.4, 0.6)), (0.3, (0.2, 0.9)),
                                           (2.0, (0.1, 0.3, 0.5)), (0.8, (0.45, 0.45, 0.45))])
def test_invert_reports_the_pass_it_converged_on(capsys, alpha, target):
    """At alpha > 0 the returned a is Newton's last iterate, so the angle map
    there reads that iterate's cached joint pass: neither a direct call nor
    the invert-angles report integrates another DE family, and the reported
    angles meet the tolerance."""
    tol = 1e-10
    with mock.patch.object(expander, "improper_quad", wraps=expander.improper_quad) as iq:
        expander._angle_pass.cache_clear()
        a = invert_angle_map(alpha, target, tol=tol)
        solved = iq.call_count
        achieved = angle_map(alpha, tuple(a))
        assert iq.call_count == solved
        expander._angle_pass.cache_clear()
        argv = [f"--alpha={alpha!r}", "--target=" + ",".join(map(repr, target)), f"--tol={tol!r}"]
        assert cli.main(["invert-angles", *argv]) == 0
        assert iq.call_count == 2 * solved
    assert np.abs(achieved - np.array(target)).max() < tol
    printed = capsys.readouterr().out.splitlines()
    assert f"achieved = {','.join(map(repr, achieved.tolist()))}" in printed


def test_invert_minimal_one_dimensional():
    a = invert_angle_map(0.0, [math.pi / 2])
    np.testing.assert_allclose(a, [1.0])


def test_invert_rejects_bad_targets():
    with pytest.raises(InvalidTarget):
        invert_angle_map(1.0, [0.9, 0.8])            # sum over pi/2
    with pytest.raises(InvalidTarget):
        invert_angle_map(1.0, [-0.1, 0.3])           # entry out of range
    with pytest.raises(InvalidTarget):
        invert_angle_map(1.0, [1.6, 0.1])            # entry at/above pi/2
    with pytest.raises(InvalidTarget):
        invert_angle_map(0.0, [0.3, 0.3])            # minimal needs sum pi/2
    with pytest.raises(ValidationError):
        invert_angle_map(-1.0, [0.3, 0.3])


def test_a_singular_jacobian_stalls_the_inversion(tmp_path, capsys):
    """At alpha > 0 a singular Jacobian takes the least-squares step (here 0),
    whose trials never lower the residual: NonConvergence, exit 3."""
    joint = expander._angle_pass

    def singular(alpha, a):
        return joint(alpha, a)[0], np.zeros((len(a), len(a)))

    with mock.patch.object(expander, "_angle_pass", side_effect=singular):
        with pytest.raises(NonConvergence, match="^angle map inversion stalled"):
            invert_angle_map(1.0, [0.5, 0.3])
        assert cli.main(["invert-angles", "--alpha=1", "--target=0.5,0.3",
                         f"--outdir={tmp_path}"]) == 3
    assert capsys.readouterr().err == (
        "lagsol: angle map inversion stalled (damping exhausted)\n")


def test_the_inversion_tries_every_halving_before_it_stalls():
    """With the Jacobian's sign flipped every step climbs, so the first
    iteration evaluates NEWTON_HALVINGS trials and stalls.  The seed's passes,
    at a = (1,..,1), keep their sign."""
    joint, jacobian = expander._angle_pass, expander.angle_map_jacobian
    calls, marks = [], []

    def flipped(alpha, a):
        phibar, J = joint(alpha, a)
        if a == (1.0,) * len(a):
            return phibar, J
        calls.append(a)
        return phibar, -J

    def marked(alpha, a):
        J = jacobian(alpha, a)
        marks.append(len(calls))
        return J

    with mock.patch.object(expander, "_angle_pass", side_effect=flipped), \
            mock.patch.object(expander, "angle_map_jacobian", side_effect=marked):
        with pytest.raises(NonConvergence, match="stalled"):
            invert_angle_map(1.0, [0.5, 0.3])
    assert len(marks) == 1 and len(calls) - marks[0] == NEWTON_HALVINGS == 15


def test_a_trial_outside_the_domain_is_infeasible():
    """A Newton trial whose exp(log a) underflows to 0 or overflows is
    infeasible: its residual is None, with no warning, so the halvings pull
    the step back instead of a ValidationError ending the solve."""
    residuals = []

    def spy(residual, jacobian, x, r, **kwargs):
        residuals.append(residual)
        return damped_newton(residual, jacobian, x, r, **kwargs)

    with mock.patch.object(expander, "damped_newton", side_effect=spy), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        invert_angle_map(1.0, [0.5, 0.3])
        (residual,) = residuals
        assert residual(np.array([-800.0, 0.0])) is None
        assert residual(np.array([800.0, 0.0])) is None


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_symmetric_seed_takes_a_few_joint_passes(n):
    """The seed is Newton in log(alpha / c), its slope read off the joint
    pass by the Euler identity, so it needs a few passes for angle sums from
    1e-2 to 1e-6 below the pi/2 ceiling, and it lands well inside its 1e-3
    in log c."""
    for total in (1e-2, 0.5, 1.0, 1.5, math.pi / 2 - 1e-6):
        expander._angle_pass.cache_clear()
        c = expander._symmetric_seed(1.0, n, total)
        assert expander._angle_pass.cache_info().misses <= 4
        got = n * angle_map(1.0, (c,) * n)[0]
        logit = math.log(got / (math.pi / 2 - got)) - math.log(total / (math.pi / 2 - total))
        assert abs(logit) < 1e-6


def test_the_symmetric_seed_resolves_every_deficit_below_the_ceiling():
    """The seed's solve depends only on n and the target sum, and below an
    angle-sum deficit of 1e-8 it extrapolates instead, so no deficit falls
    between what it resolves and what it extrapolates: symmetric targets at
    33 deficits from 1e-14 to 1e-6 below pi/2, for n = 2..7 at three alpha,
    all invert."""
    for alpha in (1e-3, 1.0, 20.0):
        for n in range(2, 8):
            for deficit in np.logspace(-14.0, -6.0, 33):
                target = np.full(n, (math.pi / 2 - deficit) / n)
                a = invert_angle_map(alpha, target)
                assert np.abs(angle_map(alpha, tuple(a)) - target).max() <= 1e-10


def test_angle_map_is_invariant_under_dilation(rng):
    """Dilating an expander by k rescales alpha and a together and keeps its
    asymptotic planes: phibar(k alpha, k a) = phibar(alpha, a), and so
    k J(k alpha, k a) = J(alpha, a), compared in log a."""
    for _ in range(40):
        n = int(rng.integers(1, 6))
        alpha = 0.0 if rng.random() < 0.25 else math.exp(rng.uniform(math.log(1e-2),
                                                                      math.log(20.0)))
        a = math.exp(rng.uniform(-3.0, 3.0)) * np.exp(rng.uniform(0.0, math.log(1e6), size=n))
        k = 10.0 ** rng.uniform(-30.0, 30.0)
        np.testing.assert_allclose(angle_map(k * alpha, k * a), angle_map(alpha, a),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(k * angle_map_jacobian(k * alpha, k * a) * a,
                                   angle_map_jacobian(alpha, a) * a, rtol=0.0, atol=1e-12)


def test_damped_newton_falls_back_to_least_squares_and_counts_iterations():
    # a rank-one system: np.linalg.solve raises, least squares finds a root
    x = damped_newton(lambda x: np.array([x.sum() - 2.0] * 2),
                      lambda x, r: np.ones((2, 2)), np.zeros(2), np.array([-2.0, -2.0]),
                      tol=1e-12, max_iter=5, what="toy")
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)
    # a Jacobian four times too steep shrinks |r| by 3/4 per iteration
    with pytest.raises(NonConvergence, match="^toy did not converge in 3 iterations$"):
        damped_newton(lambda x: x, lambda x, r: np.array([[4.0]]), np.ones(1), np.ones(1),
                      tol=1e-3, max_iter=3, what="toy")


def test_theta_range_matches_angle_data():
    prof = ExpanderProfile(1.0, (1.0, 2.0), psi=(0.2, -0.1))
    ang = asymptotic_angles(prof)
    lo_expect = sum(prof.psi) + ang.total
    hi_expect = sum(prof.psi) + math.pi - ang.total
    thetas = [point(prof, y).theta for y in np.linspace(-12, 12, 41)]
    assert min(thetas) > lo_expect - 1e-9
    assert max(thetas) < hi_expect + 1e-9
    # approached at the far ends
    assert point(prof, 30.0).theta == pytest.approx(lo_expect, abs=1e-6)
    assert point(prof, -30.0).theta == pytest.approx(hi_expect, abs=1e-6)


def test_theta_strictly_decreasing_for_expanding():
    prof = ExpanderProfile(0.7, (1.0, 0.5))
    ys = np.linspace(-4, 4, 33)
    thetas = np.array([point(prof, y).theta for y in ys])
    assert np.all(np.diff(thetas) < 0)


def test_phases_increase_with_bounded_total_swing():
    prof = ExpanderProfile(0.4, (0.8, 1.9))
    ys = np.linspace(-5, 5, 41)
    phis = np.array([point(prof, y).phis for y in ys])
    assert np.all(np.diff(phis, axis=0) > 0)
    ang = asymptotic_angles(prof)
    for j in range(2):
        assert 2.0 * ang.phibar[j] <= math.pi + 1e-12


def test_lawlor_dilation_identity():
    """alpha = 0: replacing a by t a dilates the profile by t^(-1/2)."""
    a = (0.5, 1.25)
    t = 3.0
    prof = ExpanderProfile(0.0, a)
    prof_t = ExpanderProfile(0.0, tuple(t * x for x in a))
    for y in (0.0, 0.4, 1.3, -2.2):
        w_scaled = point(prof_t, y).w
        w_orig = point(prof, math.sqrt(t) * y).w
        np.testing.assert_allclose(w_scaled, w_orig / math.sqrt(t), atol=1e-8)


def test_first_integral_constant_along_profile():
    """sqrt(Q) e^{alpha u/2} sin(phi - theta) stays at the profile's A < 0."""
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    A = prof.first_integral_value
    assert A == pytest.approx(-math.sqrt(0.5))
    for y in (0.0, 0.5, 1.5, -2.0):
        pt = point(prof, y)
        q = math.prod(r * r for r in pt.r)
        val = math.sqrt(q) * math.exp(0.5 * prof.alpha * pt.t ** 2) * math.sin(
            sum(pt.phis) - pt.theta)
        assert val == pytest.approx(A, rel=1e-10)


def test_s_of_y_parametrization():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    assert s_of_y(prof, 0.0) == 0.0
    assert s_of_y(prof, -1.0) == pytest.approx(-s_of_y(prof, 1.0), rel=1e-12)
    vals = [s_of_y(prof, y) for y in (0.25, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # derivative at zero: sqrt(prod a) / sqrt(sum a + alpha)
    h = 1e-6
    fd = (s_of_y(prof, h) - s_of_y(prof, -h)) / (2 * h)
    assert fd == pytest.approx(math.sqrt(2.0) / math.sqrt(4.0), rel=1e-9)


def test_s_of_y_takes_any_shape():
    prof = ExpanderProfile(0.0, (1.0, 2.0))
    ys = np.array([[0.5, -1.0], [2.0, -0.0]])
    s = s_of_y(prof, ys)
    assert s.shape == ys.shape and s.ndim == 2
    assert np.array_equal(s.ravel(), [float(s_of_y(prof, y)) for y in ys.ravel().tolist()])
    assert np.signbit(s[1, 1]) and s_of_y(prof, 3.0).shape == ()


# -- the per-profile phase and arc caches -------------------------------------

PHASE_CASES = [(1.0, (1.0, 2.0)), (0.0, (0.8, 1.5)), (0.5, (1e6, 1.0)), (0.0, (1e13, 1.0))]


def _cache_heights(prof):
    """The heights an export queries: the profile table, the mesh, FD offsets
    +-h and +-h/2 around three mesh heights, then +-5 and 0."""
    table = np.linspace(-1.5, 1.5, 200)
    mesh = np.linspace(-1.5, 1.5, 30)
    fd = []
    for y in mesh[[3, 14, 26]]:
        h = fd_step(point(prof, y).u)
        fd += [y + h, y - h, y + 0.5 * h, y - 0.5 * h]
    return [float(y) for y in (*table, *mesh, *fd, 5.0, -5.0, 0.0)]


def _one_shot_phases(prof, y):
    """Each phase as one quadrature over [0, |y|], as an uncached profile would."""
    def integrand(aj):
        return lambda t: aj / (1.0 + aj * t * t) / math.sqrt(eval_P(prof, t))
    vals = [finite_quad(integrand(aj), 0.0, abs(y), breaks=scale_breaks(prof.alpha, prof.a))
            for aj in prof.a]
    return np.copysign(vals, y)


def _one_shot_arc(prof, y):
    """s(y) as one QUADPACK quadrature over [0, |y|] of ds/dy =
    sqrt(prod a) t e^(-sum log1p(a_k t^2) / 2) / sqrt(1 - e^(-E)) in scalar
    arithmetic."""
    alpha, a = prof.alpha, prof.a

    def rate(t):
        E = log_growth(alpha, a, t)
        if E <= np.finfo(float).eps:
            return math.sqrt(math.prod(a) / (sum(a) + alpha))
        L = sum(math.log1p(x * t * t) for x in a)
        return math.sqrt(math.prod(a)) * t * math.exp(-0.5 * L) / math.sqrt(-math.expm1(-E))
    return math.copysign(finite_quad(rate, 0.0, abs(y), breaks=scale_breaks(alpha, a)), y)


@pytest.mark.parametrize("alpha, a", PHASE_CASES)
def test_cached_phases_match_one_quadrature_in_any_query_order(alpha, a):
    """Phases and arc parameters read forward, backward and (arcs) in one
    batch match one stand-alone QUADPACK quadrature each."""
    heights = _cache_heights(ExpanderProfile(alpha, a))
    forward, backward, batch = (ExpanderProfile(alpha, a) for _ in range(3))
    fwd = {y: (point(forward, y).phis, s_of_y(forward, y)) for y in heights}
    bwd = {y: (point(backward, y).phis, s_of_y(backward, y)) for y in reversed(heights)}
    arcs = dict(zip(heights, s_of_y(batch, heights).tolist()))
    for y in heights:
        ref = _one_shot_phases(forward, y)
        np.testing.assert_allclose(fwd[y][0], ref, rtol=0, atol=1e-12 * (1 + np.abs(ref).max()))
        np.testing.assert_allclose(fwd[y][0], bwd[y][0], rtol=0, atol=1e-13)
        if alpha == 0.0:
            ref = _one_shot_arc(forward, y)
            for got in (fwd[y][1], bwd[y][1], arcs[y]):
                assert abs(got - ref) <= 1e-13 * abs(ref), (y, got, ref)


@pytest.mark.parametrize("alpha, a", PHASE_CASES)
def test_cached_phases_are_exactly_odd(alpha, a):
    prof = ExpanderProfile(alpha, a)
    for y in (0.3, 1.7, 0.3 + 1e-3, 4.0):
        assert np.array_equal(point(prof, -y).phis, -point(prof, y).phis)
    assert np.array_equal(point(prof, -0.0).phis, np.zeros(len(a)))


def test_non_finite_height_is_rejected():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            prof.curve([0.5, y])


def test_phase_cache_belongs_to_the_profile():
    # a profile's values never depend on what another profile was asked
    used, fresh = ExpanderProfile(1.0, (1.0, 2.0)), ExpanderProfile(1.0, (1.0, 2.0))
    for y in np.linspace(0.0, 3.0, 13):
        used.curve([y])
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and "phase" not in repr(used)
    assert fresh._phases.ts == fresh._arcs.ts == [0.0]


def _gl_spy():
    return mock.patch.object(expander, "gauss_panels", wraps=expander.gauss_panels)


def _ode_spy():
    return mock.patch.object(odeint, "integrate", wraps=odeint.integrate)


def _orbit_profile():
    spec = PeriodicSpec(SolitonParams((1, -1), 1.0, 0.5), (1.0, 2.0), 0.4)
    return compute_orbit(spec).profile()


# (profile, read, spy, start and end of the spied call) of each ChainCache client
CHAIN_CLIENTS = {
    "phases": (lambda: ExpanderProfile(1.0, (1.0, 2.0)), lambda p, ts: p.curve(ts), _gl_spy,
               lambda call: (call.args[1][0], call.args[2][0])),
    "arcs": (lambda: ExpanderProfile(0.0, (1.0, 2.0)), s_of_y, _gl_spy,
             lambda call: (call.args[1][0], call.args[2][0])),
    "orbit": (_orbit_profile, lambda p, ts: p.curve(ts), _ode_spy,
              lambda call: (call.args[1], call.args[3])),
}


@pytest.mark.parametrize("name", CHAIN_CLIENTS)
def test_a_query_midway_between_held_parameters_chains_from_the_lower(name):
    make, read, spy, span = CHAIN_CLIENTS[name]
    prof = make()
    read(prof, [1.0, 2.0])
    with spy() as called:
        read(prof, [1.5])
    assert called.call_count == 1
    assert span(called.call_args) == (1.0, 1.5)


@pytest.mark.parametrize("name", CHAIN_CLIENTS)
def test_a_non_finite_parameter_raises_before_any_integration(name):
    make, read, spy, _ = CHAIN_CLIENTS[name]
    prof = make()
    what = "curve parameter" if name == "orbit" else "profile height"
    for t in (math.nan, math.inf, -math.inf):
        with spy() as called, pytest.raises(ValidationError, match=f"^{what} .* is not finite"):
            read(prof, [0.5, t, 1.0])
        assert called.call_count == 0


def test_s_of_y_makes_no_quadpack_call():
    prof = ExpanderProfile(0.0, (1e13, 1.0))
    with mock.patch.object(quadutil, "finite_quad") as fq, \
            mock.patch.object(quadutil, "quad") as q, \
            mock.patch.object(scipy.integrate, "quad") as sq:
        s_of_y(prof, np.linspace(-1e4, 1e4, 41))
        s_of_y(prof, 0.3)
    assert fq.call_count == q.call_count == sq.call_count == 0


def test_expander_export_integrand_budget(tmp_path):
    # integrand nodes of the phase rule over a default-size export; the
    # expander curve makes no QUADPACK call
    nodes = []

    def counted(rates, lo, hi, **kwargs):
        def rates_counted(t):
            nodes.append(t.size)
            return rates(t)
        return gauss_panels(rates_counted, lo, hi, **kwargs)

    with mock.patch.object(expander, "gauss_panels", side_effect=counted), \
            mock.patch.object(quadutil, "quad", wraps=quadutil.quad) as q:
        assert cli.main(["expander", "--alpha=1", "--a=1,2", f"--outdir={tmp_path}"]) == 0
    assert 0 < sum(nodes) <= 15_000
    assert q.call_count == 0


def test_curve_on_a_batch_is_curve_at_each_height():
    prof = ExpanderProfile(0.5, (0.3, 1.0, 7.0), (0.1, -0.2, 0.3))
    ys = np.concatenate([np.linspace(-1.5, 1.5, 200), [-0.0, 0.0, 4.0]])
    batch = prof.curve(ys)
    for k, y in enumerate(ys.tolist()):
        pt = point(prof, y)
        assert all(np.array_equal(a, b) for a, b in zip(batch.row(k), pt))


def test_curve_fills_the_phase_cache_in_one_batch():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    with mock.patch.object(expander, "gauss_panels", wraps=expander.gauss_panels) as gp:
        prof.curve(np.linspace(-1.5, 1.5, 200))
        prof.curve(np.linspace(-1.5, 1.5, 30))
        assert gp.call_count == 2
        prof.curve([1.5, -1.5, 0.0, -0.0])            # held already
        assert gp.call_count == 2
        prof.curve([0.3 + 1e-3])                      # a single height: a batch of one
        assert gp.call_count == 3
    with pytest.raises(ValidationError, match="not finite"):
        prof.curve([0.5, math.nan])
