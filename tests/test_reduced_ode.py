"""Phase-space ODE system: right-hand sides, conservation, full-system lift."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lagsol.errors import DomainEscape, ValidationError
from lagsol.fileio import write_trajectory_csv
from lagsol.params import SolitonParams
from lagsol.reduced_ode import (DOMAIN_FLOOR, TrajectorySpec, first_integral,
                                integrate_reduced, reduced_system, sample_reduced)
from oracles import (full_first_integral, integrate_full, lift_state, reduced_rhs,
                     state_at)


def make_spec(lambdas, alphas, A, alpha=0.0, phi0=None):
    params = SolitonParams(lambdas, 1.0, alpha)
    return TrajectorySpec.with_first_integral(params, alphas, A, phi0=phi0)


def test_spec_validation():
    params = SolitonParams((2.0, -1.0), 1.0, 0.0)  # not normalized
    with pytest.raises(ValidationError):
        TrajectorySpec(params, (1.0, 1.0), (0.0, 0.0), 0.0)
    good = SolitonParams((1.0, -1.0), 1.0, 0.0)
    with pytest.raises(ValidationError):
        TrajectorySpec(good, (1.0,), (0.0, 0.0), 0.0)
    with pytest.raises(ValidationError):
        TrajectorySpec(good, (1.0, -1.0), (0.0, 0.0), 0.0)
    with pytest.raises(ValidationError):
        TrajectorySpec.with_first_integral(good, (1.0, 1.0), 1.5)  # A > sqrt(Q(0))


def eval_Q(spec: TrajectorySpec, u):
    """Radius-squared product Q(u) = prod(alpha_j + lambda_j u)."""
    u = np.asarray(u, dtype=float)
    rad = np.array(spec.alphas) + np.outer(u, spec.lambdas) if u.ndim else \
        np.array(spec.alphas) + u * np.array(spec.lambdas)
    return rad.prod(axis=-1)


def test_eval_Q_values():
    spec = make_spec((1.0, 1.0), (1.0, 1.0), 0.5)
    assert eval_Q(spec, 0.0) == pytest.approx(1.0, abs=0)
    spec2 = make_spec((1.0, -1.0), (1.0, 2.0), 0.5)
    assert eval_Q(spec2, 0.5) == pytest.approx(2.25)
    assert eval_Q(spec2, 2.0) == pytest.approx(0.0, abs=1e-15)  # band edge
    np.testing.assert_allclose(eval_Q(spec2, np.array([0.0, 0.5])),
                               [2.0, 2.25])


def test_first_integral_matches_requested_value():
    for A in (0.0, 0.3, -0.6):
        spec = make_spec((1.0, -1.0), (1.0, 2.0), A, alpha=1.0)
        y0 = spec.initial_state()
        assert first_integral(spec, y0) == pytest.approx(A, abs=1e-15)
        assert spec.first_integral_value == pytest.approx(A, abs=1e-15)


def test_reduced_rhs_stationary_slopes():
    """Data sitting at the first-integral ceiling (A = sqrt(G(0)) with the
    critical point at 0): du/ds = 0 and the phases wind with slopes
    -lambda_j A / alpha_j."""
    A = 1.0  # sqrt(G(0)) for base radii (1, 1)
    spec = make_spec((1.0, -1.0), (1.0, 1.0), A, alpha=0.0)
    dy = reduced_rhs(spec, spec.initial_state())
    assert dy[0] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(dy[1:3], [-A / 1.0, A / 1.0], rtol=1e-14)
    assert dy[3] == pytest.approx(0.0, abs=1e-15)  # alpha = 0


def test_reduced_rhs_zero_first_integral():
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.0, alpha=1.0)
    dy = reduced_rhs(spec, spec.initial_state())
    assert dy[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    np.testing.assert_allclose(dy[1:], 0.0, atol=1e-15)


def _numpy_reduced_rhs(spec, y):
    """Array-form reference for the stepper's float right-hand side."""
    lam, alphas, n = np.array(spec.params.lambdas), np.array(spec.alphas), spec.n
    rad = alphas + lam * y[0]
    if rad.min() <= DOMAIN_FLOOR:
        return np.full(n + 2, np.nan)
    sq = math.sqrt(rad.prod())
    d = y[1:n + 1].sum() - y[n + 1]
    return np.concatenate([[2.0 * sq * math.cos(d)], -sq * math.sin(d) * lam / rad,
                           [spec.params.alpha * sq * math.sin(d)]])


def test_float_system_matches_array_formulas():
    rng = np.random.default_rng(7)
    spec = make_spec((1.0, 1.0, -1.0), (1.2, 0.8, 2.0), 0.45, alpha=0.5)
    rhs, conserved, near_escape = reduced_system(spec)
    lo, hi = -0.8, 2.0      # the band of radii squared 1.2 + u, 0.8 + u and 2 - u
    for u in np.concatenate([rng.uniform(lo, hi, 20), [lo - 0.1, hi + 0.1]]):
        y = np.concatenate([[u], rng.uniform(-4.0, 4.0, spec.n + 1)])
        np.testing.assert_allclose(rhs(0.0, y), _numpy_reduced_rhs(spec, y),
                                   rtol=1e-14, atol=1e-14)
        if lo < u < hi:
            assert conserved(y) == pytest.approx(first_integral(spec, y),
                                                 rel=1e-13, abs=1e-14)
        assert near_escape(y) == (min(u - lo, hi - u) < 1e-6)


def test_reduced_rhs_against_finite_differences():
    """Independent check: advance the integrated flow by +-h and difference."""
    spec = make_spec((1.0, 1.0, -1.0), (1.2, 0.8, 2.0), 0.45, alpha=0.5)
    h = 1e-5
    traj = sample_reduced(spec, [-h, h])
    fd = (traj.y[-1] - traj.y[0]) / (2.0 * h)
    dy = reduced_rhs(spec, spec.initial_state())
    np.testing.assert_allclose(fd, dy, rtol=1e-7, atol=1e-9)


def test_conservation_along_trajectory():
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.6, alpha=1.0)
    traj = integrate_reduced(spec, -10.0, 10.0)
    drift = np.abs(traj.first_integral_residuals()).max()
    assert drift < 1e-8 * (1.0 + abs(spec.first_integral_value))


def test_zero_first_integral_freezes_phases():
    spec = make_spec((1.0, 1.0), (1.0, 1.5), 0.0, alpha=-1.0)
    traj = integrate_reduced(spec, -0.2, 0.2)
    np.testing.assert_allclose(traj.phis, np.broadcast_to(traj.phis[0], traj.phis.shape),
                               atol=1e-12)
    np.testing.assert_allclose(traj.theta, np.full_like(traj.theta, traj.theta[0]),
                               atol=1e-12)
    assert traj.u[-1] > traj.u[0]  # u marches monotonically


def test_orbit_confined_to_turning_band():
    """Oscillating data: u stays inside the [u1, u2] root interval of
    G(u) = A^2, roots located here independently by bracketed bisection."""
    A = 0.9
    spec = make_spec((1.0, -1.0), (1.0, 2.0), A, alpha=0.0)

    def gap(u):
        return (1.0 + u) * (2.0 - u) - A * A

    u_star = 0.5  # critical point of (1+u)(2-u)
    u1 = brentq(gap, -1.0 + 1e-13, u_star)
    u2 = brentq(gap, u_star, 2.0 - 1e-13)
    traj = integrate_reduced(spec, -25.0, 25.0)
    assert traj.u.min() >= u1 - 1e-9
    assert traj.u.max() <= u2 + 1e-9
    # and it actually visits both ends of the band
    assert traj.u.max() > u2 - 1e-3
    assert traj.u.min() < u1 + 1e-3


def test_domain_escape_reports_boundary():
    """A = 0 mixed-sign data marches to the negative slot's radius zero."""
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.0, alpha=0.0)
    with pytest.raises(DomainEscape):
        integrate_reduced(spec, -50.0, 50.0)


def test_sample_reduced_hits_targets():
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.6, alpha=1.0)
    pts = [-1.5, -0.25, 0.0, 0.4, 2.0]
    traj = sample_reduced(spec, pts)
    np.testing.assert_allclose(np.sort(traj.s), np.sort(np.array(pts)), atol=0)


def test_full_system_agrees_with_reduced():
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.6, alpha=1.0,
                     phi0=(0.3, -0.2))
    full = integrate_full(spec, -5.0, 5.0)
    red = sample_reduced(spec, full.s)
    assert np.array_equal(red.s, full.s)
    # radii, phases and angle from the two independent integrations agree
    radii = np.sqrt(np.array(spec.alphas) + np.outer(red.u, spec.params.lambdas))
    np.testing.assert_allclose(np.abs(full.ws), radii, atol=2e-7)
    np.testing.assert_allclose(full.phis, red.phis, atol=2e-7)
    np.testing.assert_allclose(full.theta, red.theta, atol=2e-7)
    assert full.lift_residuals().max() < 1e-8


def test_full_first_integral_conserved():
    spec = make_spec((1.0, 1.0, -1.0), (1.0, 1.3, 1.7), 0.5, alpha=0.0)
    full = integrate_full(spec, -3.0, 3.0)
    y = np.empty(2 * spec.n + 1)
    vals = []
    for i in range(0, len(full), 7):
        y[0:2 * spec.n:2] = full.ws[i].real
        y[1:2 * spec.n:2] = full.ws[i].imag
        y[2 * spec.n] = full.theta[i]
        vals.append(full_first_integral(spec, y))
    np.testing.assert_allclose(vals, spec.first_integral_value, atol=1e-9)


def test_lift_state_radius_relation():
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.6, alpha=1.0)
    traj = integrate_reduced(spec, -2.0, 2.0)
    st = state_at(traj, len(traj) // 3)
    fs = lift_state(spec, st)
    lam = spec.params.lambdas
    for r, a, l in zip(fs.radii, spec.alphas, lam):
        assert r * r == pytest.approx(a + l * st.u, rel=1e-14)


def test_trajectory_csv_export(tmp_path):
    spec = make_spec((1.0, -1.0), (1.0, 2.0), 0.6, alpha=1.0)
    traj = sample_reduced(spec, np.linspace(-1, 1, 9))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,u,phi_1,phi_2,theta,first_integral_residual"
    assert len(lines) == 1 + len(traj)
    resid = [abs(float(row.split(",")[-1])) for row in lines[1:]]
    assert max(resid) < 1e-9
