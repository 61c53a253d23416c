"""Frames, metric identities, and finite-difference curvature checks."""

import math

import numpy as np
import pytest

from lagsol.errors import ValidationError
from lagsol.expander import ExpanderProfile
from lagsol.geometry import (FramedPoint, _fd_levels, _quadric_base,
                             centred_fd_mean_curvature, centred_frame, fd_step,
                             mean_curvature_fd, quadric_tangent_basis)
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec, compute_orbit
from lagsol.translator import TranslatorProfile
from oracles import (pointwise_fd_mean_curvature, stacked_fd_mean_curvature,
                     stationary_spec)


# closed forms the frames are checked against

def curve_metric_coefficient(profile, x, t: float) -> float:
    """Closed form prod r_j^2 * sum_j lambda_j^2 x_j^2 / r_j^2 for g_tt.

    Valid when the profile's curve parameter is the system parameter s of the
    phase equations; profiles in another parameter pick up (ds/dt)^2.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(profile.w_of(t))
    r2 = np.abs(w) ** 2
    lam = np.asarray(profile.lambdas)
    return float(np.prod(r2) * np.sum(lam ** 2 * x ** 2 / r2))


def position_normal_closed_form(profile, x, t: float, *, s_rate: float = 1.0) -> np.ndarray:
    """Normal part of the position, prod(r_j) sin(phi - theta) (ds/dt) / g_tt * J f_t.

    Cross-checks FramedPoint.normal_projection(z) on centred profiles.  s_rate
    is ds/dt for profiles whose curve parameter t is not the system parameter
    s (1 for those parametrized by s itself).
    """
    fp = centred_frame(profile, x, t)
    w = np.asarray(profile.w_of(t))
    # sin(phi - theta) from the full product, robust to phase wrapping
    full = np.prod(w)
    sin_d = np.imag(np.exp(-1j * fp.theta) * full) / np.abs(full)
    gtt = fp.metric[-1, -1]
    return np.abs(full) * sin_d * s_rate / gtt * (1j * fp.frame[-1])


def selfsimilar_residual(profile, x, t: float) -> float:
    """| alpha F_perp - H | at one point of a centred profile."""
    fp = centred_frame(profile, x, t)
    H = fp.mean_curvature()
    Fperp = fp.normal_projection(fp.z)
    return float(np.linalg.norm(profile.alpha * Fperp - H))


def sample_quadric_points(rng, lambdas, count):
    """Random points with sum lambda_j x_j^2 = 1."""
    lam = np.asarray(lambdas, dtype=float)
    m = int(np.sum(lam > 0))
    n = lam.size
    out = []
    for _ in range(count):
        omega = rng.normal(size=m)
        omega /= np.linalg.norm(omega)
        if m == n:
            out.append(omega)
        else:
            eta = rng.normal(size=n - m)
            rho = float(rng.uniform(0.0, 1.2))
            eta *= rho / np.linalg.norm(eta)
            out.append(np.concatenate([omega * math.sqrt(1.0 + rho * rho), eta]))
    return out


def example_profiles():
    """One profile of each centred kind, with its curve parameter range and
    the ds/dt factor of that parametrization."""
    exp_prof = ExpanderProfile(1.0, (1.0, 2.0))
    minimal = ExpanderProfile(0.0, (0.8, 1.5))
    hs = compute_orbit(
        stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 1.0))).profile()
    orbit = compute_orbit(
        PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.5)).profile()
    return [
        ("expander", exp_prof, (-1.5, 1.5), lambda t: exp_prof.s_rate_of(t)),
        ("minimal", minimal, (-1.5, 1.5), lambda t: minimal.s_rate_of(t)),
        ("stationary", hs, (-2.0, 2.0), lambda t: 1.0),
        ("orbit", orbit, (-2.0, 2.0), lambda t: 1.0),
    ]


def test_tangent_basis_orthonormal_and_oriented(rng):
    for lam in ((1.0, 1.0), (1.0, -1.0), (1.0, 1.0, -1.0), (1.0, -1.0, -1.0)):
        for x in sample_quadric_points(rng, lam, 5):
            B = quadric_tangent_basis(lam, x)
            n = len(lam)
            assert B.shape == (n - 1, n)
            np.testing.assert_allclose(B @ B.T, np.eye(n - 1), atol=1e-12)
            grad = np.asarray(lam) * x
            np.testing.assert_allclose(B @ grad, 0.0, atol=1e-12)
            full = np.vstack([B, grad[None, :] / np.linalg.norm(grad)])
            assert np.linalg.det(full) > 0
            np.testing.assert_array_equal(B, quadric_tangent_basis(lam, x))


def test_tangent_basis_rejects_singular_point():
    with pytest.raises(ValidationError):
        quadric_tangent_basis((1.0, -1.0), (0.0, 0.0))


def test_tangent_basis_one_dimensional():
    assert quadric_tangent_basis((1.0,), (1.0,)).shape == (0, 1)


def test_frames_are_lagrangian_with_matching_angle(rng):
    for name, prof, (lo, hi), _ in example_profiles():
        lam = prof.lambdas
        for t in rng.uniform(lo, hi, 4):
            for x in sample_quadric_points(rng, lam, 3):
                fp = centred_frame(prof, x, float(t))
                assert fp.lagrangian_residual < 1e-10, name
                assert fp.angle_residual < 1e-9, name
                # curve direction orthogonal to the base-slice directions
                np.testing.assert_allclose(fp.metric[:-1, -1], 0.0,
                                           atol=1e-12, err_msg=name)
                assert np.linalg.eigvalsh(fp.metric).min() > 0, name


def test_curve_metric_closed_form(rng):
    for name, prof, (lo, hi), s_rate in example_profiles():
        for t in rng.uniform(lo, hi, 3):
            x = sample_quadric_points(rng, prof.lambdas, 1)[0]
            fp = centred_frame(prof, x, float(t))
            expected = curve_metric_coefficient(prof, x, float(t)) * s_rate(float(t)) ** 2
            assert fp.metric[-1, -1] == pytest.approx(expected, rel=1e-10), name


def test_position_normal_closed_form_matches_projection(rng):
    for name, prof, (lo, hi), s_rate in example_profiles():
        for t in rng.uniform(lo, hi, 3):
            x = sample_quadric_points(rng, prof.lambdas, 1)[0]
            fp = centred_frame(prof, x, float(t))
            direct = fp.normal_projection(fp.z)
            closed = position_normal_closed_form(prof, x, float(t),
                                                 s_rate=s_rate(float(t)))
            np.testing.assert_allclose(closed, direct, atol=1e-9, err_msg=name)


def test_selfsimilar_residual_small_on_solitons(rng):
    """alpha F_perp = H holds analytically on every constructed profile."""
    for name, prof, (lo, hi), _ in example_profiles():
        for t in rng.uniform(lo, hi, 3):
            x = sample_quadric_points(rng, prof.lambdas, 1)[0]
            assert selfsimilar_residual(prof, x, float(t)) < 1e-8, name


def test_mean_curvature_fd_on_circle_oracle():
    R = 1.7
    F = lambda c: R * np.exp(1j * (0.4 + c))
    H = mean_curvature_fd(F, 1, 1e-3)
    np.testing.assert_allclose(H, -F(np.zeros((1, 1)))[0] / R ** 2, atol=1e-10)


def test_mean_curvature_fd_on_sphere_oracle():
    """Unit two-sphere under a sheared chart (nonzero Christoffel symbols):
    the surface Laplacian of the position is -2 x."""
    x0 = np.array([0.3, -0.4, math.sqrt(0.75)])
    th0, ph0 = math.acos(x0[2]), math.atan2(x0[1], x0[0])

    def F(ab):
        th = th0 + ab[:, 0] + 0.3 * ab[:, 1]
        ph = ph0 + ab[:, 1]
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)],
                        axis=-1).astype(complex)

    centre = F(np.zeros((1, 2)))[0]
    H = mean_curvature_fd(F, 2, 1e-3)
    np.testing.assert_allclose(H, -2.0 * centre, atol=1e-8)
    plain = _fd_levels(F, 2, (1e-3,))[0]
    err_rich = np.abs(H - (-2.0 * centre)).max()
    err_plain = np.abs(plain - (-2.0 * centre)).max()
    assert err_plain < 1e-4
    assert err_rich < err_plain


FD_CASES = {
    "expander-n1": (lambda: ExpanderProfile(1.0, (1.5,)), (1.0,), 0.4),
    "expander-n2": (lambda: ExpanderProfile(1.0, (1.0, 2.0)), (0.6, 0.8), 0.5),
    "expander-n3": (lambda: ExpanderProfile(0.7, (1.0, 2.0, 0.5)), (0.6, 0.0, 0.8), -0.9),
    "minimal": (lambda: ExpanderProfile(0.0, (0.8, 1.5)), (0.8, 0.6), 0.7),
    "orbit": (lambda: compute_orbit(PeriodicSpec(
        SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.5)).profile(),
        (math.cosh(0.4), math.sinh(0.4)), 0.3),
    "stationary": (lambda: compute_orbit(stationary_spec(
        SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 1.0))).profile(),
        (math.cosh(0.2), math.sinh(0.2)), -1.1),
    "shrinker": (lambda: compute_orbit(PeriodicSpec(
        SolitonParams((1.0, 1.0), 1.0, -1.0), (1.0, 1.5), 0.5)).profile(), (0.6, 0.8), 0.8),
    "translator-expander": (lambda: TranslatorProfile.from_expander_base(1.2, (1.0, 2.0)),
                            (0.7, -0.3), 0.4),
    "translator-orbit": (lambda: TranslatorProfile.from_orbit_base(PeriodicSpec(
        SolitonParams((1.0, -1.0), 1.0, 0.5), (1.0, 2.0), 0.4)), (0.7, -0.3), 0.4),
    "translator-stationary": (lambda: TranslatorProfile.from_orbit_base(stationary_spec(
        SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 1.0))), (0.7, -0.3), -0.6),
}


@pytest.mark.parametrize("name", FD_CASES)
def test_stacked_fd_oracle_matches_the_pointwise_one(name):
    """Each kind's stacked stencil reads the same immersion values, bit for
    bit, as a chart called point by point on fresh profiles (so the
    order-dependent curve caches see the same first queries), and its
    Laplace-Beltrami agrees with the looped one to roundoff."""
    make, x, t = FD_CASES[name]
    H_ref, ref_values = pointwise_fd_mean_curvature(make(), np.array(x), t)
    H, values = stacked_fd_mean_curvature(make(), np.array(x), t)
    assert np.array_equal(values, ref_values)
    assert np.abs(H - H_ref).max() <= 1e-13 * (1.0 + np.linalg.norm(H_ref))


def test_fd_matches_analytic_mean_curvature(rng):
    for name, prof, (lo, hi), _ in example_profiles():
        t = float(rng.uniform(lo + 0.3, hi - 0.3))
        x = sample_quadric_points(rng, prof.lambdas, 1)[0]
        fp = centred_frame(prof, x, t)
        H = fp.mean_curvature()
        H_fd = centred_fd_mean_curvature(prof, x, t)
        scale = max(np.linalg.norm(H), 1e-6)
        assert np.linalg.norm(H_fd - H) / scale < 1e-3, name


def test_minimal_profile_fd_mean_curvature_vanishes(rng):
    prof = ExpanderProfile(0.0, (0.8, 1.5))
    x = sample_quadric_points(rng, prof.lambdas, 1)[0]
    assert np.linalg.norm(prof.theta_rate_of(0.7)) == 0.0
    H_fd = centred_fd_mean_curvature(prof, x, 0.7)
    assert np.linalg.norm(H_fd) < 1e-4


def test_frame_rejects_off_quadric_point():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    with pytest.raises(ValidationError):
        centred_frame(prof, (1.0, 1.0), 0.0)        # sum x^2 = 2 != 1
    with pytest.raises(ValidationError):
        centred_frame(prof, (1.0, 0.0, 0.0), 0.0)   # wrong dimension


def test_detectors_see_tampering():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    x = np.array([0.6, 0.8])
    fp = centred_frame(prof, x, 0.5)
    off_angle = FramedPoint(fp.z, fp.frame, fp.gram, fp.theta + 1e-3, fp.theta_rate)
    assert off_angle.angle_residual > 5e-4
    frame = fp.frame.copy()
    frame[0] = frame[0] + 1e-3j * frame[1]          # rotate out of the Lagrangian cone
    gram = frame @ np.conj(frame.T)
    off_plane = FramedPoint(fp.z, frame, gram, fp.theta, fp.theta_rate)
    assert off_plane.lagrangian_residual > 1e-4


def test_chart_stays_on_quadric():
    prof = compute_orbit(
        PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 3.0), 0.8)).profile()
    x0 = np.array([math.cosh(0.4), math.sinh(0.4)])
    base = _quadric_base(prof.lambdas, x0)
    for x in base(np.array([[0.0], [0.05], [-0.08]])):
        assert np.sum(np.array(prof.lambdas) * x * x) == pytest.approx(1.0, abs=1e-12)
    _, values = stacked_fd_mean_curvature(prof, x0, 0.2)
    np.testing.assert_allclose(values[0], x0 * np.asarray(prof.w_of(0.2)), atol=1e-12)
    with pytest.raises(ValidationError, match="radial domain"):
        base(np.array([[50.0]]))                    # radial pullback undefined


def test_fd_step_scales_with_height():
    assert fd_step(0.0) == pytest.approx(2e-3)
    assert fd_step(3.0) == pytest.approx(4e-3)
    assert fd_step(-3.0) == fd_step(3.0)
