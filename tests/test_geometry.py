"""Frames, metric identities, and finite-difference curvature checks."""

import math

import numpy as np
import pytest

from lagsol import geometry
from lagsol.errors import ValidationError
from lagsol.expander import ExpanderProfile, s_of_y
from lagsol.geometry import (FramedPoint, _fd_levels, _inv_or_nan, _quadric_base,
                             _tangent_bases, centred_fd_mean_curvature, fd_step,
                             mean_curvature_fd)
from lagsol.meshing import centred_mesh, translator_mesh
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec, compute_orbit
from lagsol.translator import TranslatorProfile
from oracles import (pointwise_fd_mean_curvature, stacked_fd_mean_curvature,
                     stationary_spec)


def centred_frame(profile, x, t: float):
    """The package's frame at quadric point x and curve parameter t:
    geometry.centred_frame on a stack of one point, on the curve record read
    at t."""
    return geometry.centred_frame(profile, np.array([x], dtype=float), profile.curve([t]))


def centred_fd(profile, x, t: float):
    """The package's FD oracle at one point: a batch of one, on the curve
    record read at t."""
    return centred_fd_mean_curvature(profile, [x], profile.curve([t]))[0]


# closed forms the frames are checked against

def curve_metric_coefficient(profile, x, t: float) -> float:
    """Closed form prod r_j^2 * sum_j lambda_j^2 x_j^2 / r_j^2 for g_tt.

    Valid when the profile's curve parameter is the system parameter s of the
    phase equations; profiles in another parameter pick up (ds/dt)^2.
    """
    x = np.asarray(x, dtype=float)
    w = profile.curve([t]).w[0]
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
    w = profile.curve([t]).w[0]
    # sin(phi - theta) from the full product, robust to phase wrapping
    full = np.prod(w)
    sin_d = np.imag(np.exp(-1j * fp.theta[0]) * full) / np.abs(full)
    gtt = fp.metric[0, -1, -1]
    return np.abs(full) * sin_d * s_rate / gtt * (1j * fp.frame[0, -1])


def selfsimilar_residual(profile, x, t: float) -> float:
    """| alpha F_perp - H | at one point of a centred profile."""
    fp = centred_frame(profile, x, t)
    H = fp.mean_curvature()[0]
    Fperp = fp.normal_projection(fp.z)[0]
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
        ("expander", exp_prof, (-1.5, 1.5), lambda t: exp_prof.curve([t]).s_rate[0]),
        ("minimal", minimal, (-1.5, 1.5), lambda t: minimal.curve([t]).s_rate[0]),
        ("stationary", hs, (-2.0, 2.0), lambda t: 1.0),
        ("orbit", orbit, (-2.0, 2.0), lambda t: 1.0),
    ]


def test_tangent_basis_orthonormal_and_oriented(rng):
    for lam in ((1.0, 1.0), (1.0, -1.0), (1.0, 1.0, -1.0), (1.0, -1.0, -1.0)):
        for x in sample_quadric_points(rng, lam, 5):
            B = _tangent_bases(lam, x[None])[0]
            n = len(lam)
            assert B.shape == (n - 1, n)
            np.testing.assert_allclose(B @ B.T, np.eye(n - 1), atol=1e-12)
            grad = np.asarray(lam) * x
            np.testing.assert_allclose(B @ grad, 0.0, atol=1e-12)
            full = np.vstack([B, grad[None, :] / np.linalg.norm(grad)])
            assert np.linalg.det(full) > 0
            np.testing.assert_array_equal(B, _tangent_bases(lam, x[None])[0])


def test_tangent_basis_rejects_singular_point():
    with pytest.raises(ValidationError):
        _tangent_bases((1.0, -1.0), np.zeros((1, 2)))


def test_tangent_basis_one_dimensional():
    assert _tangent_bases((1.0,), np.ones((3, 1))).shape == (3, 0, 1)


def test_frames_are_lagrangian_with_matching_angle(rng):
    for name, prof, (lo, hi), _ in example_profiles():
        lam = prof.lambdas
        for t in rng.uniform(lo, hi, 4):
            for x in sample_quadric_points(rng, lam, 3):
                fp = centred_frame(prof, x, float(t))
                assert fp.lagrangian_residual.shape == fp.angle_residual.shape == (1,)
                assert fp.lagrangian_residual[0] < 1e-10, name
                assert fp.angle_residual[0] < 1e-9, name
                # curve direction orthogonal to the base-slice directions
                np.testing.assert_allclose(fp.metric[0, :-1, -1], 0.0,
                                           atol=1e-12, err_msg=name)
                assert np.linalg.eigvalsh(fp.metric).min() > 0, name


def test_curve_metric_closed_form(rng):
    for name, prof, (lo, hi), s_rate in example_profiles():
        for t in rng.uniform(lo, hi, 3):
            x = sample_quadric_points(rng, prof.lambdas, 1)[0]
            fp = centred_frame(prof, x, float(t))
            expected = curve_metric_coefficient(prof, x, float(t)) * s_rate(float(t)) ** 2
            assert fp.metric[0, -1, -1] == pytest.approx(expected, rel=1e-10), name


def test_position_normal_closed_form_matches_projection(rng):
    for name, prof, (lo, hi), s_rate in example_profiles():
        for t in rng.uniform(lo, hi, 3):
            x = sample_quadric_points(rng, prof.lambdas, 1)[0]
            fp = centred_frame(prof, x, float(t))
            direct = fp.normal_projection(fp.z)[0]
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


def curve_of(profile):
    """The curve the FD oracle of a profile reads: its own, or a translator's base's."""
    return profile.base.curve if profile.kind == "translator" else profile.curve


def pointwise_after_the_same_reads(make, xs, ts, grid):
    """(H, values) of the per-point oracle at each point (xs[i], ts[i]), on a
    fresh profile whose cache first took the package oracle's reads: the
    records at ts, then the stencil batch grid, which alone reaches a
    minimal base's arc cache.  The order-dependent caches then hold the same
    states, and every per-point read is a cache hit."""
    ref = make()
    for batch in (ts, grid):
        curve_of(ref)(np.asarray(batch, dtype=float))
    if isinstance(getattr(ref, "base", None), ExpanderProfile):
        s_of_y(ref.base, grid)
    out = [pointwise_fd_mean_curvature(ref, np.asarray(x), t) for x, t in zip(xs, ts)]
    return np.array([H for H, _ in out]), np.concatenate([v for _, v in out])


@pytest.mark.parametrize("name", FD_CASES)
def test_stacked_fd_oracle_matches_the_pointwise_one(name):
    """Each kind's stacked stencil reads the same immersion values, bit for
    bit, as a chart called point by point on a profile whose cache took the
    same stencil batch, and its Laplace-Beltrami agrees with the looped one
    to roundoff."""
    make, x, t = FD_CASES[name]
    H, values, grid = stacked_fd_mean_curvature(make(), [x], [t])
    H_ref, ref_values = pointwise_after_the_same_reads(make, [x], [t], grid)
    assert np.array_equal(values, ref_values)
    assert np.abs(H - H_ref).max() <= 1e-13 * (1.0 + np.linalg.norm(H_ref))


MESH_CASES = {
    "expander-n1": (FD_CASES["expander-n1"][0], centred_mesh),
    "expander-n3": (FD_CASES["expander-n3"][0], centred_mesh),
    "orbit": (FD_CASES["orbit"][0], centred_mesh),
    "translator-minimal": (lambda: TranslatorProfile.from_expander_base(0.0, (1.0, 2.0)),
                           translator_mesh),
}


@pytest.mark.parametrize("name", MESH_CASES)
def test_one_call_checks_several_points_of_a_mesh(name):
    """Five FD points of one mesh, two pairs sharing a curve parameter, in
    one call: one curve read of the sorted distinct stencil parameters, and
    per point the values and H of the per-point oracle."""
    make, build = MESH_CASES[name]
    mesh = build(make(), np.linspace(-0.9, 0.9, 4), 3)
    pick = [0, 2, 3, 7, 11]
    xs, ts = mesh.base[pick], mesh.params[pick]
    H, values, grid = stacked_fd_mean_curvature(make(), xs, ts)
    assert np.array_equal(grid, np.unique(grid)) and set(ts.tolist()) <= set(grid.tolist())
    assert len(grid) == 5 * len(set(ts.tolist()))
    H_ref, ref_values = pointwise_after_the_same_reads(make, xs, ts, grid)
    assert H.shape == H_ref.shape == (len(pick), mesh.n)
    assert np.array_equal(values, ref_values)
    assert np.all(np.abs(H - H_ref).max(axis=1) <= 1e-13 * (1.0 + np.linalg.norm(H_ref, axis=1)))


@pytest.mark.parametrize("name", FD_CASES)
def test_fd_oracle_matches_a_fresh_pointwise_one(name):
    """Without a shared cache the stencil states come from other integration
    legs, so the two oracles agree to FD roundoff, not bit for bit."""
    make, x, t = FD_CASES[name]
    H, _, _ = stacked_fd_mean_curvature(make(), [x], [t])
    H_ref, _ = pointwise_fd_mean_curvature(make(), np.array(x), t)
    assert np.abs(H[0] - H_ref).max() <= 1e-9 * (1.0 + np.linalg.norm(H_ref))


CENTRED_CASES = ("expander-n1", "expander-n2", "expander-n3", "minimal", "orbit",
                 "stationary", "shrinker")


@pytest.mark.parametrize("name", CENTRED_CASES)
def test_curve_record_rates_and_batches(name, rng):
    """Each rate of the record is the central difference of its value (s is
    s_of_y on an expander, t itself on an orbit), and a shuffled batch over
    held parameters returns exactly the rows of one-parameter reads."""
    prof = FD_CASES[name][0]()
    ts, h = np.linspace(-1.2, 1.2, 7), 1e-5
    c, up, down = prof.curve(ts), prof.curve(ts + h), prof.curve(ts - h)
    if isinstance(prof, ExpanderProfile):
        s_of = lambda rec: s_of_y(prof, rec.t)
    else:
        s_of = lambda rec: rec.t
    for rate, value in (("wdot", lambda rec: rec.w), ("theta_rate", lambda rec: rec.theta),
                        ("u_rate", lambda rec: rec.u), ("s_rate", s_of)):
        fd = (value(up) - value(down)) / (2.0 * h)
        np.testing.assert_allclose(getattr(c, rate), fd, rtol=0, atol=1e-7, err_msg=rate)
    held = rng.permutation(np.concatenate([ts, ts + h, ts - h]))
    batch = prof.curve(held)
    for k, t in enumerate(held.tolist()):
        one = prof.curve([t]).row(0)
        assert all(np.array_equal(a, b) for a, b in zip(batch.row(k), one)), t


def test_fd_matches_analytic_mean_curvature(rng):
    for name, prof, (lo, hi), _ in example_profiles():
        t = float(rng.uniform(lo + 0.3, hi - 0.3))
        x = sample_quadric_points(rng, prof.lambdas, 1)[0]
        fp = centred_frame(prof, x, t)
        H = fp.mean_curvature()[0]
        H_fd = centred_fd(prof, x, t)
        scale = max(np.linalg.norm(H), 1e-6)
        assert np.linalg.norm(H_fd - H) / scale < 1e-3, name


def test_minimal_profile_fd_mean_curvature_vanishes(rng):
    prof = ExpanderProfile(0.0, (0.8, 1.5))
    x = sample_quadric_points(rng, prof.lambdas, 1)[0]
    assert np.linalg.norm(prof.curve([0.7]).theta_rate) == 0.0
    H_fd = centred_fd(prof, x, 0.7)
    assert np.linalg.norm(H_fd) < 1e-4


def test_frame_rejects_off_quadric_point():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    with pytest.raises(ValidationError):
        centred_frame(prof, (1.0, 1.0), 0.0)        # sum x^2 = 2 != 1
    with pytest.raises(ValidationError):
        centred_frame(prof, (1.0, 0.0, 0.0), 0.0)   # wrong dimension
    c = prof.curve([0.0])
    with pytest.raises(ValidationError, match="stack"):
        geometry.centred_frame(prof, np.array([0.6, 0.8]), c)      # one point, not a stack
    with pytest.raises(ValidationError, match="stack"):
        geometry.centred_frame(prof, np.full((1, 1, 2), 0.6), c)   # a stack of stacks


def test_detectors_see_tampering():
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    x = np.array([0.6, 0.8])
    fp = centred_frame(prof, x, 0.5)
    off_angle = FramedPoint(fp.z, fp.frame, fp.gram, fp.theta + 1e-3, fp.theta_rate)
    assert off_angle.angle_residual[0] > 5e-4
    frame = fp.frame.copy()
    frame[0, 0] = frame[0, 0] + 1e-3j * frame[0, 1]     # rotate out of the Lagrangian cone
    gram = frame @ np.conj(frame.swapaxes(-1, -2))
    off_plane = FramedPoint(fp.z, frame, gram, fp.theta, fp.theta_rate)
    assert off_plane.lagrangian_residual[0] > 1e-4


def test_chart_stays_on_quadric():
    prof = compute_orbit(
        PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 3.0), 0.8)).profile()
    x0 = np.array([math.cosh(0.4), math.sinh(0.4)])
    base = _quadric_base(prof.lambdas, x0[None])
    for x in base(np.array([[[0.0], [0.05], [-0.08]]]))[0]:
        assert np.sum(np.array(prof.lambdas) * x * x) == pytest.approx(1.0, abs=1e-12)
    _, values, _ = stacked_fd_mean_curvature(prof, [x0], [0.2])
    np.testing.assert_allclose(values[0], x0 * prof.curve([0.2]).w[0], atol=1e-12)
    with pytest.raises(ValidationError, match="radial domain"):
        base(np.array([[[50.0]]]))                  # radial pullback undefined


def test_fd_step_scales_with_height():
    assert fd_step(0.0) == pytest.approx(2e-3)
    assert fd_step(3.0) == pytest.approx(4e-3)
    assert fd_step(-3.0) == fd_step(3.0)


def test_a_singular_matrix_inverts_to_nan_and_leaves_the_rest_of_its_stack():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(4, 3, 3))
    assert np.array_equal(_inv_or_nan(stack), np.linalg.inv(stack))
    stack[2, 1] = stack[2, 0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack)
    out = _inv_or_nan(stack)
    assert np.isnan(out[2]).all()
    for i in (0, 1, 3):
        assert np.array_equal(out[i], np.linalg.inv(stack[i]))
    frame = np.array([[[1.0, 0.0], [1.0, 0.0]]], dtype=complex)
    fp = FramedPoint.of(np.zeros((1, 2), dtype=complex), frame, np.zeros(1), np.ones(1))
    assert np.isnan(fp.metric_inverse()).all()
    assert np.isnan(fp.mean_curvature()).all()
