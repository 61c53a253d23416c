"""Translating solitons over centred bases: anchors, identities, residuals."""

import math
from unittest import mock

import numpy as np
import pytest

from lagsol import expander
from lagsol.errors import ValidationError
from lagsol.meshing import translator_mesh
from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec
from lagsol.translator import TranslatorProfile, translator_fd_mean_curvature
from oracles import stacked_fd_mean_curvature, stationary_spec


def at(prof: TranslatorProfile, t: float):
    """The row of the base's curve record at curve parameter t."""
    return prof.base.curve([t]).row(0)


def immersion(prof: TranslatorProfile, x, t: float):
    """z at base point x and curve parameter t."""
    return prof.immersion(x, at(prof, t))


def frame(prof: TranslatorProfile, x, t: float):
    """The frame at base point x and curve parameter t."""
    return prof.frame_at(x, at(prof, t))


def maslov_invariant(prof: TranslatorProfile, x, t: float) -> float:
    """theta + alpha Im z_n; equals maslov_constant everywhere."""
    z = immersion(prof, x, t)
    return float(at(prof, t).theta + prof.alpha * z[-1].imag)


def soliton_residual(prof: TranslatorProfile, x, t: float) -> float:
    """| T_perp - H | at one point."""
    fp = frame(prof, x, t)
    Tp = fp.normal_projection(prof.translation_vector())
    return float(np.linalg.norm(Tp - fp.mean_curvature()))


import functools


@functools.lru_cache(maxsize=None)
def orbit_translator(K=None):
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.7), (1.0, 3.0), 0.5)
    return TranslatorProfile.from_orbit_base(spec, K=K)


def test_last_coordinate_anchor():
    """At the base origin and curve origin the last coordinate is -i pi/(2 alpha)."""
    for alpha in (2.0, 0.5):
        prof = TranslatorProfile.from_expander_base(alpha, (1.0, 1.5))
        z = immersion(prof, np.zeros(2), 0.0)
        np.testing.assert_allclose(z[:-1], 0.0, atol=1e-14)
        assert abs(z[-1] - (-1j * math.pi / (2.0 * alpha))) < 1e-10


def test_beta_rate_closed_form(rng):
    """d beta/dt = e^{i theta} conj(prod w) ds/dt, for both base kinds."""
    exp_prof = TranslatorProfile.from_expander_base(1.2, (1.0, 2.0))
    orb_prof = orbit_translator()
    for prof, ts in ((exp_prof, rng.uniform(-2.0, 2.0, 5)),
                     (orb_prof, rng.uniform(-3.0, 3.0, 5))):
        for t in ts:
            c = at(prof, float(t))
            expect = np.exp(1j * c.theta) * np.conj(np.prod(c.w)) * c.s_rate
            assert abs(prof.beta_rate(c) - expect) < 1e-9


def test_beta_rate_matches_finite_difference():
    prof = orbit_translator()
    h = 1e-5
    for t in (0.0, 0.8, -1.3):
        fd = (prof.beta(at(prof, t + h)) - prof.beta(at(prof, t - h))) / (2.0 * h)
        assert abs(prof.beta_rate(at(prof, t)) - fd) < 1e-7


def test_im_beta_strictly_monotone():
    ts = np.linspace(-4.0, 4.0, 161)
    prof = orbit_translator()
    c = prof.base.curve(ts)
    falling = np.array([prof.beta(c.row(k)).imag for k in range(len(ts))])
    assert np.all(np.diff(falling) < 0)     # base first integral A > 0
    rising_prof = TranslatorProfile.from_expander_base(1.2, (1.0, 2.0))
    c = rising_prof.base.curve(ts)
    rising = np.array([rising_prof.beta(c.row(k)).imag for k in range(len(ts))])
    assert np.all(np.diff(rising) > 0)      # expander base has A < 0


def test_maslov_invariant_constant(rng):
    K = 0.3 + 0.7j
    for prof in (TranslatorProfile.from_expander_base(1.5, (1.0, 2.0), K=K),
                 orbit_translator(K=K)):
        expect = prof.alpha * K.imag
        for _ in range(6):
            x = rng.normal(size=prof.n - 1)
            t = float(rng.uniform(-2.0, 2.0))
            assert maslov_invariant(prof, x, t) == pytest.approx(expect, abs=1e-8)


def test_translation_identity():
    """Shifting K by tau alpha moves the image by tau times the translation
    vector; the soliton slides along its own direction."""
    alpha, a = 1.5, (1.0, 2.0)
    tau = 0.37
    prof0 = TranslatorProfile.from_expander_base(alpha, a)
    prof1 = TranslatorProfile.from_expander_base(alpha, a, K=tau * alpha)
    T = prof0.translation_vector()
    np.testing.assert_allclose(T, [0.0, 0.0, alpha], atol=0)
    x = np.array([0.4, -1.1])
    for t in (0.0, 0.9, -0.6):
        np.testing.assert_allclose(immersion(prof1, x, t),
                                   immersion(prof0, x, t) + tau * T, atol=1e-12)


def test_frames_lagrangian_with_matching_angle(rng):
    for prof in (TranslatorProfile.from_expander_base(1.2, (1.0, 2.0)),
                 orbit_translator()):
        for _ in range(5):
            x = rng.normal(size=prof.n - 1) * 1.2
            t = float(rng.uniform(-2.0, 2.0))
            fp = frame(prof, x, t)
            assert fp.lagrangian_residual < 1e-10
            assert fp.angle_residual < 1e-9
            assert np.linalg.eigvalsh(fp.metric).min() > 0


def test_soliton_residual_small(rng):
    """T_perp = H analytically on the constructed translators."""
    for prof in (TranslatorProfile.from_expander_base(1.2, (1.0, 2.0)),
                 orbit_translator()):
        for _ in range(4):
            x = rng.normal(size=prof.n - 1)
            t = float(rng.uniform(-1.5, 1.5))
            assert soliton_residual(prof, x, t) < 1e-8


def test_fd_mean_curvature_matches_translation_part():
    prof = orbit_translator()
    x = np.array([0.7, -0.3])
    t = 0.4
    fp = frame(prof, x, t)
    Tp = fp.normal_projection(prof.translation_vector())
    H_fd = translator_fd_mean_curvature(prof, [x], prof.base.curve([t]))[0]
    assert np.linalg.norm(H_fd - Tp) / np.linalg.norm(H_fd) < 1e-3


def test_u_rate_matches_finite_difference():
    prof = orbit_translator()
    h = 1e-5
    for t in (0.2, -0.9):
        fd = (at(prof, t + h).u - at(prof, t - h).u) / (2.0 * h)
        assert at(prof, t).u_rate == pytest.approx(fd, abs=1e-7)


def test_oscillates_flag():
    assert orbit_translator().oscillates
    assert not TranslatorProfile.from_expander_base(1.0, (1.0, 1.0)).oscillates
    stat = stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 1.0))
    assert not TranslatorProfile.from_orbit_base(stat).oscillates


def test_stationary_base_beta_is_linear():
    # alpha = 0 base: Im beta falls at exactly the first-integral rate
    stat = stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 1.0))
    prof = TranslatorProfile.from_orbit_base(stat, K=1.0 + 2.0j)
    for t in (0.0, 0.5, -1.7):
        b = prof.beta(at(prof, t))
        assert b.real == pytest.approx(1.0, abs=1e-12)
        assert b.imag == pytest.approx(2.0 - stat.A * t, abs=1e-12)


def test_base_validation():
    prof = orbit_translator()
    with pytest.raises(ValidationError):
        TranslatorProfile(prof)                     # translator is not a centred base
    with pytest.raises(ValidationError):
        immersion(prof, np.zeros(prof.n), 0.0)      # base point has n - 1 coords


def test_translator_mesh_reads_each_curve_sample_once():
    """The mesh reads the base curve once, over all its heights (one profile
    evaluation), and its rows equal the per-point immersion exactly."""
    prof = TranslatorProfile.from_expander_base(1.2, (1.0, 2.0))
    with mock.patch("lagsol.expander.profile_eval", wraps=expander.profile_eval) as ev:
        mesh = translator_mesh(prof, np.linspace(-1.2, 1.2, 30), 20)
    assert ev.call_count == 1
    rows = [immersion(prof, x, t) for x, t in zip(mesh.base, mesh.params)]
    assert np.array_equal(mesh.points, np.array(rows))


def test_chart_center_matches_immersion():
    prof = orbit_translator()
    x0 = np.array([0.5, -0.2])
    _, values, _ = stacked_fd_mean_curvature(prof, [x0], [0.3])
    np.testing.assert_allclose(values[0], immersion(prof, x0, 0.3), atol=1e-14)
