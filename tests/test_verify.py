"""The mesh verifier fails closed on non-finite residuals."""

import dataclasses
import math

import numpy as np

from lagsol import (ExpanderProfile, OrbitProfile, PeriodicSpec, SolitonParams,
                    TranslatorProfile, centred_mesh, translator_mesh, verify_mesh)


def _with_nan_point(mesh, i):
    points = mesh.points.copy()
    points[i, 0] = complex(math.nan, points[i, 0].imag)
    return dataclasses.replace(mesh, points=points)


def test_centred_mesh_with_a_nan_point_fails():
    spec = PeriodicSpec(SolitonParams((1.0, -1.0), 1.0, 0.6), (1.0, 3.0), 0.5)
    for prof in (ExpanderProfile(1.0, (1.0, 2.0)), OrbitProfile(spec)):
        mesh = centred_mesh(prof, np.linspace(0.0, 1.0, 4), 3)
        assert verify_mesh(prof, mesh).passed
        report = verify_mesh(prof, _with_nan_point(mesh, 5))
        assert not report.passed
        assert math.isnan(report.maxima["reconstruction"])
        assert "reconstruction residual nan exceeds" in report.failures[0]
        assert "at point 5" in report.failures[0]


def test_translator_mesh_with_a_nan_point_fails():
    prof = TranslatorProfile.from_expander_base(1.2, (1.0, 2.0))
    mesh = translator_mesh(prof, np.linspace(-0.5, 0.5, 3), 3)
    assert verify_mesh(prof, mesh).passed
    report = verify_mesh(prof, _with_nan_point(mesh, 4))
    assert not report.passed
    assert any("at point 4" in f for f in report.failures)


def test_a_nan_residual_stays_the_worst():
    # later finite residuals, however large, do not displace the first NaN
    prof = ExpanderProfile(1.0, (1.0, 2.0))
    mesh = centred_mesh(prof, np.linspace(0.0, 1.0, 4), 3)
    bad = _with_nan_point(_with_nan_point(mesh, 2), 7)
    points = bad.points.copy()
    points[9] *= 1.5
    report = verify_mesh(prof, dataclasses.replace(bad, points=points))
    failure = next(f for f in report.failures if f.startswith("reconstruction"))
    assert "nan" in failure and "at point 2" in failure
