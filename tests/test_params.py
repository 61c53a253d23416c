"""Normalization of soliton data and the exact scaling record."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagsol.errors import ValidationError
from lagsol.params import ScalingRecord, SolitonParams, normalize, rescale_solution


def test_validation_rejects_degenerate_data():
    with pytest.raises(ValidationError):
        SolitonParams((), 1.0, 0.0)
    with pytest.raises(ValidationError):
        SolitonParams((1.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValidationError):
        SolitonParams((1.0,), 0.0, 1.0)


def test_is_normalized_flag():
    assert SolitonParams((1.0, 1.0, -1.0), 1.0, 0.5).is_normalized
    assert not SolitonParams((1.0, -1.0, 1.0), 1.0, 0.5).is_normalized  # order
    assert not SolitonParams((1.0, -1.0), 2.0, 0.5).is_normalized       # C
    assert not SolitonParams((2.0, -1.0), 1.0, 0.5).is_normalized       # magnitude


def test_normalize_mixed_signs():
    params = SolitonParams((2.0, -3.0), 4.0, 1.0)
    norm, rec = normalize(params)
    assert norm.lambdas == (1.0, -1.0)
    assert norm.C == 1.0
    assert norm.alpha == pytest.approx(0.25, abs=0)
    assert rec.alpha_to_normalized(params.alpha) == pytest.approx(norm.alpha)


def test_normalize_identity_on_normalized_data():
    params = SolitonParams((1.0, 1.0, -1.0), 1.0, -2.0)
    norm, rec = normalize(params)
    assert norm == params
    assert rec == ScalingRecord.identity(3)


def test_normalize_negative_C_flips_lambda_sign():
    params = SolitonParams((-5.0,), -2.0, 2.0)
    norm, rec = normalize(params)
    assert norm.lambdas == (1.0,)
    assert norm.C == 1.0
    assert norm.alpha == pytest.approx(-1.0, abs=0)
    # s and u run backwards when C < 0
    assert rec.s_factor < 0
    assert rec.u_factor == -2.0


def test_normalize_positive_block_first():
    params = SolitonParams((-1.5, 2.0, -0.5, 3.0), 1.0, 0.0)
    norm, rec = normalize(params)
    assert norm.lambdas == (1.0, 1.0, -1.0, -1.0)
    # stable sort keeps relative order inside each block
    assert rec.perm == (1, 3, 0, 2)


def test_record_maps_preserve_quadric_membership(rng):
    """sum lambda~ x~^2 = (1/C) sum lambda x^2, exactly the C~ = 1 statement."""
    for _ in range(10):
        lam = tuple(rng.uniform(-3, 3) for _ in range(3))
        if any(abs(l) < 0.1 for l in lam):
            continue
        C = float(rng.choice([-1, 1]) * rng.uniform(0.5, 4.0))
        params = SolitonParams(lam, C, 0.7)
        _, rec = normalize(params)
        x = rng.normal(size=3)
        xt = rec.x_to_normalized(x)
        norm, _ = normalize(params)
        lhs = float(np.sum(np.array(norm.lambdas) * xt * xt))
        rhs = float(np.sum(np.array(lam) * x * x)) / C
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_record_maps_preserve_radius_relation(rng):
    """alpha~_i + lambda~_i u~ = w-factor^2 (alpha_p + lambda_p u)."""
    lam = (2.0, -3.0)
    params = SolitonParams(lam, 4.0, 1.0)
    norm, rec = normalize(params)
    alphas = np.array([1.3, 2.1])
    for u in rng.uniform(-0.3, 0.3, size=8):
        at = rec.alphas_to_normalized(alphas)
        ut = float(rec.u_to_normalized(u))
        r2_norm = at + np.array(norm.lambdas) * ut
        r2_orig = (alphas + np.array(lam) * u)[list(rec.perm)]
        expect = r2_orig * np.array(rec.w_factors) ** 2
        np.testing.assert_allclose(r2_norm, expect, rtol=1e-13)


def test_round_trips_recover_inputs(rng):
    params = SolitonParams((2.0, -3.0, 0.7), -1.5, 0.9)
    _, rec = normalize(params)
    s = rng.normal(size=5)
    u = rng.normal(size=5)
    ws = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    x = rng.normal(size=(5, 3))
    phis = rng.normal(size=(5, 3))
    np.testing.assert_allclose(rec.s_from_normalized(rec.s_to_normalized(s)), s, rtol=1e-12)
    np.testing.assert_allclose(rec.u_from_normalized(rec.u_to_normalized(u)), u, rtol=1e-12)
    np.testing.assert_allclose(rec.ws_from_normalized(rec.ws_to_normalized(ws)), ws, rtol=1e-12)
    np.testing.assert_allclose(rec.x_from_normalized(rec.x_to_normalized(x)), x, rtol=1e-12)
    np.testing.assert_allclose(rec.phis_from_normalized(rec.phis_to_normalized(phis)),
                               phis, rtol=1e-12)
    assert rec.A_from_normalized(rec.A_to_normalized(0.37)) == pytest.approx(0.37, rel=1e-15)
    assert rec.alpha_from_normalized(rec.alpha_to_normalized(-1.1)) == pytest.approx(
        -1.1, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
    C=st.floats(0.2, 3.0),
    csign=st.sampled_from([-1.0, 1.0]),
)
def test_normalize_idempotent(lam, signs, C, csign):
    lam = tuple(l * s for l, s in zip(lam, signs))
    params = SolitonParams(lam, csign * C, 0.4)
    norm, _ = normalize(params)
    assert norm.is_normalized
    again, rec2 = normalize(norm)
    assert again == norm
    assert rec2 == ScalingRecord.identity(norm.n)


def test_rescale_unit_dilation_is_identity():
    rec = normalize(SolitonParams((2.0, -3.0), 4.0, 1.0))[1]
    assert rescale_solution(rec, 1.0) == rec


def test_rescale_dilation_factors():
    """t = 2 on two normalized slots: alpha -> alpha/4, A x4, s untouched."""
    rec = ScalingRecord.identity(2)
    out = rescale_solution(rec, 2.0)
    assert out.alpha_factor == pytest.approx(0.25)
    assert out.A_factor == pytest.approx(4.0)
    assert out.s_factor == pytest.approx(1.0)   # t^{n-2} with n = 2
    assert out.u_factor == pytest.approx(4.0)
    assert out.w_factors == (2.0, 2.0)
    assert out.aj_factors == (4.0, 4.0)
    # A = 0.5 on the original side lands at 2.0
    assert out.A_to_normalized(0.5) == pytest.approx(2.0)


def test_rescale_composes_to_identity():
    rec = normalize(SolitonParams((2.0, -3.0, 0.5), -2.0, 0.3))[1]
    out = rescale_solution(rescale_solution(rec, 2.0), 0.5)
    np.testing.assert_allclose(out.s_factor, rec.s_factor, rtol=1e-15)
    np.testing.assert_allclose(out.w_factors, rec.w_factors, rtol=1e-15)
    np.testing.assert_allclose(out.aj_factors, rec.aj_factors, rtol=1e-15)
    assert out.A_factor == pytest.approx(rec.A_factor, rel=1e-15)
    assert out.alpha_factor == pytest.approx(rec.alpha_factor, rel=1e-15)


def test_rescale_rejects_nonpositive_t():
    rec = ScalingRecord.identity(2)
    with pytest.raises(ValidationError):
        rescale_solution(rec, 0.0)
    with pytest.raises(ValidationError):
        rescale_solution(rec, -2.0)
