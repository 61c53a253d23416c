"""Oscillating orbit invariants, stationary solutions, periodicity detection."""

import dataclasses
import math
import random
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import brentq

from lagsol import odeint, periodic
from lagsol.cli import main
from lagsol.errors import CaseMismatch, NonConvergence, ToleranceFailure, ValidationError
from lagsol.expander import NEWTON_HALVINGS, damped_newton
from lagsol.geometry import fd_step
from lagsol.meshing import centred_mesh, flow_slice_mesh, quadric_base_points
from lagsol.params import SolitonParams
from lagsol.periodic import (HamiltonianStationaryProfile, OrbitConditioningWarning,
                             PeriodicSpec, classify_case, compute_orbit,
                             critical_point, detect_periodicity, holonomies, rebase,
                             search_periodic_data, topology_tag)
from lagsol.reduced_ode import integrate_reduced, sample_reduced
from oracles import (central_difference_jacobian, reduced_rhs, reference_dlog_G,
                     reference_log_G, stationary_spec)


def spec_of(lambdas, alphas, A, alpha=0.0, psi=None):
    return PeriodicSpec(SolitonParams(lambdas, 1.0, alpha), alphas, A, psi)


def seeded_at(alphas, A):
    """Patch the search's seed scan to start at (alphas, A) instead."""
    x0 = np.concatenate([np.log(np.asarray(alphas, dtype=float)), [math.log(A)]])
    return mock.patch("lagsol.periodic._search_seed",
                      side_effect=lambda params, residual: (x0, residual(x0)))


def test_spec_validation():
    with pytest.raises(ValidationError):
        spec_of((-1.0,), (1.0,), 0.5)                       # no positive slot
    with pytest.raises(ValidationError):
        spec_of((1.0, 1.0), (1.0, 1.0), 0.5, alpha=1.0)     # compact needs alpha < 0
    with pytest.raises(ValidationError):
        spec_of((1.0, -1.0), (1.0, -2.0), 0.5)
    with pytest.raises(ValidationError):
        spec_of((1.0, -1.0), (1.0, 2.0), 0.0)
    with pytest.raises(ValidationError, match="^alphas and psi must have length n$"):
        spec_of((1.0, -1.0), (1.0,), 0.5)
    with pytest.raises(ValidationError, match="^alphas and psi must have length n$"):
        spec_of((1.0, -1.0), (1.0, 2.0), 0.5, psi=(0.0,))


def test_critical_point_examples():
    # 1/(1+u) = 1/(3-u) at u = 1
    spec = spec_of((1.0, -1.0), (1.0, 3.0), 0.5)
    assert critical_point(spec) == pytest.approx(1.0, abs=1e-12)
    spec2 = spec_of((1.0, 1.0), (1.0, 1.0), 0.5, alpha=-2.0)
    assert critical_point(spec2) == pytest.approx(0.0, abs=1e-12)


def test_critical_point_is_a_maximum(rng, make_orbit_spec):
    for lam, alpha in (((1.0, -1.0), 0.0), ((1.0, -1.0), 1.0),
                       ((1.0, 1.0), -1.5), ((1.0, 1.0, -1.0), 0.5)):
        spec = make_orbit_spec(rng, lam, alpha)
        u_star = critical_point(spec)
        lo, hi = spec.band()
        assert lo < u_star < hi if math.isfinite(hi) else u_star > lo
        assert spec.dlog_G(u_star) == pytest.approx(0.0, abs=1e-10)
        h = 1e-5
        second = (spec.log_G(u_star + h) - 2 * spec.log_G(u_star)
                  + spec.log_G(u_star - h)) / (h * h)
        assert second < 0


def _outcome(f, u):
    """f(u) as float.hex (equal iff equal bit for bit), or the type of what it raises."""
    try:
        return float(f(u)).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("n", range(1, 6))
def test_the_generated_log_G_is_the_loop_form_bit_for_bit(n):
    # in the band, at +-0.0, on an exact zero radius at each finite band edge
    # (where log raises ValueError and dlog_G ZeroDivisionError), an ulp
    # inside and 0.5 outside it, and at +-inf and NaN
    rng = random.Random(n)
    for _ in range(4):
        m = rng.randint(1, n)
        alpha = -rng.uniform(0.2, 2.0) if m == n else rng.uniform(-2.0, 2.0)
        spec = spec_of((1.0,) * m + (-1.0,) * (n - m),
                       tuple(rng.uniform(0.3, 3.0) for _ in range(n)), 1.0, alpha)
        assert spec.log_G is spec.log_G and spec.dlog_G is spec.dlog_G   # built once per spec
        lo, hi = spec.band()
        top = hi if math.isfinite(hi) else lo + 10.0
        us = [rng.uniform(lo, top) for _ in range(20)] + [0.0, -0.0, math.inf, -math.inf,
                                                          math.nan]
        for edge, inward in ((lo, 1.0), (hi, -1.0)):
            if math.isfinite(edge):
                assert _outcome(spec.log_G, edge) == "ValueError"
                assert _outcome(spec.dlog_G, edge) == "ZeroDivisionError"
                us += [edge, math.nextafter(edge, inward * math.inf), edge - 0.5 * inward]
        for u in us:
            assert _outcome(spec.log_G, u) == _outcome(partial(reference_log_G, spec), u), u
            assert _outcome(spec.dlog_G, u) == _outcome(partial(reference_dlog_G, spec), u), u


def test_rebase_moves_critical_point_to_zero():
    spec = spec_of((1.0, -1.0), (1.0, 3.0), 0.5, alpha=0.7)
    based, shift = rebase(spec)
    assert shift == pytest.approx(critical_point(spec))
    assert critical_point(based) == pytest.approx(0.0, abs=1e-12)
    assert based.A == pytest.approx(spec.A * math.exp(-0.5 * 0.7 * shift))


def test_rebase_preserves_orbit_invariants():
    spec = spec_of((1.0, -1.0), (1.0, 3.0), 0.5, alpha=0.4)
    based, shift = rebase(spec)
    orb = compute_orbit(spec)
    orb_based = compute_orbit(based)
    assert orb.S == pytest.approx(orb_based.S, rel=1e-9)
    np.testing.assert_allclose(orb.gamma, orb_based.gamma, rtol=1e-9)
    assert orb.u1 == pytest.approx(orb_based.u1 + shift, abs=1e-9)
    assert orb.u2 == pytest.approx(orb_based.u2 + shift, abs=1e-9)


def test_classify_case_branches():
    osc = spec_of((1.0, -1.0), (1.0, 3.0), 0.5)
    assert classify_case(osc) == "oscillating"
    params = SolitonParams((1.0, -1.0), 1.0, 0.0)
    stat = stationary_spec(params, (1.0, 1.0))
    assert stat.A == pytest.approx(1.0)  # G(0) = 1 for unit radii
    assert classify_case(stat) == "hamiltonian_stationary"
    with pytest.raises(ValidationError):
        classify_case(spec_of((1.0, -1.0), (1.0, 1.0), 1.5))  # A above the ceiling


def test_stationary_profile_closed_form():
    params = SolitonParams((1.0, -1.0), 1.0, 0.0)
    spec = stationary_spec(params, (1.0, 1.0))
    prof = compute_orbit(spec).profile()
    assert isinstance(prof, HamiltonianStationaryProfile)
    for s in (0.0, 0.3, 1.7, -2.0):
        np.testing.assert_allclose(prof.phis_of(s), [-s, s], atol=1e-14)
        assert prof.theta_of(s) == pytest.approx(-math.pi / 2)
        assert prof.u_of(s) == 0.0
    # winding phases solve the phase system exactly
    y = np.array([0.0, -0.5, 0.5, -math.pi / 2])
    rhs = reduced_rhs(spec, y)
    np.testing.assert_allclose(rhs, [0.0, -1.0, 1.0, 0.0], atol=1e-14)


def test_stationary_detection_minimal_period():
    """Winding ratios (1, -1): closes after T = 2 pi / (A |rho_1|)."""
    params = SolitonParams((1.0, -1.0), 1.0, 0.0)
    spec = stationary_spec(params, (1.0, 1.0))
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit)
    assert verdict.periodic
    assert verdict.p == (-1, 1)
    assert verdict.T == pytest.approx(2.0 * math.pi / spec.A, rel=1e-12)
    prof = orbit.profile()
    np.testing.assert_allclose(prof.w_of(verdict.T), prof.w_of(0.0), atol=1e-12)


def test_stationary_detection_irrational_ratio():
    # compact case: the rebased radii stay incommensurable (a balanced pair
    # with zero drift would rebase to equal radii and always close up)
    params = SolitonParams((1.0, 1.0), 1.0, -1.0)
    spec = stationary_spec(params, (1.0, math.sqrt(2.0)))
    verdict = detect_periodicity(compute_orbit(spec))
    assert not verdict.periodic


def test_stationary_detection_denominator_beyond_qmax():
    """Ratios (1, 1/sqrt 2, -1/sqrt 3): no r <= qmax fits, so max_residual is
    the best fit over 1..qmax in radians, that of the per-r loop stepping by
    one turn of the first phase."""
    lam, alphas = (1.0, 1.0, -1.0), (1.0, math.sqrt(2.0), math.sqrt(3.0))
    alpha = -sum(l / a for l, a in zip(lam, alphas))
    spec = spec_of(lam, alphas, math.sqrt(math.prod(alphas)), alpha=alpha)
    orbit = compute_orbit(spec)
    assert orbit.case == "hamiltonian_stationary"
    verdict = detect_periodicity(orbit)
    assert not verdict.periodic and verdict.r is None
    rates = [-l * orbit.based.A / a for l, a in zip(lam, orbit.based.alphas)]
    turn = dataclasses.replace(orbit, S=2.0 * math.pi / abs(rates[0]),
                               gamma=tuple(2.0 * math.pi * w / abs(rates[0]) for w in rates))
    assert verdict == per_r_verdict(turn, 64, 64e-9)
    assert verdict.max_residual == pytest.approx(2.07e-2, rel=1e-3)


def test_turning_points_against_bisection_oracle():
    A = 0.5
    spec = spec_of((1.0, 1.0), (1.0, 1.0), A, alpha=-2.0)

    def gap(u):
        return (1.0 + u) ** 2 * math.exp(-2.0 * u) - A * A

    u1_ref = brentq(gap, -1.0 + 1e-13, 0.0, xtol=1e-14)
    u2_ref = brentq(gap, 0.0, 50.0, xtol=1e-14)
    orbit = compute_orbit(spec)
    u1, u2 = orbit.u1, orbit.u2
    assert u1 == pytest.approx(u1_ref, abs=1e-10)
    assert u2 == pytest.approx(u2_ref, abs=1e-10)
    assert u1 < 0.0 < u2


def test_turning_points_shrink_toward_stationary():
    G0 = 1.0
    widths = []
    for eps in (1e-4, 2.5e-5):
        A = math.sqrt(G0 * (1.0 - eps))
        orbit = compute_orbit(spec_of((1.0, -1.0), (1.0, 1.0), A))
        u1, u2 = orbit.u1, orbit.u2
        widths.append(u2 - u1)
    # width scales like sqrt(eps): quartering eps halves the width
    assert widths[0] / widths[1] == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("lambdas,alphas,A,alpha", [
    ((1.0, -1.0), (1.0, 2.0), 0.4, 0.5),
    ((1.0, 1.0), (1.0, 1.5), 0.5, -1.0),
    ((1.0, 1.0, -1.0), (1.0, 1.5, 2.0), 0.6, 0.7),
    ((1.0, -1.0, -1.0), (0.6, 2.5, 1.3), 0.3, -1.2),
    ((1.0, -1.0), (1.0, 3.0), 1.7, 0.6),
    ((1.0, 1.0), (0.5, 2.9), 1.1, -0.3),
], ids=["mixed", "shrinker", "n3_mixed", "n3_two_negative", "mixed_wide", "shrinker_wide"])
def test_orbit_matches_ode_round_trip(lambdas, alphas, A, alpha):
    """After k periods S the height returns and each phase advances by k
    times its holonomy; the angle advances by k times the holonomy sum."""
    spec = spec_of(lambdas, alphas, A, alpha=alpha)
    orbit = compute_orbit(spec)
    assert orbit.case == "oscillating"
    prof = orbit.profile()
    prof.prefetch([0.0, orbit.S, 3.0 * orbit.S])
    for k, tol in ((1, 1e-11), (3, 1e-10)):
        s = k * orbit.S
        dev = max(abs(prof.u_of(s) - prof.u_of(0.0)),
                  *np.abs(prof.phis_of(s) - prof.phis_of(0.0) - k * np.asarray(orbit.gamma)),
                  abs(prof.theta_of(s) - prof.theta_of(0.0) - k * orbit.gamma_sum))
        assert dev <= tol, (k, dev)


def test_holonomy_signs_follow_slot_signs():
    spec = spec_of((1.0, 1.0, -1.0), (1.0, 2.0, 3.0), 0.4, alpha=0.2)
    gam = holonomies(spec)
    assert gam[0] < 0 and gam[1] < 0 and gam[2] > 0


def test_minimal_case_holonomies_cancel():
    spec = spec_of((1.0, -1.0), (0.7, 2.3), 0.45, alpha=0.0)
    gam = holonomies(spec)
    assert abs(gam.sum()) < 1e-8


def test_angle_advance_sign_tracks_alpha():
    base = ((1.0, -1.0), (1.0, 2.0), 0.5)
    pos = compute_orbit(spec_of(*base, alpha=0.8)).gamma_sum
    neg = compute_orbit(spec_of(*base, alpha=-0.8)).gamma_sum
    assert pos > 1e-3
    assert neg < -1e-3


def test_limit_gamma_one_dimensional():
    spec = stationary_spec(SolitonParams((1.0,), 1.0, -1.0), (2.0,))
    orbit = compute_orbit(spec)
    assert orbit.case == "hamiltonian_stationary"
    np.testing.assert_allclose(orbit.gamma, [-math.sqrt(2.0) * math.pi], rtol=1e-14)


def test_limit_gamma_balanced_pair():
    orbit = compute_orbit(stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 1.0)))
    assert orbit.case == "hamiltonian_stationary"
    np.testing.assert_allclose(orbit.gamma, [-math.pi, math.pi], rtol=1e-14)
    assert orbit.S == pytest.approx(math.pi, rel=1e-14)


def test_harmonic_limits_attained():
    """Near the stationary ceiling the computed S and gamma approach the
    closed-form limits."""
    params = SolitonParams((1.0, -1.0), 1.0, 0.0)
    alphas = (1.0, 2.0)
    stat = stationary_spec(params, alphas)
    near = PeriodicSpec(params, alphas, stat.A * (1.0 - 1e-6))
    orbit = compute_orbit(near)
    limit = compute_orbit(stat)
    np.testing.assert_allclose(orbit.gamma, limit.gamma, atol=1e-2)
    assert orbit.S == pytest.approx(limit.S, abs=1e-2)


def _abresch_langer(k, f):
    """The n = 1 shrinker of radius squared k at alpha = -1/k, whose first
    integral is the fraction f of its largest value sqrt(k)."""
    return spec_of((1.0,), (k,), math.sqrt(k) * f, alpha=-1.0 / k)


def _amplitude_pairs(f_min):
    """k = 10^U[-3, 3] and fractions f1 < f2 of A_max in [f_min, 1 - 1e-6],
    at least 1e-3 apart."""
    @st.composite
    def draw_pair(draw):
        k = 10.0 ** draw(st.floats(-3.0, 3.0))
        f1 = draw(st.floats(f_min, 1.0 - 1e-6 - 1e-3))
        return k, f1, draw(st.floats(f1 + 1e-3, 1.0 - 1e-6))
    return draw_pair()


def _check_abresch_langer(k, f1, f2):
    """At n = 1 a shrinker is an Abresch-Langer curve: the angle gamma it
    turns per curvature period lies in (-sqrt(2) pi, -pi) and decreases with
    the amplitude.  The dilation by sqrt(k) keeps gamma and scales S by
    sqrt(k), and next to the stationary circle gamma and S meet the harmonic
    limits -sqrt(2) pi and sqrt(k) pi sqrt(2).  holonomies, which the
    search calls, gives the same gamma."""
    gammas = []
    for f in (f1, f2):
        spec = _abresch_langer(k, f)
        orbit, unit = compute_orbit(spec), compute_orbit(_abresch_langer(1.0, f))
        gamma = orbit.gamma[0]
        assert -math.sqrt(2.0) * math.pi < gamma < -math.pi
        assert holonomies(spec).tolist() == [gamma]
        assert gamma == pytest.approx(unit.gamma[0], rel=1e-9, abs=0.0)
        assert orbit.S == pytest.approx(math.sqrt(k) * unit.S, rel=1e-9, abs=0.0)
        gammas.append(gamma)
    assert gammas[1] < gammas[0]
    near, limit = (compute_orbit(_abresch_langer(k, f)) for f in (1.0 - 1e-6, 1.0))
    assert limit.case == "hamiltonian_stationary"
    assert limit.gamma[0] / math.pi == pytest.approx(-math.sqrt(2.0), rel=1e-14)
    assert limit.S / (math.sqrt(k) * math.pi * math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert abs(near.gamma[0] / math.pi + math.sqrt(2.0)) <= 1e-5
    assert abs(near.S / (math.sqrt(k) * math.pi * math.sqrt(2.0)) - 1.0) <= 1e-5


AL_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)


@AL_SETTINGS
@given(kf=_amplitude_pairs(1e-3))
@example(kf=(1.0, 0.2, 0.6)).via("spot checks of the interval at k = 1")
@example(kf=(1.0, 0.6, 0.95)).via("spot checks of the interval at k = 1")
def test_the_n1_shrinkers_are_abresch_langer_curves(kf):
    # down to 1e-3 of A_max; below it see the xfail that follows
    _check_abresch_langer(*kf)


@pytest.mark.xfail(strict=True, reason=(
    "orbit_quad loses the small-amplitude orbit (ROADMAP item 23): at f = 1e-6 S misses "
    "the dilation by 1.2e-4, and at k = 1, f = 2.5e-6 gamma/pi reads -0.841, outside "
    "(-sqrt(2), -1)"))
@AL_SETTINGS
@given(kf=_amplitude_pairs(1e-6))
@example(kf=(1.0, 2.5e-6, 0.5)).via("a holonomy outside the interval")
def test_the_n1_shrinkers_are_abresch_langer_curves_down_to_amplitude_1e_6(kf):
    _check_abresch_langer(*kf)


@pytest.mark.parametrize("p, q", [(3, 5), (2, 3), (7, 10)])
def test_an_abresch_langer_rotation_number_gives_a_closed_curve(tmp_path, capsys, p, q):
    # p/q in (1/2, sqrt(2)/2): the search finds the amplitude, and the curve
    # closes after q periods, turning -p times
    assert main(["periodic-search", "--lambdas=1", "--alpha=-1",
                 f"--gamma={-2.0 * math.pi * p / q!r}", f"--outdir={tmp_path}"]) == 0
    found = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines()
                 if " = " in ln)
    assert (found["periodic"], found["r"], found["p"]) == ("true", str(q), str(-p))
    assert main(["periodic", "--lambdas=1", f"--alphas={found['alphas']}",
                 f"--A={found['A']}", "--alpha=-1", "--mesh", f"--outdir={tmp_path}"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "topology = S1 x S0" in out and out[-1] == "verification: PASS"


def test_no_abresch_langer_curve_has_rotation_number_one_half(tmp_path):
    assert main(["periodic-search", "--lambdas=1", "--alpha=-1",
                 f"--gamma={-math.pi!r}", f"--outdir={tmp_path}"]) != 0


@pytest.mark.parametrize("gamma", [-2.0, -4.5, -3.14159, -math.pi, -math.sqrt(2.0) * math.pi,
                                   -2.0 * math.pi * 3 / 4, -2.0 * math.pi / 3])
def test_an_n1_target_outside_the_abresch_langer_range_exits_2(tmp_path, capsys, gamma):
    # the open interval (-sqrt(2) pi, -pi) holds every n = 1 shrinker's gamma
    # at every alpha < 0, so a target outside it is invalid, not a stalled
    # search
    assert main(["periodic-search", "--lambdas=1", "--alpha=-1", f"--gamma={gamma!r}",
                 f"--outdir={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err == (f"lagsol: gamma = {gamma!r} is outside the open interval (-sqrt(2) pi, -pi)"
                   " = (-4.442882938158366, -3.141592653589793) of the angles the n = 1"
                   " shrinkers (Abresch-Langer curves) turn per swing\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha", [-1.0, -0.3, -5.0])
def test_an_n1_target_inside_the_abresch_langer_range_is_found(tmp_path, alpha):
    assert main(["periodic-search", "--lambdas=1", f"--alpha={alpha!r}", "--gamma=-3.5",
                 f"--outdir={tmp_path}"]) == 0


def test_conditioning_warning_near_stationary():
    """compute_orbit warns once on near-stationary data; holonomies, which the
    search residual calls on every trial, leaves the warning to it."""
    params = SolitonParams((1.0, -1.0), 1.0, 0.0)
    stat = stationary_spec(params, (1.0, 1.0))
    marginal = PeriodicSpec(params, (1.0, 1.0), stat.A * (1.0 - 1e-11))
    with pytest.warns(OrbitConditioningWarning) as caught:
        compute_orbit(marginal)
    assert len(caught) == 1
    healthy = PeriodicSpec(params, (1.0, 1.0), 0.5 * stat.A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compute_orbit(healthy)
        holonomies(marginal)


def test_stationary_profile_takes_its_spec_as_handed():
    """The closed form needs rebased data: the stationary spec of radii
    (1, 2) has its critical point at u = 1/2, not 0."""
    spec = stationary_spec(SolitonParams((1.0, -1.0), 1.0, 0.0), (1.0, 2.0))
    assert classify_case(spec) == "hamiltonian_stationary"
    with pytest.raises(CaseMismatch):
        HamiltonianStationaryProfile(spec)
    based = compute_orbit(spec).based
    assert HamiltonianStationaryProfile(based).spec is based


@pytest.mark.parametrize("lambdas, alpha, alphas, psi", [
    ((1.0, -1.0), 0.0, (1.0, 1.0), None),
    ((1.0, -1.0), 0.7, (1.0, 2.0), (0.4, -0.1)),
    ((1.0, 1.0), -1.5, (1.0, 2.0), (0.2, 0.3)),
    ((1.0, 1.0, -1.0), -1.0, (1.0, 2.0, 2.0), None),
], ids=["mixed", "mixed alpha", "compact", "n3"])
def test_the_stationary_record_is_the_orbit_assembly_of_the_closed_form(
        lambdas, alpha, alphas, psi):
    """The stationary profile supplies only u = 0 and the linear phases;
    OrbitProfile.curve's assembly of the ODE's dw_j/ds then reads i omega_j
    w_j, u stays put, theta runs at alpha A and s is the parameter.  The
    phases hold omega_j s to an ulp, so the rates are compared at 1e-15
    relative per unit of |s|: the scale of u's rate is sum_j |w_j dw_j/ds|."""
    prof = compute_orbit(stationary_spec(SolitonParams(lambdas, 1.0, alpha), alphas,
                                         psi)).profile()
    assert isinstance(prof, HamiltonianStationaryProfile)
    based = prof.spec
    omega = -np.array(based.params.lambdas) * based.A / np.array(based.alphas)
    s = np.array([-3.0, -0.4, 0.0, 0.25, 1.0, 2.5, 40.0])
    c, grow = prof.curve(s), 1e-15 * (1.0 + np.abs(s))
    np.testing.assert_array_equal(c.u, 0.0)
    np.testing.assert_allclose(c.phis, np.array(based.psi) + omega * s[:, None],
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(c.theta, sum(based.psi) - math.pi / 2 + alpha * based.A * s,
                               rtol=1e-15, atol=1e-15)
    assert (np.abs(c.wdot - 1j * omega * c.w) <= grow[:, None] * np.abs(c.wdot)).all()
    assert (np.abs(c.u_rate) <= grow * np.abs(c.w * c.wdot).sum(axis=1)).all()
    np.testing.assert_array_equal(c.theta_rate, alpha * based.A)
    np.testing.assert_array_equal(c.s_rate, 1.0)


def test_a_stationary_export_integrates_no_ode(tmp_path, capsys):
    """The stationary mesh, its FD oracle and its verification read the
    closed form: odeint.integrate is never called."""
    with mock.patch.object(odeint, "integrate", side_effect=odeint.integrate) as spy:
        assert main(["periodic", "--lambdas=1,-1", "--alphas=1,1", "--A=1",
                     "--alpha=0", "--mesh", "--mesh-samples=6", "--mesh-count=5",
                     f"--outdir={tmp_path}"]) == 0
        assert main(["verify", f"--mesh={tmp_path / 'periodic_mesh.csv'}",
                     f"--record={tmp_path / 'periodic_record.txt'}"]) == 0
    assert "verification: PASS" in capsys.readouterr().out
    assert spy.call_count == 0


def test_G_structure(rng, make_orbit_spec):
    """G positive on the band, increasing left of the critical point,
    decreasing right of it, vanishing at the ends."""
    spec = make_orbit_spec(rng, (1.0, -1.0), 0.5)
    based, _ = rebase(spec)
    lo, hi = based.band()
    us = lo + (hi - lo) * np.linspace(1e-6, 1.0 - 1e-6, 201)
    logG = np.array([based.log_G(u) for u in us])
    assert np.all(np.isfinite(logG))
    left = us < 0
    assert np.all(np.diff(logG[left]) > 0)
    assert np.all(np.diff(logG[~left]) < 0)
    assert based.log_G(lo + 1e-12 * (hi - lo)) < logG.max() - 10


def test_orbit_confinement_long_time():
    spec = spec_of((1.0, -1.0), (1.0, 2.0), 0.7, alpha=0.3)
    orbit = compute_orbit(spec)
    traj = sample_reduced(spec, np.linspace(-25.0, 25.0, 201))
    assert traj.u.min() >= orbit.u1 - 1e-9
    assert traj.u.max() <= orbit.u2 + 1e-9


def test_sin_phase_gap_positive_along_orbit():
    """sin(phi - theta) keeps one sign on orbits with A > 0."""
    spec = spec_of((1.0, 1.0), (1.0, 1.4), 0.6, alpha=-1.0)
    traj = sample_reduced(spec, np.linspace(-8.0, 8.0, 81))
    d = traj.phis.sum(axis=1) - traj.theta
    assert np.all(np.sin(d) > 0)


def test_balanced_pair_is_isochronous():
    """Closed-form oracle: for lambdas (1, -1), equal base radii a and drift
    zero, the orbit integrals reduce to int du/((a +- u) sqrt(B^2 - u^2)) with
    B^2 = a^2 - A^2, whose value is pi/A.  Hence gamma = (-pi, pi) and S = pi
    for every a and A, independent of the data."""
    for a, A in ((1.0, 0.3), (2.0, 0.5), (0.7, 0.69)):
        spec = spec_of((1.0, -1.0), (a, a), A)
        np.testing.assert_allclose(holonomies(spec), [-math.pi, math.pi],
                                   atol=1e-10)
        assert compute_orbit(spec).S == pytest.approx(math.pi, abs=1e-10)


def test_holonomy_map_restricted_jacobian_full_rank(rng):
    """At generic data the holonomy map, differentiated along the tangent
    space of the critical-point constraint, is an isomorphism.  Drift zero is
    excluded: there the holonomy sum vanishes identically and the derivative
    is singular by construction."""
    for _ in range(5):
        lam = ((1.0, -1.0), (1.0, 1.0, -1.0))[int(rng.integers(0, 2))]
        n = len(lam)
        alphas = np.exp(rng.uniform(math.log(0.6), math.log(2.5), n))
        alpha = -sum(l / a for l, a in zip(lam, alphas))
        if abs(alpha) < 0.05:
            alphas[0] *= 1.3
            alpha = -sum(l / a for l, a in zip(lam, alphas))
        params = SolitonParams(lam, 1.0, alpha)
        probe = PeriodicSpec(params, tuple(alphas), 1e-8)
        A = float(rng.uniform(0.35, 0.8)) * math.exp(0.5 * probe.log_G(0.0))

        def gamma_at(alph, AA):
            return holonomies(PeriodicSpec(params, tuple(alph), AA))

        # basis of {(x, y): sum lambda_j x_j / alpha_j^2 = 0}, y the A-slot
        w = np.array([l / a ** 2 for l, a in zip(lam, alphas)])
        tan = null_space(w[None, :])
        h = 1e-5
        cols = []
        for k in range(tan.shape[1]):
            d = tan[:, k]
            cols.append((gamma_at(alphas + h * d, A)
                         - gamma_at(alphas - h * d, A)) / (2 * h))
        cols.append((gamma_at(alphas, A + h) - gamma_at(alphas, A - h)) / (2 * h))
        sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]


def test_detect_periodicity_engineered_rational():
    spec = search_periodic_data((1.0, -1.0), 0.0, (-math.pi, math.pi))
    orbit = compute_orbit(spec)
    verdict = detect_periodicity(orbit)
    assert verdict.periodic
    assert verdict.r == 2
    assert verdict.p == (-1, 1)
    assert verdict.T == pytest.approx(2.0 * orbit.S)


def stationary_of(lambdas, alpha, alphas):
    return stationary_spec(SolitonParams(lambdas, 1.0, alpha), alphas)


@pytest.mark.parametrize("make, r, p, atol", [
    (lambda: stationary_of((1.0, 1.0), -2.0, (1.0, 1.0)), 1, (-1, -1), 1e-9),
    (lambda: stationary_of((1.0, 1.0), -1.5, (1.0, 2.0)), 2, (-2, -1), 1e-9),
    (lambda: stationary_of((1.0, -1.0), 0.0, (1.0, 1.0)), 1, (-1, 1), 1e-9),
    (lambda: stationary_of((1.0, 1.0, -1.0), -1.0, (1.0, 2.0, 2.0)), 2, (-2, -1, 1), 1e-9),
    (lambda: search_periodic_data((1.0, 1.0), -2.0, (-1.2 * math.pi, -0.4 * math.pi)),
     5, (-3, -1), 1e-6),
    (lambda: search_periodic_data((1.0, -1.0), 0.0, (-math.pi, math.pi)), 2, (-1, 1), 1e-6),
], ids=["stationary (1, 1)", "stationary (1, 2)", "stationary mixed",
        "stationary n3", "oscillating r5", "oscillating mixed"])
def test_p_counts_the_turns_and_sums_to_the_maslov_index(make, r, p, atol):
    """Over T phase j turns p_j times and theta advances 2 pi sum p_j, for
    stationary and oscillating orbits alike."""
    orbit = compute_orbit(make())
    verdict = detect_periodicity(orbit)
    assert verdict.periodic and (verdict.r, verdict.p) == (r, p)
    c = orbit.profile().curve([0.0, verdict.T])
    turns = (c.phis[1] - c.phis[0]) / (2.0 * math.pi)
    np.testing.assert_allclose(turns, p, rtol=0, atol=atol)
    assert (c.theta[1] - c.theta[0]) / (2.0 * math.pi) == pytest.approx(sum(p), abs=atol)


def test_detect_periodicity_generic_data_is_quasi_periodic():
    # nonzero drift so the holonomies are not pinned at (-pi, pi)
    spec = spec_of((1.0, -1.0), (1.0, 3.0), 0.8, alpha=0.6)
    verdict = detect_periodicity(compute_orbit(spec))
    assert not verdict.periodic
    assert verdict.r is None and verdict.T is None
    assert verdict.max_residual > 1e-9 * 64     # the default tol at qmax 64


def per_r_verdict(orbit, qmax, tol):
    """The oscillating-case verdict by the plain per-r loop over 1..qmax: the
    first r whose fit is within tol, or else the best fit."""
    from lagsol.periodic import PeriodicityVerdict

    best = math.inf
    for r in range(1, qmax + 1):
        p = [round(gj / (2.0 * math.pi) * r) for gj in orbit.gamma]
        resid = max(abs(gj - 2.0 * math.pi * pj / r) for gj, pj in zip(orbit.gamma, p))
        if resid <= tol:
            return PeriodicityVerdict(True, r, tuple(p), r * orbit.S, resid)
        best = min(best, resid)
    return PeriodicityVerdict(False, None, None, None, best)


def scan_gammas():
    """Random holonomies, and rationals 2 pi p / r nudged below and above tol."""
    rng = np.random.default_rng(7)
    out = [tuple(rng.uniform(-2 * math.pi, 2 * math.pi, size=n)) for n in (2, 2, 3, 3)]
    out += [(0.0, 0.0), (math.pi, -math.pi), (0.5 * math.pi, 2.5 * math.pi)]
    for r, p, nudge in ((7, (3, -5), 0.0), (97, (41, 13, -60), 3e-9), (1625, (-880, -471), 1e-7),
                        (4095, (1, 2048), 0.0), (4097, (-3, 5), 2e-6), (65537, (9, -11), 5e-5),
                        (99991, (1, 99990), 0.0), (250000, (1, 3), 0.0)):
        out.append(tuple(2.0 * math.pi * pj / r + nudge for pj in p))
    return out


@pytest.mark.parametrize("qmax", [1, 64, 4096, 100000])
@pytest.mark.parametrize("tight", [False, True], ids=["default_tol", "tol_1e-12"])
def test_chunked_scan_matches_the_per_r_loop(qmax, tight):
    spec = spec_of((1.0, -1.0, -1.0), (1.0, 2.0, 3.0), 0.4, alpha=0.5)
    base = compute_orbit(spec)
    tol = 1e-12 if tight else 1e-9 * qmax
    # a tight tol makes most scans run to qmax; every third case keeps that quick
    for gamma in scan_gammas()[::3] if tight else scan_gammas():
        orbit = dataclasses.replace(base, gamma=gamma)
        got = detect_periodicity(orbit, qmax=qmax, tol=tol if tight else None)
        assert got == per_r_verdict(orbit, qmax, tol), gamma


def test_the_reported_denominator_is_the_least_that_fits():
    """2 pi (1/4095, 2048/4095) at qmax 4096 closes at r = 4095, but r = 4085
    already fits within the default tol 4.096e-6."""
    spec = spec_of((1.0, -1.0, -1.0), (1.0, 2.0, 3.0), 0.4, alpha=0.5)
    orbit = dataclasses.replace(compute_orbit(spec),
                                gamma=(2.0 * math.pi / 4095, 2.0 * math.pi * 2048 / 4095))
    verdict = detect_periodicity(orbit, qmax=4096)
    assert (verdict.r, verdict.p) == (4085, (1, 2043))
    assert verdict.max_residual <= 4096e-9


def fits(gamma, qmax):
    """max_j |gamma_j - 2 pi rint(r gamma_j / 2 pi) / r| for r = 1..qmax."""
    g = np.array(gamma)[:, None]
    r = np.arange(1, qmax + 1, dtype=float)
    return np.abs(g - 2.0 * math.pi * np.rint(g / (2.0 * math.pi) * r) / r).max(axis=0)


@pytest.mark.parametrize("qmax", [1, 64, 4096, 100000])
def test_the_verdict_is_the_least_denominator_within_tol(qmax):
    """Seeded property over random gammas and rationals 2 pi p / r nudged by
    0, up to tol / 2 or up to 2 tol, at the default tol and at 1e-12:
    periodic iff max_residual <= tol; then no smaller r fits, gcd(r, p) = 1
    and T = r S; otherwise max_residual is the best fit over 1..qmax."""
    rng = np.random.default_rng(qmax)
    spec = spec_of((1.0, -1.0, -1.0), (1.0, 2.0, 3.0), 0.4, alpha=0.5)
    base = compute_orbit(spec)
    for _ in range(60):
        n, tol = int(rng.integers(1, 4)), float(rng.choice([1e-9 * qmax, 1e-12]))
        if rng.random() < 0.25:
            gamma = rng.uniform(-4 * math.pi, 4 * math.pi, size=n)
        else:
            r0, nudge = int(rng.integers(1, qmax + qmax // 4 + 2)), rng.choice([0, 0.5, 2])
            gamma = (2.0 * math.pi * rng.integers(-3 * r0, 3 * r0 + 1, size=n) / r0
                     + rng.uniform(-nudge * tol, nudge * tol, size=n))
        orbit = dataclasses.replace(base, gamma=tuple(gamma.tolist()))
        verdict = detect_periodicity(orbit, qmax=qmax, tol=tol)
        fit = fits(gamma, qmax)
        assert verdict.periodic == (verdict.max_residual <= tol), gamma
        if verdict.periodic:
            r = verdict.r
            assert verdict.max_residual == fit[r - 1] and not (fit[:r - 1] <= tol).any()
            assert math.gcd(r, *verdict.p) == 1
            assert verdict.T == r * base.S
        else:
            assert verdict.max_residual == fit.min()


def test_search_recovers_reference_holonomies():
    """Target the holonomies of a known spec; the search lands on its
    gauge-fixed (rebased) representative."""
    known = spec_of((1.0, -1.0), (1.0, 3.0), 0.8, alpha=0.6)
    target = holonomies(known)
    found = search_periodic_data((1.0, -1.0), 0.6, target)
    np.testing.assert_allclose(holonomies(found), target, atol=1e-8)
    based, _ = rebase(known)
    np.testing.assert_allclose(found.alphas, based.alphas, rtol=1e-5)
    assert found.A == pytest.approx(based.A, rel=1e-5)


def reference_search(spy_jacobian):
    """The search of test_search_recovers_reference_holonomies with each
    Jacobian call made as spy_jacobian(jacobian, residual, x, r); returns
    (found spec, target)."""
    target = holonomies(spec_of((1.0, -1.0), (1.0, 3.0), 0.8, alpha=0.6))

    def newton(residual, jacobian, x, r, **kwargs):
        return damped_newton(residual, lambda x, r: spy_jacobian(jacobian, residual, x, r),
                             x, r, **kwargs)

    with mock.patch("lagsol.periodic.damped_newton", side_effect=newton):
        return search_periodic_data((1.0, -1.0), 0.6, target), target


def test_a_feasible_jacobian_takes_one_holonomy_solve_per_unknown():
    """Where every x + h e_k is feasible, a Jacobian is n + 1 holonomy solves,
    one at each forward point and none at x, whose residual it holds."""
    n, solves, calls = 2, [], []
    real = holonomies

    def spy(spec, **kwargs):
        solves.append(np.log(spec.alphas + (spec.A,)))
        return real(spec, **kwargs)

    def jacobian(jac, residual, x, r):
        start = len(solves)
        J = jac(x, r)
        calls.append((x, solves[start:]))
        return J

    with mock.patch("lagsol.periodic.holonomies", side_effect=spy):
        found, target = reference_search(jacobian)
    assert len(calls) > 1
    for x, points in calls:
        assert len(points) == n + 1
        np.testing.assert_allclose(points, x + 1e-6 * np.eye(n + 1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(holonomies(found), target, atol=1e-8)


def test_the_forward_jacobian_matches_central_differences():
    """At every iterate of the reference search each forward-difference
    column lies within 1e-4 relative (2-norm) of the central-difference one."""
    gaps = []

    def jacobian(jac, residual, x, r):
        J, ref = jac(x, r), central_difference_jacobian(residual, x)
        gaps.append(np.linalg.norm(J - ref, axis=0) / np.linalg.norm(ref, axis=0))
        return J

    found, target = reference_search(jacobian)
    assert len(gaps) > 1
    assert max(g.max() for g in gaps) <= 1e-4
    np.testing.assert_allclose(holonomies(found), target, atol=1e-8)


def test_search_jacobian_fallback_reuses_residuals():
    """A seed just below the ceiling makes the +h step in log A infeasible, so
    that Jacobian column is one-sided; it must reuse the residual it holds
    instead of computing it again."""
    alphas = (1.0, 2.0 / 3.0)   # critical point at 0 for alpha = 0.5
    ceiling = math.exp(0.5 * spec_of((1.0, -1.0), alphas, 1.0, alpha=0.5).log_G(0.0))
    target = holonomies(spec_of((1.0, -1.0), alphas, 0.6 * ceiling, alpha=0.5))
    seen = []
    real = holonomies

    def spy(spec, **kwargs):
        seen.append((spec.alphas, spec.A))
        return real(spec, **kwargs)

    with mock.patch("lagsol.periodic.holonomies", side_effect=spy), \
            seeded_at(alphas, (1.0 - 1e-7) * ceiling):
        found = search_periodic_data((1.0, -1.0), 0.5, target)
    assert len(seen) == len(set(seen)) > 0
    np.testing.assert_allclose(holonomies(found), target, atol=1e-8)


def test_search_halves_a_step_whose_quadrature_fails():
    """A ToleranceFailure at a trial point makes that trial infeasible: the
    step is halved and the search goes on."""
    known = spec_of((1.0, -1.0), (1.0, 3.0), 0.8, alpha=0.6)
    based, _ = rebase(known)
    target = holonomies(known)
    seed = (tuple(1.1 * a for a in based.alphas), 0.95 * based.A)
    n = 2
    seen = []
    real = holonomies

    def flaky(spec, **kwargs):
        seen.append(np.log(spec.alphas + (spec.A,)))
        if len(seen) == 2 + (n + 1):   # the first trial after seed and Jacobian
            raise ToleranceFailure("quadrature failed for holonomy: est. error 1e-9")
        return real(spec, **kwargs)

    with mock.patch("lagsol.periodic.holonomies", side_effect=flaky), seeded_at(*seed):
        found = search_periodic_data((1.0, -1.0), 0.6, target)
    x0, failed, halved = seen[0], seen[(n + 1) + 1], seen[(n + 1) + 2]
    np.testing.assert_allclose(halved - x0, 0.5 * (failed - x0), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(holonomies(found), target, atol=1e-8)


def test_search_residual_analyses_each_trial_once():
    """A trial is re-based once, inside holonomies: one critical_point call
    per holonomies call (a stationary trial fails there as a CaseMismatch)."""
    known = spec_of((1.0, -1.0), (1.0, 3.0), 0.8, alpha=0.6)
    based, _ = rebase(known)
    target = holonomies(known)
    seed = (tuple(1.1 * a for a in based.alphas), 0.95 * based.A)
    with mock.patch("lagsol.periodic.critical_point", wraps=critical_point) as crit, \
            mock.patch("lagsol.periodic.holonomies", wraps=holonomies) as hol, \
            seeded_at(*seed):
        found = search_periodic_data((1.0, -1.0), 0.6, target)
    assert crit.call_count == hol.call_count > 0
    np.testing.assert_allclose(holonomies(found), target, atol=1e-8)


def test_the_search_tries_every_halving_before_it_stalls():
    """Every trial after the seed and the first Jacobian fails its quadrature,
    so the search evaluates NEWTON_HALVINGS trials and stalls."""
    known = spec_of((1.0, -1.0), (1.0, 3.0), 0.8, alpha=0.6)
    based, _ = rebase(known)
    target = holonomies(known)
    seed = (tuple(1.1 * a for a in based.alphas), 0.95 * based.A)
    before_trials = 1 + 3       # the seed, then forward differences in 3 unknowns
    seen = []
    real = holonomies

    def failing(spec, **kwargs):
        seen.append(spec)
        if len(seen) > before_trials:
            raise ToleranceFailure("quadrature failed for holonomy: est. error 1e-9")
        return real(spec, **kwargs)

    with mock.patch("lagsol.periodic.holonomies", side_effect=failing), seeded_at(*seed):
        with pytest.raises(NonConvergence,
                           match=r"^periodic data search stalled \(damping exhausted\)$"):
            search_periodic_data((1.0, -1.0), 0.6, target)
    assert len(seen) == before_trials + NEWTON_HALVINGS


@pytest.mark.parametrize("alpha, alphas, side", [
    (0.5, (1.0, 2.0), "left"),
    (50.0, (1.0, 1.0), "right"),    # e^(alpha u) keeps the left root off its edge
])
def test_turning_points_that_collapse_onto_a_band_edge_raise(alpha, alphas, side):
    with pytest.raises(ValidationError,
                       match=f"^{side} turning point collapsed onto the band edge$"):
        compute_orbit(spec_of((1.0, -1.0), alphas, 1e-9, alpha=alpha))


def test_a_right_turning_point_past_1e200_raises():
    # alpha = -1/alpha_1 puts u_* at 0; at so small a rate G stays above A^2
    # up to u ~ 7.6e200, while the left root sits at radius ~1e198
    with pytest.raises(ValidationError, match="^right turning point bracket ran away$"):
        compute_orbit(spec_of((1.0,), (1e200,), 1e99, alpha=-1e-200))


def test_a_turning_point_newton_past_its_cap_raises():
    """Newton from a bracket end takes several steps here, so a cap of one
    step raises NonConvergence, which the CLI reports with exit 3."""
    with mock.patch("lagsol.periodic.TURNING_POINT_MAX_ITER", 1), \
            pytest.raises(NonConvergence,
                          match="^turning point: Newton did not settle in 1 steps$"):
        compute_orbit(spec_of((1.0, -1.0), (1.0, 2.0), 0.4, alpha=0.5))


def test_search_rejects_unnormalized_lambdas():
    with pytest.raises(ValidationError, match="positives first"):
        search_periodic_data((2.0, -1.0), 0.0, (-1.0, 1.0))


def test_search_unattainable_target_raises():
    # holonomy sums must be positive when alpha > 0; this target sums to zero
    with pytest.raises(NonConvergence):
        search_periodic_data((1.0, -1.0), 1.0, (-math.pi, math.pi), max_iter=12)


def reduction_check(base: PeriodicSpec, alpha_values, *, mirror: bool = False):
    """Add a slot with large base radius and track the surviving holonomies.

    Default path: append a lambda = -1 slot with alpha_n -> infinity,
    A = A_base sqrt(alpha_n), and alpha_1 adjusted to keep the critical
    point at u = 0.  The base slots' holonomies converge to those of the
    base spec and the new slot's to 0, at rate O(1/alpha_n).  With
    ``mirror=True`` the new slot is a lambda = +1 slot prepended with
    alpha_1 -> infinity (compensating on the base's first negative slot,
    or its first slot when all lambdas are positive).  Returns a list of
    records per alpha value.
    """
    base_based, _ = rebase(base)
    gamma_ref = holonomies(base_based)
    lam = base_based.params.lambdas
    out = []
    for an in alpha_values:
        an = float(an)
        if mirror:
            # compensate 1/an on a slot so sum(lambda_j/alpha_j) stays put
            alphas = list(base_based.alphas)
            negs = [j for j, l in enumerate(lam) if l < 0]
            j = negs[0] if negs else 0
            inv = 1.0 / alphas[j] + (1.0 / an if negs else -1.0 / an)
            alphas[j] = 1.0 / inv
            params = SolitonParams((1.0,) + lam, 1.0, base_based.params.alpha)
            spec = PeriodicSpec(params, (an,) + tuple(alphas),
                                base_based.A * math.sqrt(an))
            gam = holonomies(spec)
            gam_keep, gam_new = gam[1:], gam[0]
        else:
            if lam[0] != 1.0:
                raise ValidationError(
                    "reduction path adjusts a lambda = +1 slot; need lambda_1 = +1")
            inv_a1 = 1.0 / base_based.alphas[0] + 1.0 / an
            alphas = (1.0 / inv_a1,) + base_based.alphas[1:] + (an,)
            params = SolitonParams(lam + (-1.0,), 1.0, base_based.params.alpha)
            spec = PeriodicSpec(params, alphas, base_based.A * math.sqrt(an))
            gam = holonomies(spec)
            gam_keep, gam_new = gam[:-1], gam[-1]
        out.append({
            "alpha_n": an,
            "gamma": gam,
            "gamma_ref": gamma_ref,
            "deviation": float(max(np.abs(gam_keep - gamma_ref).max(), abs(gam_new))),
        })
    return out


def test_reduction_to_fewer_slots():
    """Appending a large-radius negative slot perturbs the surviving holonomies
    at rate 1/alpha_n; the halving is the first-order signature."""
    base = spec_of((1.0, -1.0), (1.0, 3.0), 0.8)
    recs = reduction_check(base, [1e4, 2e4])
    assert recs[0]["deviation"] < 1e-2
    assert recs[0]["deviation"] / recs[1]["deviation"] == pytest.approx(2.0, rel=1e-2)
    np.testing.assert_allclose(recs[1]["gamma"][:-1], recs[1]["gamma_ref"], atol=1e-3)
    assert abs(recs[1]["gamma"][-1]) < 1e-3


def test_reduction_mirror_direction():
    base = spec_of((1.0, -1.0), (1.0, 3.0), 0.8)
    recs = reduction_check(base, [1e4, 2e4], mirror=True)
    assert recs[0]["deviation"] < 1e-2
    assert recs[0]["deviation"] / recs[1]["deviation"] == pytest.approx(2.0, rel=1e-2)
    np.testing.assert_allclose(recs[1]["gamma"][1:], recs[1]["gamma_ref"], atol=1e-3)
    assert abs(recs[1]["gamma"][0]) < 1e-3


def test_topology_tags():
    assert topology_tag(spec_of((1.0, 1.0), (1.0, 1.0), 0.5, alpha=-1.0)) == "S1 x S1"
    assert topology_tag(spec_of((1.0, -1.0, -1.0), (1.0, 2.0, 2.0), 0.3)) \
        == "S1 x S0 x R2"


def test_brakke_family_slices():
    """The slice at t is named by topology_tag at level sign t."""
    spec = spec_of((1.0, -1.0), (1.0, 2.0), 0.5)
    assert topology_tag(spec, 1) == topology_tag(spec) == "S1 x S0 x R1"
    assert topology_tag(spec, -1) == "S1 x S0 x R1"
    assert topology_tag(spec, 0) == "cone over S1 x S0 x S0"
    spec = spec_of((1.0, -1.0, -1.0), (1.0, 2.0, 2.0), 0.3)
    assert topology_tag(spec, -1) == "S1 x S1 x R1"
    assert topology_tag(spec, 0) == "cone over S1 x S0 x S1"
    compact = spec_of((1.0, 1.0), (1.0, 1.0), 0.5, alpha=-1.0)
    prof = compute_orbit(compact).profile()
    with pytest.raises(CaseMismatch, match=r"needs mixed signs \(1 <= m < n\)"):
        flow_slice_mesh(prof, 1.0, [0.0, 0.1], 3)


@pytest.mark.parametrize("lambdas", [(1, -1), (1, -1, -1), (1, 1, -1), (1, -1, -1, -1),
                                     (1, 1, -1, -1), (1, 1, 1, -1)], ids=str)
def test_flow_slices_lie_on_their_level_sets(rng, make_orbit_spec, lambdas):
    """Every base row of the slice at t has sum lambda_j x_j^2 = t; the cone
    (t = 0) has no zero row."""
    prof = compute_orbit(make_orbit_spec(rng, lambdas, 0.5)).profile()
    lam = np.asarray(lambdas, dtype=float)
    for t in (-2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5):
        mesh = flow_slice_mesh(prof, t, [0.0, 0.1], 7, seed=3)
        base = (mesh.points / prof.curve(mesh.params).w).real
        assert base.shape == (14, lam.size)
        np.testing.assert_allclose(base ** 2 @ lam, t, rtol=0, atol=1e-12 * (1 + abs(t)))
        if t == 0:
            assert np.all(np.abs(base).max(axis=1) > 0)


@pytest.mark.parametrize("lambdas, level", [
    ((-1.0, -1.0), 1), ((-1.0, -1.0, -1.0), 0), ((-1.0,), -1),
    ((1.0, 1.0), 0), ((1.0, 1.0, 1.0), -1), ((1.0,), 0),
])
def test_empty_level_sets_raise(lambdas, level):
    with pytest.raises(ValidationError):
        quadric_base_points(lambdas, 5, level=level)


def test_orbit_profile_tracks_reduced_system():
    # the orbit's profile is gauge-fixed: it integrates from the rebased base point
    spec = spec_of((1.0, -1.0), (1.0, 3.0), 0.5, alpha=0.6)
    prof = compute_orbit(spec).profile()
    based, _ = rebase(spec)
    traj = sample_reduced(based, [0.9])
    r = np.sqrt(np.array(based.alphas) + np.array(based.params.lambdas) * traj.u[0])
    np.testing.assert_allclose(prof.w_of(0.9), r * np.exp(1j * traj.phis[0]), atol=1e-8)
    assert prof.theta_of(0.9) == pytest.approx(traj.theta[0], abs=1e-8)
    assert prof.u_of(0.9) == pytest.approx(traj.u[0], abs=1e-8)


ORBIT_CASES = pytest.mark.parametrize("lambdas,alpha", [
    ((1.0, 1.0), -1.0),
    ((1.0, -1.0), 0.5),
], ids=["case_a", "case_b"])


@ORBIT_CASES
def test_orbit_profile_resumes_agree_with_one_integration(rng, make_orbit_spec,
                                                          lambdas, alpha):
    # each query resumes from the nearest cached state; the states must match
    # one integration from the base point through all of them
    orbit = compute_orbit(make_orbit_spec(rng, lambdas, alpha))
    S, prof = orbit.S, orbit.profile()
    queries = list(np.linspace(0.0, S, 25))
    for s in queries[::4]:
        h = fd_step(prof.u_of(s))
        queries += [s + h, s - h, s + h / 2, s - h / 2]
    queries += [-0.37 * S, -S, 2.5 * S]
    w = np.array([prof.w_of(s) for s in queries])
    theta = np.array([prof.theta_of(s) for s in queries])

    ref = sample_reduced(prof.spec, queries)
    at = {float(s): i for i, s in enumerate(ref.s)}
    idx = [at[float(s)] for s in queries]
    radii = np.sqrt(np.array(ref.spec.alphas) + np.outer(ref.u, ref.spec.params.lambdas))
    w_ref = (radii * np.exp(1j * ref.phis))[idx]
    np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(theta, ref.theta[idx], rtol=1e-10, atol=1e-10)


@ORBIT_CASES
def test_orbit_mesh_costs_about_one_integration_of_its_span(rng, make_orbit_spec,
                                                            lambdas, alpha):
    orbit = compute_orbit(make_orbit_spec(rng, lambdas, alpha))
    S, prof = orbit.S, orbit.profile()
    steps = []
    integrate = odeint.integrate

    def counted(*args, **kwargs):
        res = integrate(*args, **kwargs)
        steps.append(res.n_accepted)
        return res

    with mock.patch.object(odeint, "integrate", counted):
        centred_mesh(prof, np.linspace(0.0, S, 25), 3)
        mesh_steps = sum(steps)
        steps.clear()
        integrate_reduced(prof.spec, 0.0, S)
    assert mesh_steps <= 1.2 * sum(steps)


def test_orbit_profile_rejects_non_finite_parameters():
    prof = compute_orbit(spec_of((1.0, -1.0), (1.0, 3.0), 0.5, alpha=0.6)).profile()
    for s in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            prof.w_of(s)
