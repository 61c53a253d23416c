"""Semantics of the adaptive DOP853 stepper, on toy right-hand sides."""

import math

import numpy as np
import pytest

from lagsol import odeint
from lagsol.errors import DomainEscape, ToleranceFailure


def test_nan_stage_rejects_and_halves_the_step():
    # the poisoned run retraces the clean one until the NaN, then retries
    # that step at half its length
    poisoned = []

    def rhs(s, y):
        if s > 0.5 and not poisoned:
            poisoned.append(s)
            return np.array([math.nan])
        return np.array([1.0])

    clean = odeint.integrate(lambda s, y: np.array([1.0]), 0.0, [0.0], 100.0)
    res = odeint.integrate(rhs, 0.0, [0.0], 100.0)
    assert poisoned and res.n_rejected_error == 1 and res.n_rejected_drift == 0
    assert clean.n_rejected_error == 0
    k = int(np.searchsorted(clean.s, poisoned[0])) - 1   # the attempt from s[k]
    np.testing.assert_array_equal(res.s[:k + 1], clean.s[:k + 1])
    assert res.s[k + 1] - res.s[k] == pytest.approx(0.5 * (clean.s[k + 1] - clean.s[k]),
                                                    rel=1e-12)
    assert res.s[-1] == 100.0
    np.testing.assert_allclose(res.y[:, 0], res.s, rtol=1e-12, atol=1e-12)


def _rotation(s, y):
    return np.array([-y[1], y[0]])


def test_violated_conserved_functional_rejects_steps():
    plain = odeint.integrate(_rotation, 0.0, [1.0, 0.0], 1.0, rtol=1e-6, atol=1e-9)
    assert plain.n_rejected_drift == 0
    # |y|^2 is conserved, the 1e-3 y_1 term is not: it moves by about 1e-3 h
    rtol, atol, factor = 1e-6, 1e-9, odeint.DRIFT_FACTOR
    res = odeint.integrate(_rotation, 0.0, [1.0, 0.0], 1.0, rtol=rtol, atol=atol,
                           conserved=lambda y: y[0] ** 2 + y[1] ** 2 + 1e-3 * y[0])
    assert res.n_rejected_drift > 0
    assert res.n_accepted > plain.n_accepted
    assert 0.0 < res.max_drift <= factor * (atol + rtol * 1.001)
    np.testing.assert_allclose(res.y[-1], [math.cos(1.0), math.sin(1.0)], atol=1e-7)


@pytest.mark.parametrize("s0,s_end,targets", [
    (0.0, 2.0, [0.3, 1.1, 1.7]),
    (2.0, 0.0, [1.7, 1.1, 0.3]),
], ids=["forward", "backward"])
def test_targets_are_landed_on_exactly(s0, s_end, targets):
    res = odeint.integrate(lambda s, y: y, s0, [math.exp(s0)], s_end,
                           targets=targets, dense=False)
    assert res.s.tolist() == [s0] + targets + [s_end]
    np.testing.assert_allclose(res.y[:, 0], np.exp(res.s), rtol=1e-9)


def test_targets_must_follow_the_direction():
    with pytest.raises(ValueError):
        odeint.integrate(lambda s, y: y, 0.0, [1.0], 2.0, targets=[1.1, 0.3])


def _wall(s, y):
    # y' = 1 on the domain y < 1; the boundary is reached at s = 1
    return np.array([1.0]) if y[0] < 1.0 else np.array([math.nan])


def test_step_underflow_near_the_boundary_is_a_domain_escape():
    with pytest.raises(DomainEscape):
        odeint.integrate(_wall, 0.0, [0.0], 2.0, near_escape=lambda y: y[0] > 1.0 - 1e-6)


def test_step_underflow_away_from_the_boundary_is_a_tolerance_failure():
    with pytest.raises(ToleranceFailure):
        odeint.integrate(_wall, 0.0, [0.0], 2.0)
    with pytest.raises(ToleranceFailure):
        odeint.integrate(_wall, 0.0, [0.0], 2.0, near_escape=lambda y: False)


def _duffing(y):
    return np.array([y[1], -100.0 * y[0] * (1.0 + y[0] ** 2)])


def test_each_attempt_starts_from_the_slope_at_its_start():
    # the first stage of every attempt, a retry after a rejection included,
    # is y_a + c2 h f(y_a) at the accepted state (s_a, y_a) it starts from
    c2, c3 = 0.0526001519587677318785587544488, 0.0789002279381515978178381316732
    calls = []

    def rhs(s, y):
        calls.append((s, np.array(y, dtype=float)))
        return _duffing(y)

    # amplitude 2: at amplitude 1 the 8th-order pair rejects no step
    res = odeint.integrate(rhs, 0.0, [2.0, 0.0], 3.0, rtol=1e-6, atol=1e-9)
    assert res.n_rejected_error > 0
    # the initial slope and the initial-step probe, then 12 calls per attempt
    attempts = calls[2:]
    assert len(attempts) == 12 * (res.n_accepted + res.n_rejected_error)
    for k in range(0, len(attempts), 12):
        (s1, y1), (s2, _) = attempts[k], attempts[k + 1]
        h = (s2 - s1) / (c3 - c2)       # stages 1, 2 sit at s_a + c2 h, s_a + c3 h
        i = int(np.argmin(np.abs(res.s - (s1 - c2 * h))))
        np.testing.assert_allclose((y1 - res.y[i]) / (c2 * h), _duffing(res.y[i]),
                                   rtol=1e-6, atol=1e-6)


def test_interior_targets_leave_the_steps_unchanged():
    # targets inside a step are read from the continuous extension, so the
    # accepted grid is the untargeted one and only the samples are added
    targets = np.linspace(0.05, 1.95, 25).tolist()
    clean = odeint.integrate(lambda s, y: y, 0.0, [1.0], 2.0)
    res = odeint.integrate(lambda s, y: y, 0.0, [1.0], 2.0, targets=targets)
    assert res.n_accepted == clean.n_accepted and res.n_rejected_error == 0
    on_grid = ~np.isin(res.s, targets)
    np.testing.assert_array_equal(res.s[on_grid], clean.s)
    np.testing.assert_array_equal(res.y[on_grid], clean.y)
    assert sorted(res.s[~on_grid].tolist()) == targets
    np.testing.assert_allclose(res.y[~on_grid, 0], np.exp(res.s[~on_grid]), rtol=1e-9)
