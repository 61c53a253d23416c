"""Semantics of the adaptive DOP853 stepper, on toy right-hand sides, and its
generated step against the loop-form reference."""

import math
import random

import numpy as np
import pytest

from lagsol import odeint
from lagsol.errors import DomainEscape, ToleranceFailure, ValidationError
from lagsol.reduced_ode import reduced_system

from oracles import (full_initial_state, full_rhs, kernel_spec, reference_extend,
                     reference_step, state_with_first_integral)


def _no_integral(y):
    return 0.0


def _no_boundary(y):
    return False


# a system with no first integral to hold and no domain boundary to escape
FREE = {"conserved": _no_integral, "near_escape": _no_boundary}


@pytest.fixture
def loose(monkeypatch):
    """The stepper at rtol = 1e-6, atol = 1e-9 instead of odeint's pair."""
    monkeypatch.setattr(odeint, "RTOL", 1e-6)
    monkeypatch.setattr(odeint, "ATOL", 1e-9)
    return odeint.RTOL, odeint.ATOL


def test_nan_stage_rejects_and_halves_the_step():
    # the poisoned run retraces the clean one until the NaN, then retries
    # that step at half its length
    poisoned = []

    def rhs(s, y):
        if s > 0.5 and not poisoned:
            poisoned.append(s)
            return np.array([math.nan])
        return np.array([1.0])

    clean = odeint.integrate(lambda s, y: np.array([1.0]), 0.0, [0.0], 100.0, **FREE)
    res = odeint.integrate(rhs, 0.0, [0.0], 100.0, **FREE)
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


def test_violated_conserved_functional_rejects_steps(loose):
    plain = odeint.integrate(_rotation, 0.0, [1.0, 0.0], 1.0, **FREE)
    assert plain.n_rejected_drift == 0
    # |y|^2 is conserved, the 1e-3 y_1 term is not: it moves by about 1e-3 h
    (rtol, atol), factor = loose, odeint.DRIFT_FACTOR
    res = odeint.integrate(_rotation, 0.0, [1.0, 0.0], 1.0, near_escape=_no_boundary,
                           conserved=lambda y: y[0] ** 2 + y[1] ** 2 + 1e-3 * y[0])
    assert res.n_rejected_drift > 0
    assert res.n_accepted > plain.n_accepted
    assert 0.0 < res.max_drift <= factor * (atol + rtol * 1.001)
    np.testing.assert_allclose(res.y[-1], [math.cos(1.0), math.sin(1.0)], atol=1e-7)


@pytest.mark.parametrize("s0,s_end,targets", [
    (0.0, 2.0, [0.3, 1.1, 1.7]),
    (2.0, 0.0, [1.7, 1.1, 0.3]),
    (0.0, 2.0, [0.3, 2.0]),
    (2.0, 0.0, [1.7, 0.3, 0.0]),
    (0.0, 2.0, [2.0]),
], ids=["forward", "backward", "forward-to-end", "backward-to-end", "end-only"])
def test_targets_are_landed_on_exactly(s0, s_end, targets):
    # one row per target between the start and the end; the end is one row
    # when it is the last target
    res = odeint.integrate(lambda s, y: y, s0, [math.exp(s0)], s_end,
                           targets=targets, **FREE)
    assert res.s.tolist() == [s0] + targets + ([] if targets[-1] == s_end else [s_end])
    np.testing.assert_allclose(res.y[:, 0], np.exp(res.s), rtol=1e-9)


@pytest.mark.parametrize("s0,s_end,near", [
    (1.0, 2.0, [1.0, 1.0 + 5e-15]), (1.0, 0.0, [1.0, 1.0 - 5e-15]), (0.0, 2.0, [-5e-15, 0.0]),
], ids=["forward", "backward", "behind"])
def test_targets_at_or_next_to_the_start_get_the_start_state(s0, s_end, near):
    y0 = [math.exp(s0)]
    targets = [*near, 0.5 * (s0 + s_end)]
    res = odeint.integrate(lambda s, y: y, s0, y0, s_end, targets=targets, **FREE)
    assert res.s.tolist() == [s0, *targets, s_end]
    assert res.y[:3, 0].tolist() == y0 * 3
    np.testing.assert_allclose(res.y[3:, 0], np.exp(res.s[3:]), rtol=1e-9)


def test_without_targets_every_accepted_step_is_a_row(loose):
    # the Duffing run of the slope test rejects steps; each accepted one,
    # and only those, follows the start row
    res = odeint.integrate(lambda s, y: _duffing(y), 0.0, [2.0, 0.0], 3.0, **FREE)
    assert res.n_rejected_error > 0
    assert len(res.s) == len(res.y) == res.n_accepted + 1
    assert res.s[0] == 0.0 and res.s[-1] == 3.0 and np.all(np.diff(res.s) > 0)


@pytest.mark.parametrize("s_end,targets,rows", [
    (1.0, (), [1.0]), (1.0, (1.0,), [1.0, 1.0]), (1.0 + 4e-15, (), [1.0, 1.0 + 4e-15]),
    (1.0 + 4e-15, (1.0 + 2e-15, 1.0 + 4e-15), [1.0, 1.0 + 2e-15, 1.0 + 4e-15]),
])
def test_an_end_within_1e_14_of_the_start_takes_no_step(s_end, targets, rows):
    res = odeint.integrate(_rotation, 1.0, [1.0, 0.0], s_end, targets=targets, **FREE)
    assert res.n_accepted == res.n_rejected_error == 0
    assert res.s.tolist() == rows and res.y.tolist() == [[1.0, 0.0]] * len(rows)


def test_a_start_outside_the_domain_is_a_domain_escape_even_at_zero_span():
    with pytest.raises(DomainEscape):
        odeint.integrate(_wall, 0.0, [1.0], 0.0, **FREE)


def test_targets_must_follow_the_direction():
    with pytest.raises(ValueError):
        odeint.integrate(lambda s, y: y, 0.0, [1.0], 2.0, targets=[1.1, 0.3], **FREE)


@pytest.mark.parametrize("s0, s_end, targets", [
    (math.nan, 1.0, ()), (0.0, math.inf, ()), (0.0, -math.inf, ()), (0.0, math.nan, ()),
    (0.0, 1.0, (0.5, math.nan)), (0.0, 1.0, (math.inf,)),
])
def test_non_finite_bounds_and_targets_are_rejected(s0, s_end, targets):
    # an infinite or NaN end returned the start sample after no step, and a
    # NaN target was never sampled
    with pytest.raises(ValidationError):
        odeint.integrate(_rotation, s0, [1.0, 0.0], s_end, targets=targets, **FREE)


@pytest.mark.parametrize("rate", [1e200, 1e300, -1e300])
def test_a_step_control_out_of_the_float_range_is_a_tolerance_failure(rate):
    # the initial step's slope norm overflows (1e200), or it is infinite and
    # the first step underflows to 0 (1e300): an ArithmeticError before
    with pytest.raises(ToleranceFailure):
        odeint.integrate(lambda s, y: [rate * y[1], -rate * y[0]], 0.0, [1.0, 0.0], 1.0,
                         **FREE)


def _wall(s, y):
    # y' = 1 on the domain y < 1; the boundary is reached at s = 1
    return np.array([1.0]) if y[0] < 1.0 else np.array([math.nan])


def test_step_underflow_near_the_boundary_is_a_domain_escape():
    with pytest.raises(DomainEscape):
        odeint.integrate(_wall, 0.0, [0.0], 2.0, conserved=_no_integral,
                         near_escape=lambda y: y[0] > 1.0 - 1e-6)


def test_step_underflow_away_from_the_boundary_is_a_tolerance_failure():
    with pytest.raises(ToleranceFailure):
        odeint.integrate(_wall, 0.0, [0.0], 2.0, **FREE)


def _duffing(y):
    return np.array([y[1], -100.0 * y[0] * (1.0 + y[0] ** 2)])


def test_each_attempt_starts_from_the_slope_at_its_start(loose):
    # the first stage of every attempt, a retry after a rejection included,
    # is y_a + c2 h f(y_a) at the accepted state (s_a, y_a) it starts from
    c2, c3 = 0.0526001519587677318785587544488, 0.0789002279381515978178381316732
    calls = []

    def rhs(s, y):
        calls.append((s, np.array(y, dtype=float)))
        return _duffing(y)

    # amplitude 2: at amplitude 1 the 8th-order pair rejects no step
    res = odeint.integrate(rhs, 0.0, [2.0, 0.0], 3.0, **FREE)
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
    # accepted grid is the untargeted one: asking for its step ends as well
    # gives them back bit for bit
    interior = np.linspace(0.05, 1.95, 25).tolist()
    clean = odeint.integrate(lambda s, y: y, 0.0, [1.0], 2.0, **FREE)
    ends = clean.s[1:].tolist()
    assert not set(ends) & set(interior)
    targets = sorted(interior + ends)
    res = odeint.integrate(lambda s, y: y, 0.0, [1.0], 2.0, targets=targets, **FREE)
    assert res.n_accepted == clean.n_accepted and res.n_rejected_error == 0
    assert res.s.tolist() == [0.0, *targets]
    on_grid = np.isin(res.s, clean.s)
    np.testing.assert_array_equal(res.s[on_grid], clean.s)
    np.testing.assert_array_equal(res.y[on_grid], clean.y)
    np.testing.assert_allclose(res.y[~on_grid, 0], np.exp(res.s[~on_grid]), rtol=1e-9)


def _hex(v):
    """Floats, nested in lists and tuples, as float.hex strings: equal iff
    equal bit for bit, signed zeros included (NaNs compare as one)."""
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    return None if v is None else float(v).hex()


def _attempt(pair, rhs, s, hd, y, rtol=1e-10, atol=1e-12):
    """One step of the (step, extend) pair from (s, y) and its extension
    stages, with every right-hand side call logged: all as float.hex."""
    step, extend = pair
    calls = []

    def logged(t, z):
        k = rhs(t, z)
        calls.append((t, list(z), list(k)))
        return k

    out = step(logged, s, hd, s + hd, y, logged(s, y), rtol, atol)
    cols = None if out is None else extend(logged, s, hd, y, out[0], out[3])
    return _hex([calls, out, cols])


def _random_rhs(rng, d):
    """A smooth nonlinear right-hand side on d components."""
    M = [[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(d)]
    c = [rng.uniform(-3.0, 3.0) for _ in range(d)]
    return lambda s, y: [ci * math.sin(s + sum(a * v for a, v in zip(row, y)))
                         for ci, row in zip(c, M)]


def _orbit(rng, n):
    """A reduced system at n phases on any sign pattern, and its state at
    s = 0 with a first integral of either sign."""
    lambdas = tuple(sorted((rng.choice((1.0, -1.0)) for _ in range(n)), reverse=True))
    alphas = tuple(rng.uniform(0.3, 3.0) for _ in range(n))
    A = rng.uniform(-0.9, 0.9) * math.sqrt(math.prod(alphas))
    spec = kernel_spec(lambdas, alphas, rng.uniform(-2.0, 2.0))
    return spec, state_with_first_integral(alphas, A, [rng.uniform(-3.0, 3.0) for _ in range(n)])


def _cases():
    """(id, rhs, s, hd, y): random systems at d = 1..9, the reduced system at
    n = 1..5 (d = 3..7), the full w-system at n = 1..4 (d = 3, 5, 7, 9),
    and signed zeros throughout at d = 1..9."""
    rng = random.Random(20080121)
    for d in range(1, 10):
        yield (f"random-d{d}", _random_rhs(rng, d), rng.uniform(-5.0, 5.0),
               rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.5),
               [rng.uniform(-2.0, 2.0) for _ in range(d)])
    for n in range(1, 6):
        spec, y0 = _orbit(rng, n)
        yield f"reduced-n{n}", reduced_system(spec)[0], 0.0, rng.uniform(0.02, 0.1), y0
    for n in range(1, 5):
        spec, y0 = _orbit(rng, n)
        yield (f"full-n{n}", full_rhs(spec), 0.0, -rng.uniform(0.02, 0.1),
               full_initial_state(spec.alphas, y0).tolist())
    for d in range(1, 10):
        # 0.0 + a k = 0.0 at k = -0.0 and y + 0.0 = 0.0 at y = -0.0: a
        # step that drops the leading 0.0 keeps -0.0 where the loop does not
        yield (f"zeros-d{d}", lambda s, y: [-0.0] * len(y), 0.0, 0.25, [-0.0] * d)


CASES = list(_cases())


@pytest.mark.parametrize("rhs,s,hd,y", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_the_generated_step_is_the_loop_step_bit_for_bit(rhs, s, hd, y):
    # every stage state and slope, y_new, f_new, the error norm, the kept
    # stages, the extension stages and the interpolant's coefficients
    got = _attempt(odeint._stepper(len(y)), rhs, s, hd, y)
    assert got == _attempt((reference_step, reference_extend), rhs, s, hd, y)
    assert got[1] is not None and got[2] is not None


@pytest.mark.parametrize("d", [1, 4, 9])
@pytest.mark.parametrize("stage", range(1, 16))
def test_a_nan_at_any_stage_stops_both_steps_there(d, stage):
    # the call after the initial slope that returns NaN is the stage'th
    # stage: 1-11, the FSAL stage 12, or an extension stage 13-15
    base = _random_rhs(random.Random(d), d)
    y = [0.1 * (m + 1) for m in range(d)]

    def run(pair):
        calls = []

        def rhs(s, z):
            calls.append(None)
            k = base(s, z)
            if len(calls) == stage + 1:
                k[stage % d] = math.nan
            return k

        return _attempt(pair, rhs, 0.0, 0.1, y), len(calls)

    got, n_calls = run(odeint._stepper(d))
    assert (got, n_calls) == run((reference_step, reference_extend))
    assert n_calls == stage + 1
    assert (got[1] is None) == (stage <= 12) and got[2] is None


def test_integration_on_the_loop_step_reproduces_the_generated_run(monkeypatch):
    # a long reduced orbit with interior targets, rejected steps included,
    # read through integrate on each stepper
    spec, y0 = _orbit(random.Random(3), 3)
    rhs, conserved, near = reduced_system(spec)[:3]

    def run():
        res = odeint.integrate(rhs, 0.0, y0, 12.0, conserved=conserved, near_escape=near,
                               targets=np.linspace(0.1, 11.9, 37))
        return res.n_accepted, res.n_rejected_error, _hex(res.s.tolist()), _hex(res.y.tolist())

    got = run()
    monkeypatch.setattr(odeint, "_stepper", lambda d: (reference_step, reference_extend))
    assert run() == got
    assert got[0] > 50 and len(got[2]) == 39
