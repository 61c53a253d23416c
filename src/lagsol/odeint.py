"""Adaptive embedded Runge-Kutta integration with conservation monitoring.

The stepper is the classic Dormand-Prince 5(4) pair (FSAL, 7 stages) with a
PI step-size controller.  Beyond the embedded error estimate, a step is also
rejected when a user-supplied conserved functional drifts by more than
``drift_factor`` times the local tolerance across the step; the soliton ODEs
carry an exact first integral, and enforcing it at step granularity is what
keeps long trajectories honest.

Out-of-domain states are handled by NaN propagation: the right-hand side
returns NaN outside the admissible band, the error norm becomes NaN, and the
step is rejected and halved.  Because of the FSAL evaluation at the step
endpoint, every accepted state has a finite right-hand side, hence lies
strictly inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, ToleranceFailure

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# error weights including the FSAL stage
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_ORDER_EXP = 0.2  # 1/5, local error is O(h^5)
_PI_ALPHA = 0.7 / 5
_PI_BETA = 0.4 / 5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass
class OdeResult:
    """Accepted samples of one integration run, in step order."""

    s: np.ndarray
    y: np.ndarray
    n_accepted: int = 0
    n_rejected_error: int = 0
    n_rejected_drift: int = 0
    max_drift: float = 0.0

    def __len__(self):
        return len(self.s)


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _error_norm(err, y0, y1, rtol, atol):
    """RMS of err / (atol + rtol max(|y0|, |y1|)) over Python float lists.

    A NaN in y1 propagates into the norm, as it does through np.maximum.
    """
    total = 0.0
    for e, a, b in zip(err, y0, y1):
        a, b = abs(a), abs(b)
        total += (e / (atol + rtol * (a if a >= b else b))) ** 2
    return math.sqrt(total / len(err))


def _initial_step(rhs, s0, y0, f0, direction, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(s0 + h0 * direction, y1)
    if _finite(f1):
        d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    else:
        d2 = 2.0 / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1)


def integrate(
    rhs,
    s0: float,
    y0,
    s_end: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    conserved=None,
    drift_factor: float = 10.0,
    max_step: float = math.inf,
    targets=(),
    dense: bool = True,
    max_steps: int = 2_000_000,
    near_escape=None,
) -> OdeResult:
    """Integrate dy/ds = rhs(s, y) from s0 to s_end adaptively.

    Parameters
    ----------
    conserved : callable or None
        Scalar functional of the state; steps changing it by more than
        ``drift_factor * (atol + rtol |I|)`` are rejected and retried.
    targets : sequence of floats
        Parameter values (monotone in the direction of integration) the
        stepper must land on exactly.  They are snapped into the output.
    dense : bool
        When False only samples at targets (plus the endpoints) are recorded.
    near_escape : callable or None
        Predicate on the state; consulted on step-size underflow to decide
        between DomainEscape (state hugging the domain boundary) and
        ToleranceFailure.
    """
    y = np.array(y0, dtype=float)
    s = float(s0)
    s_end = float(s_end)
    direction = 1.0 if s_end >= s else -1.0
    span = abs(s_end - s)

    out_s = [s]
    out_y = [y.copy()]
    res = OdeResult(s=None, y=None)

    if span == 0.0:
        res.s = np.array(out_s)
        res.y = np.array(out_y)
        return res

    tgt = [float(t) for t in targets]
    for a, b in zip(tgt, tgt[1:]):
        if (b - a) * direction < 0:
            raise ValueError("targets must be monotone in the integration direction")
    ti = 0
    # skip targets at or before the start
    while ti < len(tgt) and (tgt[ti] - s) * direction <= 1e-14 * max(1.0, abs(s)):
        ti += 1

    f = np.asarray(rhs(s, y), dtype=float)
    if not _finite(f):
        raise DomainEscape(s, "initial state is outside the admissible domain")
    I_prev = float(conserved(y)) if conserved is not None else 0.0

    h = min(_initial_step(rhs, s, y, f, direction, rtol, atol), max_step, span)
    err_prev = 1.0
    K = np.empty((7, y.size))
    steps = 0

    while (s_end - s) * direction > 1e-14 * max(1.0, abs(s_end)):
        if steps >= max_steps:
            raise ToleranceFailure(f"step budget exhausted near s = {s:.6g}")
        steps += 1

        h = min(h, max_step, abs(s_end - s))
        clamped_target = None
        if ti < len(tgt):
            dist = (tgt[ti] - s) * direction
            if dist <= h * (1 + 1e-12):
                h = dist
                clamped_target = tgt[ti]
        if h < 1e-14 * max(1.0, abs(s)):
            if near_escape is not None and near_escape(y):
                raise DomainEscape(s)
            raise ToleranceFailure(f"step size underflow near s = {s:.6g}")

        hd = h * direction
        K[0] = f
        bad = False
        for i in range(1, 6):
            yi = y + hd * (K[:i].T @ _A[i])
            K[i] = k = rhs(s + _C[i] * hd, yi)
            if not _finite(k):
                bad = True
                break
        if not bad:
            y_new = y + hd * (K[:6].T @ _B)
            s_new = s + hd
            K[6] = k = rhs(s_new, y_new)
            bad = not _finite(k)
        if bad:
            res.n_rejected_error += 1
            h *= 0.5
            err_prev = 1.0
            # tangential boundary approach: the state is already inside the
            # escape collar and repeated halvings make no headway
            if (h < 1e-9 * max(1.0, abs(s)) and near_escape is not None
                    and near_escape(y)):
                raise DomainEscape(s)
            continue

        err = hd * (K.T @ _E)
        err_norm = _error_norm(err.tolist(), y.tolist(), y_new.tolist(), rtol, atol)
        if not math.isfinite(err_norm) or err_norm > 1.0:
            res.n_rejected_error += 1
            h *= max(_MIN_FACTOR, _SAFETY * (max(err_norm, 1e-10)) ** -_ORDER_EXP) if math.isfinite(err_norm) else 0.5
            continue

        if conserved is not None:
            I_new = float(conserved(y_new))
            drift = abs(I_new - I_prev)
            if drift > drift_factor * (atol + rtol * abs(I_prev)):
                res.n_rejected_drift += 1
                h *= 0.5
                continue
            res.max_drift = max(res.max_drift, drift)
            I_prev = I_new

        # accepted
        if clamped_target is not None:
            s_new = clamped_target
            ti += 1
        s = s_new
        y = y_new
        f = K[6].copy()  # FSAL; a copy, since a rejected retry overwrites K[6]
        res.n_accepted += 1
        at_end = (s_end - s) * direction <= 1e-14 * max(1.0, abs(s_end))
        if at_end:
            s = s_end
        if dense or clamped_target is not None or at_end:
            out_s.append(s)
            out_y.append(y.copy())

        err_norm = max(err_norm, 1e-10)  # exactly-resolved steps still bound growth
        factor = _SAFETY * err_norm ** -_PI_ALPHA * err_prev ** _PI_BETA
        err_prev = err_norm
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    res.s = np.array(out_s)
    res.y = np.array(out_y)
    return res
