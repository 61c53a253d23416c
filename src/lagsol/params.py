"""Soliton parameter bundles and the exact symmetry reductions between them.

Every construction in this package works with ``lambdas`` consisting of +-1,
``C = 1`` and a single free rate ``alpha``.  General data (real nonzero
lambdas, C != 0) is brought to that form by an exact change of variables which
permutes the coordinates (positive signs first), rescales the factors w_j and
the quadric coordinates x_j, and reparametrizes s.  The record of that change
is kept so solutions can be mapped back to the original data, and a further
one-parameter dilation can be composed on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError


def require_finite(name: str, values) -> None:
    """Raise ValidationError unless every entry of values is a finite number."""
    values = tuple(values)
    if not all(math.isfinite(v) for v in values):
        shown = values[0] if len(values) == 1 else values
        raise ValidationError(f"{name} must be finite, got {shown!r}")


@dataclass(frozen=True)
class SolitonParams:
    """Defining data: quadric sum(lambda_j x_j^2) = C and rate alpha.

    alpha > 0 self-expander, alpha < 0 self-shrinker, alpha = 0 minimal
    (constant angle).  For translating profiles alpha is the speed of the
    translation in the last coordinate.
    """

    lambdas: tuple
    C: float
    alpha: float

    def __post_init__(self):
        lam = tuple(float(l) for l in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "alpha", float(self.alpha))
        require_finite("lambdas", lam)
        require_finite("C", (self.C,))
        require_finite("alpha", (self.alpha,))
        if len(lam) < 1:
            raise ValidationError("need at least one lambda")
        if any(l == 0.0 for l in lam):
            raise ValidationError("all lambdas must be nonzero")
        if self.C == 0.0:
            raise ValidationError("C must be nonzero")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def is_normalized(self) -> bool:
        """True when lambdas are +-1 sorted positives-first and C == 1."""
        lam = self.lambdas
        signs_ok = all(l in (1.0, -1.0) for l in lam)
        sorted_ok = all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        return signs_ok and sorted_ok and self.C == 1.0

    @property
    def num_positive(self) -> int:
        return sum(1 for l in self.lambdas if l > 0)


@dataclass(frozen=True)
class ScalingRecord:
    """Exact substitution taking original data to normalized data.

    Conventions (index i runs over normalized slots, ``perm[i]`` is the
    original index feeding slot i):

        s~      = s_factor * s
        u~      = u_factor * u
        w~_i    = w_factors[i]   * w_{perm[i]}
        x~_i    = x_factors[i]   * x_{perm[i]}
        alpha~_i= aj_factors[i]  * alpha_{perm[i]}
        A~      = A_factor * A
        alpha~  = alpha_factor * alpha
        theta~  = theta,  phi~_i = phi_{perm[i]}

    All factors are nonzero reals; s_factor and u_factor carry the sign of C.
    """

    perm: tuple
    s_factor: float
    u_factor: float
    w_factors: tuple
    x_factors: tuple
    aj_factors: tuple
    A_factor: float
    alpha_factor: float

    @classmethod
    def identity(cls, n: int) -> "ScalingRecord":
        ones = (1.0,) * n
        return cls(tuple(range(n)), 1.0, 1.0, ones, ones, ones, 1.0, 1.0)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def inverse_perm(self) -> tuple:
        inv = [0] * self.n
        for i, p in enumerate(self.perm):
            inv[p] = i
        return tuple(inv)

    # -- scalar maps ---------------------------------------------------------

    def s_to_normalized(self, s):
        return self.s_factor * np.asarray(s, dtype=float)

    def s_from_normalized(self, s):
        return np.asarray(s, dtype=float) / self.s_factor

    def u_to_normalized(self, u):
        return self.u_factor * np.asarray(u, dtype=float)

    def u_from_normalized(self, u):
        return np.asarray(u, dtype=float) / self.u_factor

    def A_to_normalized(self, A: float) -> float:
        return self.A_factor * A

    def A_from_normalized(self, A: float) -> float:
        return A / self.A_factor

    def alpha_to_normalized(self, alpha: float) -> float:
        return self.alpha_factor * alpha

    def alpha_from_normalized(self, alpha: float) -> float:
        return alpha / self.alpha_factor

    # -- vector maps (last axis is the coordinate index) ---------------------

    def _permuted(self, arr, factors):
        a = np.asarray(arr)
        return a[..., list(self.perm)] * np.asarray(factors)

    def _unpermuted(self, arr, factors):
        a = np.asarray(arr) / np.asarray(factors)
        return a[..., list(self.inverse_perm)]

    def ws_to_normalized(self, ws):
        return self._permuted(ws, self.w_factors)

    def ws_from_normalized(self, ws):
        return self._unpermuted(ws, self.w_factors)

    def x_to_normalized(self, x):
        return self._permuted(x, self.x_factors)

    def x_from_normalized(self, x):
        return self._unpermuted(x, self.x_factors)

    def alphas_to_normalized(self, alphas):
        return self._permuted(alphas, self.aj_factors)

    def alphas_from_normalized(self, alphas):
        return self._unpermuted(alphas, self.aj_factors)

    def phis_to_normalized(self, phis):
        return np.asarray(phis)[..., list(self.perm)]

    def phis_from_normalized(self, phis):
        return np.asarray(phis)[..., list(self.inverse_perm)]


def normalize(params: SolitonParams):
    """Return (normalized params, record) with lambdas +-1 positives-first, C=1.

    The substitution is exact; composing the record's maps with their inverses
    reproduces inputs to rounding.
    """
    lam = np.array(params.lambdas)
    C = params.C
    n = params.n

    signs = np.sign(C * lam)
    # stable sort, +1 block first
    perm = tuple(int(i) for i in np.argsort(-signs, kind="stable"))
    lam_p = lam[list(perm)]
    absC = abs(C)

    s_factor = C * absC ** (-n / 2.0) * float(np.prod(np.abs(lam)) ** 0.5)
    w_factors = tuple(absC ** 0.5 * abs(l) ** -0.5 for l in lam_p)
    x_factors = tuple(absC ** -0.5 * abs(l) ** 0.5 for l in lam_p)
    aj_factors = tuple(absC / abs(l) for l in lam_p)
    A_factor = absC ** (n / 2.0) * float(np.prod(np.abs(lam)) ** -0.5)

    record = ScalingRecord(
        perm=perm,
        s_factor=s_factor,
        u_factor=C,
        w_factors=w_factors,
        x_factors=x_factors,
        aj_factors=aj_factors,
        A_factor=A_factor,
        alpha_factor=1.0 / C,
    )
    normalized = SolitonParams(
        lambdas=tuple(float(s) for s in signs[list(perm)]),
        C=1.0,
        alpha=params.alpha / C,
    )
    return normalized, record


def rescale_solution(record: ScalingRecord, t: float) -> ScalingRecord:
    """Compose the one-parameter dilation L -> tL (t > 0) into a record.

    The dilation acts on normalized data by alpha -> t^-2 alpha, s -> t^(n-2) s,
    w_j -> t w_j, u -> t^2 u, alpha_j -> t^2 alpha_j, A -> t^n A; quadric
    coordinates x_j are untouched.
    """
    if not t > 0:
        raise ValidationError("dilation parameter must be positive")
    n = record.n
    return replace(
        record,
        s_factor=record.s_factor * t ** (n - 2),
        u_factor=record.u_factor * t ** 2,
        w_factors=tuple(f * t for f in record.w_factors),
        aj_factors=tuple(f * t ** 2 for f in record.aj_factors),
        A_factor=record.A_factor * t ** n,
        alpha_factor=record.alpha_factor / t ** 2,
    )
