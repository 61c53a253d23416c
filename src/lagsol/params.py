"""Soliton parameter bundles: the quadric sum(lambda_j x_j^2) = C and rate alpha.

Every construction in this package works on normalized data: ``lambdas``
consisting of +-1 with the positive signs first, ``C = 1`` and a single free
rate ``alpha``.  ``SolitonParams`` accepts only that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


def require_finite(name: str, values) -> tuple:
    """values as a tuple of floats; raise ValidationError unless each is finite."""
    values = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in values):
        shown = values[0] if len(values) == 1 else values
        raise ValidationError(f"{name} must be finite, got {shown!r}")
    return values


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
        lam = require_finite("lambdas", self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "alpha", require_finite("alpha", (self.alpha,))[0])
        if len(lam) < 1:
            raise ValidationError("need at least one lambda")
        if (any(abs(l) != 1.0 for l in lam) or lam != tuple(sorted(lam, reverse=True))
                or self.C != 1.0):
            raise ValidationError(
                "each lambda must be +1 or -1, positives first, with C = 1")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def num_positive(self) -> int:
        return sum(1 for l in self.lambdas if l > 0)
