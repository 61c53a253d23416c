"""Soliton parameter bundles: the quadric sum(lambda_j x_j^2) = C and rate alpha.

Every construction in this package works on normalized data: ``lambdas``
consisting of +-1 with the positive signs first, ``C = 1`` and a single free
rate ``alpha``.  ``SolitonParams`` accepts any real nonzero data so that
callers can name what they reject; ``is_normalized`` is the test they apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
