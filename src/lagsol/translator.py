"""Translating solitons on non-centred quadrics.

A base profile in n-1 complex dimensions (expander, periodic orbit or
Hamiltonian stationary, normalized C = 1) together with one extra complex
coordinate gives a translating Lagrangian in C^n:

    z(x, t) = (x_1 w_1(t), ..., x_{n-1} w_{n-1}(t),
               -1/2 sum_j lambda_j x_j^2 + beta(t)),      x free in R^{n-1},

where beta solves d beta/ds = e^{i theta} conj(w_1 ... w_{n-1}) in the system
parameter s.  The soliton translates with velocity T = alpha Re e_n: the
defining equation is T_perp = H.

beta in closed form: for alpha != 0,

    beta = u/2 - (i/alpha) theta + K,

so theta + alpha Im z_n is constant on the whole submanifold (the angle is a
linear function of the translation direction).  For alpha = 0 the real part
is still u/2 + Re K while Im beta = -A s + Im K drifts linearly in s by the
first integral A of the base.

The default K = -u_*/2 places the waist at Re beta = 0; with base phases
psi = 0 the point z(0, 0) then sits at -i pi / (2 alpha).

The base coordinates x are already flat, so the FD mean curvature cross-check
at (x, t) runs geometry's stacked stencil on the chart (xi, s) -> z(x + xi, t + s).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .params import require_finite
from .expander import ExpanderProfile, s_of_y
from .geometry import FramedPoint, curve_chart, fd_step, mean_curvature_fd
from .periodic import PeriodicSpec, compute_orbit


class TranslatorProfile:
    """Translator built over an (n-1)-dimensional centred base profile."""

    kind = "translator"

    def __init__(self, base, *, K: complex = None, orbit=None):
        if getattr(base, "kind", None) != "centred":
            raise ValidationError("translator base must be a centred profile")
        self.base = base
        self.alpha = float(base.alpha)
        self.n = base.n + 1
        self.base_lambdas = tuple(base.lambdas)
        self.orbit = orbit
        # the first integral A: expanders compute it, orbit bases hold it in their spec
        self.first_integral = float(base.first_integral_value
                                    if isinstance(base, ExpanderProfile) else base.spec.A)
        u_star = getattr(base, "u_star", 0.0)
        self.K = complex(K) if K is not None else complex(-0.5 * u_star, 0.0)
        require_finite("K", (self.K.real, self.K.imag))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_expander_base(cls, alpha: float, a, psi=None, *, K: complex = None):
        """Translator whose base is an expander-type profile (all lambda = +1)."""
        return cls(ExpanderProfile(alpha, a, psi), K=K)

    @classmethod
    def from_orbit_base(cls, spec: PeriodicSpec, *, K: complex = None):
        """Translator over a periodic-orbit (or stationary) base."""
        orbit = compute_orbit(spec)
        return cls(orbit.profile(), K=K, orbit=orbit)

    # -- scalar curve data ---------------------------------------------------

    def s_of(self, t: float) -> float:
        """System parameter s of the base at curve parameter t."""
        if isinstance(self.base, ExpanderProfile):
            return s_of_y(self.base, t)
        return float(t)

    def s_rate_of(self, t: float) -> float:
        if isinstance(self.base, ExpanderProfile):
            return self.base.s_rate_of(t)
        return 1.0

    def theta_of(self, t: float) -> float:
        return self.base.theta_of(t)

    def theta_rate_of(self, t: float) -> float:
        return self.base.theta_rate_of(t)

    def beta_of(self, t: float) -> complex:
        u = self.base.u_of(t)
        if self.alpha != 0.0:
            return 0.5 * u - 1j * self.base.theta_of(t) / self.alpha + self.K
        return complex(0.5 * u + self.K.real,
                       -self.first_integral * self.s_of(t) + self.K.imag)

    def beta_rate_of(self, t: float) -> complex:
        """d beta/dt; equals e^{i theta} conj(prod w) ds/dt."""
        if self.alpha != 0.0:
            udot = self._u_rate(t)
            return 0.5 * udot - 1j * self.base.theta_rate_of(t) / self.alpha
        return complex(0.5 * self._u_rate(t), -self.first_integral * self.s_rate_of(t))

    def _u_rate(self, t: float) -> float:
        if isinstance(self.base, ExpanderProfile):
            return 2.0 * t
        w = np.asarray(self.base.w_of(t))
        wdot = np.asarray(self.base.wdot_of(t))
        lam = np.asarray(self.base_lambdas)
        # u = mean of lambda_j (|w_j|^2 - alpha_j): du/dt = 2 lambda_j Re(conj(w) wdot)
        return float(np.mean(2.0 * lam * (np.conj(w) * wdot).real))

    # -- the immersion and its frame ----------------------------------------

    def immersion(self, x, t: float) -> np.ndarray:
        """z at curve parameter t and a base point x, or a stack of them
        (shape (m, n - 1))."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n - 1,):
            raise ValidationError("base point must have n - 1 coordinates")
        lam = np.asarray(self.base_lambdas)
        w = np.asarray(self.base.w_of(t))
        z = np.empty(x.shape[:-1] + (self.n,), dtype=complex)
        z[..., :-1] = x * w
        z[..., -1] = -0.5 * np.sum(lam * x * x, axis=-1) + self.beta_of(t)
        return z

    def frame_at(self, x, t: float) -> FramedPoint:
        """Frame at curve parameter t and a base point x, or a stack of them
        (shape (m, n - 1)); the curve is read once either way."""
        x = np.asarray(x, dtype=float)
        n = self.n
        z = self.immersion(x, t).reshape(-1, n)
        xs = x.reshape(-1, n - 1)
        lam = np.asarray(self.base_lambdas)
        w = np.asarray(self.base.w_of(t))
        wdot = np.asarray(self.base.wdot_of(t))
        j = np.arange(n - 1)
        frame = np.zeros((len(xs), n, n), dtype=complex)
        frame[:, j, j] = w
        frame[:, j, -1] = -lam * xs
        frame[:, -1, :-1] = xs * wdot
        frame[:, -1, -1] = self.beta_rate_of(t)
        return FramedPoint.of(z, frame, self.theta_of(t), self.theta_rate_of(t),
                              stacked=x.ndim > 1)

    def translation_vector(self) -> np.ndarray:
        T = np.zeros(self.n, dtype=complex)
        T[-1] = self.alpha
        return T

    # -- invariants and residuals -------------------------------------------

    @property
    def maslov_constant(self) -> float:
        """The value of theta + alpha Im z_n on the whole submanifold.

        alpha Im K for alpha != 0; for alpha = 0 theta itself is constant and
        this is its value at the base point, curve parameter 0.
        """
        if self.alpha != 0.0:
            return self.alpha * self.K.imag
        return float(self.theta_of(0.0))

    @property
    def oscillates(self) -> bool:
        """True when the base orbit oscillates in u (case (ii) base)."""
        return self.orbit is not None and self.orbit.case == "oscillating"


def translator_fd_mean_curvature(profile: TranslatorProfile, x, t: float) -> np.ndarray:
    """Finite-difference H at (x, t); the base coordinates are already flat."""
    x0 = np.asarray(x, dtype=float)
    chart = curve_chart(lambda xi: x0 + xi, profile.immersion, t)
    return mean_curvature_fd(chart, profile.n, fd_step(profile.base.u_of(t)))
