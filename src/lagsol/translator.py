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
first integral A of the base.  Both forms, and d beta/dt, are read off the
base's curve record (u, theta and their rates, ds/dt); s itself is the
curve parameter of an orbit base and s_of_y of an expander base, one read
of its arc cache per record.

The default K = 0 places the waist u = 0 at Re beta = 0; with base phases
psi = 0 the point z(0, 0) then sits at -i pi / (2 alpha).

The base coordinates x are already flat, so the FD mean curvature cross-check
at points (x, t) runs geometry's stacked stencils on the charts
(xi, s) -> z(x + xi, t + s).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .params import require_finite
from .expander import ExpanderProfile, s_of_y
from .geometry import FramedPoint, curve_chart, fd_step, mean_curvature_fd
from .periodic import (HamiltonianStationaryProfile, OrbitProfile, PeriodicSpec,
                       compute_orbit)


class TranslatorProfile:
    """Translator built over an (n-1)-dimensional centred base profile."""

    kind = "translator"

    def __init__(self, base, *, K: complex = None):
        if getattr(base, "kind", None) != "centred":
            raise ValidationError("translator base must be a centred profile")
        self.base = base
        self.alpha = float(base.alpha)
        self.n = base.n + 1
        # the first integral A: expanders compute it, orbit bases hold it in their spec
        self.first_integral = float(base.first_integral_value
                                    if isinstance(base, ExpanderProfile) else base.spec.A)
        self.K = complex(K) if K is not None else 0j
        require_finite("K", (self.K.real, self.K.imag))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_expander_base(cls, alpha: float, a, psi=None, *, K: complex = None):
        """Translator whose base is an expander-type profile (all lambda = +1)."""
        return cls(ExpanderProfile(alpha, a, psi), K=K)

    @classmethod
    def from_orbit_base(cls, spec: PeriodicSpec, *, K: complex = None):
        """Translator over a periodic-orbit (or stationary) base."""
        return cls(compute_orbit(spec).profile(), K=K)

    # -- beta and the immersion on rows of the base's curve record ----------

    def beta(self, c):
        """beta on the base's curve record c: a row, or arrays over its
        parameters."""
        if self.alpha != 0.0:
            return 0.5 * c.u + self.K.real + 1j * (self.K.imag - c.theta / self.alpha)
        s = s_of_y(self.base, c.t) if isinstance(self.base, ExpanderProfile) else c.t
        return 0.5 * c.u + self.K.real + 1j * (self.K.imag - self.first_integral * s)

    def beta_rate(self, c) -> complex:
        """d beta/dt on the row c of the base's curve record; equals
        e^{i theta} conj(prod w) ds/dt."""
        if self.alpha != 0.0:
            return 0.5 * c.u_rate - 1j * (c.theta_rate / self.alpha)
        return 0.5 * c.u_rate - 1j * (self.first_integral * c.s_rate)

    def immersion(self, x, c) -> np.ndarray:
        """z at a base point x, or a stack of them (shape (m, n - 1)), on the
        row c of the base's curve record, or at one point per row of a record
        c of arrays."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n - 1,):
            raise ValidationError("base point must have n - 1 coordinates")
        lam = np.asarray(self.base.lambdas)
        z = np.empty(x.shape[:-1] + (self.n,), dtype=complex)
        z[..., :-1] = x * c.w
        z[..., -1] = -0.5 * np.sum(lam * x * x, axis=-1) + self.beta(c)
        return z

    def frame_at(self, xs, c) -> FramedPoint:
        """Frames at a stack of base points xs (shape (m, n - 1)), on a
        record c of the base's curve with one row per point."""
        xs = np.asarray(xs, dtype=float)
        n = self.n
        if xs.ndim != 2:
            raise ValidationError("base points must be an (m, n - 1) stack")
        z = self.immersion(xs, c)
        lam = np.asarray(self.base.lambdas)
        j = np.arange(n - 1)
        frame = np.zeros((len(xs), n, n), dtype=complex)
        frame[:, j, j] = c.w
        frame[:, j, -1] = -lam * xs
        frame[:, -1, :-1] = xs * c.wdot
        frame[:, -1, -1] = self.beta_rate(c)
        return FramedPoint.of(z, frame, c.theta, c.theta_rate)

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
        return float(self.base.curve([0.0]).theta[0])

    @property
    def oscillates(self) -> bool:
        """True when the base orbit oscillates in u (case (ii) base): an
        OrbitProfile other than the u = 0 stationary one."""
        return (isinstance(self.base, OrbitProfile)
                and not isinstance(self.base, HamiltonianStationaryProfile))


def translator_fd_mean_curvature(profile: TranslatorProfile, xs, c) -> np.ndarray:
    """Finite-difference H at the base points xs (m, n - 1) on the rows c of
    the base's curve record, one per point, as an (m, n) array; the base
    coordinates are already flat."""
    xs = np.asarray(xs, dtype=float)
    chart = curve_chart(lambda xi: xs[:, None, :] + xi, profile.immersion,
                        profile.base.curve, c.t)
    return mean_curvature_fd(chart, profile.n, fd_step(c.u))
