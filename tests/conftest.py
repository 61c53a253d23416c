"""Shared fixtures for the test suite: deterministic random data generators.

Helpers reach tests as fixtures, not imports: ``from conftest import ...``
would resolve to whichever ``conftest`` module was imported first when this
suite is collected together with ``perfbench/tests``.
"""

import math

import numpy as np
import pytest

from lagsol.params import SolitonParams
from lagsol.periodic import PeriodicSpec


def make_orbit_spec(rng, lambdas, alpha, *, frac=None, alpha_range=(0.5, 3.0)):
    """A feasible oscillating spec: base radii in alpha_range, A a fraction of
    the first-integral ceiling at the base point."""
    lambdas = tuple(float(l) for l in lambdas)
    n = len(lambdas)
    alphas = tuple(float(a) for a in np.exp(
        rng.uniform(math.log(alpha_range[0]), math.log(alpha_range[1]), size=n)))
    params = SolitonParams(lambdas, 1.0, float(alpha))
    probe = PeriodicSpec(params, alphas, 1e-8)
    ceiling = math.exp(0.5 * probe.log_G(0.0))
    if frac is None:
        frac = float(rng.uniform(0.3, 0.9))
    return PeriodicSpec(params, alphas, frac * ceiling)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture(name="make_orbit_spec")
def make_orbit_spec_fixture():
    return make_orbit_spec
