"""Lagrangian mean-curvature-flow solitons on quadrics.

Construction, analysis and independent verification of self-expanders,
self-shrinkers, closed-orbit (periodic and quasi-periodic) families,
Hamiltonian stationary examples, and translating solitons.  The command-line
front end lives in lagsol.cli.  The building blocks live in the modules that
define them: expander, periodic and translator for the profiles, meshing,
geometry and verify for sampling and checking them, fileio for the formats,
and params, reduced_ode, odeint and quadutil underneath.
"""

__version__ = "0.1.0"
