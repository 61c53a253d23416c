"""Lagrangian mean-curvature-flow solitons on quadrics.

Construction, analysis and independent verification of self-expanders,
self-shrinkers, closed-orbit (periodic and quasi-periodic) families,
Hamiltonian stationary examples, and translating solitons.  The command-line
front end lives in lagsol.cli; the building blocks are re-exported here.
"""

from .errors import (CaseMismatch, DomainEscape, InvalidTarget, LagsolError,
                     NonConvergence, NumericalError, ToleranceFailure,
                     ValidationError, VerificationError)
from .expander import (AngleVector, ExpanderProfile, angle_map,
                       angle_map_jacobian, asymptotic_angles, invert_angle_map,
                       profile_eval, s_of_y)
from .geometry import (CentredChart, FramedPoint, centred_fd_mean_curvature,
                       centred_frame, mean_curvature_fd, quadric_tangent_basis)
from .meshing import (Mesh, ball_points, centred_mesh, flow_slice_mesh,
                      quadric_base_points, translator_mesh)
from .params import ScalingRecord, SolitonParams, normalize, rescale_solution
from .periodic import (FlowSlice, HamiltonianStationaryProfile,
                       OrbitConditioningWarning, OrbitProfile,
                       PeriodicOrbit, PeriodicSpec, PeriodicityVerdict,
                       brakke_family, classify_case, compute_orbit,
                       critical_point, detect_periodicity,
                       hamiltonian_stationary, holonomies, limit_gamma,
                       limit_period, period, rebase,
                       search_periodic_data, stationary_spec, topology_tag,
                       turning_points)
from .reduced_ode import (FullState, FullTrajectory, ReducedState,
                          ReducedTrajectory, TrajectorySpec, eval_Q,
                          first_integral, full_first_integral, integrate_full,
                          integrate_reduced, lift_state, reduced_rhs,
                          sample_reduced)
from .translator import (TranslatorChart, TranslatorProfile,
                         translator_fd_mean_curvature)
from .verify import (VerificationReport, VerificationThresholds,
                     require_verified, verify_mesh)

__version__ = "0.1.0"
