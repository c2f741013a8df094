"""Numerical laboratory for brittle fracture on a triangular spring lattice.

The package evaluates the discrete nearest-neighbor spring energies of a
rotated triangular lattice in the square-root-of-eps displacement
scaling, their continuum Griffith limit with an anisotropic crack
density, and the closed-form predictions of the uniaxial cleavage
problem (critical load, branch energies, optimal crack direction), so
that each prediction can be checked computationally at desk scale.
"""

__version__ = "0.1.0"

from .lattice import (CleavageData, LatticeError, LatticeSpec, TriangleMesh,
                      build_mesh, classify_edges, cleavage_direction,
                      lattice_vectors)
from .material import (MagnetizationModel, MaterialError, PairPotential,
                       PenaltyChi, cell_energy, field_energy,
                       magnetization, magnetization_hessian_form,
                       quadratic_form, quadratic_min_under_strain,
                       rotation_reflection_distances)
from .discrete_energy import (Assembly, BoundaryCondition, Displacement,
                              DiscreteEnergyError, EnergyBreakdown, apply_bc,
                              bc_affine, bc_cleavage, bc_zero, energy_rescaled,
                              gradient, interpolate_gradients)
from .continuum import (CleavageProblem, ContinuumDisplacement, GeometryError,
                        a_crit, build_u_cr, build_u_cr_symmetric, build_u_el,
                        energy_F_limit, energy_limit, min_energy,
                        slicing_lower_bound, surface_density_bound)
from .crack_extraction import (BrokenClassification, CrackError, CrackSegment,
                               CrackSet, build_modified, classify_broken,
                               crack_energy_estimate, jump_vectors,
                               spring_crossing_count)
from .solver import (ConvergenceRow, MinimizeResult, SolveConfig, SolverError,
                     convergence_study, magnet_demo, minimize,
                     nonequicoercivity_demo, recovery_sequence)
