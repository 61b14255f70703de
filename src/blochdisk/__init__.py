"""Numerics for Bloch- and Hardy-type function spaces on the unit disk.

Closed-form analytic function kinds with exact derivatives, pseudo-hyperbolic
geometry, Hardy/Bloch norm estimation, the sharp Lipschitz machinery of the
classical Bloch functional, and composition-operator verdict engines.
"""

__version__ = "0.1.0"

from .core import (AnalyticMap, Blaschke, BlochDiskError, BlochParams,
                   Composed, DegeneratePairError, DivergentIntegralError,
                   HarmonicMap, IdentityMajorant, InadmissibleSymbolError,
                   Majorant, MajorantValidationError,
                   Mobius, ParameterRangeError, Polynomial, PowerKernel,
                   PowerMajorant, ScaledIdentity, TabulatedMajorant,
                   ZeroSeminormError, as_harmonic, classical_params,
                   disk_point, in_unit_disk, lambda_f, validate_majorant)
from .metrics import mobius, rho, sigma
from .norms import (DEFAULT_PLAN, NormEstimate, SamplingPlan, bloch_functional,
                    bloch_norm, bloch_seminorm, bloch_weight, g_function,
                    g_norm_check, hardy_mean, hardy_norm,
                    power_mean_inequality_check)
from .extremal import (LIP_CONSTANT, AntiderivativeExtremal, ExtremalSolution,
                       QuadraticExtremal, ScanReport, WitnessReport, a0,
                       deriv_lower_bound, deriv_upper_bound, f_beta,
                       lipschitz_ratio, lipschitz_scan, m_root, psi,
                       random_normalized_corpus, sharpness_witness)
from .compop import (PROBE_RADIUS_SUP, CriterionReport, ProbeReport,
                     bloch_to_hardy_criterion, bounded_below_probe, chi_ratio,
                     compose, doubling_limits, doubling_ratio,
                     growth_bound_check, hardy_to_bloch_q,
                     hardy_to_bloch_verdict, is_admissible_symbol,
                     schwarz_pick_ratio, test_function)
from .descriptors import (DescriptorError, analytic_from_descriptor,
                          descriptor_of, descriptor_of_harmonic,
                          harmonic_from_descriptor)
from .numerics import QuadratureError
