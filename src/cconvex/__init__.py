"""Numerical toolkit for convexity relative to cost functions on bounded
1-D intervals: c-transforms, c-subdifferentials, support-curve envelopes,
Jensen-type gap bounds, and machine-checked structural propositions.
"""

from .costs import (CostDomainError, CostMatrix, CostSpec, check_structure, evaluate_cost,
                    tabulate_cost)
from .grids import (DiscreteMeasure, Grid, GridFunction, Interval, barycenter,
                    make_uniform_grid, quadrature, sample_function, sup_norm_diff)
from .jensen import (JensenReport, NoAdmissibleWitnessError, classical_reduction_check,
                     discrete_jensen_gap, integral_jensen_bound, midpoint_bound,
                     support_concavity_check, weighted_integral_bound)
from .propcheck import InstanceConfig, generate_instance, run_suite
from .subdiff import (Analysis, LocalWindow, SubdifferentialSet, SupportCurve, c_subdifferential,
                      envelope_reconstruct, lateral_c_derivatives, local_c_subdifferential,
                      local_double_conjugate, subdifferential_map, support_curve_eval)
from .transform import (TransformResult, c_transform, double_c_transform, is_c_convex,
                        to_concave_problem)
from .verdicts import Verdict

__version__ = "0.1.0"
