"""Spectral bounds for weighted Neumann problems.

The package computes low eigenvalues of operators of the form

    H phi = e^{2 rho} ( -div( w e^{-2 rho} grad phi ) + V w e^{-2 rho} phi )

with natural (Neumann-type) boundary conditions on boxes, disks, masked
boxes and flat tori, plus exact spectra of rectangles, tori and round
spheres, and verifies a family of eigenvalue-sum, Riesz-mean, heat-trace
and phase-space inequalities against them.

Typical use:

    from spectral_bounds import (ProblemSpec, Box, QuadratureGrid,
                                 assemble, bound_context, solve_lowest,
                                 kroger_avg_bound)

    problem = ProblemSpec(Box((1.0, 1.0)), w="1 + x/2", V="x^2 + y^2")
    grid = QuadratureGrid(problem.domain, (120, 120))
    spectrum = solve_lowest(assemble(problem, grid), 20)
    ctx = bound_context(problem, grid)      # |Omega|, w_mean, vweff_mean
    report = kroger_avg_bound(ctx, 10, spectrum)
    assert report.holds

The `spectral-bounds` CLI drives the same machinery from JSON scenario
files; see the scenarios shipped under `spectral_bounds/scenarios/`.
"""

__version__ = "0.1.0"

from .expressions import (FieldEvaluationError, FieldSyntaxError,
                          ScalarFieldExpr, differentiate, parse_field)
from .domains import (Box, Disk, MaskedBox, QuadratureGrid,
                      TorusFundamental, domain_volume, integral_value,
                      mean_value)
from .problem import ProblemSpec, effective_potential
from .special import (Lattice2, bessel_first_zero, bessel_j, hex_heat_floor,
                      hex_theta, lattice_heat_trace,
                      lattice_heat_trace_poisson, unit_ball_volume)
from .spectra import (HeatTraceResult, HomogeneousSpectrum, Spectrum,
                      SpectrumRangeError, TailModel, heat_trace,
                      interp_partial_sum, legendre_of_riesz,
                      rectangle_neumann_exact, riesz_mean_1, shifted_spectrum,
                      sphere_spectrum, torus_spectrum,
                      truncated_laplace_transform)
from .fdsolver import (ConvergenceStudy, DiscreteForm, SolveResult,
                       SolverConvergenceError, assemble, convergence_study,
                       solve_lowest, solve_lowest_detailed)
from .report import BoundReport, inputs_digest, make_report
from .bounds import (BoundContext, bound_context, euclidean_H,
                     general_sum_bound, heat_lower_bound,
                     individual_bound_pos, individual_bound_sk,
                     kroger_avg_bound, legendre_conjugate_power,
                     riesz_lower_bound)
from .avp import avp_check, frame_constant, tight_frame_bound
from .phasespace import (PhaseSpaceData, lambda_of_k, phase_space_sum_bound,
                         phase_space_tables)
from .homog import (heat_homog_compare, heat_torus_bound,
                    homog_riesz_compare, homog_sum_compare)
from .scenario import (BoundRequest, RunReport, Scenario, ScenarioError,
                       emit, load_scenario, run_scenario, scenario_from_dict)

__all__ = [
    "__version__",
    # fields and domains
    "ScalarFieldExpr", "parse_field", "differentiate",
    "FieldSyntaxError", "FieldEvaluationError",
    "Box", "Disk", "MaskedBox", "TorusFundamental",
    "QuadratureGrid", "domain_volume", "mean_value", "integral_value",
    "ProblemSpec", "effective_potential",
    # special functions and lattices
    "unit_ball_volume", "bessel_j", "bessel_first_zero",
    "Lattice2", "hex_theta", "lattice_heat_trace",
    "lattice_heat_trace_poisson", "hex_heat_floor",
    # spectra and spectral functionals
    "Spectrum", "HomogeneousSpectrum", "SpectrumRangeError",
    "rectangle_neumann_exact", "torus_spectrum", "sphere_spectrum",
    "shifted_spectrum", "interp_partial_sum", "riesz_mean_1",
    "legendre_of_riesz", "truncated_laplace_transform",
    "TailModel", "HeatTraceResult", "heat_trace",
    # solver
    "DiscreteForm", "SolveResult",
    "SolverConvergenceError", "assemble", "solve_lowest",
    "solve_lowest_detailed", "ConvergenceStudy", "convergence_study",
    # reports and bounds
    "BoundReport", "make_report", "inputs_digest",
    "BoundContext", "bound_context", "euclidean_H", "kroger_avg_bound", "general_sum_bound",
    "riesz_lower_bound", "heat_lower_bound", "individual_bound_sk",
    "individual_bound_pos", "legendre_conjugate_power",
    "avp_check", "frame_constant", "tight_frame_bound",
    "PhaseSpaceData", "phase_space_tables", "lambda_of_k",
    "phase_space_sum_bound",
    "homog_riesz_compare", "homog_sum_compare", "heat_homog_compare",
    "heat_torus_bound",
    # scenarios
    "Scenario", "BoundRequest", "RunReport", "ScenarioError",
    "load_scenario", "scenario_from_dict", "run_scenario", "emit",
]
