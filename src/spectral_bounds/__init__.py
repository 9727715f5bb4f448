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
    ctx = bound_context(problem, grid, solved=True)  # |Omega|, means
    report = kroger_avg_bound(ctx, 10, spectrum)
    assert report.holds

The `spectral-bounds` CLI drives the same machinery from JSON scenario
files; see the scenarios shipped under `spectral_bounds/scenarios/`.
"""

__version__ = "0.1.0"

from .expressions import (FieldEvaluationError, FieldSyntaxError,
                          ScalarFieldExpr, differentiate, parse_field)
from .domains import (Box, Disk, MaskedBox, QuadratureGrid,
                      TorusFundamental, domain_volume, mean_value)
from .problem import ProblemSpec, effective_potential
from .special import (Lattice2, bessel_first_zero, bessel_j, hex_heat_floor,
                      hex_theta, lattice_heat_trace, unit_ball_volume)
from .spectra import (Spectrum, SpectrumRangeError, heat_trace,
                      rectangle_neumann_exact, riesz_mean_1, shifted_spectrum,
                      sphere_spectrum, torus_spectrum)
from .fdsolver import (DiscreteForm, SolveResult, SolverConvergenceError,
                       assemble, solve_lowest, solve_lowest_detailed)
from .report import BoundReport, inputs_digest, make_report
from .bounds import (BoundContext, WeylMinorant, bound_context, euclidean_H,
                     general_sum_bound, heat_lower_bound, heat_report,
                     individual_bound_pos, individual_bound_sk,
                     kroger_avg_bound, riesz_lower_bound, riesz_report,
                     sum_report)
from .avp import avp_check, frame_constant, tight_frame_bound
from .phasespace import (PhaseSpaceData, lambda_of_k, phase_space_sum_bound,
                         phase_space_tables)
from .homog import ReferenceMinorant, heat_torus_bound
from .scenario import (BoundRequest, RunReport, Scenario, ScenarioError,
                       emit, load_scenario, run_scenario, scenario_from_dict)

__all__ = [
    "__version__",
    # fields and domains
    "ScalarFieldExpr", "parse_field", "differentiate",
    "FieldSyntaxError", "FieldEvaluationError",
    "Box", "Disk", "MaskedBox", "TorusFundamental",
    "QuadratureGrid", "domain_volume", "mean_value",
    "ProblemSpec", "effective_potential",
    # special functions and lattices
    "unit_ball_volume", "bessel_j", "bessel_first_zero",
    "Lattice2", "hex_theta", "lattice_heat_trace", "hex_heat_floor",
    # spectra and spectral functionals
    "Spectrum", "SpectrumRangeError",
    "rectangle_neumann_exact", "torus_spectrum", "sphere_spectrum",
    "shifted_spectrum", "riesz_mean_1", "heat_trace",
    # solver
    "DiscreteForm", "SolveResult",
    "SolverConvergenceError", "assemble", "solve_lowest",
    "solve_lowest_detailed",
    # reports and bounds
    "BoundReport", "make_report", "inputs_digest",
    "BoundContext", "bound_context", "euclidean_H",
    "WeylMinorant", "sum_report", "riesz_report", "heat_report",
    "kroger_avg_bound", "general_sum_bound",
    "riesz_lower_bound", "heat_lower_bound", "individual_bound_sk",
    "individual_bound_pos",
    "avp_check", "frame_constant", "tight_frame_bound",
    "PhaseSpaceData", "phase_space_tables", "lambda_of_k",
    "phase_space_sum_bound",
    "ReferenceMinorant", "heat_torus_bound",
    # scenarios
    "Scenario", "BoundRequest", "RunReport", "ScenarioError",
    "load_scenario", "scenario_from_dict", "run_scenario", "emit",
]
