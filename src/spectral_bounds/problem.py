"""Weighted Neumann eigenvalue problems.

The quadratic form is

    Q(phi) = integral over Omega of (|grad phi|^2 + V phi^2) w e^(-2 rho)

against the mass integral of phi^2 e^(-2 rho).  Its eigenvalues depend on
the weight w > 0, the log-density rho and the potential V.  The effective
potential V + |grad rho|^2 is what enters all shifted spectral bounds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .domains import Domain, QuadratureGrid, mean_value
from .expressions import (FieldEvaluationError, ScalarFieldExpr, const,
                          differentiate, parse_field)

__all__ = ["ProblemSpec", "effective_potential"]


@dataclass(frozen=True)
class ProblemSpec:
    """A weighted Neumann problem on a domain.

    w, rho, V may be given as expression source strings or parsed
    expressions; omitted fields default to w = 1, rho = 0, V = 0.  The
    sign of w is checked where a grid is known: by `bound_context` and by
    `assemble`, at every node they use.
    """

    domain: Domain
    w: ScalarFieldExpr = None
    rho: ScalarFieldExpr = None
    V: ScalarFieldExpr = None

    def __post_init__(self):
        nu = self.domain.nu
        for name, default in (("w", "1"), ("rho", "0"), ("V", "0")):
            value = getattr(self, name)
            if value is None:
                value = parse_field(default, nu)
            elif isinstance(value, str):
                value = parse_field(value, nu)
            object.__setattr__(self, name, value)

    @property
    def nu(self) -> int:
        return self.domain.nu

    def effective_potential(self) -> ScalarFieldExpr:
        return effective_potential(self)

    def mean_w(self, grid: QuadratureGrid) -> float:
        """Mean of w over the domain."""
        return mean_value(self.w, grid)

    def mean_veff_w(self, grid: QuadratureGrid) -> float:
        """Mean of (V + |grad rho|^2) w over the domain."""
        with self.naming_fields(
                "effective potential V + |grad rho|^2 times w",
                ("V", "rho", "w")):
            return mean_value(self.effective_potential() * self.w, grid)

    @contextmanager
    def naming_fields(self, what: str, names=("V", "rho")):
        """Re-raise a non-finite value met in the block, or a numpy
        floating-point error raised in it, as one line that names `what`
        and the fields it is built from: the error of a derived expression
        prints only the derived tree."""
        try:
            yield
        except (FieldEvaluationError, FloatingPointError) as exc:
            sources = ", ".join(f"{n} = '{getattr(self, n)}'" for n in names)
            raise FieldEvaluationError(
                f"{what} is not finite ({sources}): {exc}") from exc


def effective_potential(problem: ProblemSpec) -> ScalarFieldExpr:
    """V + |grad rho|^2 as a symbolic expression."""
    grad_sq: ScalarFieldExpr = const(0.0)
    for axis in range(problem.nu):
        d = differentiate(problem.rho, axis)
        grad_sq = grad_sq + d * d
    return problem.V + grad_sq
