"""Oracles for the lattice heat traces of `spectral_bounds.special`, kept
beside the tests that use them."""

import math

from spectral_bounds.special import Lattice2


def lattice_heat_trace_poisson(lattice: Lattice2, t: float) -> float:
    """The heat trace of `special.lattice_heat_trace` through Poisson
    summation on the primal lattice:
    |Omega|/(4 pi t) * sum over v in the lattice of exp(-|v|^2 / (4 t)).
    """
    covol = lattice.covolume()
    return covol / (4.0 * math.pi * t) * lattice.gaussian_sum(1.0 / (4.0 * t))
