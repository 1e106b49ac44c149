"""Driven Kitaev honeycomb simulator with transition-phase analysis.

The high-traffic names are re-exported here; the full surface lives in
the submodules (lattice, manifold, hamiltonian, perturbation, phase,
density, correlation, oracle, validation, cli).
"""

__version__ = "0.1.0"

from .correlation import correlation_exact_scan, correlation_formula
from .density import (
    assemble_state,
    density_matrix,
    reduced_entropy,
    thermal_weights,
)
from .hamiltonian import (
    CouplingParams,
    apply_h0,
    energy_expectation,
    perturbation_element,
    plaquette_expectation,
)
from .lattice import LatticeGeometry, build_lattice, validate_geometry
from .manifold import (
    ExcitedLabel,
    FlipConfig,
    build_product_ket,
    enumerate_weight_class,
    excite,
    flip_signature,
)
from .oracle import exact_evolve, project_and_compare
from .perturbation import (
    CoefficientSeries,
    DriveSpec,
    coefficient_closed_form,
    coefficient_interpolated,
    coefficient_quadrature,
    evolve_coefficients,
)
from .phase import SubGeometricPhase, decompose, effective_level, stability_intervals

__all__ = [
    "__version__",
    "CouplingParams",
    "CoefficientSeries",
    "DriveSpec",
    "ExcitedLabel",
    "FlipConfig",
    "LatticeGeometry",
    "SubGeometricPhase",
    "apply_h0",
    "assemble_state",
    "build_lattice",
    "build_product_ket",
    "coefficient_closed_form",
    "coefficient_interpolated",
    "coefficient_quadrature",
    "correlation_exact_scan",
    "correlation_formula",
    "decompose",
    "density_matrix",
    "effective_level",
    "energy_expectation",
    "enumerate_weight_class",
    "evolve_coefficients",
    "exact_evolve",
    "excite",
    "flip_signature",
    "perturbation_element",
    "plaquette_expectation",
    "project_and_compare",
    "reduced_entropy",
    "stability_intervals",
    "thermal_weights",
    "validate_geometry",
]
