"""serrinlab: 2D FEM laboratory for two-phase torsion with Serrin-type diagnostics."""

__version__ = "0.1.0"

from .errors import DiagnosticError, MeshQualityError, SolverError, ValidationError
from .geometry import (
    DomainSpec,
    diameter,
    exact_area,
    exact_perimeter,
    inclusion_margin,
    rho_bounds,
    serrin_constant,
)

__all__ = [
    "DomainSpec",
    "DiagnosticError",
    "MeshQualityError",
    "SolverError",
    "ValidationError",
    "diameter",
    "exact_area",
    "exact_perimeter",
    "inclusion_margin",
    "rho_bounds",
    "serrin_constant",
]
