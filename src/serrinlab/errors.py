"""Shared exception types mapped to CLI exit codes (2: validation, 3: solver)."""


class ValidationError(ValueError):
    """Invalid spec, config, or operation precondition."""


class SolverError(RuntimeError):
    """Linear solver did not converge; carries the final residual in args."""


class MeshQualityError(RuntimeError):
    """Mesh generation could not reach the required element quality."""


class DiagnosticError(SolverError):
    """A numerical self-check failed: computed numbers broke a bound they must obey."""
