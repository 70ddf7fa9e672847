"""serrinlab: 2D FEM laboratory for two-phase torsion with Serrin-type diagnostics."""

__version__ = "0.1.0"


def _defer_unused_modules():
    """Keep start-up to the modules a command runs.

    Four scipy extension modules are loaded from their files under their own
    names, so no package __init__ above them runs: Delaunay from
    scipy.spatial's _qhull (not scipy.spatial, scipy.special or
    scipy.spatial.transform), the LAPACK pointers _qhull cimports from
    scipy.linalg.cython_lapack (not scipy.linalg), the sparse kernels of
    serrinlab.csr from scipy.sparse's _sparsetools (not scipy.sparse, whose
    import runs scipy's array-API layer and numpy.random) and SuperLU from
    scipy.sparse.linalg's _superlu (not scipy.sparse.linalg).  A later import
    of one of those packages reuses these modules.  Modules already imported
    are left alone.
    """
    import importlib.util
    import os
    import sys
    from importlib.machinery import PathFinder

    import scipy

    # cython_lapack before _qhull, which cimports it; each search path is
    # built from scipy's location, since find_spec on a dotted name would
    # import its parent packages
    for name in ("scipy.linalg.cython_lapack", "scipy.spatial._qhull",
                 "scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu"):
        if name not in sys.modules:
            path = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
            spec = PathFinder.find_spec(name, [path])
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)


_defer_unused_modules()
del _defer_unused_modules

from .errors import DiagnosticError, MeshQualityError, SolverError, ValidationError  # noqa: E402
from .geometry import (  # noqa: E402
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
