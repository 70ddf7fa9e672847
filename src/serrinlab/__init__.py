"""serrinlab: 2D FEM laboratory for two-phase torsion with Serrin-type diagnostics."""

__version__ = "0.1.0"


def _defer_unused_modules():
    """Keep start-up to the modules a command runs.

    scipy's array-API layer reads every public name of numpy, which would
    execute numpy submodules no command calls (f2py and testing alone are
    most of a process's import time); each is put in place as a lazy module
    that runs on its first attribute read.  numpy.ma is not among them, as
    every Delaunay call reads numpy.ma.isMaskedArray.  Delaunay and cKDTree
    are loaded from scipy.spatial's two extension modules under their own
    names, so the package __init__, with scipy.spatial.distance,
    scipy.special and scipy.spatial.transform, runs only if something imports
    scipy.spatial itself; it then reuses these two modules.  Modules already
    imported are left alone.
    """
    import importlib.util
    import sys
    from importlib.machinery import PathFinder

    import numpy

    for attr in ("f2py", "testing", "polynomial", "ctypeslib", "char", "rec"):
        name = f"numpy.{attr}"
        if name not in sys.modules and attr not in vars(numpy):
            spec = importlib.util.find_spec(name)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            setattr(numpy, attr, module)
    spatial = importlib.util.find_spec("scipy.spatial").submodule_search_locations
    for name in ("scipy.spatial._qhull", "scipy.spatial._ckdtree"):
        if name not in sys.modules:
            spec = PathFinder.find_spec(name, spatial)
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
