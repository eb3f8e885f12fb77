"""Wright function numerics: evaluation, real zeros, and radii of
lemniscate/Janowski starlikeness and convexity of the normalized forms.

`import wright_radii` loads no module of the package and neither numpy nor
mpmath, so it leaves the host process's BLAS as it finds it.  The first read
of a public name, or of a library module such as `wright_radii.radii`, loads
the whole package at once and binds every name in __all__.  The CLI,
`wright_radii.cli`, is the one module that sets OPENBLAS_NUM_THREADS (see
its docstring).
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "errors": ("ConvergenceError", "MonotonicityError", "NearZeroDenominatorError",
               "NonIntegerWindingError", "ParameterError", "ScanExhaustedError",
               "WrightRadiiError"),
    "family": ("FunctionalValue", "NormalizedKind", "base_eval", "convex_functional",
               "convex_real", "starlike_functional", "starlike_real"),
    "kernel": ("EvalResult", "WrightParams", "wright_derivative", "wright_eval"),
    "radii": ("CrossCheckResult", "JanowskiParams", "RadiusQuery", "RadiusResult",
              "boundary_sup", "cross_validate", "domain_bound",
              "radius_by_certification", "radius_real_axis", "region_functional"),
    "zeros": ("ZeroTable", "base_residual", "count_zeros_in_disk",
              "derivative_positive_zeros", "hadamard_partial_product",
              "positive_zeros", "reciprocal_square_sum"),
}

__all__ = sorted(name for names in _HOMES.values() for name in names) + ["__version__"]

# Names whose first read loads the package.  `cli` is not one: `from
# wright_radii import cli` must run the CLI module first, which sets
# OPENBLAS_NUM_THREADS before anything loads numpy.
_LOADS = frozenset(__all__) | frozenset(_HOMES)


def __getattr__(name: str):
    if name not in _LOADS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _HOMES.items():
        home = importlib.import_module(f".{module}", __name__)
        for attr in names:
            globals()[attr] = getattr(home, attr)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LOADS)
