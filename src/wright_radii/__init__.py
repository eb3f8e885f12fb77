"""Wright function numerics: evaluation, real zeros, and radii of
lemniscate/Janowski starlikeness and convexity of the normalized forms."""
from __future__ import annotations

from .errors import (ConvergenceError, MonotonicityError,
                     NearZeroDenominatorError, NonIntegerWindingError,
                     ParameterError, ScanExhaustedError, WrightRadiiError)
from .family import (FunctionalValue, NormalizedKind, base_eval,
                     convex_functional, convex_real, starlike_functional,
                     starlike_real)
from .kernel import EvalResult, WrightParams, wright_derivative, wright_eval
from .radii import (CrossCheckResult, JanowskiParams, RadiusQuery,
                    RadiusResult, boundary_sup, cross_validate, domain_bound,
                    radius_by_certification, radius_real_axis,
                    region_functional)
from .zeros import (ZeroTable, base_residual, count_zeros_in_disk,
                    derivative_positive_zeros, hadamard_partial_product,
                    positive_zeros, reciprocal_square_sum)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "CrossCheckResult", "EvalResult", "FunctionalValue",
    "JanowskiParams", "MonotonicityError", "NearZeroDenominatorError",
    "NonIntegerWindingError", "NormalizedKind", "ParameterError",
    "RadiusQuery", "RadiusResult", "ScanExhaustedError",
    "WrightParams", "WrightRadiiError", "ZeroTable", "base_eval",
    "base_residual", "boundary_sup", "convex_functional", "convex_real",
    "count_zeros_in_disk", "cross_validate", "derivative_positive_zeros",
    "domain_bound", "hadamard_partial_product", "positive_zeros",
    "radius_by_certification", "radius_real_axis", "reciprocal_square_sum",
    "region_functional", "starlike_functional", "starlike_real",
    "wright_derivative", "wright_eval", "__version__",
]
