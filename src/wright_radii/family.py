"""The three normalized Wright functions and their shape functionals.

With Phi(z) = Gamma(beta) * W(rho, beta; -z^2) (even entire, Phi(0) = 1) and
Psi(z) = Gamma(beta) * W(rho, beta; -z), the normalized family is

    F:  f(z) = z * Phi(z)^(1/beta)
    G:  g(z) = z * Phi(z)
    H:  h(z) = z * Psi(z)

each satisfying f(0) = 0, f'(0) = 1.  The starlikeness functional
w(z) = z f'(z)/f(z) and the convexity functional C(z) = 1 + z f''(z)/f'(z)
are computed from log-derivatives of Phi (resp. Psi) alone, so the fractional
power in kind F is never evaluated and no branch cut is involved.

All identities reduce to ratios of W(rho, beta + k*rho; .) for k = 0, 1, 2
via the shift identity; see the kernel module.  Each functional is written
once, in _starlike and _convex, and evaluated by two routes: at one point
with a first-order error bound (starlike_functional, convex_functional and
the *_real wrappers), whose arithmetic FunctionalValue carries, and on a
circle of points without (the *_on_circle functions the boundary sweeps
use).  A circle is always a kept angle grid, _AngleGrid: the level-0 grid or
one of a bounded cache of refinement grids, each holding its phases and the
phase powers of its Wright arguments once formed.
"""
from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .errors import NearZeroDenominatorError, ParameterError
from .kernel import (EvalResult, WrightParams, _check_params, _gamma,
                     _PhasePowers, _wright_shifts, circle_eval, wright_eval)


class NormalizedKind(enum.Enum):
    """Which of the three normalizations is meant."""

    F = "f"
    G = "g"
    H = "h"

    @classmethod
    def from_string(cls, s: str) -> "NormalizedKind":
        try:
            return cls(s.lower())
        except ValueError:
            raise ParameterError(f"unknown kind {s!r}; expected f, g, or h") from None


def _check_kind(kind) -> None:
    """Refuse a kind that is not a NormalizedKind, such as its string name."""
    if not isinstance(kind, NormalizedKind):
        raise ParameterError(f"kind must be a NormalizedKind, got {kind!r}")


# ----------------------------------------------------------------------------
# first-order error arithmetic
# ----------------------------------------------------------------------------

class FunctionalValue:
    """A complex or real value with a first-order propagated error bound.

    The operators keep CPython's operation order on the values, so a formula
    written with them yields exactly the plain formula's value.  A plain
    number enters on the left, as the formulas write it (2.0 * z * W1,
    1.0 + q), or as a divisor.  Division rejects a denominator no larger
    than its own bound.
    """

    __slots__ = ("value", "abs_error_bound")

    def __init__(self, value: complex, abs_error_bound: float):
        self.value = value
        self.abs_error_bound = abs_error_bound

    def __add__(self, other: "FunctionalValue") -> "FunctionalValue":
        return FunctionalValue(self.value + other.value,
                               self.abs_error_bound + other.abs_error_bound)

    def __sub__(self, other: "FunctionalValue") -> "FunctionalValue":
        return FunctionalValue(self.value - other.value,
                               self.abs_error_bound + other.abs_error_bound)

    def __mul__(self, other: "FunctionalValue") -> "FunctionalValue":
        return FunctionalValue(self.value * other.value,
                               abs(self.value) * other.abs_error_bound
                               + abs(other.value) * self.abs_error_bound)

    def __radd__(self, other: complex) -> "FunctionalValue":
        return FunctionalValue(other + self.value, self.abs_error_bound)

    def __rsub__(self, other: complex) -> "FunctionalValue":
        return FunctionalValue(other - self.value, self.abs_error_bound)

    def __rmul__(self, other: complex) -> "FunctionalValue":
        return FunctionalValue(other * self.value, abs(other) * self.abs_error_bound)

    def __truediv__(self, other: "FunctionalValue | float") -> "FunctionalValue":
        den, den_bound = ((other.value, other.abs_error_bound)
                          if isinstance(other, FunctionalValue) else (other, 0.0))
        ad = abs(den)
        if ad <= den_bound:
            raise NearZeroDenominatorError(
                f"denominator {ad:.3e} below its propagated error bound "
                f"{den_bound:.3e}")
        val = self.value / den
        return FunctionalValue(val, (self.abs_error_bound + abs(val) * den_bound) / ad)


# ----------------------------------------------------------------------------
# base evaluation
# ----------------------------------------------------------------------------

def base_eval(p: WrightParams, z: complex, tol: float = 1e-12) -> EvalResult:
    """Phi(z) = Gamma(beta) * W(rho, beta; -z^2), the even base of F and G."""
    _check_params(p)
    gb = _gamma(p.beta)
    r = wright_eval(p, -(complex(z) ** 2), tol / gb if tol > 0 else tol)
    return EvalResult(gb * r.value, gb * r.abs_error_bound, r.terms_used)


# ----------------------------------------------------------------------------
# the two shape functionals, written once
# ----------------------------------------------------------------------------
# W[k] = W(rho, beta + k*rho; u) with u = -z^2 (kinds F, G) or u = -z (kind
# H).  At a point, z is a complex or a float and W holds FunctionalValues;
# on a circle, z is an array of points and W the rows of circle_eval.

def _starlike(kind: NormalizedKind, beta: float, z, W):
    """w = z f'/f.  G: 1 - 2 z^2 W1/W,  F: 1 - (2/beta) z^2 W1/W,
    H: 1 - z W1/W."""
    if kind is NormalizedKind.H:
        return 1.0 - z * W[1] / W[0]
    # Scaled after the quotient: the real-axis root solve amplifies a single
    # ulp of w, so this order is the one its results were computed in.
    scale = 2.0 / beta if kind is NormalizedKind.F else 2.0
    return 1.0 - scale * (z * z * W[1] / W[0])


def _convex(kind: NormalizedKind, beta: float, z, W):
    """C = 1 + z f''/f'.

    G:  C = 1 + (-6 z^2 W1 + 4 z^4 W2)/(W - 2 z^2 W1)
    H:  C = 1 + (-2 z W1 + z^2 W2)/(W - z W1)
    F:  with a = z Phi'/Phi = -2 z^2 W1/W and z^2 Phi''/Phi =
        (-2 z^2 W1 + 4 z^4 W2)/W,
        C = 1 + a/beta + (a + z^2 Phi''/Phi - a^2)/(beta + a),
        from log f' = (1/beta) log Phi + log u, u = 1 + a/beta.
    """
    if kind is NormalizedKind.H:
        return 1.0 + (-2.0 * z * W[1] + z * z * W[2]) / (W[0] - z * W[1])
    zz = z * z
    if kind is NormalizedKind.G:
        return 1.0 + ((-6.0 * zz * W[1] + 4.0 * zz * zz * W[2])
                      / (W[0] - 2.0 * zz * W[1]))
    a = -2.0 * zz * W[1] / W[0]
    phi2 = (-2.0 * zz * W[1] + 4.0 * zz * zz * W[2]) / W[0]
    return 1.0 + a / beta + (a + phi2 - a * a) / (beta + a)


def _at_point(functional, kind: NormalizedKind, p: WrightParams,
              z: complex | float, n: int) -> FunctionalValue:
    """functional at z from its first n Wright values, with bounds; for a
    float z in floats, which give the real parts of the complex route."""
    _check_kind(kind)
    _check_params(p)
    real = isinstance(z, float)
    u = -z if kind is NormalizedKind.H else -(z * z)
    W = [FunctionalValue(value.real if real else value, tail)
         for value, tail, _ in _wright_shifts(p, u, n, 1e-12)]
    return functional(kind, p.beta, z, W)


# Boundary sweeps in the radii module evaluate the functionals at many points
# of one circle |z| = r.  The Wright argument u then has constant modulus
# (r^2 for kinds F and G, r for kind H), so the kernel's shared-magnitude
# circle evaluation applies.  No per-point error bounds here: the certifier's
# bisection margins dominate double-precision evaluation noise in the shallow
# region where radii live.

class _AngleGrid:
    """A kept sweep grid: read-only angles theta, their phases e^{i theta},
    and the power tables of the Wright argument's unit phases, -phases**2
    for kinds F and G and -phases for kind H.  The tables grow in place, so
    a sweep that passes the grid again forms no row twice; their rows are
    bit for bit those of a fresh table."""

    __slots__ = ("theta", "phases", "_powers")

    def __init__(self, theta: np.ndarray):
        self.theta = theta
        self.phases = np.exp(1j * theta)
        theta.setflags(write=False)
        self.phases.setflags(write=False)
        self._powers = (_PhasePowers(-(self.phases * self.phases)),
                        _PhasePowers(-self.phases))

    def powers(self, kind: NormalizedKind) -> _PhasePowers:
        """The phase-power table of kind's Wright argument."""
        return self._powers[kind is NormalizedKind.H]


# The level-0 grid of every sweep, and the 21-point refinement grids of its
# later levels by their end angles.  The argmax of most sweeps lands at
# theta = 0, pi/2 or pi, so few distinct refinement grids recur.
_GRID0 = _AngleGrid(np.linspace(0.0, math.pi, 257))


@functools.lru_cache(maxsize=16)
def _refinement_grid(lo: float, hi: float) -> _AngleGrid:
    """The kept 21-point grid on [lo, hi]."""
    return _AngleGrid(np.linspace(lo, hi, 21))


def _on_circle(functional, kind: NormalizedKind, p: WrightParams, r: float,
               grid: _AngleGrid, n: int) -> np.ndarray:
    """functional at r * grid.phases from one circle_eval of its n Wright
    rows over the grid's power table."""
    _check_kind(kind)
    _check_params(p)
    modulus = r if kind is NormalizedKind.H else r * r
    W = circle_eval(p, modulus, grid.powers(kind), shifts=(0, 1, 2)[:n])
    return functional(kind, p.beta, r * grid.phases, W)


# ----------------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------------

def starlike_functional(kind: NormalizedKind, p: WrightParams,
                        z: complex) -> FunctionalValue:
    """w(z) = z f'(z)/f(z) for the requested kind, with its error bound."""
    return _at_point(_starlike, kind, p, complex(z), 2)


def convex_functional(kind: NormalizedKind, p: WrightParams,
                      z: complex) -> FunctionalValue:
    """C(z) = 1 + z f''(z)/f'(z) for the requested kind, with its error bound."""
    return _at_point(_convex, kind, p, complex(z), 3)


def starlike_on_circle(kind: NormalizedKind, p: WrightParams, r: float,
                       grid: _AngleGrid) -> np.ndarray:
    """w(r * grid.phases) on a kept grid."""
    return _on_circle(_starlike, kind, p, r, grid, 2)


def convex_on_circle(kind: NormalizedKind, p: WrightParams, r: float,
                     grid: _AngleGrid) -> np.ndarray:
    """C(r * grid.phases) on a kept grid."""
    return _on_circle(_convex, kind, p, r, grid, 3)


def starlike_real(kind: NormalizedKind, p: WrightParams, r: float) -> float:
    """w(r) for real r; the value is real by conjugate symmetry."""
    return _at_point(_starlike, kind, p, float(r), 2).value


def convex_real(kind: NormalizedKind, p: WrightParams, r: float) -> float:
    """C(r) for real r."""
    return _at_point(_convex, kind, p, float(r), 3).value
