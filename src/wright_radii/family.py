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
via the shift identity; see the kernel module.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearZeroDenominatorError, ParameterError
from .kernel import (EvalResult, WrightParams, _fixed_phases, circle_eval,
                     log_gamma, wright_eval)


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


@dataclass(frozen=True)
class FunctionalValue:
    """A functional value with a first-order propagated error bound."""

    value: complex
    abs_error_bound: float


# ----------------------------------------------------------------------------
# first-order error arithmetic
# ----------------------------------------------------------------------------

def _div(nv: complex, ne: float, dv: complex, de: float) -> tuple[complex, float]:
    """Quotient with first-order propagated bound; rejects drowned denominators."""
    ad = abs(dv)
    if ad <= de:
        raise NearZeroDenominatorError(
            f"denominator {ad:.3e} below its propagated error bound {de:.3e}")
    val = nv / dv
    return val, (ne + abs(val) * de) / ad


# ----------------------------------------------------------------------------
# base evaluation
# ----------------------------------------------------------------------------

def base_eval(p: WrightParams, z: complex, tol: float = 1e-12) -> EvalResult:
    """Phi(z) = Gamma(beta) * W(rho, beta; -z^2), the even base of F and G."""
    gb = math.exp(log_gamma(p.beta))
    r = wright_eval(p, -(complex(z) ** 2), tol / gb if tol > 0 else tol)
    return EvalResult(gb * r.value, gb * r.abs_error_bound, r.terms_used)


def _w_triplet(p: WrightParams, u: complex, tol: float,
               orders: tuple[int, ...]) -> dict[int, EvalResult]:
    return {k: wright_eval(p.shifted(k), u, tol) for k in orders}


# ----------------------------------------------------------------------------
# the two shape functionals
# ----------------------------------------------------------------------------

def starlike_functional(kind: NormalizedKind, p: WrightParams, z: complex,
                        tol: float = 1e-12) -> FunctionalValue:
    """w(z) = z f'(z)/f(z) for the requested kind.

    G: w = 1 - 2 z^2 W1/W,  F: w = 1 - (2/beta) z^2 W1/W  (same Phi),
    H: w = 1 - z W1/W, with W = W(rho,beta;u), W1 = W(rho,beta+rho;u) and
    u = -z^2 (kinds F, G) or u = -z (kind H).
    """
    z = complex(z)
    if kind is NormalizedKind.H:
        ev = _w_triplet(p, -z, tol, (0, 1))
        ratio, rerr = _div(z * ev[1].value, abs(z) * ev[1].abs_error_bound,
                           ev[0].value, ev[0].abs_error_bound)
        return FunctionalValue(1.0 - ratio, rerr)
    ev = _w_triplet(p, -(z * z), tol, (0, 1))
    scale = 2.0 / p.beta if kind is NormalizedKind.F else 2.0
    zz = z * z
    ratio, rerr = _div(zz * ev[1].value, abs(zz) * ev[1].abs_error_bound,
                       ev[0].value, ev[0].abs_error_bound)
    return FunctionalValue(1.0 - scale * ratio, scale * rerr)


def convex_functional(kind: NormalizedKind, p: WrightParams, z: complex,
                      tol: float = 1e-12) -> FunctionalValue:
    """C(z) = 1 + z f''(z)/f'(z) for the requested kind.

    G:  C = 1 + (-6 z^2 W1 + 4 z^4 W2)/(W - 2 z^2 W1)
    H:  C = 1 + (-2 z W1 + z^2 W2)/(W - z W1)
    F:  with a = z Phi'/Phi = -2 z^2 W1/W and z^2 Phi''/Phi =
        (-2 z^2 W1 + 4 z^4 W2)/W,
        C = 1 + a/beta + (a + z^2 Phi''/Phi - a^2)/(beta + a),
        from log f' = (1/beta) log Phi + log u, u = 1 + a/beta.
    """
    z = complex(z)
    if kind is NormalizedKind.H:
        ev = _w_triplet(p, -z, tol, (0, 1, 2))
        az = abs(z)
        num = -2.0 * z * ev[1].value + z * z * ev[2].value
        nerr = 2.0 * az * ev[1].abs_error_bound + az * az * ev[2].abs_error_bound
        den = ev[0].value - z * ev[1].value
        derr = ev[0].abs_error_bound + az * ev[1].abs_error_bound
        ratio, rerr = _div(num, nerr, den, derr)
        return FunctionalValue(1.0 + ratio, rerr)

    ev = _w_triplet(p, -(z * z), tol, (0, 1, 2))
    zz = z * z
    azz = abs(zz)
    if kind is NormalizedKind.G:
        num = -6.0 * zz * ev[1].value + 4.0 * zz * zz * ev[2].value
        nerr = (6.0 * azz * ev[1].abs_error_bound
                + 4.0 * azz * azz * ev[2].abs_error_bound)
        den = ev[0].value - 2.0 * zz * ev[1].value
        derr = ev[0].abs_error_bound + 2.0 * azz * ev[1].abs_error_bound
        ratio, rerr = _div(num, nerr, den, derr)
        return FunctionalValue(1.0 + ratio, rerr)

    # kind F
    beta = p.beta
    a, aerr = _div(-2.0 * zz * ev[1].value, 2.0 * azz * ev[1].abs_error_bound,
                   ev[0].value, ev[0].abs_error_bound)
    phi2, p2err = _div(-2.0 * zz * ev[1].value + 4.0 * zz * zz * ev[2].value,
                       2.0 * azz * ev[1].abs_error_bound
                       + 4.0 * azz * azz * ev[2].abs_error_bound,
                       ev[0].value, ev[0].abs_error_bound)
    num = a + phi2 - a * a
    nerr = aerr + p2err + 2.0 * abs(a) * aerr
    ratio, rerr = _div(num, nerr, beta + a, aerr)
    return FunctionalValue(1.0 + a / beta + ratio, aerr / beta + rerr)


# ----------------------------------------------------------------------------
# vectorized circle variants
# ----------------------------------------------------------------------------
# Boundary sweeps in the radii module evaluate the functionals at many points
# of one circle |z| = r.  The Wright argument u then has constant modulus
# (r^2 for kinds F and G, r for kind H), so the kernel's shared-magnitude
# circle evaluation applies.  No per-point error bounds here: the certifier's
# bisection margins dominate double-precision evaluation noise in the shallow
# region where radii live.

# Wright arguments -phases and -phases**2 of registered constant phase
# arrays, keyed by identity like kernel._FIXED_POWERS.
_FIXED_ARGS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _fixed_grid(phases: np.ndarray) -> np.ndarray:
    """Register constant sweep phases: their Wright arguments are built once,
    with power tables kept by the kernel."""
    phases.setflags(write=False)
    _FIXED_ARGS[id(phases)] = (phases, _fixed_phases(-phases),
                               _fixed_phases(-(phases * phases)))
    return phases


def _circle_arg(phases: np.ndarray, squared: bool) -> np.ndarray:
    entry = _FIXED_ARGS.get(id(phases))
    if entry is None:
        return -(phases * phases) if squared else -phases
    return entry[2 if squared else 1]


def starlike_on_circle(kind: NormalizedKind, p: WrightParams, r: float,
                       phases: np.ndarray) -> np.ndarray:
    """w(r * phases) for unit-modulus phases."""
    if kind is NormalizedKind.H:
        vals = circle_eval(p, r, _circle_arg(phases, False), shifts=(0, 1))
        return 1.0 - (r * phases) * vals[1] / vals[0]
    vals = circle_eval(p, r * r, _circle_arg(phases, True), shifts=(0, 1))
    scale = 2.0 / p.beta if kind is NormalizedKind.F else 2.0
    zz = (r * phases) ** 2
    return 1.0 - scale * zz * vals[1] / vals[0]


def convex_on_circle(kind: NormalizedKind, p: WrightParams, r: float,
                     phases: np.ndarray) -> np.ndarray:
    """C(r * phases) for unit-modulus phases."""
    if kind is NormalizedKind.H:
        vals = circle_eval(p, r, _circle_arg(phases, False), shifts=(0, 1, 2))
        z = r * phases
        num = -2.0 * z * vals[1] + z * z * vals[2]
        den = vals[0] - z * vals[1]
        return 1.0 + num / den
    vals = circle_eval(p, r * r, _circle_arg(phases, True), shifts=(0, 1, 2))
    zz = (r * phases) ** 2
    if kind is NormalizedKind.G:
        num = -6.0 * zz * vals[1] + 4.0 * zz * zz * vals[2]
        den = vals[0] - 2.0 * zz * vals[1]
        return 1.0 + num / den
    beta = p.beta
    a = -2.0 * zz * vals[1] / vals[0]
    phi2 = (-2.0 * zz * vals[1] + 4.0 * zz * zz * vals[2]) / vals[0]
    return 1.0 + a / beta + (a + phi2 - a * a) / (beta + a)


# ----------------------------------------------------------------------------
# real-axis scalar paths
# ----------------------------------------------------------------------------

def starlike_real(kind: NormalizedKind, p: WrightParams, r: float,
                  tol: float = 1e-12) -> float:
    """w(r) for real r; the value is real by conjugate symmetry."""
    return float(starlike_functional(kind, p, complex(r), tol).value.real)


def convex_real(kind: NormalizedKind, p: WrightParams, r: float,
                tol: float = 1e-12) -> float:
    """C(r) for real r."""
    return float(convex_functional(kind, p, complex(r), tol).value.real)
