"""Certified evaluation of the Wright function series.

The Wright function treated here is

    W(rho, beta; z) = sum_{n >= 0} z^n / (n! Gamma(rho*n + beta)),

entire in z for rho > 0, beta > 0.  Every public evaluation returns the
partial sum together with a rigorous truncation-tail bound: the term ratios
|t_{n+1}/t_n| = |z| / ((n+1) * Gamma(rho*n+rho+beta)/Gamma(rho*n+beta)) are
strictly decreasing, so once three consecutive ratios fall below q0 = 0.5 the
remaining tail is dominated by a geometric series with the last observed
ratio q, giving tail <= |t_last| * q / (1 - q).

Terms are formed in log space, exp(n*log|z| - log n! - log Gamma(rho*n+beta)),
with both logs read from tables kept across calls, so no intermediate
overflows occur even when individual factors would overflow a double.
_wright_shifts sums the shifted series W(rho, beta + s*rho; u), s < count, at
one point in one loop: the shifts share the phase powers and n*log|u| - log
n!, and each stops on its own certificate.  wright_eval is its count = 1
case, and the family's point functionals read their two or three Wright
values from one call.  circle_eval sums a whole circle |u| = const at once,
from term magnitudes cached per modulus and the phase powers of the caller's
_PhasePowers table.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

# Three consecutive ratio samples below this before the geometric bound applies.
_Q0 = 0.5
_LN_Q0 = math.log(_Q0)
_TERM_CAP = 10_000
# Certified tail bound of the shared-magnitude circle series.
_CIRCLE_TOL = 1e-14


# ----------------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------------

def _store_real(obj, name: str) -> None:
    """Store the field name of the frozen dataclass obj as a Python float:
    any finite real scalar but bool, else ParameterError."""
    value = getattr(obj, name)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:           # an integer beyond the double range
            x = math.inf
        if math.isfinite(x):
            object.__setattr__(obj, name, x)
            return
    raise ParameterError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class WrightParams:
    """Parameter pair (rho, beta) of the Wright function, both positive."""

    rho: float
    beta: float

    def __post_init__(self) -> None:
        _store_real(self, "rho")
        _store_real(self, "beta")
        if self.rho <= 0:
            raise ParameterError(f"rho must be > 0 (entire regime), got {self.rho}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")

    def shifted(self, order: int) -> "WrightParams":
        """Parameters of the order-th derivative via the shift identity."""
        return WrightParams(self.rho, self.beta + order * self.rho)


@dataclass(frozen=True)
class EvalResult:
    """Value plus a rigorous truncation-tail bound.

    abs_error_bound bounds |value - W(rho,beta;z)| from the truncated tail
    alone; it is a bound, not an estimate.
    """

    value: complex
    abs_error_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if self.abs_error_bound < 0:
            raise ParameterError("abs_error_bound must be >= 0")
        if self.terms_used < 1:
            raise ParameterError("terms_used must be >= 1")


def _check_params(p) -> None:
    """Refuse a params argument that is not a WrightParams, such as a tuple."""
    if not isinstance(p, WrightParams):
        raise ParameterError(f"params must be WrightParams, got {p!r}")


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not (0.0 < tol < math.inf):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")


# ----------------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------------

def log_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0.

    Relative error <= 1e-14 on [1e-3, 1e4].
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ParameterError(f"log_gamma requires a finite real, got {x!r}")
    if x <= 0:
        raise ParameterError(f"log_gamma domain is x > 0, got {x}")
    return math.lgamma(x)


def _gamma(x: float) -> float:
    """Gamma(x) for real x > 0, or ConvergenceError past the double range."""
    try:
        return math.exp(log_gamma(x))
    except OverflowError:
        raise ConvergenceError(
            f"Gamma({x}) exceeds double-precision range") from None


def _recip_gamma(x: float, a: float = 1.0) -> float:
    """a/Gamma(x) for real x > 0, the series' term at the origin: a/exp(lgamma)
    while exp(lgamma) is a double, a*exp(-lgamma) beyond, which may be 0."""
    lg = log_gamma(x)
    try:
        return a / math.exp(lg)
    except OverflowError:
        return a * math.exp(-lg)


# ----------------------------------------------------------------------------
# log-coefficient tables
# ----------------------------------------------------------------------------
# The term loops form n*log|z| - lf[n] - lgamma(rho*n + beta + s*rho) from
# one shared table of log n!, lf[n] = lf[n-1] + log(n), and one lgamma table
# per (rho, beta, s), grown on demand; each entry is what a loop summing term
# by term would form.  Lists only grow; the lock keeps each entry at its index.

_LOG_FACT = [0.0]
_GROWING = threading.Lock()


@functools.lru_cache(maxsize=256)
def _lgammas(rho: float, beta: float, s: int) -> list[float]:
    """lgamma(rho*n + beta + s*rho) for n < len, grown by _grow."""
    return []


def _grow(lg: list[float], rho: float, beta: float, s: int, n: int) -> int:
    """len(lg) once lg, the table of (rho, beta, s), and lf reach index n."""
    with _GROWING:
        while len(_LOG_FACT) <= n:
            _LOG_FACT.append(_LOG_FACT[-1] + math.log(len(_LOG_FACT)))
        while len(lg) <= n:
            lg.append(math.lgamma(rho * len(lg) + beta + s * rho))
        return len(lg)


# ----------------------------------------------------------------------------
# series evaluation
# ----------------------------------------------------------------------------

def wright_eval(p: WrightParams, z: complex, tol: float = 1e-12) -> EvalResult:
    """W(rho, beta; z) with a certified truncation bound <= tol.

    Raises ConvergenceError if the geometric-ratio regime with tail <= tol is
    not reached within the term cap.
    """
    _check_params(p)
    return EvalResult(*_wright_shifts(p, z, 1, tol)[0])


def _wright_shifts(p: WrightParams, u: complex, count: int,
                   tol: float) -> list[tuple[complex, float, int]]:
    """(value, tail, terms) of W(rho, beta + s*rho; u) for each s < count.

    Entry s is what wright_eval(p.shifted(s), u, tol) returns, and the first
    shift that fails raises what that call raises.  The shifts share the
    phase powers and the log terms n*log|u| - log n!, formed once; each sums
    its own terms and stops on its own certificate.
    """
    _check_tol(tol)
    if not cmath.isfinite(u):
        raise ParameterError(f"z must be finite, got {u!r}")
    rho, beta = p.rho, p.beta
    au = abs(u)
    if au == 0.0:
        # a value under the double range keeps the loop's sub-subnormal bound
        return [(complex(v), 0.0 if v else 5e-324, 1)
                for v in (_recip_gamma(beta + s * rho) for s in range(count))]

    log_au = math.log(au)
    # For real u every imaginary part would be a signed zero: sum in floats.
    u, phase, zero = ((u.real, 1.0, 0.0) if u.imag == 0
                      else (u, complex(1.0), complex(0.0)))
    phase_unit = u / au                     # unit modulus: powers cannot overflow
    lf = _LOG_FACT
    bases: list[float] = []                 # n*log|u| - log n!
    phases = []
    out = []
    for s in range(count):
        # wright_eval(p.shifted(s)) reads the table of (rho, beta + s*rho, 0),
        # not circle_eval's (rho, beta, s): rho*n + (beta + s*rho) and
        # rho*n + beta + s*rho round apart
        b = beta + s * rho
        lg = _lgammas(rho, b, 0)
        known = len(lg)
        total, last_log, decays = zero, None, 0
        # Decay detection runs on log magnitudes: exp'd terms underflow to an
        # exact 0.0 long before the series is mathematically done, and a
        # ratio of zeros would stall the certificate.
        for n in range(_TERM_CAP):
            if n == known:
                known = _grow(lg, rho, b, 0, n)
            if n == len(bases):
                bases.append(n * log_au - lf[n])
                phases.append(phase)
                phase *= phase_unit
            log_mag = bases[n] - lg[n]
            if log_mag > 709.0:
                raise ConvergenceError(
                    f"series terms for (rho={rho}, beta={b}, |z|={au:.3g}) "
                    "exceed double-precision range")
            mag = math.exp(log_mag)
            total += mag * phases[n]
            if last_log is not None:
                dlog = log_mag - last_log
                decays = decays + 1 if dlog < _LN_Q0 else 0
                if decays >= 3:
                    q = math.exp(dlog)
                    # Term magnitudes are log-concave in n, so the ratio only
                    # shrinks from here: tail <= mag * q / (1 - q).
                    tail = mag * (q / (1.0 - q))
                    if tail == 0.0:
                        tail = 5e-324       # sub-subnormal tail, over-covered
                    if tail <= tol:
                        out.append((complex(total), tail, n + 1))
                        break
            last_log = log_mag
        else:
            raise ConvergenceError(
                f"series for (rho={rho}, beta={b}, |z|={au:.3g}) did not "
                f"certify tail <= {tol:g} within {_TERM_CAP} terms")
    return out


def wright_derivative(p: WrightParams, z: complex, order: int,
                      tol: float = 1e-12) -> EvalResult:
    """d^order/dz^order W(rho, beta; z) via the shift identity.

    Differentiating the series termwise gives W'(rho, beta; z) =
    W(rho, beta+rho; z), and likewise order 2 shifts beta by 2*rho.
    """
    _check_params(p)
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    return wright_eval(p.shifted(order), z, tol)


# ----------------------------------------------------------------------------
# internal: shared-magnitude evaluation on a circle
# ----------------------------------------------------------------------------
# For |u| fixed, the term magnitudes |u|^n/(n! Gamma(rho n + beta)) are a
# scalar sequence shared by every point of the circle; only the unit phases
# differ.  A boundary sweep in the radii module keeps |u| fixed over all of
# its refinement levels, and the queries of one (kind, params) revisit the
# same radii, so the magnitude rows are cached; the phase powers are kept by
# the _PhasePowers tables of the family's kept angle grids, the level-0 grid
# and the cached refinement grids that sweeps revisit.

@functools.lru_cache(maxsize=256)
def _magnitude_rows(rho: float, beta: float, modulus: float,
                    shifts: tuple[int, ...]) -> np.ndarray:
    """Read-only (n_terms, len(shifts)) term magnitudes at modulus > 0.

    The term count is fixed by the certified geometric-tail criterion of
    wright_eval applied to the worst shift.  Formed by math.exp term by term
    from the log-coefficient tables: np.exp differs from math.exp in the last
    ulp on some inputs, which would change sweep output digits.
    """
    log_u = math.log(modulus)
    lf = _LOG_FACT
    lgs = [_lgammas(rho, beta, s) for s in shifts]
    known = min(map(len, lgs))
    mag_rows: list[list[float]] = []
    last_log = None
    decays = 0
    for n in range(_TERM_CAP):
        if n == known:
            known = min(_grow(lg, rho, beta, s, n) for s, lg in zip(shifts, lgs))
        log_row = [n * log_u - lf[n] - lg[n] for lg in lgs]
        log_mag = max(log_row)
        if log_mag > 709.0:
            raise ConvergenceError(
                f"circle series terms for (rho={rho}, beta={beta}, "
                f"|u|={modulus:.3g}) exceed double-precision range")
        mag_rows.append([math.exp(v) for v in log_row])
        if last_log is not None:
            dlog = log_mag - last_log
            decays = decays + 1 if dlog < _LN_Q0 else 0
            if decays >= 3:
                q = math.exp(dlog)
                tail = max(math.exp(log_mag) * (q / (1.0 - q)), 5e-324)
                if tail <= _CIRCLE_TOL:
                    break
        last_log = log_mag
    else:
        raise ConvergenceError(
            f"circle series for (rho={rho}, beta={beta}, |u|={modulus:.3g}) "
            f"did not certify tail <= {_CIRCLE_TOL:g} within {_TERM_CAP} terms"
        )
    mags = np.asarray(mag_rows, dtype=float)
    mags.setflags(write=False)
    return mags


class _PhasePowers:
    """Unit phases u, which must not change, and a read-only table of the
    rows u**0, u**1, ...: a kept sweep grid that holds its object forms each
    row once, over all the radii and sweeps that pass that grid.  The table
    grows on demand to at least twice its length by np.multiply.accumulate,
    so its first rows are bit for bit those of a fresh, shorter table."""

    __slots__ = ("phases", "_table")

    def __init__(self, phases: np.ndarray):
        self.phases = phases
        self._table = np.empty((0, len(phases)), dtype=complex)

    def rows(self, n_terms: int) -> np.ndarray:
        """The first n_terms rows, read-only."""
        # read via a local: a concurrent grower's table holds the same rows
        table = self._table
        if len(table) < n_terms:
            n = max(n_terms, 2 * len(table))
            table = np.empty((n, len(self.phases)), dtype=complex)
            table[0, :] = 1.0
            np.multiply.accumulate(
                np.broadcast_to(self.phases, (n - 1, len(self.phases))),
                axis=0, out=table[1:, :])
            table.setflags(write=False)
            self._table = table
        return table[:n_terms]


def circle_eval(p: WrightParams, modulus: float, powers: _PhasePowers,
                shifts: tuple[int, ...]) -> np.ndarray:
    """W(rho, beta + s*rho; u) for u = modulus*powers.phases, each s in shifts.

    The phases must be unit-modulus complex.  Returns an array of shape
    (len(shifts), len(phases)).  The stopping rule is the same certified
    geometric-tail criterion as wright_eval, applied to the worst shift.
    """
    if modulus < 0:
        raise ParameterError("modulus must be >= 0")
    rho, beta = p.rho, p.beta
    if modulus == 0.0:
        out = np.zeros((len(shifts), len(powers.phases)), dtype=complex)
        for k, s in enumerate(shifts):
            out[k, :] = _recip_gamma(beta + s * rho)
        return out

    # Magnitude sequences are independent of the phases: the cached rows fix
    # the term count, then one matrix product against the phase powers.
    mags = _magnitude_rows(rho, beta, modulus, tuple(shifts))
    return mags.T @ powers.rows(len(mags))


# ----------------------------------------------------------------------------
# internal: noise-tracked alternating combination on the negative axis
# ----------------------------------------------------------------------------
# The zeros module locates sign changes of real combinations
#
#     s(x) = a*W(rho,beta; -x) + b*x*W(rho,beta+rho; -x),   x > 0,
#
# which collapse to the single alternating series
#
#     s(x) = sum_n (-1)^n x^n (a - b*n) / (n! Gamma(rho n + beta))
#
# because Gamma(rho(n-1) + rho + beta) = Gamma(rho n + beta).  Deep in the
# oscillatory region the partial sums cancel catastrophically; the returned
# noise figure bounds the accumulated rounding (term scale eps * maxmag,
# amplified by the exponent magnitude since terms are formed as exp(log mag),
# with ~sqrt(N) near-maximal terms adding in rms).

def combo_neg_axis(p: WrightParams, x: float, a: float = 1.0,
                   b: float = 0.0) -> tuple[float, float] | None:
    """(value, noise) of s(x) in double precision, or None on overflow."""
    if x < 0:
        raise ParameterError("combo_neg_axis requires x >= 0")
    rho, beta = p.rho, p.beta
    if x == 0.0:
        return _recip_gamma(beta, a), 2.3e-16 * abs(a)
    log_x = math.log(x)
    lf, lg = _LOG_FACT, _lgammas(rho, beta, 0)
    known = len(lg)
    total = 0.0
    max_mag = 0.0
    max_log = 1.0
    last_mag = None
    prev_log = 0.0
    decays = 0
    n = 0
    while n < 100_000:
        if n == known:
            known = _grow(lg, rho, beta, 0, n)
        log_fact = lf[n]
        coeff = a - b * n
        log_mag = n * log_x - log_fact - lg[n]
        if log_mag > 690.0:
            return None                      # double overflow: caller escalates
        emag = math.exp(log_mag)
        mag = emag * abs(coeff)
        total += mag if (n % 2 == 0) == (coeff >= 0) else -mag
        if mag > max_mag:
            max_mag = mag
            max_log = max(abs(log_mag), abs(log_fact), 1.0)
        if emag == 0.0 and n > 1 and (max_mag > 0.0 or log_mag < prev_log):
            # The exp factor is log-concave in n: an exact underflow after
            # positive terms, or one past the peak when every term so far
            # underflowed (1/Gamma(beta) below the double range), lies on
            # the falling side, so every remaining term rounds below the
            # subnormal floor.
            break
        prev_log = log_mag
        if last_mag is not None and last_mag > 0.0:
            q = mag / last_mag
            decays = decays + 1 if q < _Q0 else 0
            if decays >= 3 and mag < 1e-18 * max_mag:
                break
        last_mag = mag
        n += 1
    noise = 2.3e-16 * max_mag * max_log * max(1.0, math.sqrt(n))
    return total, noise


def term_exponent_max(p: WrightParams, x: float) -> float:
    """Largest log term magnitude of the series at -x (ternary search).

    Measures the cancellation depth: a double-precision sum at -x has a
    rounding floor near exp(value) * 1e-16.
    """
    if x <= 1e-300:
        return 0.0
    rho, beta = p.rho, p.beta
    log_x = math.log(x)
    lgamma = math.lgamma
    # the log term t log x - lgamma(t + 1) - lgamma(rho t + beta), written
    # out in the loop: a function call per evaluation costs a quarter of the
    # search's time
    lo = 0.0
    hi = 20.0 + 4.0 * x ** (1.0 / (1.0 + rho)) * (1.0 + 1.0 / rho)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if m1 == lo and m2 == hi:
            break                        # no update can move lo or hi again
        if (m1 * log_x - lgamma(m1 + 1.0) - lgamma(rho * m1 + beta)
                < m2 * log_x - lgamma(m2 + 1.0) - lgamma(rho * m2 + beta)):
            lo = m1
        else:
            hi = m2
    t = 0.5 * (lo + hi)
    return max(t * log_x - lgamma(t + 1.0) - lgamma(rho * t + beta), 0.0)


def envelope_exponent(p: WrightParams, x: float) -> float:
    """Log scale of the oscillation envelope of W(rho,beta; -x) for large x.

    From the saddle of the inverse-Laplace representation: the dominant
    oscillatory saddle contributes exp(c*cos(pi/(1+rho))) against the series
    max exp(c/rho * ...); concretely the envelope exponent is

        (rho*x)^(1/(1+rho)) * (cos(pi/(1+rho)) - (1/rho)*cos(pi*rho/(1+rho)))

    which is 0 for rho = 1 (Bessel), negative for rho < 1, positive for
    rho > 1.  Used only to budget working precision, never for values.
    """
    if x <= 1e-300:
        return 0.0
    rho = p.rho
    c = (rho * x) ** (1.0 / (1.0 + rho))
    return c * (math.cos(math.pi / (1.0 + rho))
                - (1.0 / rho) * math.cos(math.pi * rho / (1.0 + rho)))
