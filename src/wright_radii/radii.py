"""Radii of starlikeness and convexity for the normalized Wright functions.

Four radius kinds per normalized kind, each defined by a boundary condition
on a functional v(z) (v = w = zf'/f for starlike kinds, v = C = 1 + zf''/f'
for convex kinds):

    lem_star, lem_convex:   |v(z)^2 - 1| < 1      (right loop of the
                                                    lemniscate of Bernoulli)
    jan_star, jan_convex:   |(v(z)-1)/(A-B v(z))| < 1   with -1 <= B < A <= 1

Each radius is computed by two mutually checking routes:

* radius_by_certification: the bisection bracket in r of the definitional
  predicate sup_{|z|=r} |expression| < 1, found by a bracketed solve.  The
  sup over a circle of the modulus of an analytic expression is continuous
  and nondecreasing in r (maximum principle), equals 0 at r = 0, hence the
  predicate flips exactly once; the maximum principle also converts "for all
  |z| < r" into the circle sup.
* radius_real_axis: smallest positive root of the scalar equation
  functional(r) = c on the real axis, with shipped candidate constants
  c = (1-A)/(1-B) (Janowski) and c = 2 - sqrt(2) (lemniscate).

The real-axis crossing is the radius exactly where _real_axis_is_radius
says so (Janowski B <= 0), and the two routes then agree to solver
tolerance.  Elsewhere cross_validate reports their gap as a finding, with
the certifier authoritative.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, MonotonicityError,
                     NearZeroDenominatorError, ParameterError,
                     PoleProximityError, WrightRadiiError)
from .family import (_GRID0, FunctionalValue, NormalizedKind, _AngleGrid,
                     _check_kind, _refinement_grid, convex_functional,
                     convex_on_circle, convex_real, starlike_functional,
                     starlike_on_circle, starlike_real)
from .kernel import WrightParams, _check_params, _check_tol, _store_real
from .zeros import _refine_bracket, derivative_positive_zeros, positive_zeros

RADIUS_KINDS = ("lem_star", "lem_convex", "jan_star", "jan_convex")

LEM_CONSTANT = 2.0 - math.sqrt(2.0)     # root of (1-w)(3-w) = 1 inside (0,1)


# ----------------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class JanowskiParams:
    """Janowski target parameters, -1 <= B < A <= 1."""

    A: float
    B: float

    def __post_init__(self) -> None:
        _store_real(self, "A")
        _store_real(self, "B")
        if not (-1.0 <= self.B < self.A <= 1.0):
            raise ParameterError(
                f"Janowski parameters require -1 <= B < A <= 1, got "
                f"A={self.A}, B={self.B}")


@dataclass(frozen=True)
class RadiusQuery:
    """One radius request: which kind, which parameters, which target region."""

    kind: NormalizedKind
    params: WrightParams
    radius_kind: str
    janowski: JanowskiParams | None = None

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        _check_params(self.params)
        if self.radius_kind not in RADIUS_KINDS:
            raise ParameterError(
                f"radius_kind must be one of {RADIUS_KINDS}, got {self.radius_kind!r}")
        if self.radius_kind.startswith("jan"):
            if self.janowski is None:
                raise ParameterError(f"{self.radius_kind} requires janowski parameters")
        elif self.janowski is not None:
            raise ParameterError(f"{self.radius_kind} takes no janowski parameters")

    @property
    def is_star(self) -> bool:
        return self.radius_kind.endswith("_star")


def _check_query(query) -> None:
    """Refuse a query argument that is not a RadiusQuery."""
    if not isinstance(query, RadiusQuery):
        raise ParameterError(f"query must be a RadiusQuery, got {query!r}")


@dataclass(frozen=True)
class RadiusResult:
    """A computed radius with its certificate.

    pole_truncated marks Janowski searches truncated by a vanishing
    denominator.
    """

    radius: float
    bracket: tuple[float, float]
    method: str
    sup_at_radius: float
    argmax_angle: float
    pole_truncated: bool = False

    @property
    def clamped(self) -> float:
        """min(radius, 1): the subordination classes live on the unit disk, so
        the class membership radius caps at 1 while `radius` keeps the root."""
        return min(self.radius, 1.0)


@dataclass(frozen=True)
class CrossCheckResult:
    """Both routes' results and their gap; finding is the message reporting
    a gap above the cross-check tolerance, else None."""

    certifier: RadiusResult
    real_axis: RadiusResult
    delta: float
    finding: str | None


# ----------------------------------------------------------------------------
# functional plumbing
# ----------------------------------------------------------------------------

def _functional_scalar(query: RadiusQuery, z: complex):
    if query.is_star:
        return starlike_functional(query.kind, query.params, z)
    return convex_functional(query.kind, query.params, z)


def _functional_circle(query: RadiusQuery, r: float, grid: _AngleGrid) -> np.ndarray:
    if query.is_star:
        return starlike_on_circle(query.kind, query.params, r, grid)
    return convex_on_circle(query.kind, query.params, r, grid)


def _functional_real(query: RadiusQuery, r: float) -> float:
    if query.is_star:
        return starlike_real(query.kind, query.params, r)
    return convex_real(query.kind, query.params, r)


def _region(query: RadiusQuery, v, floor: float):
    """|left side| of the region condition at functional values v, one value
    or an array; a Janowski denominator below floor raises."""
    if query.radius_kind.startswith("lem"):
        return abs(v * v - 1.0)
    jp = query.janowski
    den = jp.A - jp.B * v
    if np.min(abs(den)) < floor:
        raise PoleProximityError(
            f"Janowski denominator {np.min(abs(den)):.3e} below {floor:.3e} "
            f"(A={jp.A}, B={jp.B})")
    return abs((v - 1.0) / den)


def region_functional(query: RadiusQuery, z: complex) -> float:
    """The modulus on the left of the region condition at one point.

    A Janowski denominator within 10x its propagated error bound raises."""
    _check_query(query)
    return _region_at(query, _functional_scalar(query, z))


def _region_at(query: RadiusQuery, fv: FunctionalValue) -> float:
    """region_functional from the point functional's value and bound."""
    jp = query.janowski
    floor = 10.0 * abs(jp.B) * fv.abs_error_bound + 1e-300 if jp else 0.0
    return float(_region(query, fv.value, floor))


# ----------------------------------------------------------------------------
# boundary sweep
# ----------------------------------------------------------------------------

@np.errstate(divide="ignore", invalid="ignore")   # a 0/0 raises below, unwarned
def boundary_sup(query: RadiusQuery, r: float, *,
                 _stop_at: float = math.inf) -> tuple[float, float]:
    """sup over theta in [0, pi] of the region modulus at z = r e^{i theta},
    with its angle: a coarse grid plus local 10x refinements.

    Conjugate symmetry of the functionals halves the circle.  The sweep
    evaluates the kept angle grids: the level-0 grid, then the cached
    21-point grid between the argmax's neighbours, so a refinement that
    recurs, as those about theta = 0, pi/2 and pi do, reuses its phases and
    phase powers.  Refinement stops when the triangle bound on the
    missed-peak excess (half the largest adjacent difference near the
    argmax) falls below 1e-10.  The sweep also stops at the first level
    whose running max reaches _stop_at: the running max only grows, so the
    full sweep's max would reach it too.  A level whose argmax is nan, as
    where every Wright value on the circle underflows and the functional
    reads 0/0, raises NearZeroDenominatorError, as the point route does.
    """
    _check_query(query)
    if not 0.0 < r < math.inf:
        raise ParameterError(f"r must be finite and > 0, got {r}")
    grid = _GRID0
    best_sup = -math.inf
    best_angle = 0.0
    for _level in range(12):
        theta = grid.theta
        vals = _region(query, _functional_circle(query, r, grid), 1e-13)
        i = int(np.argmax(vals))          # the first nan, if any
        if math.isnan(vals[i]):
            raise NearZeroDenominatorError(
                f"region modulus on |z| = {r!r} has no value at theta = "
                f"{float(theta[i]):.6g}: its denominator vanishes")
        if vals[i] > best_sup:
            best_sup = float(vals[i])
            best_angle = float(theta[i])
        if best_sup >= _stop_at:
            break
        lo = theta[max(i - 1, 0)]
        hi = theta[min(i + 1, len(theta) - 1)]
        step = (hi - lo) / 2.0
        neighbor_jump = 0.0
        if i > 0:
            neighbor_jump = max(neighbor_jump, abs(float(vals[i] - vals[i - 1])))
        if i < len(vals) - 1:
            neighbor_jump = max(neighbor_jump, abs(float(vals[i] - vals[i + 1])))
        if neighbor_jump * 0.5 < 1e-10 or step <= 1e-15:
            break
        grid = _refinement_grid(float(lo), float(hi))
    return best_sup, best_angle


# ----------------------------------------------------------------------------
# domain bounds
# ----------------------------------------------------------------------------

def domain_bound(query: RadiusQuery, tol: float = 1e-9) -> float:
    """The first singularity of the query's functional, which every radius
    lies below.

    Star kinds: the first zero of the normalized function, a pole of w.
    Convex kinds: the first zero of its derivative, a pole of C.  Each route
    sets its search end a little below it, at most 10 tol, so a tol that is
    not finite and positive, or with 10 tol at or above the singularity,
    raises ParameterError.
    """
    _check_query(query)
    _check_tol(tol)
    p, kind = query.params, query.kind
    if query.is_star:
        form = "minus_z" if kind is NormalizedKind.H else "minus_z_squared"
        zero = positive_zeros(p, form, 1).zeros[0]
    else:
        zero = derivative_positive_zeros(kind, p, 1).zeros[0]
    if not 10.0 * tol < zero:
        raise ParameterError(
            f"tol {tol:g} too coarse: 10 tol = {10.0 * tol:g} must be below "
            f"the first singularity {zero:.9g}")
    return zero


def _search_end(query: RadiusQuery, tol: float) -> tuple[float, float]:
    """(singularity, hi): the domain bound and the search end below it by
    10 tol, or by 1% of it where that is less."""
    singularity = domain_bound(query, tol)
    return singularity, singularity - min(10.0 * tol, 0.01 * singularity)


# ----------------------------------------------------------------------------
# method 1: boundary certification
# ----------------------------------------------------------------------------

def _bisection_walk(lo: float, hi: float, a: float, b: float,
                    tol: float) -> tuple[float, float, float | None]:
    """Bisect (lo, hi) to width tol, deciding midpoints at or below a as
    holds and at or above b as fails, until a midpoint falls strictly inside
    (a, b): (lo, hi, mid) with mid that midpoint and (lo, hi) the cell it
    splits, or mid None and (lo, hi) the final cell.  The walk stops early
    once a midpoint rounds to an endpoint.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if a < mid < b:
            return lo, hi, mid
        if mid <= a:
            lo = mid
        else:
            hi = mid
    return lo, hi, None


def radius_by_certification(query: RadiusQuery, tol: float = 1e-9, *,
                            _seed: float | None = None) -> RadiusResult:
    """Largest r with sup_{|z|=r} |expression| < 1, bracketed to width tol.

    Sound because the sup, boundary_sup(query, r), is continuous and
    nondecreasing in r and tends to 0 as r -> 0, where the excess sup - 1
    is -1 (the functionals start at 1).  A sweep may stop once its running
    max reaches 1, which decides the sign.  A sweep that meets a Janowski
    pole counts as a failure and sets pole_truncated.  The search runs on
    (0, hi), hi below the functional's pole at the domain bound by 10 tol,
    or by 1% of the pole where that is less, so that a coarse tol still
    reaches a radius near the pole.  The condition must fail before the
    pole, so a hold at hi is no radius: it raises ConvergenceError.

    The bracket is exactly that of bisecting from (0, hi) to width tol, found
    in fewer sweeps.  The sign-known ends (a, b) start at (0, hi).  _seed, a
    guess of the radius, names a cell of that bisection, the one it would
    end in were the seed the radius; two probes at the cell's ends narrow
    (a, b) by their signs, a probe outside the current (a, b) skipped.  The
    bisection is then replayed: a midpoint at or below a holds and one at or
    above b fails, by monotonicity, so only a midpoint strictly inside
    (a, b) needs a sweep.  The first such midpoint first runs an
    Anderson-Bjorck solve that narrows (a, b) to a quarter of tol; the rest
    are swept.  A seed in the radius's cell thus leaves no midpoint inside
    (a, b) and no solve: three sweeps, the two probes and the one at the
    radius.  Unseeded, hi/2 lies inside (0, hi), so the solve runs first.
    The probes and the solve only move an end to a point whose sign they
    read, and the replayed midpoints are the bisection's own with its
    verdicts, so the bracket, and every output bit, is the unseeded
    bisection's whatever the seed.  sup_at_radius is the sweep at the
    radius, or at the bracket's lower end when a pole lies between them.
    """
    singularity, hi = _search_end(query, tol)   # checks query and tol
    pole_seen = False

    def excess(r: float) -> float:
        # A failing sweep stops once its running max reaches 1, so its
        # excess is truncated: the bracket is correct by the signs alone, but
        # the solve's steps read the truncated values.
        nonlocal pole_seen
        try:
            return boundary_sup(query, r, _stop_at=1.0)[0] - 1.0
        except PoleProximityError:
            pole_seen = True
            return 1e300

    a, fa, b, fb = 0.0, -1.0, hi, None
    if _seed is not None:
        for x in _bisection_walk(0.0, hi, _seed, _seed, tol)[:2]:
            if a < x < b:
                fx = excess(x)
                if fx < 0.0:
                    a, fa = x, fx
                else:
                    b, fb = x, fx
    if fb is None:
        # a failing end below hi already rules out a hold at hi
        fb = excess(hi)
    if fb < 0.0:
        raise ConvergenceError(
            f"condition holds at hi = {hi:.9g}, below the functional's pole "
            f"at {singularity:.9g}, so the radius lies above hi or the sweep "
            f"there is inaccurate")
    lo, solved = 0.0, False
    while True:
        lo, hi, mid = _bisection_walk(lo, hi, a, b, tol)
        if mid is None:
            break
        if not solved:
            a, b = _refine_bracket(excess, a, b, fa, fb, 0.25 * tol)
            solved = True
        elif excess(mid) < 0.0:
            a = mid
        else:
            b = mid
    radius = 0.5 * (lo + hi)
    try:
        swept_at = boundary_sup(query, max(radius, tol))
    except PoleProximityError:         # inside the bracket; lo held, so saw none
        pole_seen = True
        swept_at = boundary_sup(query, max(lo, tol))
    return RadiusResult(radius=radius, bracket=(lo, hi), method="certifier",
                        sup_at_radius=swept_at[0], argmax_angle=swept_at[1],
                        pole_truncated=pole_seen)


# ----------------------------------------------------------------------------
# method 2: real-axis scalar equation
# ----------------------------------------------------------------------------

def default_constant(query: RadiusQuery) -> float:
    """Shipped crossing constant for the real-axis equation."""
    if query.radius_kind.startswith("jan"):
        jp = query.janowski
        return (1.0 - jp.A) / (1.0 - jp.B)
    return LEM_CONSTANT


@functools.lru_cache(maxsize=128)
def _real_axis_grid(kind: NormalizedKind, params: WrightParams, is_star: bool,
                    hi: float) -> tuple[tuple[float, ...], dict, dict]:
    """The 50-point grid on (0, hi], the real-axis functional's values by r,
    and the point functional, with its bound, by root.  The functional
    depends on (kind, params, star/convex) alone, so the queries of one group
    share both, each evaluating only the points no earlier query reached."""
    return tuple(np.linspace(hi / 50.0, hi, 50).tolist()), {}, {}


def radius_real_axis(query: RadiusQuery, tol: float = 1e-9) -> RadiusResult:
    """Smallest r in (0, domain bound) with functional(r) = c = default_constant.

    One pass over a 50-point grid, up to its first point at or below c,
    checks that the functional strictly decreases from 1 there, all the
    smallest root needs; a regula falsi then solves the crossing cell.  The
    grid ends just below the domain bound for star kinds and, for convex
    ones, below it by 10 tol or by 1% of it where that is less, as the
    certifier's search does.  Raises ConvergenceError if no grid point
    reaches c, if the regula falsi stalls wider than tol, or if the
    functional's error bound at the root plus its rounding, 2 eps max(|c|, 1),
    exceeds tol times the smaller of the crossing cell's slope and the final
    bracket's.  Each query solves from the kept values (_real_axis_grid),
    so one that retraces another's path, as Janowski (1, 0) does (1, -1)'s,
    evaluates nothing new and gets the same bits; sup_at_radius, which
    depends on the query's target, is formed per query.
    """
    singularity, hi = _search_end(query, tol)   # checks query and tol
    c = default_constant(query)
    if query.is_star:
        hi = singularity * (1.0 - 1e-9)
    grid, values, at_roots = _real_axis_grid(query.kind, query.params, query.is_star, hi)
    prev = 1.0                          # the functionals equal 1 at r = 0
    for i, r in enumerate(grid):
        v = values.get(r)
        if v is None:
            v = values[r] = _functional_real(query, r)
        if i > 0 and v >= prev + 1e-12:
            raise MonotonicityError(
                f"real-axis functional is not strictly decreasing on (0, "
                f"{r:.6g}) for {query.radius_kind} of kind {query.kind.value}")
        if v <= c:
            break
        prev = v
    else:
        raise ConvergenceError(
            f"real-axis functional stays above c = {c:.9g} up to hi = "
            f"{grid[-1]:.9g}, below the singularity at {singularity:.9g}")

    a, fa = (grid[i - 1] if i > 0 else 0.0), prev - c
    b, fb = grid[i], v - c
    slope = (fa - fb) / (b - a)
    for _ in range(200):
        if b - a <= tol:
            break
        if fb != fa:
            mid = a + float(fa / (fa - fb)) * (b - a)
            if not (a < mid < b):
                mid = 0.5 * (a + b)
        else:
            mid = 0.5 * (a + b)
        fm = values.get(mid)
        if fm is None:
            fm = values[mid] = _functional_real(query, mid)
        fm -= c
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    radius = 0.5 * (a + b)
    # a secant over the whole cell can miss a flat stretch next to the root
    slope = min(slope, (fa - fb) / (b - a))
    at_root = at_roots.get(radius)
    if at_root is None:
        at_root = at_roots[radius] = _functional_scalar(query, complex(radius))
    err = at_root.abs_error_bound + 2.0 * math.ulp(1.0) * max(abs(c), 1.0)
    if b - a > tol or err > tol * slope:
        raise ConvergenceError(
            f"real-axis root r = {radius:.9g} not resolved to tol {tol:.3e}: "
            f"bracket width {b - a:.3e}, error bound {err:.3e}")
    return RadiusResult(radius=radius, bracket=(a, b), method="real_axis",
                        sup_at_radius=_region_at(query, at_root), argmax_angle=0.0)


# ----------------------------------------------------------------------------
# cross-validation and findings
# ----------------------------------------------------------------------------

def _real_axis_is_radius(query: RadiusQuery) -> bool:
    """Whether the real-axis crossing is the radius: Janowski B <= 0.

    The functional maps |z| <= r into a disk centered on the real axis with
    leftmost point functional(r) attained at real z, and for B <= 0 the
    Janowski modulus |(v-1)/(A-Bv)| over that disk peaks at the leftmost
    point, so the condition first fails on the real axis and the radius
    solves functional(r) = (1-A)/(1-B).  For B > 0 the extreme point of the
    image disk moves off the leftmost point.  For the lemniscate the
    boundary extremum of |v^2 - 1| sits off the real axis, so the crossing
    at 2 - sqrt(2) is only a containment lower bound.
    """
    jp = query.janowski
    return jp is not None and jp.B <= 0.0


def _other_axis_crossing(query: RadiusQuery, tol: float) -> float | None:
    """The root r_up of v = level on the other axis, z = i r for kinds F
    and G and z = -r for kind H, solved to a quarter of tol on (0, hi).

    There v is real, starts at 1 and increases, and the region condition
    reads v < level: sqrt(2) for the lemniscate, (1 + A)/(1 + B) for
    Janowski B > -1.  The condition thus fails at r_up, which bounds the
    radius from above.  None when v stays below level up to the certifier's
    search end hi, or when the point functional raises; None too for
    Janowski B = -1, whose target is the half-plane Re v > (1 - A)/2 with
    no right end.
    """
    jp = query.janowski
    if jp is not None and jp.B == -1.0:
        return None
    level = math.sqrt(2.0) if jp is None else (1.0 + jp.A) / (1.0 + jp.B)
    axis = -1.0 if query.kind is NormalizedKind.H else 1j

    def excess(r: float) -> float:
        return _functional_scalar(query, axis * r).value.real - level

    _, hi = _search_end(query, tol)
    try:
        fhi = excess(hi)
        if fhi < 0.0:
            return None
        a, b = _refine_bracket(excess, 0.0, hi, 1.0 - level, fhi, 0.25 * tol)
    except WrightRadiiError:
        return None
    return 0.5 * (a + b)


CROSS_CHECK_TOLERANCE = 1e-5


def cross_validate(query: RadiusQuery, tol: float = 1e-9) -> CrossCheckResult:
    """Run both methods; report a finding when they disagree beyond
    max(CROSS_CHECK_TOLERANCE, 2 tol): each lies within tol of the crossing.

    The certifier is definitional ground truth; a finding therefore flags the
    real-axis equation, never the certifier.  Where the crossing is the
    radius (_real_axis_is_radius) it seeds the certifier's bracket;
    elsewhere it lies off the radius, and the crossing on the other axis,
    an upper bound of the radius, seeds it instead.
    """
    real = radius_real_axis(query, tol)
    seed = (real.radius if _real_axis_is_radius(query)
            else _other_axis_crossing(query, tol))
    cert = radius_by_certification(query, tol, _seed=seed)
    delta = abs(cert.radius - real.radius)
    finding = None
    if delta > max(CROSS_CHECK_TOLERANCE, 2.0 * tol):
        if real.radius < cert.radius:
            why = ("so the real-axis constant is a containment bound, not the "
                   "radius")
        else:
            why = ("so real-axis sharpness fails (it holds only for Janowski "
                   "B <= 0) and the real-axis crossing overestimates the radius")
        finding = (f"real-axis radius {real.radius:.9f} differs from the "
                   f"certified radius {cert.radius:.9f} by {delta:.3e}; the "
                   f"boundary extremum sits at angle {cert.argmax_angle:.4f} "
                   f"off the real axis, {why}")
    return CrossCheckResult(certifier=cert, real_axis=real, delta=delta,
                            finding=finding)
