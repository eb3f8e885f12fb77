from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wright_radii import (
    ConvergenceError,
    EvalResult,
    NearZeroDenominatorError,
    NormalizedKind,
    ParameterError,
    RadiusQuery,
    WrightParams,
    base_eval,
    base_residual,
    convex_functional,
    convex_real,
    count_zeros_in_disk,
    derivative_positive_zeros,
    domain_bound,
    positive_zeros,
    starlike_functional,
    starlike_real,
    wright_derivative,
    wright_eval,
)
from wright_radii import family
from wright_radii.family import (_GRID0, _AngleGrid, _refinement_grid,
                                 convex_on_circle, starlike_on_circle)
from wright_radii.kernel import _PhasePowers, circle_eval, combo_neg_axis

# First positive zero of J0, halved: the first zero of g(r) = r J0(2r).
FIRST_G_ZERO_11 = 1.2024127788478864


def test_kind_from_string():
    assert NormalizedKind.from_string("g") is NormalizedKind.G
    assert NormalizedKind.from_string("F") is NormalizedKind.F
    with pytest.raises(Exception):
        NormalizedKind.from_string("q")


def test_functionals_refuse_a_kind_name():
    # A kind's string name was once taken as kind G: starlike_functional
    # ("h", (1, 1), 0.3) gave G's 0.81138, not H's 0.64366.
    p = WrightParams(1.0, 1.0)
    for point in (starlike_functional, convex_functional, starlike_real, convex_real):
        with pytest.raises(ParameterError, match="kind must be a NormalizedKind"):
            point("h", p, 0.3)
    for circle in (starlike_on_circle, convex_on_circle):
        with pytest.raises(ParameterError, match="kind must be a NormalizedKind"):
            circle("h", p, 0.3, _GRID0)
    assert starlike_functional(NormalizedKind.H, p, 0.3).value.real == pytest.approx(
        0.64366, abs=1e-5)


# A tuple once reached p.rho or p.beta and raised AttributeError, which a
# caller catching WrightRadiiError misses.
@pytest.mark.parametrize("call", (
    lambda p: wright_eval(p, 0.3),
    lambda p: wright_derivative(p, 0.3, 1),
    lambda p: base_eval(p, 0.3),
    lambda p: starlike_functional(NormalizedKind.H, p, 0.3),
    lambda p: convex_real(NormalizedKind.H, p, 0.3),
    lambda p: starlike_on_circle(NormalizedKind.H, p, 0.3, _GRID0),
    lambda p: positive_zeros(p, "minus_z", 2),
    lambda p: derivative_positive_zeros(NormalizedKind.G, p, 2),
    lambda p: count_zeros_in_disk(p, "minus_z", 1.0),
    lambda p: base_residual(p, "minus_z", 0.3),
), ids=("wright_eval", "wright_derivative", "base_eval", "starlike_functional",
        "convex_real", "starlike_on_circle", "positive_zeros",
        "derivative_positive_zeros", "count_zeros_in_disk", "base_residual"))
def test_entry_points_refuse_params_of_another_type(call):
    with pytest.raises(ParameterError, match="params must be WrightParams"):
        call((1.0, 1.0))
    call(WrightParams(1.0, 1.0))


# Gamma(200) overflows a double and 1/Gamma(200) underflows to 0: the
# origin's term, once 1.0/exp(lgamma(beta)), raised OverflowError there.
# The underflowed value carries the series loop's sub-subnormal bound, so a
# quotient by it refuses, and base_eval and base_residual refuse a
# Gamma(beta) they cannot scale by (at beta = 172 base_residual certifies
# its sum, which at 200 it cannot).
P200 = WrightParams(1.0, 200.0)


@pytest.mark.parametrize("call, want", (
    (lambda: wright_eval(P200, 0.0), EvalResult(0j, 5e-324, 1)),
    (lambda: wright_derivative(P200, 0.0, 2), EvalResult(0j, 5e-324, 1)),
    (lambda: circle_eval(P200, 0.0, _GRID0.powers(NormalizedKind.G),
                         (0, 1, 2)).tolist(), [[0j] * 257] * 3),
    (lambda: combo_neg_axis(P200, 0.0, 2.0, -1.0), (0.0, 4.6e-16)),
    (lambda: starlike_functional(NormalizedKind.H, P200, 0.0),
     NearZeroDenominatorError),
    (lambda: convex_functional(NormalizedKind.F, P200, 0.0),
     NearZeroDenominatorError),
    (lambda: base_eval(P200, 0.0), ConvergenceError),
    (lambda: base_eval(P200, 0.3), ConvergenceError),
    (lambda: base_residual(WrightParams(1.0, 172.0), "minus_z", 0.3),
     ConvergenceError),
), ids=("wright_eval", "wright_derivative", "circle_eval", "combo_neg_axis",
        "starlike_functional", "convex_functional", "base_eval_origin",
        "base_eval", "base_residual"))
def test_origin_past_the_gamma_overflow(call, want):
    if isinstance(want, type):
        with pytest.raises(want):
            call()
    else:
        assert call() == want


# ----------------------------------------------------------------------------
# base evaluation
# ----------------------------------------------------------------------------

def test_base_normalized_at_origin(grid_params):
    for p in grid_params:
        res = base_eval(p, 0.0)
        assert res.value == pytest.approx(1.0, rel=1e-15)


def test_base_is_gamma_scaled_wright(grid_params):
    # Phi(z) = Gamma(beta) W(rho, beta; -z^2).
    for p in grid_params:
        z = 0.8 + 0.4j
        res = base_eval(p, z)
        raw = wright_eval(p, -(z * z))
        scale = math.exp(math.lgamma(p.beta))
        assert res.value == pytest.approx(scale * raw.value, rel=1e-14)
        # the Gamma scaling is folded into the inner tolerance
        assert res.abs_error_bound <= 1e-12


def test_base_bessel_reduction(bessel_params):
    # Gamma(1) W(1,1; -r^2) = J0(2r) along the axis.
    for r in (0.25, 0.75, 1.0, 2.0):
        res = base_eval(bessel_params, r)
        assert abs(res.value - sp.j0(2.0 * r)) <= res.abs_error_bound + 1e-13


# ----------------------------------------------------------------------------
# starlikeness functional w(z) = z f'(z)/f(z)
# ----------------------------------------------------------------------------

def test_starlike_g_matches_bessel_form(bessel_params):
    # g(r) = r J0(2r):  w(r) = 1 - 2r J1(2r)/J0(2r).
    for r in (0.1, 0.3, 0.5, 0.9):
        fv = starlike_functional(NormalizedKind.G, bessel_params, r)
        want = 1.0 - 2.0 * r * sp.j1(2.0 * r) / sp.j0(2.0 * r)
        assert fv.value.imag == pytest.approx(0.0, abs=1e-14)
        assert fv.value.real == pytest.approx(want, abs=fv.abs_error_bound + 1e-12)


def test_starlike_h_matches_bessel_form(bessel_params):
    # h(r) = r J0(2 sqrt r):  w(r) = 1 - sqrt(r) J1(2 sqrt r)/J0(2 sqrt r).
    for r in (0.04, 0.25, 0.64):
        s = math.sqrt(r)
        fv = starlike_functional(NormalizedKind.H, bessel_params, r)
        want = 1.0 - s * sp.j1(2.0 * s) / sp.j0(2.0 * s)
        assert fv.value.real == pytest.approx(want, abs=fv.abs_error_bound + 1e-12)


def test_f_reduces_to_g_at_beta_one():
    # The beta-th root normalization is the identity map at beta = 1.
    p = WrightParams(0.5, 1.0)
    for z in (0.3, 0.45 + 0.3j, -0.2 + 0.5j):
        a = starlike_functional(NormalizedKind.F, p, z)
        b = starlike_functional(NormalizedKind.G, p, z)
        assert a.value == pytest.approx(b.value, rel=1e-13)
        c = convex_functional(NormalizedKind.F, p, z)
        d = convex_functional(NormalizedKind.G, p, z)
        assert c.value == pytest.approx(d.value, rel=1e-12)


def test_starlike_at_origin_is_one(grid_params):
    for p in grid_params:
        for kind in NormalizedKind:
            fv = starlike_functional(kind, p, 1e-8)
            assert fv.value == pytest.approx(1.0, abs=1e-7)


def test_starlike_vanishes_at_first_derivative_zero(bessel_params):
    # w(r) = 0 exactly where g'(r) = J0(2r) - 2r J1(2r) = 0.
    from scipy.optimize import brentq
    eta = brentq(lambda r: sp.j0(2 * r) - 2 * r * sp.j1(2 * r), 0.4, 0.9,
                 xtol=1e-14)
    fv = starlike_functional(NormalizedKind.G, bessel_params, eta)
    assert abs(fv.value) < 1e-12


def test_starlike_raises_at_base_zero(bessel_params):
    # f(lambda_1) = 0: the quotient has no certified digits there.
    with pytest.raises(NearZeroDenominatorError):
        starlike_functional(NormalizedKind.G, bessel_params, FIRST_G_ZERO_11)


# ----------------------------------------------------------------------------
# convexity functional C(z) = 1 + z f''(z)/f'(z)
# ----------------------------------------------------------------------------

def test_convex_g_matches_bessel_form(bessel_params):
    # g'(r) = J0(2r) - 2r J1(2r);  g''(r) = -2 J1(2r) - 4r J0(2r).
    for r in (0.1, 0.25, 0.4):
        fv = convex_functional(NormalizedKind.G, bessel_params, r)
        gp = sp.j0(2 * r) - 2 * r * sp.j1(2 * r)
        gpp = -2 * sp.j1(2 * r) - 4 * r * sp.j0(2 * r)
        want = 1.0 + r * gpp / gp
        assert fv.value.real == pytest.approx(want, abs=fv.abs_error_bound + 1e-11)
        assert fv.value.imag == pytest.approx(0.0, abs=1e-13)


def test_convex_at_origin_is_one(grid_params):
    for p in grid_params:
        for kind in NormalizedKind:
            fv = convex_functional(kind, p, 1e-8)
            assert fv.value == pytest.approx(1.0, abs=1e-7)


def test_convex_f_matches_finite_difference():
    # Independent route: difference f'(r) of the explicit beta-th root
    # f(r) = r * Phi(r^2)^(1/beta) and form 1 + r f''/f' numerically.
    p = WrightParams(1.0, 2.0)
    h = 1e-5

    def f(r: float) -> float:
        return r * base_eval(p, r, tol=1e-15).value.real ** (1.0 / p.beta)

    for r in (0.2, 0.35, 0.5):
        d1 = (f(r + h) - f(r - h)) / (2 * h)
        d2 = (f(r + h) - 2 * f(r) + f(r - h)) / (h * h)
        want = 1.0 + r * d2 / d1
        got = convex_real(NormalizedKind.F, p, r)
        assert got == pytest.approx(want, abs=5e-5)


# ----------------------------------------------------------------------------
# route agreement: scalar, real-axis, circle
# ----------------------------------------------------------------------------

def test_real_routes_match_scalar(grid_params):
    # The real route sums in floats what the point route sums in complex
    # arithmetic with signed-zero imaginary parts: the same bits, up to
    # nine tenths of the domain bound.
    routes = ((starlike_real, starlike_functional, "lem_star"),
              (convex_real, convex_functional, "lem_convex"))
    for p in grid_params:
        for kind in NormalizedKind:
            for real, point, what in routes:
                bound = domain_bound(RadiusQuery(kind, p, what))
                for r in (0.05, 0.2, 0.9 * bound):
                    got = real(kind, p, r)
                    assert type(got) is float
                    assert got == point(kind, p, complex(r)).value.real, (kind, p, r)


def test_circle_routes_match_scalar(bessel_params):
    grid = _AngleGrid(np.linspace(0.0, math.pi, 9))
    r = 0.45
    for kind in NormalizedKind:
        ws = starlike_on_circle(kind, bessel_params, r, grid)
        cs = convex_on_circle(kind, bessel_params, r, grid)
        for k in range(len(grid.theta)):
            z = r * grid.phases[k]
            assert ws[k] == pytest.approx(
                starlike_functional(kind, bessel_params, z).value, rel=1e-12)
            assert cs[k] == pytest.approx(
                convex_functional(kind, bessel_params, z).value, rel=1e-11)


def test_circle_routes_on_the_fixed_grid_are_bit_identical(grid_params):
    # The sweep grids, level 0 and the kept refinement grids, read their
    # Wright arguments and power tables from the kept copies; a fresh grid
    # of the same angles forms them anew, and both must agree bit for bit,
    # also once a larger radius has grown the kept tables.  The
    # refinement grids: those about theta = 0, pi/2 and pi, where most
    # sweeps refine, one interior grid, and one grid of the next level.
    theta = _GRID0.theta
    ends = [(theta[0], theta[1]), (theta[127], theta[129]),
            (theta[255], theta[256]), (theta[40], theta[42])]
    first = _refinement_grid(float(theta[0]), float(theta[1]))
    ends.append((first.theta[0], first.theta[1]))
    grids = [_GRID0]
    for lo, hi in ends:
        grid = _refinement_grid(float(lo), float(hi))
        assert grid is _refinement_grid(float(lo), float(hi))
        assert np.array_equal(grid.theta, np.linspace(lo, hi, 21))
        assert np.array_equal(grid.phases, np.exp(1j * np.linspace(lo, hi, 21)))
        grids.append(grid)
    for grid in grids:
        assert np.array_equal(_AngleGrid(grid.theta.copy()).phases, grid.phases)
        for p in grid_params[::5]:
            for kind in NormalizedKind:
                for on_circle in (starlike_on_circle, convex_on_circle):
                    for r in (0.2, 0.6, 0.2):
                        fresh = _AngleGrid(grid.theta.copy())
                        assert np.array_equal(on_circle(kind, p, r, grid),
                                              on_circle(kind, p, r, fresh))


@given(st.floats(min_value=0.05, max_value=0.55),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=40, deadline=None)
def test_starlike_conjugate_symmetry(r, theta):
    p = WrightParams(0.5, 1.5)
    z = r * complex(math.cos(theta), math.sin(theta))
    a = starlike_functional(NormalizedKind.G, p, z).value
    b = starlike_functional(NormalizedKind.G, p, z.conjugate()).value
    assert b == pytest.approx(a.conjugate(), rel=1e-11, abs=1e-13)


@given(st.floats(min_value=0.05, max_value=0.4))
@settings(max_examples=30, deadline=None)
def test_starlike_real_decreasing_from_one(r):
    # On (0, eta_1) the real starlikeness functional of G decreases from 1;
    # it stays below 1 wherever it is defined on the positive axis.
    p = WrightParams(1.0, 1.0)
    assert starlike_real(NormalizedKind.G, p, r) < 1.0


# ----------------------------------------------------------------------------
# the one-definition functionals reproduce the hand-written formulas
# ----------------------------------------------------------------------------
# The formulas as they were written before each functional had one
# definition: twice per functional, once at a point with hand-propagated
# bounds and once on a circle without.  They are the oracle the shared
# definitions must reproduce: the same point values and circle arrays, and
# bounds equal up to rounding.

def _oracle_div(nv, ne, dv, de):
    ad = abs(dv)
    if ad <= de:
        raise NearZeroDenominatorError("drowned denominator")
    val = nv / dv
    return val, (ne + abs(val) * de) / ad


def _oracle_point(star, kind, p, z, tol=1e-12):
    """(value, bound) of w (star) or C at one point."""
    z = complex(z)
    u = -z if kind is NormalizedKind.H else -(z * z)
    ev = [wright_eval(p.shifted(k), u, tol) for k in (0, 1, 2)]
    (w0, w1, w2), (e0, e1, e2) = ([e.value for e in ev],
                                  [e.abs_error_bound for e in ev])
    az, zz = abs(z), z * z
    azz = abs(zz)
    if star and kind is NormalizedKind.H:
        ratio, rerr = _oracle_div(z * w1, az * e1, w0, e0)
        return 1.0 - ratio, rerr
    if star:
        scale = 2.0 / p.beta if kind is NormalizedKind.F else 2.0
        ratio, rerr = _oracle_div(zz * w1, azz * e1, w0, e0)
        return 1.0 - scale * ratio, scale * rerr
    if kind is NormalizedKind.H:
        ratio, rerr = _oracle_div(-2.0 * z * w1 + z * z * w2,
                                  2.0 * az * e1 + az * az * e2,
                                  w0 - z * w1, e0 + az * e1)
        return 1.0 + ratio, rerr
    if kind is NormalizedKind.G:
        ratio, rerr = _oracle_div(-6.0 * zz * w1 + 4.0 * zz * zz * w2,
                                  6.0 * azz * e1 + 4.0 * azz * azz * e2,
                                  w0 - 2.0 * zz * w1, e0 + 2.0 * azz * e1)
        return 1.0 + ratio, rerr
    beta = p.beta
    a, aerr = _oracle_div(-2.0 * zz * w1, 2.0 * azz * e1, w0, e0)
    phi2, p2err = _oracle_div(-2.0 * zz * w1 + 4.0 * zz * zz * w2,
                              2.0 * azz * e1 + 4.0 * azz * azz * e2, w0, e0)
    ratio, rerr = _oracle_div(a + phi2 - a * a, aerr + p2err + 2.0 * abs(a) * aerr,
                              beta + a, aerr)
    return 1.0 + a / beta + ratio, aerr / beta + rerr


def _oracle_circle(star, kind, p, r, phases):
    """w (star) or C at r * phases."""
    if kind is NormalizedKind.H:
        vals = circle_eval(p, r, _PhasePowers(-phases), shifts=(0, 1, 2))
        z = r * phases
        if star:
            return 1.0 - z * vals[1] / vals[0]
        return 1.0 + (-2.0 * z * vals[1] + z * z * vals[2]) / (vals[0] - z * vals[1])
    vals = circle_eval(p, r * r, _PhasePowers(-(phases * phases)),
                       shifts=(0, 1, 2))
    zz = (r * phases) ** 2
    if star:
        scale = 2.0 / p.beta if kind is NormalizedKind.F else 2.0
        return 1.0 - scale * zz * vals[1] / vals[0]
    if kind is NormalizedKind.G:
        return 1.0 + ((-6.0 * zz * vals[1] + 4.0 * zz * zz * vals[2])
                      / (vals[0] - 2.0 * zz * vals[1]))
    beta = p.beta
    a = -2.0 * zz * vals[1] / vals[0]
    phi2 = (-2.0 * zz * vals[1] + 4.0 * zz * zz * vals[2]) / vals[0]
    return 1.0 + a / beta + (a + phi2 - a * a) / (beta + a)


ORACLE_POINTS = tuple(r * complex(math.cos(t), math.sin(t))
                      for r in (0.05, 0.3, 0.6) for t in (0.0, 0.4, 1.3, 2.2, math.pi))


@pytest.mark.parametrize("star", (True, False), ids=("starlike", "convex"))
def test_point_functionals_equal_the_formulas(grid_params, star):
    functional = starlike_functional if star else convex_functional
    for p in grid_params:
        for kind in NormalizedKind:
            for z in ORACLE_POINTS:
                want, want_bound = _oracle_point(star, kind, p, z)
                got = functional(kind, p, z)
                assert got.value == want, (kind, p, z)
                assert got.abs_error_bound == pytest.approx(want_bound, rel=1e-15)
                real = (starlike_real if star else convex_real)(kind, p, z.real)
                assert real == _oracle_point(star, kind, p, z.real)[0].real


@pytest.mark.parametrize("star", (True, False), ids=("starlike", "convex"))
def test_circle_functionals_equal_the_formulas(grid_params, star):
    # Starlike F scales z^2 W1/W by 2/beta after the division on a circle,
    # where the formula scaled z^2 before it; the two agree bit for bit
    # where 2/beta is a power of two, and within rounding elsewhere.
    on_circle = starlike_on_circle if star else convex_on_circle
    for p in grid_params:
        exact = not (star and math.log2(2.0 / p.beta) % 1.0)
        for kind in NormalizedKind:
            for r in (0.2, 0.45, 0.7):
                sub = _AngleGrid(_GRID0.theta[::7].copy())
                assert np.array_equal(sub.phases, _GRID0.phases[::7])
                for grid in (_GRID0, sub):
                    got = on_circle(kind, p, r, grid)
                    want = _oracle_circle(star, kind, p, r, grid.phases)
                    if exact or kind is not NormalizedKind.F:
                        assert np.array_equal(got, want), (kind, p, r)
                    else:
                        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


@pytest.mark.parametrize("kind", tuple(NormalizedKind))
@pytest.mark.parametrize("functional", (starlike_functional, convex_functional,
                                        starlike_real, convex_real))
def test_drowned_denominator_raises(monkeypatch, kind, functional):
    # Every denominator holds W(rho, beta; u); once its bound exceeds its
    # modulus the quotient has no certified digits and must raise, on the
    # real axis too.
    real = functional in (starlike_real, convex_real)
    p, z = WrightParams(1.0, 1.5), (0.3 if real else 0.3 + 0.2j)
    functional(kind, p, z)
    shifts = family._wright_shifts

    def drowned(q, u, n, tol):
        (value, _, terms), *rest = shifts(q, u, n, tol)
        return [(value, 2.0 * abs(value), terms), *rest]

    monkeypatch.setattr(family, "_wright_shifts", drowned)
    with pytest.raises(NearZeroDenominatorError):
        functional(kind, p, z)
