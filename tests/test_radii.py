from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from wright_radii import (
    ConvergenceError,
    JanowskiParams,
    MonotonicityError,
    NearZeroDenominatorError,
    NormalizedKind,
    ParameterError,
    PoleProximityError,
    RadiusQuery,
    WrightParams,
    ZeroTable,
    base_residual,
    boundary_sup,
    count_zeros_in_disk,
    cross_validate,
    domain_bound,
    hadamard_partial_product,
    positive_zeros,
    radius_by_certification,
    radius_real_axis,
    reciprocal_square_sum,
    region_functional,
    starlike_real,
    WrightRadiiError,
)
from wright_radii import radii, zeros
from wright_radii.family import _refinement_grid
from wright_radii.radii import (LEM_CONSTANT, RADIUS_KINDS, _real_axis_grid,
                                default_constant)

P11 = WrightParams(1.0, 1.0)


def _q(kind: NormalizedKind, p: WrightParams, what: str,
       A: float | None = None, B: float | None = None) -> RadiusQuery:
    jp = None if A is None else JanowskiParams(A, B)
    return RadiusQuery(kind, p, what, jp)


# ----------------------------------------------------------------------------
# query validation
# ----------------------------------------------------------------------------

# A form that is neither was once read as minus_z (base_residual gave the
# minus_z value), a query or table of another type reached an attribute and
# raised AttributeError, which a caller catching WrightRadiiError misses,
# and a product at z = nan returned nan.
G11_LEM = RadiusQuery(NormalizedKind.G, P11, "lem_star")
TABLE = ZeroTable(P11, "minus_z", (1.0, 2.0), 1e-12)


@pytest.mark.parametrize("call, bad, good, message", (
    *(pytest.param(call, "bogus", "minus_z", "form must be one of", id=name)
      for name, call in (
          ("base_residual", lambda form: base_residual(P11, form, 0.3)),
          ("count_zeros_in_disk", lambda form: count_zeros_in_disk(P11, form, 1.0)),
          ("positive_zeros", lambda form: positive_zeros(P11, form, 2)),
          ("ZeroTable", lambda form: ZeroTable(P11, form, (1.0,), 1e-12)))),
    *(pytest.param(call, ("g", P11, "lem_star"), G11_LEM,
                   "query must be a RadiusQuery", id=call.__name__)
      for call in (radius_by_certification, radius_real_axis, cross_validate,
                   domain_bound)),
    pytest.param(lambda q: boundary_sup(q, 0.3), ("g", P11, "lem_star"), G11_LEM,
                 "query must be a RadiusQuery", id="boundary_sup"),
    pytest.param(lambda q: region_functional(q, 0.3), ("g", P11, "lem_star"),
                 G11_LEM, "query must be a RadiusQuery", id="region_functional"),
    pytest.param(lambda t: hadamard_partial_product(t, 0.3, 2), (1.0, 2.0), TABLE,
                 "table must be a ZeroTable", id="hadamard_partial_product"),
    pytest.param(reciprocal_square_sum, (1.0, 2.0), TABLE,
                 "table must be a ZeroTable", id="reciprocal_square_sum"),
    *(pytest.param(lambda z: hadamard_partial_product(TABLE, z, 2), z, 0.3,
                   "z must be finite", id=f"hadamard_partial_product-z={z}")
      for z in (math.nan, complex(0.0, math.inf))),
))
def test_entry_points_refuse_arguments_of_another_type(call, bad, good, message):
    with pytest.raises(ParameterError, match=message):
        call(bad)
    call(good)


def test_janowski_validation():
    with pytest.raises(ParameterError, match="-1 <= B < A <= 1"):
        JanowskiParams(-1.0, 0.0)
    with pytest.raises(ParameterError):
        JanowskiParams(1.0, 1.0)
    with pytest.raises(ParameterError):
        JanowskiParams(1.5, 0.0)
    JanowskiParams(1.0, -1.0)   # the halfplane target is admissible


def test_janowski_params_take_any_real_scalar_as_a_float():
    # A float32 pair once kept its type, and the real-axis constant
    # (1 - A)/(1 - B) with it: 0.33333334, a radius 1.4e-9 off at tol 1e-9.
    jp = JanowskiParams(np.float32(0.5), np.float32(-0.5))
    assert jp == JanowskiParams(0.5, -0.5)
    assert type(jp.A) is float and type(jp.B) is float
    q = _q(NormalizedKind.G, P11, "jan_star", np.float32(0.5), np.float32(-0.5))
    assert default_constant(q) == 1.0 / 3.0
    assert radius_real_axis(q) == radius_real_axis(
        _q(NormalizedKind.G, P11, "jan_star", 0.5, -0.5))
    assert JanowskiParams(np.int64(1), -1) == JanowskiParams(1.0, -1.0)


@pytest.mark.parametrize("A, B", ((True, False), (1.0, False), (np.bool_(True), 0.0),
                                  ("1", 0.0), (1.0, None), (float("nan"), 0.0)))
def test_janowski_params_reject_bools_and_non_reals(A, B):
    with pytest.raises(ParameterError, match="must be a finite real"):
        JanowskiParams(A, B)


def test_query_validation():
    with pytest.raises(ParameterError):
        RadiusQuery(NormalizedKind.G, P11, "jan_star", None)
    with pytest.raises(ParameterError):
        RadiusQuery(NormalizedKind.G, P11, "lem_star", JanowskiParams(1.0, 0.0))
    with pytest.raises(ParameterError):
        RadiusQuery(NormalizedKind.G, P11, "circle_star", None)
    assert RADIUS_KINDS == ("lem_star", "lem_convex", "jan_star", "jan_convex")


def test_query_refuses_a_kind_or_params_of_the_wrong_type():
    # "h" was once taken as kind G: lem_star certified G's radius
    # 0.4796529767500324, not H's 0.47827877460268975.
    with pytest.raises(ParameterError, match="kind must be a NormalizedKind"):
        RadiusQuery("h", P11, "lem_star")
    with pytest.raises(ParameterError, match="params must be WrightParams"):
        RadiusQuery(NormalizedKind.H, (1.0, 1.0), "lem_star")
    q = RadiusQuery(NormalizedKind.H, P11, "lem_star")
    assert radius_by_certification(q).radius == pytest.approx(0.47827877460268975,
                                                              abs=1e-9)


def test_lem_constant():
    # The disk |w - 1| <= R sits inside the right lemniscate loop iff
    # R^2 + 2R - 1 <= 0, i.e. R <= sqrt(2) - 1.  The axis target value is
    # therefore c = 1 - (sqrt(2) - 1) = 2 - sqrt(2).
    assert LEM_CONSTANT == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-15)
    big_r = 1.0 - LEM_CONSTANT
    assert big_r * big_r + 2.0 * big_r - 1.0 == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------------
# certified radii against classical closed forms
# ----------------------------------------------------------------------------

def test_jan_halfplane_radius_is_bessel_root():
    # For G at rho = beta = 1, the (A,B) = (1,-1) starlikeness radius is the
    # first root of J0(2r) = 2r J1(2r).
    eta = brentq(lambda r: sp.j0(2 * r) - 2 * r * sp.j1(2 * r), 0.4, 0.9,
                 xtol=1e-14)
    q = _q(NormalizedKind.G, P11, "jan_star", 1.0, -1.0)
    cert = radius_by_certification(q)
    real = radius_real_axis(q)
    assert cert.radius == pytest.approx(eta, abs=1e-7)
    assert real.radius == pytest.approx(eta, abs=1e-9)
    assert 0.6 < cert.radius < 0.65
    assert cert.method == "certifier"
    assert cert.bracket[0] <= cert.radius <= cert.bracket[1]


def test_certified_boundary_sup_sits_at_one():
    # By definition the certified radius drives the boundary supremum to 1.
    for what, A, B in (("lem_star", None, None), ("jan_star", 0.5, -0.5)):
        q = _q(NormalizedKind.G, P11, what, A, B)
        res = radius_by_certification(q, tol=1e-10)
        assert res.sup_at_radius == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= res.argmax_angle <= math.pi


def test_lem_star_sup_confirmed_by_independent_bessel():
    # Recompute sup_theta |w^2 - 1| on the certified circle from mpmath
    # Bessel functions; the certifier's claim must reproduce.
    q = _q(NormalizedKind.G, P11, "lem_star")
    res = radius_by_certification(q, tol=1e-10)
    r = res.radius
    mp.mp.dps = 30

    def w(theta: float) -> complex:
        z = r * mp.e ** (1j * theta)
        num = mp.besselj(1, 2 * z)
        den = mp.besselj(0, 2 * z)
        return complex(1 - 2 * z * num / den)

    sup = max(abs(w(t) ** 2 - 1) for t in
              [k * math.pi / 400 for k in range(401)])
    assert sup == pytest.approx(1.0, abs=5e-5)


def test_real_axis_lem_level_hits_constant():
    # The real-axis radius solves w(r) = 2 - sqrt(2), placing the axis value
    # a guaranteed-inscribed disk away from the lemniscate boundary; verify
    # the level with scipy Bessel, independently of the solver.
    q = _q(NormalizedKind.G, P11, "lem_star")
    res = radius_real_axis(q)
    r = res.radius
    w = 1.0 - 2.0 * r * sp.j1(2 * r) / sp.j0(2 * r)
    assert w == pytest.approx(LEM_CONSTANT, abs=1e-7)
    assert res.method == "real_axis"


def test_boundary_sup_monotone_in_radius():
    q = _q(NormalizedKind.G, P11, "lem_star")
    sups = [boundary_sup(q, r)[0] for r in (0.15, 0.3, 0.45)]
    assert sups[0] < sups[1] < sups[2]


@pytest.mark.parametrize("r", (0.0, -0.3, math.inf, math.nan))
def test_boundary_sup_refuses_a_radius_not_finite_and_positive(r):
    # r = inf once ran the series and raised ConvergenceError, a numeric
    # failure, for what is bad input.
    with pytest.raises(ParameterError, match="r must be finite and > 0"):
        boundary_sup(_q(NormalizedKind.G, P11, "lem_star"), r)


@pytest.mark.parametrize("kind, beta, what, jp", (
    ("g", 200.0, "lem_star", None),
    ("h", 180.0, "jan_star", (1.0, -1.0)),
))
def test_boundary_sup_refuses_a_circle_of_nan(kind, beta, what, jp):
    # Every Wright value on |z| = 0.3 underflows to 0, so the functional is
    # 0/0 all round: no sup, an error naming r, as the point route raises.
    q = RadiusQuery(NormalizedKind.from_string(kind), WrightParams(1.0, beta), what,
                    JanowskiParams(*jp) if jp else None)
    with pytest.raises(NearZeroDenominatorError, match=r"\|z\| = 0\.3 "):
        boundary_sup(q, 0.3)
    with pytest.raises(NearZeroDenominatorError):
        region_functional(q, 0.3)


def test_early_exit_predicate_agrees_with_full_sup():
    # The certifier's scan stops once its running max reaches 1; the verdict
    # sup < 1 must be the full scan's, and a scan that never reaches 1 must
    # return the full scan's result exactly.
    for kind in NormalizedKind:
        for what, A, B in (("lem_star", None, None), ("lem_convex", None, None),
                           ("jan_star", 0.5, -0.5), ("jan_convex", 1.0, 0.0)):
            q = _q(kind, P11, what, A, B)
            for r in np.linspace(0.02, 0.95, 12) * domain_bound(q):
                full = boundary_sup(q, r)
                early = boundary_sup(q, r, _stop_at=1.0)
                assert (early[0] < 1.0) == (full[0] < 1.0)
                if full[0] < 1.0:
                    assert early == full


def test_boundary_sup_same_from_cold_and_kept_grids():
    # Each sweep's refinement grids built afresh, the grid cache cleared
    # before every call, and read back from the cache, with their phase
    # tables grown by other radii and kinds, give the same sup and angle.
    cases = []
    for kind in NormalizedKind:
        for what, A, B in (("lem_star", None, None), ("lem_convex", None, None),
                           ("jan_star", 1.0, -1.0), ("jan_convex", 0.5, 0.25)):
            q = _q(kind, WrightParams(0.5, 1.5), what, A, B)
            cases += [(q, t * domain_bound(q)) for t in (0.3, 0.6, 0.9)]
    cold = []
    for q, r in cases:
        _refinement_grid.cache_clear()
        cold.append(boundary_sup(q, r))
    warm = [boundary_sup(q, r) for q, r in cases]
    assert _refinement_grid.cache_info().hits >= len(cases)
    assert warm == cold


def test_early_exit_skips_refinement(monkeypatch):
    levels = []
    circle = radii._functional_circle

    def counted(*args):
        levels.append(1)
        return circle(*args)

    monkeypatch.setattr(radii, "_functional_circle", counted)
    q = _q(NormalizedKind.G, P11, "lem_star")
    r = 0.9 * domain_bound(q)                  # far past the radius
    boundary_sup(q, r)
    full = len(levels)
    levels.clear()
    assert boundary_sup(q, r, _stop_at=1.0)[0] >= 1.0
    assert len(levels) == 1 < full


def test_other_axis_solve_stops_at_its_floor(monkeypatch):
    # Below 4 ulp of r_up the bracket can no longer shrink; asked for a
    # quarter of tol 1e-20, the solve once ran its 300-step cap.
    calls = []
    point = radii._functional_scalar

    def counted(query, z):
        calls.append(z)
        return point(query, z)

    q = _q(NormalizedKind.G, P11, "lem_star")
    expected = radii._other_axis_crossing(q, 1e-15)
    monkeypatch.setattr(radii, "_functional_scalar", counted)
    assert radii._other_axis_crossing(q, 1e-20) == pytest.approx(expected, abs=1e-14)
    assert 0 < len(calls) <= 20


def test_real_axis_grid_shared_within_group(monkeypatch):
    _real_axis_grid.cache_clear()
    stored = []

    def spy(*args):
        kept = _real_axis_grid(*args)
        stored.append(kept)
        return kept

    monkeypatch.setattr(radii, "_real_axis_grid", spy)
    for what, A, B in (("lem_star", None, None), ("jan_star", 1.0, -1.0),
                       ("jan_star", 1.0, 0.0), ("jan_star", 0.5, -0.5)):
        radius_real_axis(_q(NormalizedKind.H, WrightParams(2.0, 1.5), what, A, B))
        if what == "lem_star":
            # the lemniscate query evaluates the grid only to its crossing
            grid, values, _ = stored[0]
            assert 0 < sum(r in values for r in grid) < 50
    info = _real_axis_grid.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert 0 < info.maxsize <= 1024
    assert all(kept is stored[0] for kept in stored)


def _count_real_calls(monkeypatch) -> list[float]:
    """The radii at which radius_real_axis evaluates its functional from now on."""
    calls = []
    real = radii._functional_real

    def counted(query, r):
        calls.append(r)
        return real(query, r)

    monkeypatch.setattr(radii, "_functional_real", counted)
    return calls


def test_real_axis_crossing_solved_once_per_constant(monkeypatch):
    # Janowski (1, -1) and (1, 0) share c = 0: the second query retraces the
    # first one's crossing on its kept values, radius and bracket bit for
    # bit, with no functional evaluation, and forms its own sup_at_radius at
    # the root.
    _real_axis_grid.cache_clear()
    calls = _count_real_calls(monkeypatch)
    p = WrightParams(2.0, 1.5)
    queries = [_q(NormalizedKind.H, p, "jan_star", 1.0, B) for B in (-1.0, 0.0)]
    first = radius_real_axis(queries[0])
    solved = len(calls)
    second = radius_real_axis(queries[1])
    assert len(calls) == solved > 0
    assert (second.radius, second.bracket) == (first.radius, first.bracket)
    for q, res in zip(queries, (first, second)):
        assert res.sup_at_radius == region_functional(q, res.radius)
    assert first.sup_at_radius != second.sup_at_radius
    # a star grid ends below the singularity whatever tol: a coarser tol
    # retraces the same regula falsi and stops no later, on kept values
    coarse = radius_real_axis(queries[1], 1e-6)
    assert len(calls) == solved
    _real_axis_grid.cache_clear()                       # solved afresh
    assert radius_real_axis(queries[1]) == second
    assert radius_real_axis(queries[1], 1e-6) == coarse


def test_real_axis_crossing_that_raises_is_not_kept(monkeypatch):
    # G(1, 10) jan_star (1, -1) is refused by the accuracy rule.  Only the
    # functional's values are kept, not the refusal, so every query of c = 0
    # solves and raises again, the second and third on kept values alone.
    _real_axis_grid.cache_clear()
    calls = _count_real_calls(monkeypatch)
    counts = []
    for B in (-1.0, 0.0, -1.0):
        q = _q(NormalizedKind.G, WrightParams(1.0, 10.0), "jan_star", 1.0, B)
        with pytest.raises(ConvergenceError, match="not resolved"):
            radius_real_axis(q, 1e-9)
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1] == counts[2]


# Janowski (1, -1) queries by name: (kind, rho, beta, target, the error
# radius_real_axis raises or None when it answers).  At beta >= 10 the point
# route's absolute 1e-12 tail is large against W.  The grid pass stops at
# the first crossing, short of the domain bound where W nears 0, and the
# accuracy rule refuses roots the error bound cannot place within tol.  The
# real-axis functional, summed in floats, still checks each denominator
# against its propagated bound; without that check the four drowned
# denominators below go unseen and the route fails later, or not at all.
REAL_AXIS_PROBE = (
    ("g", 0.05, 1.0, "jan_star", None),
    ("h", 0.25, 3.0, "jan_star", None),
    ("f", 0.1, 3.0, "jan_star", None),
    ("g", 1.0, 10.0, "jan_star", ConvergenceError),   # error bound 6.5e-7
    ("h", 8.0, 30.0, "jan_star", ConvergenceError),   # 809 off without the rule
    ("f", 1.0, 30.0, "jan_convex", MonotonicityError),
    ("f", 0.5, 30.0, "jan_star", NearZeroDenominatorError),
    ("h", 0.05, 30.0, "jan_star", NearZeroDenominatorError),
    ("h", 0.1, 30.0, "jan_star", NearZeroDenominatorError),
    ("f", 1.0, 30.0, "jan_star", NearZeroDenominatorError),
)


@pytest.mark.parametrize("kind, rho, beta, what, error", REAL_AXIS_PROBE)
def test_real_axis_probe(kind, rho, beta, what, error):
    q = _q(NormalizedKind.from_string(kind), WrightParams(rho, beta), what,
           1.0, -1.0)
    if error is not None:
        with pytest.raises(error):
            radius_real_axis(q)
        return
    got = radius_real_axis(q)
    assert got.radius == pytest.approx(radius_by_certification(q).radius, abs=1e-8)


def test_real_axis_refuses_a_stalled_solve():
    # For A - B = 1.5e-6 the crossing lies far inside the first grid cell,
    # where the one-sided regula falsi stalls: the midpoint of its
    # 0.023-wide bracket, 0.0124, is no answer for a radius of 7.07e-4.
    q = _q(NormalizedKind.G, P11, "jan_star", -0.5 + 1.5e-6, -0.5)
    assert radius_by_certification(q).radius == pytest.approx(7.071e-4, rel=1e-3)
    with pytest.raises(ConvergenceError, match="bracket width"):
        radius_real_axis(q)


def test_real_axis_crossing_below_the_first_grid_point():
    # h(z) = z W(1, 1; -z): w = 1 - r + O(r^2), so w = 1 - 1e-10 at
    # r = 1e-10.  The first cell starts at r = 0, where w = 1, so it
    # brackets a crossing below tol too.
    q = _q(NormalizedKind.H, P11, "jan_star", 1e-10, 0.0)
    tol = 1e-9
    got = radius_real_axis(q, tol).radius
    assert abs(got - 1e-10) <= tol
    assert abs(got - radius_by_certification(q, tol).radius) <= 2.0 * tol


@pytest.mark.parametrize("t", (3.5e-68, 1.9e-298))
def test_real_axis_refuses_a_constant_that_rounds_to_one(t):
    # c = (1 - A)/(1 - B) rounds to 1, so the route once solved w(r) = 1 in
    # rounding and returned 5.4e-9, where w first rounds below 1, for a root
    # near 1e-34.  Next to r = 0 w is flat, so the final bracket's slope
    # shows what the first cell's secant hides: w's rounding, 2 eps, cannot
    # place the root within tol.
    q = _q(NormalizedKind.F, P11, "jan_star", t, 0.0)
    assert default_constant(q) == 1.0
    with pytest.raises(ConvergenceError, match="not resolved"):
        radius_real_axis(q)


@settings(max_examples=15, deadline=None)
@given(rho=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0),
       kind=st.sampled_from(list(NormalizedKind)),
       what=st.sampled_from(("jan_star", "jan_convex")),
       B=st.floats(-1.0, 0.0), t=st.floats(0.0, 1.0, exclude_min=True))
def test_real_axis_answers_within_tol_or_raises(rho, beta, kind, what, B, t):
    # For B <= 0 the real-axis crossing is the radius: where the certifier
    # answers, the route answers within 2 tol of it or raises a typed error.
    A = min(B + t * (1.0 - B), 1.0)
    if not A > B:
        return                                      # t below one ulp of B
    q = _q(kind, WrightParams(rho, beta), what, A, B)
    tol = 1e-9
    try:
        want = radius_by_certification(q, tol).radius
    except PoleProximityError:
        return              # A - B under the region map's floor of 1e-13
    try:
        got = radius_real_axis(q, tol).radius
    except WrightRadiiError:
        return
    assert abs(got - want) <= 2.0 * tol


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0),
       kind=st.sampled_from(list(NormalizedKind)), star=st.booleans())
def test_lemniscate_radius_below_janowski_1_0(rho, beta, kind, star):
    # The lemniscate's right loop lies in the disk |w - 1| < 1.
    p = WrightParams(rho, beta)
    lem, jan = ("lem_star", "jan_star") if star else ("lem_convex", "jan_convex")
    tol = 1e-9
    assert (radius_by_certification(_q(kind, p, lem), tol).radius
            <= radius_by_certification(_q(kind, p, jan, 1.0, 0.0), tol).radius + tol)


# ----------------------------------------------------------------------------
# the bracket solve reproduces the bisection
# ----------------------------------------------------------------------------

def _bisection_oracle(query: RadiusQuery, tol: float = 1e-9) -> radii.RadiusResult:
    # The certifier as plain bisection on the early-exit predicate, the
    # reference its bracket solve must reproduce bit for bit.
    bound = domain_bound(query, tol)
    hi = bound - min(10.0 * tol, 0.01 * bound)
    pole_seen = False

    def holds(r: float) -> bool:
        nonlocal pole_seen
        try:
            s, _ = boundary_sup(query, r, _stop_at=1.0)
        except PoleProximityError:
            pole_seen = True
            return False
        return s < 1.0

    if holds(hi):
        raise ConvergenceError("condition holds at hi, below the pole")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    radius = 0.5 * (lo + hi)
    sup, ang = boundary_sup(query, max(radius, tol))
    return radii.RadiusResult(radius=radius, bracket=(lo, hi), method="certifier",
                              sup_at_radius=sup, argmax_angle=ang,
                              pole_truncated=pole_seen)


# Janowski pairs with B < 0, B = 0 and B > 0
ORACLE_TARGETS = (("lem_star", None, None), ("lem_convex", None, None),
                  *((what, A, B) for what in ("jan_star", "jan_convex")
                    for A, B in ((0.5, -0.5), (1.0, 0.0), (0.5, 0.25))))


@pytest.mark.parametrize("p", (P11, WrightParams(0.5, 1.5), WrightParams(2.0, 0.5)))
def test_certifier_equals_bisection(p):
    for kind in NormalizedKind:
        for what, A, B in ORACLE_TARGETS:
            q = _q(kind, p, what, A, B)
            assert radius_by_certification(q) == _bisection_oracle(q), q


@settings(max_examples=8, deadline=None)
@given(rho=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0),
       kind=st.sampled_from(list(NormalizedKind)),
       target=st.sampled_from(ORACLE_TARGETS))
def test_certifier_equals_bisection_on_continuous_params(rho, beta, kind, target):
    q = _q(kind, WrightParams(rho, beta), *target)
    assert radius_by_certification(q) == _bisection_oracle(q)


def test_certifier_sweep_count(monkeypatch):
    # The bisection takes ~33 sweeps to tol 1e-9; the bracket solve with its
    # replay takes about 13, counting the final sweep at the radius.
    sweeps = []
    sup = radii.boundary_sup

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return sup(*args, **kwargs)

    q = _q(NormalizedKind.G, P11, "lem_star")
    domain_bound(q)                                 # zero table outside the count
    monkeypatch.setattr(radii, "boundary_sup", counted)
    radius_by_certification(q)
    assert len(sweeps) <= 16
    assert len(set(sweeps)) == len(sweeps)          # no radius swept twice


# ----------------------------------------------------------------------------
# a seed from the real-axis crossing narrows the start bracket
# ----------------------------------------------------------------------------

def _seeds(query: RadiusQuery, tol: float = 1e-9) -> list[float]:
    # the crossing, guesses off by a few tol, far off, and outside (0, hi)
    c = radius_real_axis(query, tol=tol).radius
    hi = domain_bound(query, tol)
    return [c, *(c + k * tol for k in (-7, -3, -1, 1, 3, 7)), 0.5 * c, 1.5 * c,
            0.0, -1.0, hi, 2.0 * hi]


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0),
       kind=st.sampled_from(list(NormalizedKind)),
       what=st.sampled_from(("jan_star", "jan_convex")),
       B=st.floats(-1.0, 0.0), t=st.floats(0.1, 1.0))
def test_seeded_certifier_equals_unseeded(rho, beta, kind, what, B, t):
    q = _q(kind, WrightParams(rho, beta), what, B + t * (1.0 - B), B)
    want = radius_by_certification(q)
    assert want == _bisection_oracle(q)
    for seed in _seeds(q):
        assert radius_by_certification(q, _seed=seed) == want, seed


def _certifier_sweeps(monkeypatch, query: RadiusQuery) -> int:
    # boundary sweeps of one cross_validate: the real-axis route sweeps none
    sweeps = []
    sup = radii.boundary_sup

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return sup(*args, **kwargs)

    domain_bound(query)                             # zero table outside the count
    monkeypatch.setattr(radii, "boundary_sup", counted)
    cross_validate(query)
    monkeypatch.setattr(radii, "boundary_sup", sup)
    return len(sweeps)


def test_seeded_cross_validate_sweep_count(monkeypatch):
    # The real-axis crossing seeds a cell the radius lies in: two sweeps
    # probe the cell's ends, they decide every replayed midpoint, so no
    # solve runs, and the third sweeps the radius; unseeded this query
    # took 17.
    q = _q(NormalizedKind.G, P11, "jan_star", 1.0, -1.0)
    assert _certifier_sweeps(monkeypatch, q) == 3


def test_off_seeds_cost_at_most_six_sweeps(monkeypatch):
    # Two probes check a seed and nothing widens them: a seed far off costs
    # at most the probes, the hi sweep and a longer solve.  On the 108
    # Janowski (1, -1), (1, 0) and (0.5, -0.5) surface queries with seeds
    # off by 7 tol to 2 hi the most was 6, for a 0.5 c seed on this query.
    q = _q(NormalizedKind.G, WrightParams(1.0, 1.5), "jan_star", 1.0, -1.0)
    tol = 1e-9
    c = radius_real_axis(q, tol).radius
    hi = domain_bound(q, tol)
    sweeps = []
    sup = radii.boundary_sup

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return sup(*args, **kwargs)

    monkeypatch.setattr(radii, "boundary_sup", counted)
    want = radius_by_certification(q, tol)
    unseeded = len(sweeps)
    worst = 0
    for seed in (c - 7 * tol, c + 1e4 * tol, 0.5 * c, 1.5 * c, 0.0, 2.0 * hi):
        sweeps.clear()
        assert radius_by_certification(q, tol, _seed=seed) == want, seed
        worst = max(worst, len(sweeps) - unseeded)
    assert worst <= 6


def test_seed_in_the_radius_cell_costs_three_sweeps(monkeypatch):
    # A seed in the bisection cell of the radius: the probes at the cell's
    # ends decide every replayed midpoint, so no solve runs and the sweep at
    # the radius is the third.
    q = _q(NormalizedKind.G, P11, "jan_star", 1.0, -1.0)
    tol = 1e-9
    seed = radius_real_axis(q, tol).radius
    want = radius_by_certification(q, tol)
    assert want.bracket[0] <= seed < want.bracket[1]
    sweeps, solves = [], []
    sup, refine = radii.boundary_sup, radii._refine_bracket

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return sup(*args, **kwargs)

    def solve(*args):
        solves.append(args[1:3])
        return refine(*args)

    monkeypatch.setattr(radii, "boundary_sup", counted)
    monkeypatch.setattr(radii, "_refine_bracket", solve)
    assert radius_by_certification(q, tol, _seed=seed) == want
    assert len(sweeps) == 3 and solves == []


@pytest.mark.parametrize("kind, what, A, B", (
    (NormalizedKind.G, "jan_star", 1.0, -1.0), (NormalizedKind.H, "lem_convex", None, None)))
def test_seeds_on_the_bisection_path_keep_the_unseeded_radius(kind, what, A, B):
    # Seeds at the final cell's ends and at every midpoint of the bisection
    # from (0, hi) sit where a probe or the replay decides a midpoint twice.
    q = _q(kind, WrightParams(1.0, 1.5), what, A, B)
    tol = 1e-9
    want = radius_by_certification(q, tol)
    bound = domain_bound(q, tol)
    lo, hi = 0.0, bound - min(10.0 * tol, 0.01 * bound)
    path = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if mid <= want.bracket[0]:
            lo = mid
        else:
            hi = mid
    assert (lo, hi) == want.bracket
    for seed in (*want.bracket, *path):
        assert radius_by_certification(q, tol, _seed=seed) == want, seed


@pytest.mark.parametrize("what, A, B, sweeps", (
    ("jan_star", 1.0, 0.5, 3), ("jan_convex", 0.5, 0.25, 3),
    ("lem_star", None, None, 5)))
def test_unsharp_targets_are_seeded_from_the_other_axis(monkeypatch, what, A, B,
                                                       sweeps):
    # For B > 0 and the lemniscate the real-axis crossing is no guess of the
    # radius; the other axis's crossing r_up seeds the certifier instead.
    # Unseeded these queries took 9, 13 and 15 sweeps.
    q = _q(NormalizedKind.G, P11, what, A, B)
    assert _certifier_sweeps(monkeypatch, q) == sweeps


# the lemniscate and Janowski pairs with B > 0
UNSHARP_TARGETS = (("lem_star", None, None), ("lem_convex", None, None),
                   *((what, A, B) for what in ("jan_star", "jan_convex")
                     for A, B in ((0.5, 0.25), (1.0, 0.5), (0.9, 0.8))))


@settings(max_examples=30, deadline=None)
@given(rho=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0),
       kind=st.sampled_from(list(NormalizedKind)),
       target=st.sampled_from(UNSHARP_TARGETS))
def test_other_axis_seed_keeps_the_unseeded_radius(rho, beta, kind, target):
    # r_up, where the condition fails on the other axis, bounds the radius
    # from above and seeds cross_validate's certifier, whose result is the
    # unseeded one; a crossing solve that raises leaves the certifier
    # unseeded, with the same result.
    q = _q(kind, WrightParams(rho, beta), *target)
    tol = 1e-9
    want = radius_by_certification(q, tol)
    r_up = radii._other_axis_crossing(q, tol)
    assert r_up is not None
    assert want.radius <= r_up + tol
    assert cross_validate(q, tol).certifier == want
    scalar = radii._functional_scalar

    def off_axis_fails(query, z):
        if complex(z).real <= 0.0:              # z = i r or z = -r
            raise NearZeroDenominatorError("stub")
        return scalar(query, z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radii, "_functional_scalar", off_axis_fails)
        assert radii._other_axis_crossing(q, tol) is None
        assert cross_validate(q, tol).certifier == want


@pytest.mark.parametrize("what, A", (("jan_star", 0.5), ("jan_star", 1.0),
                                     ("jan_convex", 0.5)))
def test_other_axis_crossing_refuses_the_half_plane(what, A):
    # For B = -1 the target is the half-plane Re v > (1 - A)/2, which has
    # no right end, so there is no crossing on the other axis.
    for kind in NormalizedKind:
        assert radii._other_axis_crossing(_q(kind, P11, what, A, -1.0), 1e-9) is None


@pytest.mark.parametrize("tol", (1e-15, 1e-12))
def test_certifier_equals_bisection_at_tight_tol(tol):
    q = _q(NormalizedKind.H, P11, "jan_convex", 0.5, -0.5)
    assert radius_by_certification(q, tol) == _bisection_oracle(q, tol)


@pytest.mark.parametrize("tol", (1e-17, 1e-20, 5e-324))
def test_certifier_stops_below_one_ulp(tol):
    # Below the spacing of doubles near the radius the bisection midpoint
    # rounds to an endpoint; the bracket then stops at adjacent doubles.
    res = radius_by_certification(_q(NormalizedKind.G, P11, "lem_star"), tol)
    lo, hi = res.bracket
    assert lo < hi <= math.nextafter(lo, math.inf)
    assert res.radius in (lo, hi)


@pytest.mark.parametrize("tol", (0.0, -1e-9, math.inf, math.nan))
def test_radius_routes_reject_bad_tol(tol):
    q = _q(NormalizedKind.G, P11, "jan_star", 0.5, -0.5)
    for route in (domain_bound, radius_by_certification, radius_real_axis):
        with pytest.raises(ParameterError, match="tol must be finite and > 0"):
            route(q, tol=tol)


@pytest.mark.parametrize("what", ("jan_star", "jan_convex"))
def test_certify_reports_the_domain_bound(monkeypatch, what):
    # The functional has a pole 10 tol above hi, so the condition must fail
    # below it: a stub sweep that holds on (0, bound] is refused, and the
    # message names hi and the singularity.
    q = _q(NormalizedKind.G, P11, what, 1.0, -1.0)
    tol = 1e-9
    bound = domain_bound(q, tol)
    hi = bound - 10.0 * tol

    def sweep(query, r, *, _stop_at=math.inf):
        return 0.25 * r, 1.5

    monkeypatch.setattr(radii, "boundary_sup", sweep)
    with pytest.raises(ConvergenceError) as refused:
        radius_by_certification(q, tol)
    assert f"hi = {hi:.9g}" in str(refused.value)
    assert f"pole at {bound:.9g}" in str(refused.value)


def test_real_axis_refuses_a_crossing_above_its_search_end(monkeypatch):
    # G(1, 1) lem_convex at tol 0.05: the grid ends 1% below the singularity
    # 0.6279, not 10 tol below it at 0.1279, so it reaches the crossing.
    q = _q(NormalizedKind.G, P11, "lem_convex")
    tol = 0.05
    exact = radius_real_axis(q).radius
    assert abs(radius_real_axis(q, tol).radius - exact) <= tol
    # A functional that stays above c up to the grid's end has no crossing
    # there: the route refuses rather than return hi as the radius.
    singularity = domain_bound(q, tol)
    monkeypatch.setattr(radii, "_functional_real",
                        lambda query, r: 1.0 - 0.1 * r)
    _real_axis_grid.cache_clear()          # holds the true functional's values
    try:
        with pytest.raises(ConvergenceError) as refused:
            radius_real_axis(q, tol)
    finally:
        _real_axis_grid.cache_clear()      # holds the stub's values
    assert f"hi = {0.99 * singularity:.9g}" in str(refused.value)
    assert f"singularity at {singularity:.9g}" in str(refused.value)


@pytest.mark.parametrize("what", ("lem_star", "lem_convex"))
def test_domain_bound_rejects_a_tol_too_coarse_for_it(what):
    # Both routes need 10 tol below the first zero, 1.2024 for star kinds
    # of G(1, 1) and 0.6279 for convex ones.
    q = _q(NormalizedKind.G, P11, what)
    zero = (positive_zeros(P11, "minus_z_squared", 1) if q.is_star else
            zeros.derivative_positive_zeros(NormalizedKind.G, P11, 1)).zeros[0]
    assert domain_bound(q, zero / 20.0) > 0.0
    for route in (domain_bound, radius_by_certification, radius_real_axis):
        with pytest.raises(ParameterError, match="too coarse") as refused:
            route(q, math.nextafter(zero / 10.0, math.inf))
        assert f"{zero:.9g}" in str(refused.value)


def test_one_bracket_solver_for_zeros_and_radii():
    assert radii._refine_bracket is zeros._refine_bracket


def test_convex_radius_below_star_radius():
    # Convexity is the stricter condition at every target.
    for what_pair in (("lem_star", "lem_convex"), ("jan_star", "jan_convex")):
        A, B = (0.5, -0.5) if what_pair[0].startswith("jan") else (None, None)
        star = radius_by_certification(_q(NormalizedKind.G, P11, what_pair[0], A, B))
        conv = radius_by_certification(_q(NormalizedKind.G, P11, what_pair[1], A, B))
        assert conv.radius < star.radius


def test_domain_bound_is_first_singularity():
    lam1 = positive_zeros(P11, "minus_z_squared", 1).zeros[0]
    mu1 = zeros.derivative_positive_zeros(NormalizedKind.G, P11, 1).zeros[0]
    star_bound = domain_bound(_q(NormalizedKind.G, P11, "lem_star"))
    conv_bound = domain_bound(_q(NormalizedKind.G, P11, "lem_convex"))
    assert star_bound == pytest.approx(lam1, abs=1e-6)
    assert conv_bound == mu1
    assert conv_bound < star_bound


def test_radius_clamps_at_unit_disk():
    # For rho = 2 the first zeros sit far out; the analytic radius can pass
    # 1 while class membership saturates there.
    p = WrightParams(2.0, 2.0)
    res = radius_by_certification(_q(NormalizedKind.H, p, "jan_star", 1.0, 0.0))
    assert res.radius > 1.0
    assert res.clamped == 1.0


def test_pole_guard_raises_near_janowski_pole():
    # For (A,B) = (1,-1) the region map blows up where w = -1; localize that
    # point on the axis with our own bisection and probe it.
    q = _q(NormalizedKind.G, P11, "jan_star", 1.0, -1.0)
    lo, hi = 0.7, 1.2    # w(lo) > -1 > w(hi) on the axis
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if starlike_real(NormalizedKind.G, P11, mid) > -1.0:
            lo = mid
        else:
            hi = mid
    with pytest.raises(PoleProximityError):
        region_functional(q, 0.5 * (lo + hi))


def test_certifier_brackets_a_pole_on_the_circle(monkeypatch):
    # A sweep that meets a pole counts as a failure: the certifier brackets
    # the first radius where one appears and reports it as truncated.
    q = _q(NormalizedKind.G, P11, "jan_star", 0.5, -0.5)
    tol = 1e-9
    assert radius_by_certification(q, tol).pole_truncated is False
    sup = radii.boundary_sup

    def pole_beyond(query, r, **kwargs):
        if r > 0.3:
            raise PoleProximityError("stub pole beyond r = 0.3")
        return sup(query, r, **kwargs)

    monkeypatch.setattr(radii, "boundary_sup", pole_beyond)
    res = radius_by_certification(q, tol)
    lo, hi = res.bracket
    assert res.pole_truncated is True
    assert lo <= 0.3 < hi and hi - lo <= tol


def test_certifier_final_sweep_survives_a_pole_in_the_bracket(monkeypatch):
    # Wherever the stub pole falls in the final bracket, the certifier
    # reports the sweep at the bracket's lower end, which held, instead of
    # raising from the sweep at the radius.
    q = _q(NormalizedKind.G, P11, "jan_star", 0.5, -0.5)
    tol = 1e-9
    sup = radii.boundary_sup
    for t in np.linspace(0.2, 0.5, 40):
        def pole_beyond(query, r, **kwargs):
            if r > t:
                raise PoleProximityError(f"stub pole beyond r = {t}")
            return sup(query, r, **kwargs)

        monkeypatch.setattr(radii, "boundary_sup", pole_beyond)
        res = radius_by_certification(q, tol)
        lo, hi = res.bracket
        assert res.pole_truncated is True
        assert lo <= t < hi and hi - lo <= tol, t
        assert res.sup_at_radius < 1.0


def test_certifier_refuses_the_domain_bound_at_beta_10():
    # F(1, 10) jan_star (1, -1): unseeded, the sweep 10 tol below the pole
    # at 6.677 reads the condition as holding, although w falls to -inf
    # before it; the certifier refuses instead of reporting the bound.
    q = _q(NormalizedKind.F, WrightParams(1.0, 10.0), "jan_star", 1.0, -1.0)
    with pytest.raises(ConvergenceError, match="condition holds at hi"):
        radius_by_certification(q, 1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "at beta >= 10 the certifier misses its own tol: seeded near the "
    "crossing it gives 5.501669021851194, 2.2e-8 off"))
@pytest.mark.parametrize("seed", (5.5016,))
def test_certifier_meets_tol_at_beta_10(seed):
    # F(1, 10): 1 + x J9'(x)/J9(x) = 0 at x = 2r, the Bessel form of
    # w(r) = 0; the root is mpmath's at 80 digits.
    root = 5.501669044144797
    q = _q(NormalizedKind.F, WrightParams(1.0, 10.0), "jan_star", 1.0, -1.0)
    assert radius_by_certification(q, 1e-9, _seed=seed).radius == pytest.approx(
        root, abs=1e-9)


# ----------------------------------------------------------------------------
# dual routes and findings
# ----------------------------------------------------------------------------

def test_cross_validate_janowski_agrees():
    for kind in NormalizedKind:
        q = _q(kind, P11, "jan_star", 1.0, -1.0)
        chk = cross_validate(q)
        assert chk.delta < 1e-5
        assert chk.finding is None


def test_cross_validate_lem_reports_finding():
    q = _q(NormalizedKind.G, P11, "lem_star")
    chk = cross_validate(q)
    assert isinstance(chk.finding, str)
    assert chk.delta > 1e-5
    assert chk.real_axis.radius < chk.certifier.radius
    assert "containment bound" in chk.finding


def test_finding_message_follows_the_sign_of_the_gap():
    # For B > 0 the real-axis crossing lies past the certified radius: the
    # message must not call it a containment bound.
    q = _q(NormalizedKind.G, P11, "jan_star", 1.0, 0.5)
    chk = cross_validate(q)
    assert chk.real_axis.radius > chk.certifier.radius
    assert "overestimates" in chk.finding
    assert "containment bound" not in chk.finding


def test_real_axis_constants():
    assert default_constant(_q(NormalizedKind.G, P11, "lem_star")) == LEM_CONSTANT
    q = _q(NormalizedKind.G, P11, "jan_star", 0.5, -0.5)
    # (1 - A)/(1 - B) for the Janowski boundary on the axis
    assert default_constant(q) == pytest.approx(0.5 / 1.5, rel=1e-15)


def test_halfplane_certifier_is_independent_route():
    # The (1,-1) Janowski target is the half-plane Re w > 0.  The certifier's
    # circle sweep and the real-axis crossing of w = 0, which shares none of
    # its sweep, give the same radius.
    for kind in NormalizedKind:
        q = _q(kind, P11, "jan_star", 1.0, -1.0)
        direct = radius_real_axis(q, tol=1e-9)
        via_jan = radius_by_certification(q, tol=1e-9)
        assert direct.radius == pytest.approx(via_jan.radius, abs=1e-8)


def test_rescaled_boundary_sup_identity():
    # The functional of f(scale * z) at e^{i theta} is that of f at
    # scale e^{i theta}: the circle sweep's sup on |z| = scale equals the
    # point route's modulus at the sweep's argmax angle.
    for what, A, B in (("lem_star", None, None), ("jan_convex", 0.5, 0.0)):
        q = _q(NormalizedKind.G, P11, what, A, B)
        r = 0.35
        direct, angle = boundary_sup(q, r)
        scaled = region_functional(q, r * complex(math.cos(angle), math.sin(angle)))
        assert scaled == pytest.approx(direct, abs=1e-11)


# ----------------------------------------------------------------------------
# when the real-axis crossing is the radius
# ----------------------------------------------------------------------------

def test_registry_janowski_descriptor():
    q = _q(NormalizedKind.G, P11, "jan_star", 0.5, -0.5)
    assert default_constant(q) == pytest.approx(1.0 / 3.0)
    r = radius_real_axis(q)
    assert abs(starlike_real(q.kind, q.params, r.radius) - 1.0 / 3.0) < 1e-7
    assert r.method == "real_axis"
    cert = radius_by_certification(q)
    assert r.radius == pytest.approx(cert.radius, abs=1e-5)


@pytest.mark.parametrize("what, A, B, is_radius", (
    ("lem_star", None, None, False), ("lem_convex", None, None, False),
    ("jan_star", 0.5, 0.25, False), ("jan_star", 1.0, 0.0, True),
    ("jan_convex", 1.0, -1.0, True), ("jan_star", 0.5, -0.5, True),
))
def test_real_axis_is_radius_truth_table(what, A, B, is_radius):
    # Janowski B <= 0 only: the lemniscate crossing is a containment bound
    # and for B > 0 the image disk peaks off its leftmost point.
    q = _q(NormalizedKind.G, P11, what, A, B)
    assert radii._real_axis_is_radius(q) is is_radius


# ----------------------------------------------------------------------------
# regression pins for the full radius surface
# ----------------------------------------------------------------------------

def test_radius_regression_pins():
    # Frozen outputs of this package at tol 1e-9; guards against silent
    # drift in either route.
    cases = [
        (NormalizedKind.G, "lem_star", None, None, "cert", 0.4796529767),
        (NormalizedKind.G, "lem_star", None, None, "axis", 0.4325485188),
        (NormalizedKind.H, "lem_star", None, None, "cert", 0.4782787747),
        (NormalizedKind.G, "lem_convex", None, None, "cert", 0.2822111420),
        (NormalizedKind.G, "jan_star", 1.0, -1.0, "cert", 0.6278918557),
    ]
    for kind, what, A, B, route, want in cases:
        q = _q(kind, P11, what, A, B)
        if route == "cert":
            got = radius_by_certification(q).radius
        else:
            got = radius_real_axis(q).radius
        assert got == pytest.approx(want, abs=2e-9), (kind, what, route)
