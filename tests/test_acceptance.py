"""End-to-end acceptance checks.

Each test is one externally checkable claim about the package, stated with
its tolerance and runtime budget.  Oracles are independent of the code under
test: classical Bessel series summed locally, frozen zero literals, and
internal dual routes that share no solver code.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from wright_radii import (
    JanowskiParams,
    NormalizedKind,
    RadiusQuery,
    WrightParams,
    base_eval,
    boundary_sup,
    convex_functional,
    count_zeros_in_disk,
    cross_validate,
    hadamard_partial_product,
    positive_zeros,
    radius_by_certification,
    radius_real_axis,
    reciprocal_square_sum,
    region_functional,
    starlike_functional,
    wright_derivative,
    wright_eval,
)
from wright_radii import radii
from wright_radii.radii import RADIUS_KINDS

GRID = [WrightParams(r, b) for r in (0.5, 1.0, 2.0)
        for b in (0.5, 1.0, 1.5, 2.0)]
JAN_PAIRS = ((1.0, -1.0), (1.0, 0.0), (0.5, -0.5))

J0_HALF_ZEROS = (1.2024127788478864, 2.7600390551431553, 4.3268639564555061)


def j0_series(x: float) -> float:
    """Independent J0 oracle: plain Taylor series, fsum'd."""
    x2 = 0.25 * x * x
    t = 1.0
    terms = []
    for n in range(1, 60):
        terms.append(t)
        t = -t * x2 / (n * n)
    return math.fsum(terms)


def _queries() -> list[RadiusQuery]:
    out = []
    for kind in NormalizedKind:
        for p in GRID:
            for what in RADIUS_KINDS:
                if what.startswith("jan"):
                    for A, B in JAN_PAIRS:
                        out.append(RadiusQuery(kind, p, what,
                                               JanowskiParams(A, B)))
                else:
                    out.append(RadiusQuery(kind, p, what))
    return out


@pytest.fixture(scope="module")
def headline():
    """Dual-route results for the full radius surface, with wall time."""
    t0 = time.monotonic()
    results = {q: cross_validate(q) for q in _queries()}
    return results, time.monotonic() - t0


def test_bessel_reduction_accuracy():
    # Gamma(1) W(1,1; -r^2) = J0(2r) to 1e-10 on 50 points of [0, 5], and
    # the first three located zeros match halves of J0's zeros to 1e-8.
    # Budget: < 1 s.
    t0 = time.monotonic()
    p = WrightParams(1.0, 1.0)
    worst = 0.0
    for r in np.linspace(0.0, 5.0, 50):
        got = wright_eval(p, -(r * r)).value.real
        worst = max(worst, abs(got - j0_series(2.0 * r)))
    table = positive_zeros(p, "minus_z_squared", 3)
    zero_err = max(abs(a - b) for a, b in zip(table.zeros, J0_HALF_ZEROS))
    elapsed = time.monotonic() - t0
    print(f"\nbessel reduction: value err {worst:.3e}, zero err {zero_err:.3e}, "
          f"{elapsed:.2f}s")
    assert worst <= 1e-10
    assert zero_err <= 1e-8
    assert elapsed < 1.0


def test_analytic_identities():
    # Shift: d/dz W(rho,beta) = W(rho,beta+rho).  Recurrence:
    # W(rho,beta-1) = rho z W(rho,beta+rho) + (beta-1) W(rho,beta).
    # 9 parameter pairs x 20 samples in |z| <= 5, to combined error bounds.
    # Budget: < 1 s.
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    zs = [complex(x, y) for x, y in
          5.0 * rng.uniform(-1.0, 1.0, size=(20, 2)) / math.sqrt(2.0)]
    checked = 0
    for rho in (0.5, 1.0, 2.0):
        for beta in (1.5, 2.0, 3.0):
            p = WrightParams(rho, beta)
            for z in zs:
                d = wright_derivative(p, z, 1)
                s = wright_eval(WrightParams(rho, beta + rho), z)
                assert abs(d.value - s.value) <= (d.abs_error_bound
                                                  + s.abs_error_bound + 1e-13)
                lhs = wright_eval(WrightParams(rho, beta - 1.0), z)
                up = wright_eval(WrightParams(rho, beta + rho), z)
                mid = wright_eval(p, z)
                rhs = rho * z * up.value + (beta - 1.0) * mid.value
                budget = (lhs.abs_error_bound
                          + abs(rho * z) * up.abs_error_bound
                          + abs(beta - 1.0) * mid.abs_error_bound
                          + 1e-12 * max(1.0, abs(lhs.value)))
                assert abs(lhs.value - rhs) <= budget, (rho, beta, z)
                checked += 1
    elapsed = time.monotonic() - t0
    print(f"\nidentities: {checked} triples ok, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_zero_count_completeness():
    # Winding counts at midpoints between consecutive even-form zeros equal
    # 2k for k <= 4, across the 12-point parameter grid.  Budget: < 30 s.
    t0 = time.monotonic()
    for p in GRID:
        lam = positive_zeros(p, "minus_z_squared", 5).zeros
        for k in range(1, 5):
            mid = 0.5 * (lam[k - 1] + lam[k])
            got = count_zeros_in_disk(p, "minus_z_squared", mid)
            assert got == 2 * k, (p, k, got)
    elapsed = time.monotonic() - t0
    print(f"\ncompleteness: 48 winding counts ok, {elapsed:.2f}s")
    assert elapsed < 30.0


def test_product_representation_convergence():
    # The 80-zero tables reproduce Phi(z) = Gamma(beta) W(rho,beta; -z^2)
    # through its Hadamard product, at z = 0.6 lambda_1 across the grid.  The
    # bare partial product P_N over N in {10,20,40,80} zeros has an error that
    # decreases in N; its tail decays like sum_{n>N} 1/lambda_n^2 ~ N^(-rho),
    # too slowly to meet a fixed target at N = 80 for rho <= 1.  The tail is
    # pinned by the exact coefficient identity sum 1/lambda_n^2 =
    # Gamma(beta)/Gamma(rho+beta): with T_N the part of that sum beyond N and
    # u_N = z^2/lambda_N^2, Phi = P_N prod_{n>N} (1 - z^2/lambda_n^2) and
    # -log(1-u) - u <= u^2/(2(1-u)), sum_{n>N} lambda_n^-4 <= T_N/lambda_N^2
    # give
    #   |P_N e^(-z^2 T_N) - Phi| <= |P_N| e^(-z^2 T_N) z^4 T_N / (2 lambda_N^2 (1-u_N))
    # up to the base value's error bound, the table's tol carried through the
    # corrected product, and rounding.  A missing or displaced zero breaks it.
    # Budget: < 30 s.
    t0 = time.monotonic()
    bare = []
    for p in GRID:
        table = positive_zeros(p, "minus_z_squared", 80)
        z = 0.6 * table.zeros[0]
        phi = base_eval(p, z)
        total = math.exp(math.lgamma(p.beta) - math.lgamma(p.rho + p.beta))
        errs = []
        for n in (10, 20, 40, 80):
            prod = hadamard_partial_product(table, z, n).real
            errs.append(abs(prod - phi.value.real))
            lam = np.asarray(table.zeros[:n])
            u = z * z / lam ** 2
            tail = total - reciprocal_square_sum(table, n)
            corrected = prod * math.exp(-z * z * tail)
            bound = (abs(corrected) * z ** 4 * tail
                     / (2.0 * lam[-1] ** 2 * (1.0 - u[-1])))
            # |d log corrected / d lambda_n| = 2 z^2 u_n / (lambda_n^3 (1-u_n))
            drift = table.tol * float(np.sum(2.0 * z * z * u
                                             / (lam ** 3 * (1.0 - u))))
            slack = (phi.abs_error_bound
                     + abs(corrected) * (drift + 8 * n * 2.0 ** -52))
            gap = abs(corrected - phi.value.real)
            assert gap <= bound + slack, (p, n, gap, bound, slack)
        assert all(b < a for a, b in zip(errs, errs[1:])), (p, errs)
        bare.append((p.rho, p.beta, errs[-1]))
    elapsed = time.monotonic() - t0
    print(f"\nproducts: tail bound holds at N = 10..80 on 12 rows, {elapsed:.2f}s; "
          f"bare N=80 absolute errors: {bare}")
    assert elapsed < 30.0


def test_radius_cross_validation(headline):
    # Certifier vs real-axis scalar equation for 4 radius kinds x 3
    # normalizations x 12 parameter pairs (x 3 Janowski pairs): agreement to
    # 1e-5, or a structured finding for every disagreement.  Budget: < 5 min.
    results, elapsed = headline
    assert len(results) == 288
    findings = 0
    worst_jan = 0.0
    for q, chk in results.items():
        if chk.delta > 1e-5:
            assert chk.finding is not None, (q, chk.delta)
            findings += 1
        if q.radius_kind.startswith("jan"):
            worst_jan = max(worst_jan, chk.delta)
            assert chk.delta <= 1e-5, (q, chk.delta)
    print(f"\ncross-validation: 288 queries, worst Janowski delta "
          f"{worst_jan:.2e}, {findings} findings (all lemniscate), "
          f"{elapsed:.1f}s")
    assert elapsed < 300.0


def test_plain_certifier_sweeps_as_cross_validate(headline, monkeypatch):
    # The certifier works out its own seed, so certifying the surface alone
    # sweeps the circles cross_validate's certifier sweeps, 1,150 on the 288
    # queries (an unseeded certifier takes 3,869), with the same results.
    # The zero tables and the real-axis values are the headline run's,
    # outside the count.
    results, _ = headline
    sweeps = 0
    sup = radii.boundary_sup

    def counted(*args, **kwargs):
        nonlocal sweeps
        sweeps += 1
        return sup(*args, **kwargs)

    monkeypatch.setattr(radii, "boundary_sup", counted)
    for q, chk in results.items():
        assert radius_by_certification(q) == chk.certifier, q
    assert sweeps == 1150
    sweeps = 0
    for q in results:
        cross_validate(q)
    assert sweeps == 1150


def test_halfplane_specialization(headline):
    # jan_star at (A,B) = (1,-1), the half-plane Re w > 0, equals the
    # real-axis crossing of w = 0, a route sharing none of the certifier's
    # sweep, to 1e-8 on the grid, all three normalizations.
    results, _ = headline
    worst = 0.0
    for kind in NormalizedKind:
        for p in GRID:
            q = RadiusQuery(kind, p, "jan_star", JanowskiParams(1.0, -1.0))
            via_jan = results[q].certifier.radius
            direct = radius_real_axis(q, tol=1e-9).radius
            worst = max(worst, abs(via_jan - direct))
            assert abs(via_jan - direct) <= 1e-8, (kind, p)
    print(f"\nhalfplane specialization: worst gap {worst:.2e}")


def test_radius_orderings(headline):
    # (a) lemniscate radius <= (1,0)-Janowski radius: the right lemniscate
    # loop sits inside |w - 1| < 1.  (b) Janowski radius nondecreasing in A
    # at fixed B.  Exact inequalities with 1e-9 slack, on the grid.
    results, _ = headline
    for kind in NormalizedKind:
        for p in GRID:
            for suffix in ("star", "convex"):
                lem = results[RadiusQuery(kind, p, f"lem_{suffix}")]
                jan = results[RadiusQuery(kind, p, f"jan_{suffix}",
                                          JanowskiParams(1.0, 0.0))]
                assert (lem.certifier.radius
                        <= jan.certifier.radius + 1e-9), (kind, p, suffix)
    for p in GRID:
        radii = []
        for A in (0.25, 0.5, 1.0):
            q = RadiusQuery(NormalizedKind.G, p, "jan_star",
                            JanowskiParams(A, -1.0))
            radii.append(radius_by_certification(q).radius)
        assert radii[0] <= radii[1] + 1e-9, (p, radii)
        assert radii[1] <= radii[2] + 1e-9, (p, radii)
    print("\norderings: lem <= jan(1,0) on 72 rows; A-monotone on 12 rows")


def test_rescaled_boundary_semantics(headline):
    # The class-membership radius talks about f_r(z) = f(rz)/r on the unit
    # circle: its functional at e^{i theta} is that of f at r e^{i theta}, so
    # the circle sweep's sup at r must equal the point route's modulus at
    # the sweep's argmax angle, to 1e-10, on 6 sampled queries.
    results, _ = headline
    samples = [
        RadiusQuery(NormalizedKind.G, WrightParams(1.0, 1.0), "lem_star"),
        RadiusQuery(NormalizedKind.H, WrightParams(0.5, 1.5), "lem_convex"),
        RadiusQuery(NormalizedKind.F, WrightParams(2.0, 2.0), "lem_star"),
        RadiusQuery(NormalizedKind.G, WrightParams(0.5, 0.5), "jan_star",
                    JanowskiParams(1.0, -1.0)),
        RadiusQuery(NormalizedKind.H, WrightParams(1.0, 2.0), "jan_convex",
                    JanowskiParams(0.5, -0.5)),
        RadiusQuery(NormalizedKind.F, WrightParams(2.0, 0.5), "jan_star",
                    JanowskiParams(1.0, 0.0)),
    ]
    worst = 0.0
    for q in samples:
        r = results[q].certifier.radius
        direct, angle = boundary_sup(q, r)
        scaled = region_functional(q, r * complex(math.cos(angle), math.sin(angle)))
        worst = max(worst, abs(direct - scaled))
        assert abs(direct - scaled) <= 1e-10, (q, direct, scaled)
    print(f"\nrescaled boundary: worst gap {worst:.2e} on 6 queries")


def _other_axis_crossing(q: RadiusQuery, level: float) -> float:
    """Where the point functional on the other axis reaches level, bisected
    to 1e-13; its upper end is returned.

    On z = ir for F and G and on z = -r for H the series have positive
    terms, so the functional is real, starts at 1 and increases with r.
    """
    functional = starlike_functional if q.is_star else convex_functional
    axis = -1.0 if q.kind is NormalizedKind.H else 1j

    def above(r: float) -> bool:
        return functional(q.kind, q.params, axis * r).value.real >= level

    lo, hi = 0.0, 1.0
    while not above(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_radius_two_sided_bracket(headline):
    # Lower side: the lemniscate's real-axis crossing at 2 - sqrt(2) is a
    # containment bound strictly below the certified radius (smallest gap
    # 0.0091).  Upper side: the condition fails at the point of the other
    # axis where the functional reaches sqrt(2) (lemniscate) or the right
    # end (1 + A)/(1 + B) of the Janowski disk, so that crossing r_up bounds
    # the radius from above, up to tol, on the 216 queries with B > -1.
    # Janowski B <= 0 from below: test_radius_cross_validation.
    results, _ = headline
    tol = 1e-9
    bounded = on_axis = 0
    worst = -math.inf
    for q, chk in results.items():
        radius = chk.certifier.radius
        if q.janowski is None:
            assert chk.real_axis.radius < radius, (q, chk.real_axis.radius)
            level = math.sqrt(2.0)
        elif q.janowski.B > -1.0:
            A, B = q.janowski.A, q.janowski.B
            level = (1.0 + A) / (1.0 + B)
        else:
            continue
        r_up = _other_axis_crossing(q, level)
        assert radius <= r_up + tol, (q, radius, r_up)
        worst = max(worst, radius - r_up)
        on_axis += abs(radius - r_up) <= 2.0 * tol
        bounded += 1
    print(f"\ntwo-sided bracket: {bounded} radii at most r_up + tol, largest "
          f"excess {worst:.2e}, {on_axis} equal to r_up within 2 tol")
    assert bounded == 216


def test_radius_upper_bound_for_b_positive():
    # The other axis's crossing bounds the Janowski radius from above for
    # B > 0 too: on these 216 queries (every kind, grid point, star and
    # convex, three (A, B) pairs) radius <= r_up + tol.  All 216 also equal
    # r_up within 2 tol (largest excess 4.7e-10), which is measured here,
    # not proven, so only the bound is asserted.
    tol = 1e-9
    worst = -math.inf
    for A, B in ((0.5, 0.25), (1.0, 0.5), (0.9, 0.8)):
        for kind in NormalizedKind:
            for p in GRID:
                for what in ("jan_star", "jan_convex"):
                    q = RadiusQuery(kind, p, what, JanowskiParams(A, B))
                    radius = radius_by_certification(q, tol).radius
                    r_up = _other_axis_crossing(q, (1.0 + A) / (1.0 + B))
                    assert radius <= r_up + tol, (q, radius, r_up)
                    worst = max(worst, radius - r_up)
    print(f"\nB > 0 upper bound: largest excess over r_up {worst:.2e}")
