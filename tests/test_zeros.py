from __future__ import annotations

import cmath
import hashlib
import math
import signal

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mpmath import mp

from wright_radii import (
    ConvergenceError,
    NonIntegerWindingError,
    NormalizedKind,
    ParameterError,
    ScanExhaustedError,
    WrightParams,
    ZeroTable,
    base_residual,
    count_zeros_in_disk,
    derivative_positive_zeros,
    hadamard_partial_product,
    positive_zeros,
    reciprocal_square_sum,
)
from wright_radii import zeros
from wright_radii.kernel import combo_neg_axis, term_exponent_max
from wright_radii.zeros import _ComboSeries, _mp_wright_complex, _Scan

# j_{0,k}/2: zeros of g(r) = r J0(2r) for rho = beta = 1.
J0_HALF_ZEROS = (1.2024127788478864, 2.7600390551431553, 4.3268639564555061)


# ----------------------------------------------------------------------------
# table construction and validation
# ----------------------------------------------------------------------------

def test_zero_table_invariants(bessel_params):
    with pytest.raises(ParameterError):
        ZeroTable(bessel_params, "minus_z_squared", (), 1e-12)
    with pytest.raises(ParameterError):
        ZeroTable(bessel_params, "minus_z_squared", (-1.0, 2.0), 1e-12)
    with pytest.raises(ParameterError):
        ZeroTable(bessel_params, "minus_z_squared", (2.0, 2.0), 1e-12)
    with pytest.raises(ParameterError):
        ZeroTable(bessel_params, "cubed", (1.0,), 1e-12)


def test_positive_zeros_validation(bessel_params):
    with pytest.raises(ParameterError):
        positive_zeros(bessel_params, "sq", 3)        # CLI alias, not a form
    with pytest.raises(ParameterError):
        positive_zeros(bessel_params, "minus_z_squared", 0)
    with pytest.raises(ParameterError):
        positive_zeros(bessel_params, "minus_z_squared", 3, tol=0.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="tol must be finite and > 0"):
            positive_zeros(bessel_params, "minus_z_squared", 3, tol=tol)
        with pytest.raises(ParameterError, match="tol must be finite and > 0"):
            derivative_positive_zeros(NormalizedKind.G, bessel_params, 3, tol=tol)


# ----------------------------------------------------------------------------
# located zeros against classical references
# ----------------------------------------------------------------------------

def test_bessel_zeros(bessel_params):
    table = positive_zeros(bessel_params, "minus_z_squared", 3)
    for got, want in zip(table.zeros, J0_HALF_ZEROS):
        assert got == pytest.approx(want, abs=1e-10)


def test_forms_are_square_related(bessel_params):
    # minus_z zeros nu_n and minus_z_squared zeros lambda_n describe the
    # same axis crossings: nu_n = lambda_n^2.  The two tables are built by
    # independent scans, so this is a real consistency check.
    sq = positive_zeros(bessel_params, "minus_z_squared", 4)
    lin = positive_zeros(bessel_params, "minus_z", 4)
    for lam, nu in zip(sq.zeros, lin.zeros):
        assert nu == pytest.approx(lam * lam, rel=1e-10)


def test_derivative_zero_g_matches_bessel(bessel_params):
    # g'(r) = J0(2r) - 2r J1(2r); its first positive zero.
    eta = brentq(lambda r: sp.j0(2 * r) - 2 * r * sp.j1(2 * r), 0.4, 0.9,
                 xtol=1e-14)
    table = derivative_positive_zeros(NormalizedKind.G, bessel_params, 1)
    assert table.zeros[0] == pytest.approx(eta, abs=1e-10)


def test_derivative_zeros_interlace_base_zeros():
    # f in the Laguerre-Polya class: between consecutive zeros of f lies
    # exactly one zero of f', and one more sits before the first.
    for rho, beta in ((1.0, 1.0), (0.5, 1.5), (2.0, 2.0)):
        p = WrightParams(rho, beta)
        for kind in (NormalizedKind.G, NormalizedKind.H):
            form = "minus_z_squared" if kind is NormalizedKind.G else "minus_z"
            base = positive_zeros(p, form, 4).zeros
            deriv = derivative_positive_zeros(kind, p, 4).zeros
            assert deriv[0] < base[0]
            for k in range(3):
                assert base[k] < deriv[k + 1] < base[k + 1]


def test_f_derivative_zeros_shrink_with_beta():
    # v(r) = beta Phi + r Phi' loses its leading positive weight as beta
    # drops, so the first zero of f' moves left.
    p_lo = WrightParams(1.0, 0.5)
    p_hi = WrightParams(1.0, 2.0)
    lo = derivative_positive_zeros(NormalizedKind.F, p_lo, 1).zeros[0]
    hi = derivative_positive_zeros(NormalizedKind.F, p_hi, 1).zeros[0]
    assert lo < hi


def test_zero_tables_are_deterministic(bessel_params):
    a = positive_zeros(bessel_params, "minus_z_squared", 3)
    b = positive_zeros(bessel_params, "minus_z_squared", 3)
    assert a.zeros == b.zeros


# Cold 80-zero scans in x = r^2 at tol 1e-12: a few zeros by value and the
# whole scan by the SHA-256 of repr(xs), first 16 hex digits.  Frozen again
# when the slope-corrected step took over the deep zeros, which moved these
# by at most 1.5e-14 relative; test_deep_zero_tables_bracket_the_true_zeros
# holds the same rows to a truth independent of the package.  Cold scans,
# because a table extended from a cached shorter one may differ in the last
# bits.
FROZEN_SCANS = {
    (1.0, 1.0): ((1.4457964907361407, 234.6197783689277, 3898.7104486616654,
                  15692.887709720066), "ea19bf1f18ada67f"),
    (0.5, 0.5): ((0.960775351512676, 77.87656083553753, 660.1995805290387,
                  1885.073631405033), "307e3fceb4fe3732"),
    (2.0, 2.0): ((7.235525569225327, 7073.571025373634, 452625.60286971886,
                  3620972.3184051206), "56cd9a81bca10b8a"),
}


@pytest.mark.parametrize("rho, beta", sorted(FROZEN_SCANS))
def test_deep_zero_scans_are_bit_identical(rho, beta):
    xs = _Scan(_ComboSeries(WrightParams(rho, beta), 1.0, 0.0), 1e-12,
               "minus_z_squared").zeros(80)
    values, digest = FROZEN_SCANS[rho, beta]
    assert tuple(xs[i] for i in (0, 9, 39, 79)) == values
    assert hashlib.sha256(repr(xs).encode()).hexdigest()[:16] == digest


def _base_by_mpmath(rho: float, beta: float, r):
    """Gamma(beta) W(rho, beta; -r^2) from mpmath's own functions, for the
    deep-zero rows (1/2, 1/2) and (2, 2).  Splitting n by parity and using
    (2k)! = 4^k k! (1/2)_k, (2k+1)! = 4^k k! (3/2)_k gives

        Gamma(1/2) W(1/2, 1/2; -x) = 0F2(; 1/2, 1/2; x^2/4)
                                     - sqrt(pi) x 0F2(; 1, 3/2; x^2/4),
        Gamma(2) W(2, 2; -x)       = 0F2(; 1, 3/2; -x/4).
    """
    x = mp.mpf(r) ** 2
    if (rho, beta) == (0.5, 0.5):
        z = x * x / 4
        return mp.hyper([], [0.5, 0.5], z) - mp.sqrt(mp.pi) * x * mp.hyper([], [1, 1.5], z)
    assert (rho, beta) == (2.0, 2.0)
    return mp.hyper([], [1, 1.5], -x / 4)


def _assert_brackets_the_true_zeros(rho: float, beta: float, lam, tol: float) -> None:
    # Each r_k - tol < zero < r_k + tol, by an independent mpmath evaluation:
    # j_{0,k}/2 for the Bessel row; elsewhere the base's sign at r_k -+ tol,
    # (-1)^(k-1) then (-1)^k, at two precisions past the sums' cancellation.
    assert len(lam) == 80
    if (rho, beta) == (1.0, 1.0):
        for k, r in enumerate(lam, 1):
            assert abs(r - mp.besseljzero(0, k) / 2) < tol, k
        return
    for k, r in enumerate(lam, 1):
        for dps in (250, 300):
            with mp.workdps(dps):
                lo = _base_by_mpmath(rho, beta, mp.mpf(r) - tol)
                hi = _base_by_mpmath(rho, beta, mp.mpf(r) + tol)
            assert ((lo > 0) == (k % 2 == 1) and (hi > 0) == (k % 2 == 0)
                    and lo != 0 and hi != 0), (k, dps)


@pytest.mark.parametrize("rho, beta", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
def test_deep_zero_tables_bracket_the_true_zeros(rho, beta):
    # The benchmark's 80-zero rows against a truth that shares no code with
    # the package's evaluator.
    table = positive_zeros(WrightParams(rho, beta), "minus_z_squared", 80)
    _assert_brackets_the_true_zeros(rho, beta, table.zeros, table.tol)


def _cold_bessel_scan_evals(monkeypatch) -> tuple[list[float], int]:
    """A cold 80-zero (1, 1) scan in x = r^2 and its certified evaluations."""
    certified, evals = _ComboSeries.certified, 0

    def counted(self, x, *args):
        nonlocal evals
        evals += 1
        return certified(self, x, *args)

    monkeypatch.setattr(_ComboSeries, "certified", counted)
    xs = _Scan(_ComboSeries(WrightParams(1.0, 1.0), 1.0, 0.0), 1e-12,
               "minus_z_squared").zeros(80)
    monkeypatch.setattr(_ComboSeries, "certified", certified)
    return xs, evals


@pytest.mark.parametrize("shift", [-3.0, 3.0])
def test_a_missed_slope_corrected_step_falls_back(monkeypatch, shift):
    # Every ln|s'| off by the same shift leaves its extrapolation's error,
    # and so the gate, as it was (the weights sum to 1), but the step goes
    # e^-shift times as far as it should: 19 prediction errors past the
    # zero, mostly outside the bracket where no point is read, or 95% short
    # of it, where the walk or the stepping that resumes finds the zero.
    # Either costs evaluations, and the table still brackets every zero.
    _, fair = _cold_bessel_scan_evals(monkeypatch)
    log_slope = zeros._log_slope
    monkeypatch.setattr(zeros, "_log_slope", lambda *args: log_slope(*args) + shift)
    xs, spoiled = _cold_bessel_scan_evals(monkeypatch)
    assert spoiled > fair + 40
    _assert_brackets_the_true_zeros(1.0, 1.0, [math.sqrt(x) for x in xs], 1e-12)


def test_tolerance_refinement_consistency(bessel_params):
    coarse = positive_zeros(bessel_params, "minus_z_squared", 2, tol=1e-6)
    fine = positive_zeros(bessel_params, "minus_z_squared", 2, tol=1e-12)
    for c, f in zip(coarse.zeros, fine.zeros):
        assert c == pytest.approx(f, abs=2e-6)


def test_base_residual_vanishes_on_zeros(bessel_params):
    table = positive_zeros(bessel_params, "minus_z_squared", 2)
    for r in table.zeros:
        assert base_residual(bessel_params, "minus_z_squared", r) < 1e-9
    assert base_residual(bessel_params, "minus_z_squared", 0.5) > 0.1


def test_base_residual_refuses_an_r_too_deep_within_a_second():
    # r = 1e6 would sum W(1, 1; -1e12) at about 870,000 digits
    def too_slow(signum, frame):
        raise TimeoutError("base_residual ran past 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ParameterError, match="too deep"):
            base_residual(WrightParams(1.0, 1.0), "minus_z_squared", 1e6)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------------
# argument-principle counting
# ----------------------------------------------------------------------------

def test_count_in_disk_even_form(bessel_params):
    # The even base has zeros at +-lambda_n: counts step by 2.
    lam = J0_HALF_ZEROS
    assert count_zeros_in_disk(bessel_params, "minus_z_squared", 0.8) == 0
    mid1 = 0.5 * (lam[0] + lam[1])
    assert count_zeros_in_disk(bessel_params, "minus_z_squared", mid1) == 2
    mid2 = 0.5 * (lam[1] + lam[2])
    assert count_zeros_in_disk(bessel_params, "minus_z_squared", mid2) == 4


def test_count_in_disk_linear_form(bessel_params):
    # The minus_z base has simple zeros at nu_n = lambda_n^2: counts step by 1.
    nu1 = J0_HALF_ZEROS[0] ** 2
    nu2 = J0_HALF_ZEROS[1] ** 2
    assert count_zeros_in_disk(bessel_params, "minus_z", 0.5 * nu1) == 0
    assert count_zeros_in_disk(bessel_params, "minus_z", 0.5 * (nu1 + nu2)) == 1


def test_count_in_disk_validation(bessel_params):
    with pytest.raises(ParameterError):
        count_zeros_in_disk(bessel_params, "minus_z_squared", 0.0)
    with pytest.raises(ParameterError, match="too deep"):
        count_zeros_in_disk(bessel_params, "minus_z_squared", 400.0)
    with pytest.raises(ParameterError, match="finite"):
        count_zeros_in_disk(bessel_params, "minus_z_squared", math.inf)


def test_count_in_disk_on_a_contour_whose_modulus_underflows(bessel_params):
    # R * R underflows to 0, so the contour is circle_eval's modulus-0 circle
    assert count_zeros_in_disk(bessel_params, "minus_z_squared", 1e-200) == 0


def test_count_in_disk_refuses_a_contour_through_a_zero(bessel_params):
    # |x| = 1.4457964907..., the first zero of W(1, 1; -x) (j_{0,1}^2 / 4):
    # the winding integral settles on no integer at any node count.
    with pytest.raises(NonIntegerWindingError, match="did not stabilize"):
        count_zeros_in_disk(bessel_params, "minus_z", 1.445796490736472)


@pytest.mark.parametrize("R", (1e160, 1e300))
def test_count_in_disk_refuses_an_overflowing_contour(bessel_params, R):
    # R * R overflows, so the contour's exponent reads nan: still too deep
    with pytest.raises(ParameterError, match="too deep"):
        count_zeros_in_disk(bessel_params, "minus_z_squared", R)


def test_rescue_matches_exact_argument_sum():
    # Near the negative axis at |u| = 40 the double-precision circle value
    # of W(0.3, 1.1; u) ~ 4e-11 drowns under terms of size e^E_max ~ 6e10.
    # The rescue must match a sum whose Gamma arguments 3n/10 + 1.1 are
    # formed in mpmath, within the sign floor 10^-(dps-8) e^E_max.
    p = WrightParams(0.3, 1.1)
    u = 40.0 * cmath.exp(1j * (math.pi - 0.01))
    e_max = term_exponent_max(p, 40.0)
    with mp.workdps(120):
        rho, beta, mu = mp.mpf(3) / 10, mp.mpf(p.beta), mp.mpc(u)
        ref = complex(mp.fsum(mu ** n / (mp.factorial(n) * mp.gamma(rho * n + beta))
                              for n in range(300)))
    dps = _ComboSeries(p, 1.0, 0.0)._dps_budget(40.0, e_max)
    floor = 10.0 ** (-(dps - 8)) * math.exp(e_max)
    assert abs(_mp_wright_complex(p, u, e_max) - ref) <= floor < 1e-3 * abs(ref)


def test_count_in_disk_through_the_rescue():
    # Between zeros 6 and 7 of the even base for (0.3, 1.1) the contour
    # passes nodes that only the certified mpmath rescue can evaluate.
    p = WrightParams(0.3, 1.1)
    lam = positive_zeros(p, "minus_z_squared", 7).zeros
    assert count_zeros_in_disk(p, "minus_z_squared", 0.5 * (lam[5] + lam[6])) == 12


@settings(max_examples=12, deadline=None)
@given(rho=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0))
def test_zero_tables_are_complete(rho, beta):
    # No zero is skipped: halfway between table zeros k and k + 1 the disk
    # holds 2k zeros of the even base (at +-lambda_n) and k of the minus_z one.
    p = WrightParams(rho, beta)
    for form, per_zero in (("minus_z_squared", 2), ("minus_z", 1)):
        lam = positive_zeros(p, form, 5).zeros
        for k in range(1, 5):
            R = 0.5 * (lam[k - 1] + lam[k])
            assert count_zeros_in_disk(p, form, R) == per_zero * k, (form, k)


# ----------------------------------------------------------------------------
# partial products and coefficient sums
# ----------------------------------------------------------------------------

def test_partial_product_validation(bessel_params):
    table = positive_zeros(bessel_params, "minus_z_squared", 3)
    for N in (0, 4, True, 2.5):
        with pytest.raises(ParameterError, match=r"integer in \[1, 3\]"):
            hadamard_partial_product(table, 0.1, N)
    # any integer type counts, NumPy's included
    assert (hadamard_partial_product(table, 0.3, np.int64(3))
            == hadamard_partial_product(table, 0.3, 3))


@pytest.mark.parametrize("form, z", [("minus_z_squared", 1e100),
                                     ("minus_z_squared", 1e200),
                                     ("minus_z_squared", -1e100j),
                                     ("minus_z", 1e200)])
def test_partial_product_past_the_double_range_raises(bessel_params, form, z):
    # |z|^6 resp. |z|^3 over the three zeros' product overflows: a typed
    # error, not inf or nan with a numpy warning
    table = positive_zeros(bessel_params, form, 3)
    with pytest.raises(ConvergenceError, match="double range"):
        hadamard_partial_product(table, z, 3)


@pytest.mark.parametrize("N", [0, -1, 4, 2.5, True])
def test_reciprocal_square_sum_validation(bessel_params, N):
    # the product's check on N, shared: a count outside [1, len], not an
    # integer, or a bool raises instead of summing a slice of the table
    table = positive_zeros(bessel_params, "minus_z_squared", 3)
    with pytest.raises(ParameterError, match=r"integer in \[1, 3\]"):
        reciprocal_square_sum(table, N)
    assert reciprocal_square_sum(table) == reciprocal_square_sum(table, 3)
    assert reciprocal_square_sum(table, np.int64(2)) == reciprocal_square_sum(table, 2)


def test_table_count_takes_any_integer_type(bessel_params):
    table = positive_zeros(bessel_params, "minus_z_squared", np.int64(5))
    assert table.zeros == positive_zeros(bessel_params, "minus_z_squared", 5).zeros
    for count in (True, 2.5):
        with pytest.raises(ParameterError, match="count must be a positive integer"):
            positive_zeros(bessel_params, "minus_z_squared", count)


def test_partial_product_tracks_base_near_origin(bessel_params):
    # prod_{n<=N} (1 - z^2/lambda_n^2) converges to Phi(z); the leading
    # defect is exp(-z^2 * tail) with tail = sum_{n>N} 1/lambda_n^2.
    from wright_radii import base_eval
    table = positive_zeros(bessel_params, "minus_z_squared", 40)
    tail = 1.0 - reciprocal_square_sum(table)
    z = 0.3
    prod = hadamard_partial_product(table, z, 40)
    phi = base_eval(bessel_params, z).value.real
    assert abs(prod - phi) <= 2.0 * (z * z) * tail * abs(phi)
    # and N = 40 must be closer than N = 5
    worse = hadamard_partial_product(table, z, 5)
    assert abs(prod - phi) < abs(worse - phi)


def test_reciprocal_square_sum_limit(bessel_params):
    # sum 1/lambda_n^2 = Gamma(beta)/Gamma(rho+beta); for rho = beta = 1
    # the limit is 1 (equivalently sum 1/j_{0,n}^2 = 1/4).
    table = positive_zeros(bessel_params, "minus_z_squared", 80)
    partial = reciprocal_square_sum(table)
    assert partial < 1.0
    gap = 1.0 - partial
    # lambda_n ~ (n - 1/4) pi / 2: the tail beyond n = 80 is about 0.005
    assert 0.003 < gap < 0.007
    assert reciprocal_square_sum(table, 40) < partial


def test_reciprocal_square_sum_monotone(bessel_params):
    table = positive_zeros(bessel_params, "minus_z_squared", 10)
    vals = [reciprocal_square_sum(table, n) for n in range(1, 11)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_linear_form_product_tools(bessel_params):
    # Psi(x) = Gamma(1) W(1, 1; -x) = J0(2 sqrt(x)), with zeros nu_n = j_{0,n}^2/4
    # and sum 1/nu_n = Gamma(1)/Gamma(2) = 1.  With tail = 1 - sum_{n<=N} 1/nu_n,
    # P_N/Psi = 1/prod_{n>N} (1 - x/nu_n) lies in [exp(x tail),
    # exp(x tail/(1 - x/nu_{N+1}))] for 0 < x < nu_{N+1}.
    table = positive_zeros(bessel_params, "minus_z", 21)
    nu = table.zeros
    assert nu == pytest.approx(sp.jn_zeros(0, 21) ** 2 / 4.0, rel=1e-12, abs=0.0)
    x = 0.6 * nu[0]
    psi = sp.j0(2.0 * math.sqrt(x))
    sums, errors = [], []
    for N in (5, 10, 20):
        sums.append(reciprocal_square_sum(table, N))
        tail = 1.0 - sums[-1]
        err = hadamard_partial_product(table, x, N).real - psi
        assert math.expm1(x * tail) * psi <= err
        assert err <= math.expm1(x * tail / (1.0 - x / nu[N])) * psi
        errors.append(err)
    # 0.923, 0.960, 0.980 and errors 0.021, 0.011, 0.0053
    assert sums[0] < sums[1] < sums[2] < 1.0
    assert sums[0] > 0.92 and errors[2] < 0.006
    assert errors[0] > errors[1] > errors[2] > 0.0


# ----------------------------------------------------------------------------
# deep-zero evaluation routes and the table cache
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("rho", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("a, b", ((1.0, 0.0), (1.0, -2.0)))
def test_hypergeometric_route_matches_per_term_sum(rho, a, b):
    # At the 80th base zero, the deepest point the tables reach, the split
    # into hypergeometric series and the plain per-term sum agree inside the
    # sign floor that certified() trusts, at the working precision it picks.
    p = WrightParams(rho, 1.5)
    x = positive_zeros(p, "minus_z_squared", 80).zeros[-1] ** 2
    ev = _ComboSeries(p, a, b)
    e_max = term_exponent_max(p, x)
    dps = ev._dps_budget(x, e_max)
    with mp.workdps(30):
        floor = mp.mpf(10) ** (-(dps - 8)) * mp.exp(e_max)
    assert abs(ev._sum_hyper(x, dps) - ev._sum_terms(x, dps)) < floor


def test_irrational_rho_table_uses_per_term_sum(monkeypatch):
    # rho = 1/2 + 1e-9 is no ratio of small integers, so its deep zeros come
    # from the per-term loop alone; they sit within 100 * 1e-9 of the
    # rho = 1/2 zeros (|d lambda / d rho| < 100 on the first 20).
    calls = {"terms": 0, "hyper": 0}
    terms, hyper = _ComboSeries._sum_terms, _ComboSeries._sum_hyper

    def count(name, fn):
        def wrapped(self, x, dps):
            calls[name] += 1
            return fn(self, x, dps)
        return wrapped

    monkeypatch.setattr(_ComboSeries, "_sum_terms", count("terms", terms))
    monkeypatch.setattr(_ComboSeries, "_sum_hyper", count("hyper", hyper))
    near = positive_zeros(WrightParams(0.5 + 1e-9, 1.0), "minus_z_squared", 20)
    assert calls["terms"] > 0 and calls["hyper"] == 0
    half = positive_zeros(WrightParams(0.5, 1.0), "minus_z_squared", 20)
    for got, want in zip(near.zeros, half.zeros):
        assert got == pytest.approx(want, abs=1e-7)


def test_table_extension_resumes_and_keeps_tighter_tol(monkeypatch):
    # Extending a cached table evaluates only past its last zero and agrees
    # with a fresh scan to tol; a looser request neither rescans nor
    # loosens the cached table.
    p = WrightParams(1.0, 0.75)
    first = positive_zeros(p, "minus_z_squared", 3)
    seen = []
    certified = _ComboSeries.certified

    def record(self, x, *args):
        seen.append(x)
        return certified(self, x, *args)

    monkeypatch.setattr(_ComboSeries, "certified", record)
    longer = positive_zeros(p, "minus_z_squared", 6)
    assert longer.zeros[:3] == first.zeros
    assert min(seen) > first.zeros[-1] ** 2
    fresh = _Scan(_ComboSeries(p, 1.0, 0.0), 1e-12, "minus_z_squared").zeros(6)
    for got, x in zip(longer.zeros, fresh):
        assert got == pytest.approx(math.sqrt(x), abs=1e-12)
    seen.clear()
    assert positive_zeros(p, "minus_z_squared", 6, tol=1e-6).zeros == longer.zeros
    assert seen == []
    positive_zeros(p, "minus_z_squared", 7, tol=1e-6)
    seen.clear()
    positive_zeros(p, "minus_z_squared", 7)
    assert seen == []


def test_table_does_not_depend_on_earlier_requests(monkeypatch):
    # An extension resumes the stored scan state, so the 80-zero table built
    # after shorter requests is the cold scan, bit for bit.
    p = WrightParams(1.0, 1.0)
    monkeypatch.setattr(zeros, "_x_zero_cache", {})
    for n in (1, 2, 3, 4):
        positive_zeros(p, "minus_z_squared", n)
    warm = positive_zeros(p, "minus_z_squared", 80)
    cold = _Scan(_ComboSeries(p, 1.0, 0.0), 1e-12, "minus_z_squared").zeros(80)
    assert warm.zeros == tuple(math.sqrt(x) for x in cold)


def test_failed_extension_leaves_the_scan_resumable(monkeypatch):
    # A request that raises mid-scan commits none of its progress, so the
    # next request resumes the scan where the last one that returned stopped.
    p = WrightParams(1.0, 1.0)
    monkeypatch.setattr(zeros, "_x_zero_cache", {})
    positive_zeros(p, "minus_z_squared", 3)
    certified = _ComboSeries.certified
    calls = []

    def fail_once(self, x, *args):
        calls.append(x)
        if len(calls) == 12:
            raise ConvergenceError("injected failure")
        return certified(self, x, *args)

    monkeypatch.setattr(_ComboSeries, "certified", fail_once)
    with pytest.raises(ConvergenceError):
        positive_zeros(p, "minus_z_squared", 10)
    monkeypatch.setattr(_ComboSeries, "certified", certified)
    warm = positive_zeros(p, "minus_z_squared", 10)
    cold = _Scan(_ComboSeries(p, 1.0, 0.0), 1e-12, "minus_z_squared").zeros(10)
    assert warm.zeros == tuple(math.sqrt(x) for x in cold)


def test_exhausted_scan_raises_and_is_not_kept(monkeypatch):
    # Two scan steps per zero cannot reach the third zero of (0.7, 1.3); the
    # scan that ran out is not kept for the next request.
    monkeypatch.setattr(zeros, "_SCAN_CAP_PER_ZERO", 2)
    monkeypatch.setattr(zeros, "_x_zero_cache", {})
    with pytest.raises(ScanExhaustedError, match="within 6 scan steps"):
        positive_zeros(WrightParams(0.7, 1.3), "minus_z", 3)
    assert zeros._x_zero_cache == {}


def test_uncertified_sign_raises(monkeypatch):
    # Three mp attempts that all stay under the sign floor are an error,
    # never a value with an untrusted sign.
    ev = _ComboSeries(WrightParams(0.5, 1.0), 1.0, 0.0)
    monkeypatch.setattr(_ComboSeries, "_eval_mp", lambda self, x, dps: mp.mpf(0))
    with pytest.raises(ConvergenceError):
        ev.certified(400.0)
    # The winding count's rescue goes through the same attempts.
    with pytest.raises(ConvergenceError):
        _mp_wright_complex(WrightParams(0.5, 1.0), -400.0 + 1j,
                           term_exponent_max(WrightParams(0.5, 1.0), 400.0))


def test_cancellation_depth_only_on_the_mpmath_path(monkeypatch):
    # The ternary search costs about five double sums: a sign the double sum
    # certifies needs none, one that goes to mpmath needs exactly one.
    calls = []

    def spy(p, x):
        calls.append(x)
        return term_exponent_max(p, x)

    monkeypatch.setattr(zeros, "term_exponent_max", spy)
    ev = _ComboSeries(WrightParams(0.5, 1.0), 1.0, 0.0)
    assert isinstance(ev.certified(1.0), float)
    assert calls == []
    assert not isinstance(ev.certified(400.0), float)
    assert calls == [400.0]


def test_one_depth_search_per_zero_on_a_deep_scan(monkeypatch):
    # Every point of a prediction bracket or a refinement shares the depth
    # at the bracket's upper end, so a cold 80-zero scan searches at most
    # once per zero.
    calls = []

    def spy(p, x):
        calls.append(x)
        return term_exponent_max(p, x)

    monkeypatch.setattr(zeros, "term_exponent_max", spy)
    _Scan(_ComboSeries(WrightParams(1.0, 1.0), 1.0, 0.0), 1e-12,
          "minus_z_squared").zeros(80)
    assert 0 < len(calls) <= 80


@settings(max_examples=300, deadline=None)
@given(rho=st.floats(0.25, 4.0), beta=st.floats(0.25, 4.0),
       cap=st.floats(1e-6, 1e7), frac=st.floats(0.0, 1.0 - 1e-9))
def test_the_depth_at_a_bracket_cap_bounds_its_points(rho, beta, cap, frac):
    # E_max is nondecreasing in x, so the depth and the working precision a
    # bracket's points take from its upper end are at least their own.  The
    # search's value may fall short of that by rounding where the peak sits
    # at t ~ 0 and E_max is flat in x: (1, 1.5) reads 0.1207822376352449 at
    # x = 0.5 and 0.12078223763524543 at x = 0.125, 5e-16 apart, far inside
    # the floors' 10^18 margin; the working digits never fall short.
    p = WrightParams(rho, beta)
    x = cap * frac
    ev = _ComboSeries(p, 1.0, 0.0)
    e_cap, e_x = term_exponent_max(p, cap), term_exponent_max(p, x)
    assert e_cap >= e_x - 64 * math.ulp(max(1.0, e_x))
    assert ev._dps_budget(x, e_cap) >= ev._dps_budget(x, e_x)
    assert ev._dps_budget(cap, e_cap) >= ev._dps_budget(x, e_x)


# ----------------------------------------------------------------------------
# evaluation policy on deep scans: first digits and skipped double sums
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan_log():
    """Cold 80-zero scans of (1, 1) and (1/2, 1/2) with every certified x,
    every mpmath call as (x, e_max, value, first dps) and every attempt's dps."""
    certified, certified_mp, eval_mp = (_ComboSeries.certified,
                                        _ComboSeries._certified_mp,
                                        _ComboSeries._eval_mp)
    log = {}

    def spy_certified(self, x, *args):
        rec["xs"].append(x)
        return certified(self, x, *args)

    def spy_certified_mp(self, x, e_max, *args):
        first = len(rec["dps"])
        v = certified_mp(self, x, e_max, *args)
        rec["mp"].append((x, e_max, v, rec["dps"][first]))
        return v

    def spy_eval_mp(self, x, dps):
        rec["dps"].append(dps)
        return eval_mp(self, x, dps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ComboSeries, "certified", spy_certified)
        patch.setattr(_ComboSeries, "_certified_mp", spy_certified_mp)
        patch.setattr(_ComboSeries, "_eval_mp", spy_eval_mp)
        for rho, beta in ((1.0, 1.0), (0.5, 0.5)):
            rec = log[rho, beta] = {"xs": [], "mp": [], "dps": []}
            _Scan(_ComboSeries(WrightParams(rho, beta), 1.0, 0.0), 1e-12,
                  "minus_z_squared").zeros(80)
    return log


def test_rung_start_keeps_the_ladder_value(scan_log):
    # A call that starts above its budget, at the digits its need asks for,
    # returns the double the ladder from the budget returns, so the
    # refinement reads the same number: the budget's digits fail, or pass
    # with the same double (the mpf differing below 1e-16).
    for (rho, beta), rec in scan_log.items():
        ev = _ComboSeries(WrightParams(rho, beta), 1.0, 0.0)
        above = [(x, e_max, v) for x, e_max, v, dps in rec["mp"]
                 if dps > ev._dps_budget(x, e_max)]
        assert len(above) > 100, (rho, beta)
        for x, e_max, v in above:
            assert float(v) == float(ev._certified_mp(x, e_max)), (rho, beta, x)


def test_skipped_double_sums_could_not_certify(scan_log):
    # Rule: no double sum past cancellation depth 37.  Every one it skips
    # would have failed |v| > 30 noise, so the scan reads the same values.
    for (rho, beta), rec in scan_log.items():
        p = WrightParams(rho, beta)
        skipped = [x for x in rec["xs"] if zeros._doomed(p, x)]
        assert len(skipped) > 200, (rho, beta)
        for x in skipped:
            res = combo_neg_axis(p, x, 1.0, 0.0)
            assert res is None or not abs(res[0]) > 30.0 * res[1], (rho, beta, x)


def test_mpmath_retries_are_rare(scan_log):
    # Starting at the digits the need asks for leaves few retries: none of
    # 249 calls on (1, 1), where a start at the budget retried 213.
    rec = scan_log[1.0, 1.0]
    retries = len(rec["dps"]) - len(rec["mp"])
    assert retries <= 0.1 * len(rec["mp"])
