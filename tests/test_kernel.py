from __future__ import annotations

import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wright_radii import (
    ConvergenceError,
    EvalResult,
    ParameterError,
    WrightParams,
    wright_derivative,
    wright_eval,
)
from wright_radii import kernel
from wright_radii.kernel import (_circle_bound, _fft_circle_eval, _magnitude_rows,
                                 _PhasePowers, circle_eval, combo_neg_axis,
                                 envelope_exponent, term_exponent_max)

# Frozen reference values.  The Bessel literals pin the classical reductions
# of the Wright series, so an error in the series, the Gamma recursion, or
# the term ordering shows up as a mismatch far above the assertion floor.
J0_AT_2 = 0.22389077914123567         # J0(2)
J1_AT_2 = 0.57672480775687339         # J1(2)
I1_AT_2 = 1.5906368546373291          # I1(2)


# ----------------------------------------------------------------------------
# parameters and results
# ----------------------------------------------------------------------------

def test_params_reject_nonpositive_rho():
    with pytest.raises(ParameterError, match="rho must be > 0"):
        WrightParams(-0.5, 1.0)
    with pytest.raises(ParameterError):
        WrightParams(0.0, 1.0)


def test_params_reject_nonpositive_beta():
    with pytest.raises(ParameterError, match="beta must be > 0"):
        WrightParams(1.0, 0.0)


def test_params_reject_nonfinite():
    with pytest.raises(ParameterError):
        WrightParams(float("nan"), 1.0)
    with pytest.raises(ParameterError):
        WrightParams(1.0, float("inf"))


def test_params_take_any_real_scalar_as_a_float():
    for rho, beta in ((np.int64(2), np.float32(0.5)), (2, 0.5),
                      (np.float64(2.0), np.int32(0) + 0.5)):
        p = WrightParams(rho, beta)
        assert (p.rho, p.beta) == (2.0, 0.5)
        assert type(p.rho) is float and type(p.beta) is float
    assert WrightParams(np.float32(0.1), 1.0).rho == float(np.float32(0.1))


@pytest.mark.parametrize("bad", (True, False, np.bool_(True), "1", None,
                                 1 + 0j, 10 ** 400))
def test_params_reject_bools_and_non_reals(bad):
    with pytest.raises(ParameterError, match="rho must be a finite real"):
        WrightParams(bad, 1.0)
    with pytest.raises(ParameterError, match="beta must be a finite real"):
        WrightParams(1.0, bad)


def test_shifted_params():
    p = WrightParams(0.5, 1.5)
    q = p.shifted(2)
    assert q.rho == 0.5
    assert q.beta == 2.5


def test_eval_result_invariants():
    with pytest.raises(ParameterError):
        EvalResult(1.0 + 0j, -1e-30, 3)
    with pytest.raises(ParameterError):
        EvalResult(1.0 + 0j, 0.0, 0)


# ----------------------------------------------------------------------------
# series evaluation against Bessel reductions
# ----------------------------------------------------------------------------

def test_value_at_origin_is_reciprocal_gamma():
    for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
        res = wright_eval(WrightParams(1.0, beta), 0.0)
        assert res.value == pytest.approx(math.exp(-math.lgamma(beta)), rel=1e-15)
        assert res.terms_used == 1
        assert res.abs_error_bound == 0.0


def test_value_at_origin_keeps_its_bits_up_to_the_gamma_overflow():
    # 1.0/exp(lgamma(beta)) while exp(lgamma(beta)) is a double; past
    # beta ~ 171.6, exp(-lgamma(beta)), here subnormal but not 0
    below = wright_eval(WrightParams(1.0, 171.0), 0.0)
    past = wright_eval(WrightParams(1.0, 172.0), 0.0)
    assert below.value == 1.0 / math.exp(math.lgamma(171.0))
    assert past.value == math.exp(-math.lgamma(172.0)) > 0.0
    assert below.abs_error_bound == past.abs_error_bound == 0.0


def test_bessel_j0_reduction(bessel_params):
    # W(1,1; -r^2) = J0(2r); r = 1 here.
    res = wright_eval(bessel_params, -1.0)
    assert abs(res.value - J0_AT_2) <= res.abs_error_bound + 1e-13


def test_bessel_j1_reduction():
    # W(1,2; -r^2) = J1(2r)/r.
    res = wright_eval(WrightParams(1.0, 2.0), -1.0)
    assert abs(res.value - J1_AT_2) <= res.abs_error_bound + 1e-13


def test_bessel_i1_reduction():
    # W(1,2; r^2) = I1(2r)/r.
    res = wright_eval(WrightParams(1.0, 2.0), 1.0)
    assert abs(res.value - I1_AT_2) <= res.abs_error_bound + 1e-13


@pytest.mark.parametrize("z", (-0.3, -3, complex(-0.3), complex(-0.3, -0.0),
                               0.3 + 0.4j),
                         ids=("float", "int", "real", "real-negzero", "complex"))
def test_value_is_complex_for_every_argument(bessel_params, z):
    # A real argument is summed in floats; the value stays a complex.
    res = wright_eval(bessel_params, z)
    assert type(res.value) is complex
    assert math.copysign(1.0, res.value.imag) == 1.0 or z.imag != 0


def test_real_argument_value_is_pinned(bessel_params):
    for z in (-0.3, complex(-0.3), complex(-0.3, -0.0)):
        assert wright_eval(bessel_params, z).value == 0.7217638951476403 + 0j


def test_error_bound_is_a_bound_not_estimate(bessel_params):
    # Truncating at a loose tolerance must still bracket the true value.
    loose = wright_eval(bessel_params, -1.0, tol=1e-4)
    assert loose.abs_error_bound < 1e-4
    assert abs(loose.value - J0_AT_2) <= loose.abs_error_bound + 1e-13
    tight = wright_eval(bessel_params, -1.0, tol=1e-14)
    assert tight.terms_used > loose.terms_used


def test_derivative_shift_identity_value():
    # d/dz W(1,1; z) = W(1,2; z); at z = -1 the right side is J1(2).
    res = wright_derivative(WrightParams(1.0, 1.0), -1.0, 1)
    assert abs(res.value - J1_AT_2) <= res.abs_error_bound + 1e-13


def test_derivative_orders():
    p = WrightParams(0.5, 1.5)
    z = 0.7 - 0.3j
    d2 = wright_derivative(p, z, 2)
    direct = wright_eval(WrightParams(0.5, 2.5), z)
    assert d2.value == pytest.approx(direct.value, rel=1e-12)
    with pytest.raises(ParameterError):
        wright_derivative(p, z, 0)
    with pytest.raises(ParameterError):
        wright_derivative(p, z, 3)


def test_recurrence_identity():
    # W(rho, beta-1; z) = rho z W(rho, beta+rho; z) + (beta-1) W(rho, beta; z)
    for rho, beta in ((0.5, 2.0), (1.0, 3.0), (2.0, 1.5)):
        for z in (0.8, -2.3, 1.1 + 0.9j, -0.4 - 1.7j):
            lhs = wright_eval(WrightParams(rho, beta - 1.0), z)
            up = wright_eval(WrightParams(rho, beta + rho), z)
            mid = wright_eval(WrightParams(rho, beta), z)
            rhs = rho * z * up.value + (beta - 1.0) * mid.value
            budget = (lhs.abs_error_bound + abs(rho * z) * up.abs_error_bound
                      + abs(beta - 1.0) * mid.abs_error_bound)
            scale = max(1.0, abs(lhs.value))
            assert abs(lhs.value - rhs) <= budget + 1e-13 * scale


@given(st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetry(x, y):
    # Real coefficients: W(conj z) = conj(W(z)).
    p = WrightParams(0.5, 1.5)
    a = wright_eval(p, complex(x, y))
    b = wright_eval(p, complex(x, -y))
    assert b.value == pytest.approx(a.value.conjugate(), rel=1e-12, abs=1e-15)
    assert b.terms_used == a.terms_used


def test_eval_rejects_bad_tol(bessel_params):
    with pytest.raises(ParameterError):
        wright_eval(bessel_params, 1.0, tol=0.0)
    with pytest.raises(ParameterError):
        wright_eval(bessel_params, 1.0, tol=-1e-9)


@pytest.mark.parametrize("tol", (math.inf, math.nan))
def test_eval_rejects_nonfinite_tol(bessel_params, tol):
    with pytest.raises(ParameterError, match="tol must be finite and > 0"):
        wright_eval(bessel_params, 1.0, tol=tol)


def test_eval_smallest_tolerance_still_honest(bessel_params):
    # Even at the smallest positive tolerance the reported bound must stay
    # nonzero: a truncated series never gets to claim a zero-width bound.
    res = wright_eval(bessel_params, 1.0, tol=5e-324)
    assert res.abs_error_bound == 5e-324


def test_eval_overflowing_argument_raises(bessel_params):
    # Peak term near exp(2 sqrt(x)) leaves double range around x ~ 1.26e5.
    with pytest.raises(ConvergenceError, match="exceed double-precision"):
        wright_eval(bessel_params, 1.0e8)


@pytest.mark.parametrize("z", (math.nan, math.inf, -math.inf,
                               complex(0.5, math.nan), complex(math.inf, 0.0)))
def test_eval_rejects_nonfinite_argument(bessel_params, z):
    with pytest.raises(ParameterError, match="z must be finite"):
        wright_eval(bessel_params, z)


# ----------------------------------------------------------------------------
# shared-magnitude evaluation on a circle
# ----------------------------------------------------------------------------

def _magnitude_rows_oracle(p, modulus, shifts, tol=1e-14):
    # The uncached rows, term by term with math.exp and math.lgamma: the
    # cached rows, read from the log-coefficient tables, must reproduce
    # them bit for bit.
    log_u = math.log(modulus)
    log_fact = 0.0
    mag_rows = []
    last_log = None
    decays = 0
    for n in range(10_000):
        if n > 0:
            log_fact += math.log(n)
        log_row = [n * log_u - log_fact - math.lgamma(p.rho * n + (p.beta + s * p.rho))
                   for s in shifts]
        log_mag = max(log_row)
        mag_rows.append([math.exp(v) for v in log_row])
        if last_log is not None:
            dlog = log_mag - last_log
            decays = decays + 1 if dlog < math.log(0.5) else 0
            if decays >= 3:
                q = math.exp(dlog)
                if max(math.exp(log_mag) * (q / (1.0 - q)), 5e-324) <= tol:
                    break
        last_log = log_mag
    return np.asarray(mag_rows, dtype=float)


def _circle_eval_oracle(p, modulus, phases, shifts):
    mags = _magnitude_rows_oracle(p, modulus, shifts)
    n_terms = len(mags)
    powers = np.empty((n_terms, len(phases)), dtype=complex)
    powers[0, :] = 1.0
    np.multiply.accumulate(np.broadcast_to(phases, (n_terms - 1, len(phases))),
                           axis=0, out=powers[1:, :])
    return mags.T @ powers


@pytest.mark.parametrize("rho", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("shifts", ((0, 1), (0, 1, 2)))
def test_circle_eval_matches_uncached_loop(rho, shifts):
    p = WrightParams(rho, 1.5)
    coarse = np.exp(1j * np.linspace(0.0, math.pi, 257))
    fine = np.exp(1j * np.linspace(1.0, 1.1, 21))
    for modulus in (0.07, 0.4, 1.3, 4.0):
        for phases in (coarse, fine, coarse):       # repeated calls hit the cache
            got = circle_eval(p, modulus, _PhasePowers(-phases), shifts)
            assert np.array_equal(got, _circle_eval_oracle(p, modulus, -phases, shifts))


def test_fixed_phase_table_matches_uncached_loop():
    # One kept table serves every modulus and grows when a larger modulus
    # needs more terms; values stay bit for bit those of powers formed per
    # call.
    p = WrightParams(1.0, 1.5)
    loose = -np.exp(1j * np.linspace(0.0, math.pi, 65))
    kept = _PhasePowers(loose.copy())
    for modulus in (0.07, 4.0, 30.0, 0.4, 30.0):
        got = circle_eval(p, modulus, kept, (0, 1))
        assert np.array_equal(got, _circle_eval_oracle(p, modulus, loose, (0, 1)))


def test_phase_power_rows_are_read_only_and_keep_their_bits_as_they_grow():
    phases = -np.exp(1j * np.linspace(0.0, math.pi, 33))
    grown = _PhasePowers(phases)
    short = grown.rows(5)
    long = grown.rows(40)
    for rows in (short, long):
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[1, 0] = 2.0
    assert short.shape == (5, 33) and long.shape == (40, 33)
    assert np.array_equal(long[:5], short)
    assert np.array_equal(long[:5], _PhasePowers(phases).rows(5))
    assert np.array_equal(long, _PhasePowers(phases).rows(40))
    assert np.array_equal(grown.rows(5), short)


@pytest.mark.parametrize("m", (4, 16, 64))
def test_fft_circle_folds_the_terms_past_m(m):
    # 42 terms at |u| = 21.2 on (0.5, 0.5): below m = 42 the signed rows fold
    # onto n mod m, and the m values still agree with circle_eval's within
    # the sum of the two bounds.  The bound reads the lgamma tables, which an
    # LRU eviction can leave empty under a kept magnitude row.
    p, modulus, shifts = WrightParams(0.5, 0.5), 21.2, (0, 1)
    terms = len(_magnitude_rows(0.5, 0.5, modulus, shifts))
    kernel._lgammas.cache_clear()
    values, bound = _fft_circle_eval(p, modulus, m, shifts)
    loop = circle_eval(p, modulus, _PhasePowers(-np.exp(2j * math.pi * np.arange(m) / m)),
                       shifts)
    loop_bound = _circle_bound(0.5, 0.5, modulus, shifts, terms + 5.0 * np.arange(terms))
    assert terms == 42 and values.shape == (2, m)
    assert np.all(np.abs(values - loop).max(axis=1) <= bound + loop_bound)


def test_magnitude_rows_are_read_only_and_bounded():
    rows = _magnitude_rows(1.0, 1.0, 0.5, (0, 1))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 2.0
    assert _magnitude_rows(1.0, 1.0, 0.5, (0, 1)) is rows
    assert 0 < _magnitude_rows.cache_info().maxsize <= 1024


# ----------------------------------------------------------------------------
# log-coefficient tables
# ----------------------------------------------------------------------------

def _wright_eval_oracle(p, z, tol=1e-12):
    # wright_eval term by term with math.log and math.lgamma, in complex
    # arithmetic for every argument: the tabled loop, which sums a real
    # argument in floats, must reproduce (value, bound, terms) bit for bit.
    z = complex(z)
    az = abs(z)
    log_az = math.log(az)
    phase_unit = z / az
    phase = complex(1.0)
    log_fact = 0.0
    total = complex(0.0)
    last_log = None
    decays = 0
    for n in range(10_000):
        if n > 0:
            log_fact += math.log(n)
            phase *= phase_unit
        log_mag = n * log_az - log_fact - math.lgamma(p.rho * n + p.beta)
        mag = math.exp(log_mag)
        total += mag * phase
        if last_log is not None:
            dlog = log_mag - last_log
            decays = decays + 1 if dlog < math.log(0.5) else 0
            if decays >= 3:
                q = math.exp(dlog)
                tail = max(mag * (q / (1.0 - q)), 5e-324)
                if tail <= tol:
                    return total, tail, n + 1
        last_log = log_mag


def _combo_oracle(p, x, a, b):
    # combo_neg_axis term by term with math.log and math.lgamma.
    log_x = math.log(x)
    log_fact = 0.0
    total = 0.0
    max_mag = 0.0
    max_log = 1.0
    last_mag = None
    decays = 0
    n = 0
    while n < 100_000:
        if n > 0:
            log_fact += math.log(n)
        coeff = a - b * n
        log_mag = n * log_x - log_fact - math.lgamma(p.rho * n + p.beta)
        emag = math.exp(log_mag)
        mag = emag * abs(coeff)
        total += mag if (n % 2 == 0) == (coeff >= 0) else -mag
        if mag > max_mag:
            max_mag = mag
            max_log = max(abs(log_mag), abs(log_fact), 1.0)
        if emag == 0.0 and max_mag > 0.0 and n > 1:
            break
        if last_mag is not None and last_mag > 0.0:
            q = mag / last_mag
            decays = decays + 1 if q < 0.5 else 0
            if decays >= 3 and mag < 1e-18 * max_mag:
                break
        last_mag = mag
        n += 1
    return total, 2.3e-16 * max_mag * max_log * max(1.0, math.sqrt(n))


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty log-coefficient tables for one test."""
    monkeypatch.setattr(kernel, "_LOG_FACT", [0.0])
    monkeypatch.setattr(kernel, "_lgammas",
                        functools.lru_cache(maxsize=16)(kernel._lgammas.__wrapped__))


@pytest.mark.parametrize("far_first", (True, False), ids=("far_first", "near_first"))
def test_tables_reproduce_the_term_loops(fresh_tables, far_first):
    # Far first grows the shift-0 table past the shift-1 and shift-2 ones,
    # near first leaves it the shortest; in either order every loop reads
    # the terms it formed before, bit for bit.
    p = WrightParams(1.0, 1.5)

    def far():
        for z in (-200.0, 150j):
            ev = wright_eval(p, z)
            assert (ev.value, ev.abs_error_bound, ev.terms_used) == \
                _wright_eval_oracle(p, z)
        assert combo_neg_axis(p, 200.0, 1.0, -2.0) == _combo_oracle(p, 200.0, 1.0, -2.0)

    def near():
        for modulus in (0.07, 0.4, 30.0):
            got = _magnitude_rows.__wrapped__(p.rho, p.beta, modulus, (0, 1, 2))
            assert np.array_equal(got, _magnitude_rows_oracle(p, modulus, (0, 1, 2)))
        for z in (-0.3, complex(-0.3), 0.3 + 0.4j):
            ev = wright_eval(p, z)
            assert (ev.value, ev.abs_error_bound, ev.terms_used) == \
                _wright_eval_oracle(p, z)
        assert combo_neg_axis(p, 0.8, 1.0, 0.0) == _combo_oracle(p, 0.8, 1.0, 0.0)

    for step in ((far, near) if far_first else (near, far)):
        step()


@pytest.mark.parametrize("p", (WrightParams(1.0, 1.5), WrightParams(0.3, 1.1),
                               WrightParams(0.05, 0.3), WrightParams(0.1, 30.0)),
                         ids=str)
def test_point_shifts_equal_wright_eval_per_shift(p):
    # One loop sums a point's shifts; shift s must be wright_eval(p.shifted(s))
    # to the bit, so it reads lgamma(rho n + (beta + s rho)): at (0.3, 1.1)
    # rho n + beta + s rho rounds apart from it on 16 of the first 60 terms
    # at s = 1 and on 26 at s = 2.
    for u in (0.0, -0.3, 2.5, -7.0, complex(-0.3), 0.3 + 0.4j, -4.0 + 3.0j, 6j):
        for s, got in enumerate(kernel._wright_shifts(p, u, 3, 1e-12)):
            ev = wright_eval(p.shifted(s), u)
            assert tuple(map(type, got)) == (complex, float, int)
            assert got == (ev.value, ev.abs_error_bound, ev.terms_used), (u, s)
            if u:
                assert got == _wright_eval_oracle(p.shifted(s), u), (u, s)


@pytest.mark.parametrize("modulus", (0.07, 0.4, 3.0, 30.0))
def test_circle_shifts_read_the_tables_of_the_shifted_series(modulus):
    # Column s of the circle rows is the series W(rho, beta + s*rho; u), so
    # it reads the one table of Gamma(rho n + (beta + s rho)) that the point
    # loop reads; at (0.3, 1.1) rho n + beta + s rho would round apart from
    # it.  Over their common length the column equals, bit for bit, the
    # rows of the shifted pair's own series.
    p = WrightParams(0.3, 1.1)
    rows = _magnitude_rows.__wrapped__(p.rho, p.beta, modulus, (0, 1, 2))
    for s in (0, 1, 2):
        q = p.shifted(s)
        alone = _magnitude_rows.__wrapped__(q.rho, q.beta, modulus, (0,))[:, 0]
        n = min(len(rows), len(alone))
        assert np.array_equal(rows[:n, s], alone[:n]), s


def test_point_shifts_raise_what_the_first_failing_shift_raises():
    p = WrightParams(1.0, 1.0)
    with pytest.raises(ConvergenceError) as want:
        wright_eval(p, 1.0e8)
    with pytest.raises(ConvergenceError) as got:
        kernel._wright_shifts(p, 1.0e8, 3, 1e-12)
    assert str(got.value) == str(want.value)


def test_tables_grow_only_as_far_as_a_call_needs(fresh_tables):
    p = WrightParams(0.5, 2.0)
    ev = wright_eval(p, -0.3)
    assert len(kernel._lgammas(0.5, 2.0)) == len(kernel._LOG_FACT) == ev.terms_used
    _magnitude_rows.__wrapped__(0.5, 2.0, 0.3, (0, 1))
    assert len(kernel._lgammas(0.5, 2.5)) <= len(kernel._LOG_FACT)


def test_tables_grown_from_threads_keep_each_entry_at_its_index(fresh_tables):
    # Growth reads a table's length and appends the entry for it; threads
    # switching between the two would put an entry at the wrong index.
    rho, bs = 0.5, (1.5, 2.0, 2.5)
    tables = [kernel._lgammas(rho, b) for b in bs]

    def grow():
        for b, lg in zip(bs, tables):
            for n in range(3000):
                kernel._grow(lg, rho, b, n)

    threads = [threading.Thread(target=grow) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for b, lg in zip(bs, tables):
        assert lg == [math.lgamma(rho * n + b) for n in range(3000)]
    lf = kernel._LOG_FACT
    assert len(lf) == 3000 and all(lf[n] == lf[n - 1] + math.log(n)
                                   for n in range(1, 3000))


def test_table_keys_are_bounded():
    assert 0 < kernel._lgammas.cache_info().maxsize <= 1024


# ----------------------------------------------------------------------------
# negative-axis combo in plain doubles
# ----------------------------------------------------------------------------

def test_combo_neg_axis_matches_eval(bessel_params):
    # a=1, b=0 is the plain series at z=-x.
    for x in (0.3, 1.0, 2.7, 6.4):
        val, noise = combo_neg_axis(bessel_params, x)
        direct = wright_eval(bessel_params, -x)
        assert abs(val - direct.value.real) <= noise + direct.abs_error_bound


def test_combo_neg_axis_derivative_weights():
    # a=1, b=-2 in x = r^2 equals d/dr [r W(-r^2)] at rho=beta=1, i.e.
    # J0(2r) - 2r J1(2r); at r = 1 that is J0(2) - 2 J1(2).
    val, noise = combo_neg_axis(WrightParams(1.0, 1.0), 1.0, a=1.0, b=-2.0)
    assert val == pytest.approx(J0_AT_2 - 2.0 * J1_AT_2, abs=noise + 1e-14)


def test_combo_neg_axis_noise_grows_with_cancellation():
    p = WrightParams(1.0, 1.0)
    _, shallow = combo_neg_axis(p, 1.0)
    val, deep = combo_neg_axis(p, 100.0)   # J0(20): peak term ~ e^20
    assert deep > 1e6 * shallow
    # the noise model must cover the actual error: J0(20) = 0.16702466434058315
    assert abs(val - 0.16702466434058315) <= deep


def test_combo_neg_axis_overflow_returns_none():
    # Peak term exceeds double range: caller escalates to wider arithmetic.
    assert combo_neg_axis(WrightParams(1.0, 1.0), 2.0e5) is None


def test_combo_neg_axis_rejects_negative_x(bessel_params):
    with pytest.raises(ParameterError):
        combo_neg_axis(bessel_params, -1.0)


def test_combo_neg_axis_stops_once_every_term_underflows(fresh_tables):
    # 1/Gamma(191.25) lies below the double range, so every term underflows
    # and no term is ever positive: the loop must stop on the falling side,
    # not run its 100,000-term cap and grow the tables that far.
    p = WrightParams(1.0, 191.25)
    assert combo_neg_axis(p, 0.3) == (0.0, 0.0)
    assert len(kernel._lgammas(1.0, 191.25)) < 10
    assert len(kernel._LOG_FACT) < 10


# ----------------------------------------------------------------------------
# exponent envelopes
# ----------------------------------------------------------------------------

def test_term_exponent_max_tracks_peak_term():
    # The largest series term of W(1,1; -x) at x = m^2 is m^(2n)/(n!)^2 at
    # n ~ m, whose log is 2m - ln(2 pi m) + O(1/m) per Stirling.
    p = WrightParams(1.0, 1.0)
    for m in (5.0, 10.0, 20.0, 40.0):
        e = term_exponent_max(p, m * m)
        assert e == pytest.approx(2.0 * m - math.log(2.0 * math.pi * m), abs=0.2)


def test_term_exponent_max_equals_full_ternary_search(grid_params):
    # The search stops once its bracket can no longer shrink; the full
    # 200-step schedule must give the same double.
    def full_search(p, x):
        log_x = math.log(x)

        def phi(t):
            return t * log_x - math.lgamma(t + 1.0) - math.lgamma(p.rho * t + p.beta)

        lo, hi = 0.0, 20.0 + 4.0 * x ** (1.0 / (1.0 + p.rho)) * (1.0 + 1.0 / p.rho)
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if phi(m1) < phi(m2):
                lo = m1
            else:
                hi = m2
        return max(phi(0.5 * (lo + hi)), 0.0)

    for p in grid_params:
        for x in (0.3, 2.0, 45.0, 900.0, 2.5e4):
            assert term_exponent_max(p, x) == full_search(p, x)


def test_envelope_sits_below_term_peak(grid_params):
    # Cancellation depth = peak log term minus envelope log scale >= 0 once
    # the asymptotic regime is reached; for rho = 1 the envelope exponent is
    # exactly zero (Bessel-type decay).
    for p in grid_params:
        for x in (400.0, 1600.0, 6400.0):
            assert envelope_exponent(p, x) <= term_exponent_max(p, x) + 1e-9
    assert envelope_exponent(WrightParams(1.0, 1.0), 50.0) == pytest.approx(0.0, abs=1e-12)


def test_envelope_sign_tracks_rho():
    # rho < 1 decays on the negative axis, rho > 1 grows.
    assert envelope_exponent(WrightParams(0.5, 1.0), 100.0) < 0.0
    assert envelope_exponent(WrightParams(2.0, 1.0), 100.0) > 0.0
