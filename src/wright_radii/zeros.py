"""Real zeros of the Wright base functions and normalized-function derivatives.

Everything here reduces to sign changes of one scalar family on the negative
axis,

    s(x) = a * W(rho, beta; -x) + b * x * W(rho, beta + rho; -x)
         = sum_n (-1)^n x^n (a - b n) / (n! Gamma(rho n + beta)),

since Gamma(rho(n-1) + rho + beta) = Gamma(rho n + beta) merges the two sums:

    base function           (a, b) = (1,  0)   in x = r^2 (form minus_z_squared)
                                               or x = r   (form minus_z)
    g' of kind G            (a, b) = (1, -2)   in x = r^2
    v = beta*Phi + r*Phi'   (a, b) = (beta, -2) in x = r^2   (f' zeros, kind F)
    h' of kind H            (a, b) = (1, -1)   in x = r

Deep zeros sit under catastrophic cancellation: the largest series term grows
like exp(E_max(x)) while the signal envelope decays (rho < 1) or grows slower
(rho = 1) than that, so double precision dies after the first handful of
zeros.  The evaluator degrades gracefully: double precision while the value
clears 30x its accumulated-rounding noise, otherwise mpmath at a working
precision budgeted from the cancellation depth.  The double sum is not even
tried where a one-point lower bound on that depth exceeds 37 (about ln 1e16).
The scan tells the mpmath sum the |s| it must resolve (the last secant slope
times a quarter of the refinement width or of the prediction bracket), and
the sum starts at the fewest digits d, between the budget and 80 more, whose
sign floor 10^(8-d) exp(E_max) lies five digits under that, so a point costs
one evaluation, not a retry; each retry adds 40 digits.
The scan also tells it the upper end of the bracket the point lies in, and
every point of that bracket shares the depth there: E_max(x) is
nondecreasing in x, so the one search and the floors it serves bound each
point's own, up to a few ulp of rounding in the search that the floors'
10^18 margin absorbs.  A stepping point is its own bracket, and the
refinement that follows it reuses its search.
Past the first five zeros, once the extrapolation is sharp, a zero costs three
evaluations: s at the predicted zero, then s on either side of the Newton
step from there, whose slope is extrapolated from the last five zeros.
For rational rho = p/q the series splits by n mod q into q hypergeometric
series that mpmath sums in fixed point; irrational rho is summed term by
term.  A sign that budget + 80 digits cannot certify raises
ConvergenceError; the winding count's rescue runs the same ladder from the
budget at complex argument.

Zero tables are cached per series, form and tol as the scan that made them,
and extended on demand by resuming that scan, so a table is the cold scan at
its own tol whatever was asked for first.
"""
from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .errors import (ConvergenceError, NonIntegerWindingError, ParameterError,
                     ScanExhaustedError)
from .family import NormalizedKind
from .kernel import (WrightParams, _check_params, _check_tol, _fft_circle_eval,
                     _finite_real, _gamma, combo_neg_axis, envelope_exponent,
                     term_exponent_max)

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_FORMS = ("minus_z_squared", "minus_z")
_SCAN_CAP_PER_ZERO = 10_000
# An mpmath sum's first try puts its sign floor this many digits under the
# |s| its caller expects, so a point a little nearer the zero needs no retry.
_NEED_MARGIN = 5


# ----------------------------------------------------------------------------
# domain type
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """Ordered positive zeros of one real function, refined to width tol."""

    params: WrightParams
    form: str
    zeros: tuple[float, ...]
    tol: float

    def __post_init__(self) -> None:
        _check_form(self.form)
        if len(self.zeros) == 0:
            raise ParameterError("zero table may not be empty")
        if self.zeros[0] <= 0:
            raise ParameterError("zeros must be positive")
        for lo, hi in zip(self.zeros, self.zeros[1:]):
            if not hi > lo:
                raise ParameterError("zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def _check_form(form: str) -> None:
    """Refuse a form that is not one of _FORMS."""
    if form not in _FORMS:
        raise ParameterError(f"form must be one of {_FORMS}, got {form!r}")


def _check_table(table) -> None:
    """Refuse a table argument that is not a ZeroTable."""
    if not isinstance(table, ZeroTable):
        raise ParameterError(f"table must be a ZeroTable, got {table!r}")


# ----------------------------------------------------------------------------
# high-precision combo evaluation
# ----------------------------------------------------------------------------

def _ln(v) -> float:
    """ln v for a float or an mpf v > 0; an mpf may lie below the double
    range, so its log is taken from its integer mantissa and exponent."""
    if isinstance(v, float):
        return math.log(v)
    return math.log(v.man) + v.exp * _LN2


def _hyp_param(c: Fraction):
    # (coefficient, type flag) as mpmath's hypsum takes a rational parameter
    if c.denominator == 1:
        return int(c), "Z"
    return mp.mpq(c.numerator, c.denominator), "Q"


class _ComboSeries:
    """Certified evaluation of s(x); the mpmath half also takes complex x."""

    def __init__(self, p: WrightParams, a: float, b: float):
        self.p = p
        self.a = float(a)
        self.b = float(b)
        fr = Fraction(p.rho).limit_denominator(64)
        exact = abs(fr.numerator / fr.denominator - p.rho) < 1e-15
        self._rho = fr if exact else None
        if exact:                          # _sum_hyper's per-series constants
            beta, P, Q = Fraction(p.beta), fr.numerator, fr.denominator
            self._betas = (beta, beta + fr)
            self._hyp_norm = Q ** Q * P ** P
        self._hyp_params: dict = {}        # beta -> per-j hypsum rows
        self._depth = (None, 0.0)          # (cap, term_exponent_max(p, cap))
        self._floors = (None, None, {})    # (e_max, exp(e_max), {digits: floor})

    # -- mpmath path ---------------------------------------------------------

    def _eval_mp(self, x: float, dps: int):
        """s(x) summed at working precision dps (plus guard digits).

        Rational rho goes through mpmath's fixed-point hypergeometric
        summation, irrational rho through the per-term loop.
        """
        if self._rho is None:
            return self._sum_terms(x, dps)
        return self._sum_hyper(x, dps)

    def _sum_hyper(self, x: float, dps: int):
        """s(x) = a W(rho, beta; -x) + b x W(rho, beta + rho; -x), rho rational."""
        beta, beta1 = self._betas
        with mp.workdps(dps + 10):
            total = self.a * self._wright_hyper(beta, x)
            if self.b != 0.0:
                total += self.b * x * self._wright_hyper(beta1, x)
            return total

    def _wright_hyper(self, beta: Fraction, x: float):
        """W(rho, beta; -x) for rho = P/Q as Q hypergeometric series.

        Splitting n = Q k + j and applying Gauss's multiplication formula to
        (Q k + j)! and Gamma(P k + rho j + beta) gives

            W = sum_{j<Q} (-x)^j / (j! Gamma(rho j + beta))
                    * 0F_{P+Q-1}(; B_j; (-x)^Q / (Q^Q P^P)),
            B_j = {(j+i)/Q : 1 <= i <= Q, i != Q-j} u {(rho j + beta + i)/P : i < P},

        e.g. 0F1(; beta; -x)/Gamma(beta) for rho = 1.  mpmath's hypsum adds
        each series in fixed point at the working precision, one pass; the
        caller's floor check certifies the sign.
        """
        P, Q = self._rho.numerator, self._rho.denominator
        if P == 0:
            raise ConvergenceError(f"rho={self.p.rho} reads as the fraction 0, "
                                   "which leaves no hypergeometric series to sum")
        rows = self._hyp_params.get(beta)
        if rows is None:
            rows = []
            for j in range(Q):
                c = self._rho * j + beta
                params = [Fraction(j + i, Q) for i in range(1, Q + 1) if i != Q - j]
                params += [(c + i) / P for i in range(P)]
                coeffs, flags = zip(*map(_hyp_param, params))
                rows.append((j, c, coeffs, flags, {}))  # {mp.prec: j! Gamma(c)}
            self._hyp_params[beta] = rows
        mx = -mp.mpmathify(x)
        z = mx ** Q / self._hyp_norm
        total = mp.mpf(0)
        prec = mp.prec
        for j, c, coeffs, flags, scales in rows:
            scale = scales.get(prec)
            if scale is None:
                scale = scales[prec] = (mp.factorial(j)
                                        * mp.gamma(mp.mpf(c.numerator) / c.denominator))
            series = mp.hypsum(0, len(coeffs), flags, coeffs, z,
                               accurate_small=False)
            total += series * mx ** j / scale
        return total

    def _sum_terms(self, x: float, dps: int):
        """s(x) summed term by term, Gamma called per term.

        Inner-loop bookkeeping (peak tracking, decay detection, stop rule)
        runs on integer log2 magnitudes from mp.mag, so each term costs a
        handful of real mp operations; the stop threshold is at least as
        strict as max_term * 10^(-dps-5).
        """
        a, b = self.a, self.b
        with mp.workdps(dps + 10):
            # Gamma's argument in mp: a double rho * n + beta would carry a
            # relative error of 1e-16 into every term, far above the floor.
            rho, beta = mp.mpf(self.p.rho), mp.mpf(self.p.beta)
            mpx = mp.mpmathify(x)
            stop_off = -int((dps + 5) * 3.321928094887362) - 2
            total = mp.mpf(0)
            term_num = mp.mpf(1)               # x^n / n!
            max_mag2 = -(10 ** 9)
            last_mag2 = None
            decays = 0
            for n in range(500_000):
                g = mp.gamma(rho * n + beta)
                t = term_num * (a - b * n) / g
                total = total - t if n % 2 else total + t
                m2 = mp.mag(t)
                if m2 > max_mag2:
                    max_mag2 = m2
                if last_mag2 is not None:
                    decays = decays + 1 if m2 < last_mag2 else 0
                    if decays >= 3 and m2 < max_mag2 + stop_off:
                        break
                last_mag2 = m2
                term_num = term_num * mpx / (n + 1)
            return total

    def _dps_budget(self, x: float, e_max: float) -> int:
        """Working digits at x, given e_max = term_exponent_max(p, x)."""
        e_sig = envelope_exponent(self.p, x)
        return max(25, int(20.0 + (e_max - min(e_sig, 0.0)) / _LN10))

    # -- certified evaluation --------------------------------------------------

    def certified(self, x: float, need=math.inf, cap: float | None = None):
        """Value of s(x) whose sign is trustworthy; float or mpf (see _certified_mp).

        need is the |s(x)| the caller expects, which sets the mpmath sum's
        first digits.  The mpmath sum takes the depth e_max =
        term_exponent_max(p, cap) at cap >= x, the upper end of the bracket
        x lies in (x itself when cap is None), searched once per bracket: the
        last cap and its depth are kept.  E_max(x) = max_t [t ln x - lnGamma(t+1) - lnGamma(rho t +
        beta)] is nondecreasing in x, as its x-derivative is t*/x >= 0, so
        the cap's depth bounds the point's.  The computed search can fall
        short of that by rounding, a few ulp where E_max is flat in x; the
        point is still summed at no less than its own budget, and its floor
        keeps almost all of its 10^18 margin over the rounding at that
        precision.
        """
        if x < 0:
            raise ParameterError("negative x in zero scan")
        if not _doomed(self.p, x):
            res = combo_neg_axis(self.p, x, self.a, self.b)
            if res is not None:
                v, noise = res
                if abs(v) > 30.0 * noise:
                    return v
        cap = x if cap is None else cap
        depth = self._depth                # read once: scans may share a series
        if depth[0] != cap:
            depth = self._depth = (cap, term_exponent_max(self.p, cap))
        return self._certified_mp(x, depth[1], need)

    def _certified_mp(self, x, e_max: float, need=math.inf):
        """s(x), real or complex x, above the floor 10^(8-d) exp(e_max) at d digits.

        e_max >= term_exponent_max(p, |x|), up to the search's rounding
        (see certified).  need is the |s(x)| the caller expects, float or
        mpf; the first try is at the fewest digits d whose floor lies
        _NEED_MARGIN digits under it, clamped to [dps, dps + 80] with dps
        from _dps_budget (dps itself when need is inf), and each retry 40
        digits more, up to dps + 80, while the value stays under its floor.
        Raises ConvergenceError when dps + 80 digits do.
        """
        dps = self._dps_budget(abs(x), e_max)
        top = dps + 80
        d = dps
        if need < math.inf:
            # floor <= need 10^-margin
            want = (8 + _NEED_MARGIN + (e_max - _ln(need)) / _LN10
                    if need > 0 else math.inf)
            d = top if not want < top else max(dps, math.ceil(want))
        while True:
            v = self._eval_mp(x, d)
            if abs(v) > self._floor(e_max, d):
                return v
            if d >= top:
                raise ConvergenceError(
                    f"s({x!r}) for rho={self.p.rho}, beta={self.p.beta}, "
                    f"(a, b)=({self.a}, {self.b}) under its floor at {top} digits")
            d = min(d + 40, top)

    def _floor(self, e_max: float, d: int):
        """10^(8-d) exp(e_max), formed once per (e_max, d): a bracket or a
        contour that shares its depth shares its floors."""
        memo = self._floors                # read once: scans may share a series
        if memo[0] != e_max:
            with mp.workdps(30):
                memo = self._floors = (e_max, mp.exp(e_max), {})
        floor = memo[2].get(d)
        if floor is None:
            with mp.workdps(30):
                floor = memo[2][d] = mp.mpf(10) ** (8 - d) * memo[1]
        return floor


# Past this cancellation depth, about ln 1e16, a double sum's rounding noise
# tops the signal, so it cannot certify a sign.
_DOUBLE_DEPTH = 37.0


def _doomed(p: WrightParams, x: float) -> bool:
    """Whether the double sum at x cannot certify: the log term at t0, near
    the largest, less the envelope's log scale (if positive) bounds the
    cancellation depth from below."""
    if x <= 1e-300:
        return False
    rho, beta = p.rho, p.beta
    t0 = (x * rho ** -rho) ** (1.0 / (1.0 + rho))
    try:
        depth = t0 * math.log(x) - math.lgamma(t0 + 1.0) - math.lgamma(rho * t0 + beta)
    except OverflowError:
        raise ConvergenceError(
            f"lgamma({max(t0 + 1.0, rho * t0 + beta)}) exceeds double-precision "
            "range") from None
    return depth - max(envelope_exponent(p, x), 0.0) > _DOUBLE_DEPTH


# ----------------------------------------------------------------------------
# scanning and refinement
# ----------------------------------------------------------------------------

def _ab_scale(fm, f_replaced) -> float:
    # Anderson-Bjorck weight for the stagnant endpoint; falls back to the
    # Illinois halving when the ratio is degenerate or overflows float range.
    try:
        m = 1.0 - float(fm / f_replaced)
    except (OverflowError, ZeroDivisionError):
        return 0.5
    if not (0.0 < m < 1e308):
        return 0.5
    return m


def _refine_bracket(f, a: float, b: float, fa, fb, xtol: float) -> tuple[float, float]:
    """Shrink a sign-change bracket to width <= xtol, or to 4 ulp(b) where
    that is more: below a few ulps the bracket can no longer shrink.

    Anderson-Bjorck-weighted false position, with a forced midpoint whenever
    a 4-iteration block fails to shrink the bracket to a quarter; keeps the
    bracket at every step, so correctness matches plain bisection while
    spending far fewer of the expensive high-precision evaluations on deep
    zeros.
    """
    xtol = max(xtol, 4.0 * math.ulp(b))
    side = 0
    checkpoint = b - a
    use_mid = False
    for it in range(300):
        if b - a <= xtol:
            break
        if it % 4 == 0:
            use_mid = it > 0 and (b - a) > 0.25 * checkpoint
            checkpoint = b - a
        if not use_mid and fb != fa:
            t = float(fa / (fa - fb))
            # keep the step at least a fraction of xtol away from both ends:
            # a root sitting at a bracket edge otherwise degenerates the
            # secant into clamped midpoints (bisection-rate endgame)
            t_min = min(0.45, 0.45 * xtol / (b - a))
            t = min(max(t, t_min), 1.0 - t_min)
            xm = a + t * (b - a)
            if not (a < xm < b):
                xm = 0.5 * (a + b)
        else:
            xm = 0.5 * (a + b)
            use_mid = False
        fm = f(xm)
        if (fm < 0) == (fa < 0):
            scale = _ab_scale(fm, fa)
            a, fa = xm, fm
            if side == 1:
                fb = fb * scale
            side = 1
        else:
            scale = _ab_scale(fm, fb)
            b, fb = xm, fm
            if side == -1:
                fa = fa * scale
            side = -1
    return a, b


def _xtol_for(x: float, tol: float, form: str) -> float:
    # x-space width giving form-space width tol: dr = dx/(2 sqrt(x)) for the
    # squared form, dx directly for minus_z.  Floor at the double-
    # representation limit.
    if form == "minus_z_squared":
        want = tol * 2.0 * math.sqrt(max(x, 1e-12))
    else:
        want = tol
    return max(4.0 * math.ulp(max(x, 1.0)), want)


# Coefficients of the next value of the polynomial through the last m points,
# oldest first: finite differences of order m vanish.
_EXTRAPOLATION = {3: (1.0, -3.0, 3.0), 4: (-1.0, 4.0, -6.0, 4.0),
                  5: (1.0, -5.0, 10.0, -10.0, 5.0)}
# A prediction bracket is this many times the last prediction's error wide
# on each side, and at least this many refinement widths.
_BRACKET_SAFETY = 8.0
_BRACKET_MIN_XTOL = 8.0
# The slope-corrected step serves the zeros after the first _NEWTON_FROM,
# and only while the last prediction's error times the last slope
# extrapolation's relative error stays under _NEWTON_GATE refinement widths:
# that product is about how far the step lands from the zero.
_NEWTON_FROM = 5
_NEWTON_GATE = 0.1
_NEWTON_HALF = 0.45                     # its points x1 +- this many xtol


def _next_value(values: list[float]) -> float:
    # Next value of the polynomial through the last five (at least three).
    m = min(len(values), 5)
    return math.fsum(c * v for c, v in zip(_EXTRAPOLATION[m], values[-m:]))


def _extrapolate(zeros: list[float], power: float) -> float:
    # Next zero from a polynomial in the variable x^power.
    return max(_next_value([z ** power for z in zeros[-5:]]), 0.0) ** (1.0 / power)


def _log_slope(a: float, b: float, fa, fb) -> float:
    # ln(|s(b) - s(a)| / (b - a))
    return _ln(abs(fb - fa)) - math.log(b - a)


class _Scan:
    """A resumable sign-change scan for the positive zeros x of s(x).

    Once three zeros are known, the next one is predicted by a polynomial
    extrapolation of the last five (fewer at start-up), in x or in
    x^(1/(1+rho)), where the zeros are asymptotically evenly spaced;
    whichever variable predicted the last zero better is used.  The bracket
    pred +- h is 0.06 of the last gap on each side for the first prediction,
    then a safety multiple of the last prediction's error.

    Past the first _NEWTON_FROM zeros, and while the last prediction's error
    times the last slope extrapolation's relative error is well under the
    refinement width xtol, the scan reads s(pred) and steps to
    x1 = pred - s(pred)/s', where ln|s'| is extrapolated from its values at
    the last five zeros, each measured on its final bracket; s' takes the
    sign opposite to s just past the last zero.  It then reads x1 +- 0.45
    xtol: a straddle is a certified bracket of width <= xtol, three
    evaluations for the zero.  While that gate is shut it reads the
    bracket's ends instead, the upper one only if the lower does not cross.
    Either way every point lies in (pred - h, pred + h), so one depth search
    at pred + h serves them all, and the points are walked in order from the
    scan's last point: the first sign change is refined, and without one the
    plain stepping scan resumes past them.  Stepping also covers start-up.

    The scan keeps its loop state between requests, bar the predictions that
    each pass makes afresh, so a longer request continues exactly as if the
    scan had never stopped: a table does not depend on shorter ones before it.
    """

    def __init__(self, ev: _ComboSeries, tol: float, form: str):
        self.ev, self.tol, self.form = ev, tol, form
        self.known: list[float] = []
        # fx is the certified value at x: float or mpf
        self.x, self.fx, self.step = 1e-12, ev.certified(1e-12), 0.05
        # last prediction error per extrapolation variable; x first
        self.errors = {1.0: 0.0, 1.0 / (1.0 + ev.p.rho): math.inf}
        self.half: float | None = None    # prediction bracket half-width
        self.slope = math.inf             # secant slope |ds/dx| at the last zero
        self.log_slopes: list[float] = []  # ln|ds/dx| at each zero
        self.slope_err = math.inf         # |ln s'| extrapolation's miss, last zero
        self.steps = 0

    def zeros(self, count: int) -> list[float]:
        """The first `count` zeros, scanning on from where the scan stopped.

        The loop runs on copies of the state and commits them only when it
        returns, so a request that raises leaves the scan as it was.
        """
        if len(self.known) >= count:
            return self.known[:count]
        ev = self.ev
        zeros, log_slopes = list(self.known), list(self.log_slopes)
        x, fx, step, half, steps = self.x, self.fx, self.step, self.half, self.steps
        slope, slope_err = self.slope, self.slope_err
        errors, preds = dict(self.errors), {}
        cap = _SCAN_CAP_PER_ZERO * count

        def read(t: float, need=math.inf, hi: float | None = None):
            nonlocal steps
            steps += 1
            return ev.certified(t, need, hi)

        def found(lo: float, hi: float, flo, fhi) -> None:
            nonlocal half, slope, slope_err
            xtol = _xtol_for(hi, self.tol, self.form)
            slope = abs(fhi - flo) / (hi - lo)
            need = slope * (0.25 * xtol)  # |s| a quarter width from the zero
            seen = {lo: flo, hi: fhi}

            def f(t: float):
                # every refinement point lies under hi: one depth search
                seen[t] = ft = ev.certified(t, need, hi)
                return ft

            a, b = _refine_bracket(f, lo, hi, flo, fhi, xtol)
            zeros.append(0.5 * (a + b))
            log_slope = _log_slope(a, b, seen[a], seen[b])
            if len(log_slopes) >= 3:
                slope_err = abs(log_slope - _next_value(log_slopes))
            log_slopes.append(log_slope)
            if preds:
                errors.update((k, abs(zeros[-1] - v)) for k, v in preds.items())
                half = max(_BRACKET_SAFETY * min(errors.values()),
                           _BRACKET_MIN_XTOL * xtol)

        def walk(points) -> bool:
            # (t, s(t)) in increasing t from the scan's last point: the first
            # sign change goes to found(); x ends at the last point read
            nonlocal x, fx
            for t, ft in points:
                crossed = (ft < 0) != (fx < 0)
                if crossed:
                    found(x, t, fx, ft)
                x, fx = t, ft
                if crossed:
                    return True
            return False

        while len(zeros) < count:
            if steps >= cap:
                raise ScanExhaustedError(
                    f"found only {len(zeros)} of {count} zeros for rho={ev.p.rho}, "
                    f"beta={ev.p.beta} within {cap} scan steps; parameters possibly "
                    f"outside the real-zero regime")
            if len(zeros) >= 3:
                preds = {k: _extrapolate(zeros, k) for k in errors}
                pred = preds[min(errors, key=errors.get)]
                gap = zeros[-1] - zeros[-2]
                h = 0.06 * gap if half is None else min(half, 0.06 * gap)
                lo, hi = pred - h, pred + h
                if lo > x:
                    need = slope * (0.25 * h)  # a quarter bracket from the zero
                    step = 0.12 * gap          # if no point crosses, stepping resumes
                    if (len(zeros) >= _NEWTON_FROM and min(errors.values()) * slope_err
                            < _NEWTON_GATE * _xtol_for(pred, self.tol, self.form)):
                        fp = read(pred, need, hi)
                        dx = float(fp / mp.exp(_next_value(log_slopes)))
                        x1 = pred - dx if fx < 0 else pred + dx
                        xtol = _xtol_for(x1, self.tol, self.form)
                        points = [(pred, fp)] + [
                            (t, read(t, slope * (0.25 * xtol), hi))
                            for t in (x1 - _NEWTON_HALF * xtol, x1 + _NEWTON_HALF * xtol)
                            if lo < t < hi]
                        crossed = walk(sorted(points, key=operator.itemgetter(0)))
                    else:
                        crossed = walk((t, read(t, need, hi)) for t in (lo, hi))
                    if crossed:
                        continue
            x2 = x + step
            fx2 = read(x2)
            if (fx < 0) != (fx2 < 0):
                found(x, x2, fx, fx2)
                if len(zeros) >= 2:
                    step = 0.25 * (zeros[-1] - zeros[-2])
            x, fx = x2, fx2
            step *= 1.05
            if len(zeros) >= 2:
                step = min(step, 0.6 * (zeros[-1] - zeros[-2]))
            else:
                # until gap statistics exist, keep the step within 5% of scale;
                # zero gaps of these series grow at least that fast
                step = min(step, 0.05 * (1.0 + x))
        self.known, self.x, self.fx, self.step = zeros, x, fx, step
        self.errors, self.half, self.steps = errors, half, steps
        self.slope, self.log_slopes, self.slope_err = slope, log_slopes, slope_err
        return zeros[:count]


# ----------------------------------------------------------------------------
# cached table construction
# ----------------------------------------------------------------------------

def _check_count(N: int, top: int | None = None) -> int:
    """N as an int in [1, top], or ParameterError; any integer type but bool."""
    try:
        n = 0 if isinstance(N, bool) else operator.index(N)
    except TypeError:
        n = 0
    if not 1 <= n <= (math.inf if top is None else top):
        raise ParameterError(f"count must be a positive integer, got {N!r}" if top is None
                             else f"N must be an integer in [1, {top}], got {N!r}")
    return n


# One scan per series, form and tol.  Keyed per form because the refinement
# width that realizes a form-space tolerance differs between the two forms
# (2 sqrt(x) tol vs tol).
_x_zero_cache: dict[tuple[float, float, float, float, str, float], _Scan] = {}


def _table(p: WrightParams, form: str, a: float, b: float, count: int,
           tol: float) -> ZeroTable:
    """The first `count` zeros in r of s(x), with x = r^2 or x = r by form.

    The cached scan of this series, form and tol is resumed, so the result
    is a cold scan at tol.  A scan is cached only once its request has
    returned.  Every process-wide cache is a pure memo, so no public result
    depends on what was asked before or on what an LRU evicted: this
    _x_zero_cache, kernel._lgammas, kernel._magnitude_rows,
    family._refinement_grid and radii._real_axis_grid.
    """
    count = _check_count(count)
    _check_tol(tol)
    key = (p.rho, p.beta, float(a), float(b), form, tol)
    scan = _x_zero_cache.get(key)
    if scan is None:
        scan = _Scan(_ComboSeries(p, a, b), tol, form)
    xs = scan.zeros(count)
    _x_zero_cache[key] = scan
    rs = [math.sqrt(x) for x in xs] if form == "minus_z_squared" else xs
    return ZeroTable(p, form, tuple(rs), tol)


def positive_zeros(p: WrightParams, form: str, count: int,
                   tol: float = 1e-12) -> ZeroTable:
    """First `count` positive zeros of the base function.

    form minus_z_squared: zeros of r -> Gamma(beta) W(rho,beta; -r^2);
    form minus_z:         zeros of r -> Gamma(beta) W(rho,beta; -r).
    The two tables describe the same x-axis sign changes, related by r -> r^2.
    """
    _check_params(p)
    _check_form(form)
    return _table(p, form, 1.0, 0.0, count, tol)


_DERIV_COMBO = {
    NormalizedKind.G: ("minus_z_squared", lambda beta: (1.0, -2.0)),
    NormalizedKind.F: ("minus_z_squared", lambda beta: (beta, -2.0)),
    NormalizedKind.H: ("minus_z", lambda beta: (1.0, -1.0)),
}


def derivative_positive_zeros(kind: NormalizedKind, p: WrightParams, count: int,
                              tol: float = 1e-12) -> ZeroTable:
    """First `count` positive zeros of d/dr [normalized function](r).

    Kind G: g'(r) = Gamma(beta)[W(-r^2) - 2r^2 W1(-r^2)];
    kind H: h'(r) = Gamma(beta)[W(-r) - r W1(-r)];
    kind F: f'(r) vanishes exactly where v(r) = beta*Phi(r) + r*Phi'(r) does
    (f' = Phi^(1/beta) * v / (beta*Phi), and Phi > 0 before its first zero).
    """
    _check_params(p)
    if kind not in _DERIV_COMBO:
        raise ParameterError(f"unknown kind {kind!r}")
    form, combo = _DERIV_COMBO[kind]
    return _table(p, form, *combo(p.beta), count, tol)


# ----------------------------------------------------------------------------
# residuals (CLI support)
# ----------------------------------------------------------------------------

_RESIDUAL_DPS_CAP = 2000


def base_residual(p: WrightParams, form: str, r: float) -> float:
    """|Gamma(beta) W(-r^2)| resp. |Gamma(beta) W(-r)| with certified sign path.

    Raises ParameterError when the mpmath sum at r would start at more than
    _RESIDUAL_DPS_CAP = 2000 digits.  Measured on 2 CPUs: the 80th zero of
    every rho in {0.1, 0.25, 0.5, 1, 2, 4} and beta in {0.5, 1, 2, 5, 10, 30}
    needs at most 961 digits (rho = 0.1, beta = 30), a sum at 2000 digits
    takes about 3 s at rho = 0.1, and r = 1e6 at (1, 1) would need 870,000.
    """
    _check_params(p)
    _check_form(form)
    r = _finite_real(r, "r")
    x = r * r if form == "minus_z_squared" else r
    ev = _ComboSeries(p, 1.0, 0.0)
    e_max = term_exponent_max(p, x)
    if not (math.isfinite(e_max) and ev._dps_budget(x, e_max) <= _RESIDUAL_DPS_CAP):
        raise ParameterError(
            f"r = {r} too deep: its residual needs over {_RESIDUAL_DPS_CAP} digits")
    return abs(float(ev.certified(x))) * _gamma(p.beta)


# ----------------------------------------------------------------------------
# argument-principle counting
# ----------------------------------------------------------------------------

# Trapezoidal nodes on the first pass; doubled at most four times.
_QUADRATURE_POINTS = 512


def _mp_wright_complex(series: _ComboSeries, u: complex, e_max: float) -> complex:
    """W(rho, beta; u) at complex u, certified, from the base series of series.p,
    kept across a contour's nodes; e_max = term_exponent_max(series.p, |u|)."""
    return complex(series._certified_mp(-complex(u), e_max))


def count_zeros_in_disk(p: WrightParams, form: str, R: float) -> int:
    """Zeros of the base function inside |z| < R by the argument principle.

    Trapezoidal winding integral (1/2pi) int_0^{2pi} Re[z base'(z)/base(z)] dtheta
    on |z| = R at the m-th roots of unity, spectrally accurate for the periodic
    integrand, with m doubled until the rounded count repeats with residual
    < 0.1.  The node values are one inverse FFT of the signed term magnitudes
    (kernel._fft_circle_eval); a node under 30 times the contour's rounding
    bound is re-evaluated by the zero scan's certified mpmath evaluator, or
    raises ConvergenceError.  The minus_z_squared form counts on the minus_z
    contour |x| = R^2 and doubles the count: Phi(z) = Psi(z^2), so each zero x
    of Psi gives the zeros +-sqrt(x).
    """
    _check_params(p)
    _check_form(form)
    if not (R > 0 and math.isfinite(R)):
        raise ParameterError(f"R must be finite and > 0, got {R}")

    modulus = R * R if form == "minus_z_squared" else R
    e_max = term_exponent_max(p, modulus)
    if not e_max <= 600.0:              # nan once R * R overflows
        raise ParameterError(
            f"contour radius {R} too deep for double-precision quadrature")
    if modulus == 0.0:                  # R * R underflows: the base is 1/Gamma(beta)
        return 0
    p1 = p.shifted(1)
    e_max1 = term_exponent_max(p1, modulus)
    # the rescue's mpmath setup, built once for all nodes and node counts
    series0, series1 = _ComboSeries(p, 1.0, 0.0), _ComboSeries(p1, 1.0, 0.0)
    factor = 2 if form == "minus_z_squared" else 1

    prev_round: int | None = None
    for k in range(5):
        m = _QUADRATURE_POINTS << k
        (w0, w1), (noise0, noise1) = _fft_circle_eval(p, modulus, m, (0, 1))
        bad = (np.abs(w0) < 30.0 * noise0) | (np.abs(w1) < 30.0 * noise1)
        u = -modulus * np.exp(2j * math.pi * np.arange(m) / m)
        for j in np.nonzero(bad)[0]:
            w0[j] = _mp_wright_complex(series0, u[j], e_max)
            w1[j] = _mp_wright_complex(series1, u[j], e_max1)
        # x Psi'(x)/Psi(x) at x = -u: d/dx W(rho, beta; -x) = -W(rho, rho+beta; -x)
        mean = factor * float(np.mean((u * w1 / w0).real))
        nearest = round(mean) if abs(mean - round(mean)) < 0.1 else None
        if nearest is not None and nearest == prev_round:
            return nearest
        prev_round = nearest
    raise NonIntegerWindingError(
        f"winding integral did not stabilize near an integer for R={R} "
        f"(rho={p.rho}, beta={p.beta}); a zero may sit near the contour")


# ----------------------------------------------------------------------------
# Hadamard partial products
# ----------------------------------------------------------------------------

def hadamard_partial_product(table: ZeroTable, z: complex, N: int) -> complex:
    """Product over the first N table zeros.

    form minus_z_squared: prod (1 - z^2/lambda_n^2); minus_z: prod (1 - z/lambda_n).
    Raises ConvergenceError where the product leaves the double range.
    """
    _check_table(table)
    N = _check_count(N, len(table.zeros))
    if not (isinstance(z, numbers.Complex) and not isinstance(z, bool)
            and cmath.isfinite(z)):
        raise ParameterError(f"z must be a finite number, got {z!r}")
    z = complex(z)
    lam = np.asarray(table.zeros[:N], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if table.form == "minus_z_squared":
            factors = 1.0 - (z * z) / (lam * lam)
        else:
            factors = 1.0 - z / lam
        prod = complex(np.prod(factors))
    if not cmath.isfinite(prod):
        raise ConvergenceError(
            f"partial product over {N} zeros at z={z!r} leaves the double range")
    return prod


def reciprocal_square_sum(table: ZeroTable, N: int | None = None) -> float:
    """sum over the first N zeros of the base's quadratic-coefficient series.

    For form minus_z_squared this is sum 1/lambda_n^2, for minus_z it is
    sum 1/nu_n; both converge to Gamma(beta)/Gamma(rho+beta), the magnitude
    of the first nontrivial series coefficient of the base function.  N
    defaults to the whole table.
    """
    _check_table(table)
    if N is None:
        N = len(table.zeros)
    N = _check_count(N, len(table.zeros))
    lam = np.asarray(table.zeros[:N], dtype=float)
    if table.form == "minus_z_squared":
        return float(np.sum(1.0 / (lam * lam)))
    return float(np.sum(1.0 / lam))
