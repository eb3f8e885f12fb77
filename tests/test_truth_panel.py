"""Radii against truths computed without the double-precision kernel.

Every entry is a Janowski target with B <= 0, where the radius is the
smallest positive root of w(r) = c, or C(r) = c, with c = (1 - A)/(1 - B)
(the rule radii._seed states).  Each truth is that root computed with mpmath
at 80 digits; `python3 scripts/truth_panel.py` recomputes every one from
the series and prints how far the stored value lies from it.

The rule for each route: it answers within tol of the truth, or it refuses
with a typed error.  A wrong answer fails; today's wrong answers are strict
xfails that name the defect, so a mend shows up as an XPASS.
"""
from __future__ import annotations

import pytest

from wright_radii import (JanowskiParams, NormalizedKind, RadiusQuery,
                          WrightParams, WrightRadiiError,
                          radius_by_certification, radius_real_axis)

TOL = 1e-9

# kind, rho, beta, radius kind, (A, B), truth
PANEL = (
    ("f", 1.0, 30.0, "jan_convex", (1.0, -1.0), 9.888260935259916),
    ("f", 1.0, 30.0, "jan_star", (1.0, -1.0), 15.852950519802477),
    ("f", 1.0, 10.0, "jan_star", (1.0, -1.0), 5.501669044144797),
    ("f", 0.5, 30.0, "jan_star", (1.0, -1.0), 8.425385741808802),
    ("f", 0.1, 30.0, "jan_star", (1.0, -1.0), 4.5755751530592468),
    ("g", 0.25, 30.0, "jan_star", (1.0, -1.0), 1.0794844781072596),
    ("h", 2.0, 30.0, "jan_star", (1.0, -1.0), 824.12242804373948),
    # control: a surface query both routes answer
    ("g", 1.0, 1.0, "jan_star", (1.0, -1.0), 0.62789185589729676),
)

_TAIL = ("the circle sums stop on an absolute tail of 1e-14 while W is of "
         "order 1/Gamma(30), about 1e-31")
_CANCEL = ("and their terms cancel with no rounding bound, so the double "
           "sum of W is off by up to 1%")

# (route, panel index) -> why the route answers wrongly today
WRONG = {
    ("cert", 0): f"certifier answers 12.5919, 2.70 off: {_TAIL}",
    ("cert", 3): f"certifier answers 10.1191, 1.69 off: {_TAIL}, {_CANCEL}",
    ("cert", 4): f"certifier answers 4.6123, 3.7e-2 off: {_TAIL}, {_CANCEL}",
    ("cert", 5): f"certifier answers 1.07946555, 1.9e-5 off: {_TAIL}",
    ("cert", 6): f"certifier answers 825.2865, 1.16 off: {_TAIL}",
}

ROUTES = {"cert": radius_by_certification, "real_axis": radius_real_axis}


def _label(entry) -> str:
    kind, rho, beta, what, (A, B), _ = entry
    return f"{kind.upper()}({rho:g},{beta:g})-{what}-A{A:g}B{B:g}"


def _cases():
    for route in ROUTES:
        for i, entry in enumerate(PANEL):
            why = WRONG.get((route, i))
            marks = [pytest.mark.xfail(strict=True, reason=why)] if why else []
            yield pytest.param(route, entry, marks=marks,
                               id=f"{route}-{_label(entry)}")


@pytest.mark.parametrize("route, entry", _cases())
def test_route_meets_truth_or_refuses(route, entry):
    kind, rho, beta, what, (A, B), truth = entry
    q = RadiusQuery(NormalizedKind.from_string(kind), WrightParams(rho, beta),
                    what, JanowskiParams(A, B))
    try:
        res = ROUTES[route](q, TOL)
    except WrightRadiiError:
        return
    assert abs(res.radius - truth) <= TOL, (res.radius, truth)
