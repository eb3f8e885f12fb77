"""Both radius routes on the committed probe of 432 Janowski queries.

tests/probe_truths.json holds every query of the grid kind in {F, G, H},
star and convex, rho in {0.1, 0.25, 0.5, 1, 2, 4}, beta in {0.5, 1, 2, 5,
10, 30} and (A, B) in {(1, -1), (1/2, -1/2)}, each with its truth: the
real-axis root at 80 digits, which `python3 scripts/truth_panel.py --probe`
recomputes.  The rule is the truth panel's: at TOL a route answers within
TOL of the truth, or it refuses with a typed error.

Today's wrong answers are listed in WRONG, grouped by cause.  A wrong
answer that is not listed fails, and so does a listed one that turns right
or refused: the list can only shrink.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_truth_panel import ROUTES, TOL, _label

from wright_radii import (JanowskiParams, NormalizedKind, RadiusQuery,
                          WrightParams, WrightRadiiError)

PROBE = json.loads(Path(__file__).with_name("probe_truths.json").read_text())["queries"]

# The causes are those of ROADMAP's "Correctness" section.
_TAILS = ("cause 1, absolute tails: the sums stop on an absolute tail (1e-14 "
          "on a circle, 1e-12 at a point) while W is of order 1/Gamma(beta), "
          "about 1e-31 at beta = 30; summed on the normalized scale "
          "Gamma(beta) W, each of these is answered right or refused")
_CANCEL = ("cause 2, cancellation with no rounding bound, besides cause 1: "
           "the F star sums at beta = 30 stay 4e-9 to 3e-2 off on the "
           "normalized scale")
_ROUNDING = ("cause 4, a tol below the radius's rounding, besides cause 1: at "
             "radii of 3e5 and 5e5, tol 1e-9 is 17 ulp, and on the "
             "normalized scale the double sweep lands 2.4e-9 and 4.4e-9 off")

# route -> cause -> the labels of the queries the route answers wrongly
WRONG = {
    "cert": {
        _TAILS: (
            "F(0.1,10)-jan_star-A1B-1", "F(0.25,10)-jan_star-A1B-1",
            "F(0.25,10)-jan_star-A0.5B-0.5", "F(0.25,30)-jan_star-A1B-1",
            "F(0.5,10)-jan_star-A1B-1", "F(0.5,10)-jan_star-A0.5B-0.5",
            "F(1,10)-jan_star-A0.5B-0.5", "F(2,10)-jan_star-A1B-1",
            "F(2,10)-jan_star-A0.5B-0.5", "F(4,10)-jan_star-A1B-1",
            "F(4,10)-jan_star-A0.5B-0.5", "F(4,30)-jan_star-A0.5B-0.5",
            "F(0.1,30)-jan_convex-A1B-1", "F(0.1,30)-jan_convex-A0.5B-0.5",
            "F(0.25,30)-jan_convex-A1B-1", "F(0.25,30)-jan_convex-A0.5B-0.5",
            "F(0.5,30)-jan_convex-A1B-1", "F(0.5,30)-jan_convex-A0.5B-0.5",
            "F(1,10)-jan_convex-A0.5B-0.5", "F(1,30)-jan_convex-A1B-1",
            "F(1,30)-jan_convex-A0.5B-0.5", "F(2,10)-jan_convex-A1B-1",
            "F(2,10)-jan_convex-A0.5B-0.5", "F(2,30)-jan_convex-A1B-1",
            "F(2,30)-jan_convex-A0.5B-0.5", "F(4,10)-jan_convex-A0.5B-0.5",
            "F(4,30)-jan_convex-A0.5B-0.5",
            "G(0.1,30)-jan_star-A1B-1", "G(0.1,30)-jan_star-A0.5B-0.5",
            "G(0.25,30)-jan_star-A1B-1", "G(0.25,30)-jan_star-A0.5B-0.5",
            "G(0.5,30)-jan_star-A1B-1", "G(0.5,30)-jan_star-A0.5B-0.5",
            "G(1,30)-jan_star-A1B-1", "G(1,30)-jan_star-A0.5B-0.5",
            "G(2,10)-jan_star-A1B-1", "G(2,30)-jan_star-A1B-1",
            "G(2,30)-jan_star-A0.5B-0.5", "G(4,10)-jan_star-A0.5B-0.5",
            "G(4,30)-jan_star-A0.5B-0.5",
            "G(0.25,30)-jan_convex-A0.5B-0.5", "G(0.5,30)-jan_convex-A0.5B-0.5",
            "G(1,30)-jan_convex-A0.5B-0.5", "G(2,30)-jan_convex-A0.5B-0.5",
            "G(4,30)-jan_convex-A0.5B-0.5",
            "H(0.1,30)-jan_star-A1B-1", "H(0.1,30)-jan_star-A0.5B-0.5",
            "H(0.25,30)-jan_star-A1B-1", "H(0.25,30)-jan_star-A0.5B-0.5",
            "H(0.5,10)-jan_star-A0.5B-0.5", "H(0.5,30)-jan_star-A1B-1",
            "H(0.5,30)-jan_star-A0.5B-0.5", "H(1,10)-jan_star-A1B-1",
            "H(1,10)-jan_star-A0.5B-0.5", "H(1,30)-jan_star-A1B-1",
            "H(1,30)-jan_star-A0.5B-0.5", "H(2,10)-jan_star-A1B-1",
            "H(2,10)-jan_star-A0.5B-0.5", "H(2,30)-jan_star-A1B-1",
            "H(2,30)-jan_star-A0.5B-0.5", "H(4,10)-jan_star-A1B-1",
            "H(4,10)-jan_star-A0.5B-0.5",
            "H(0.1,30)-jan_convex-A1B-1", "H(0.1,30)-jan_convex-A0.5B-0.5",
            "H(0.25,30)-jan_convex-A1B-1", "H(0.25,30)-jan_convex-A0.5B-0.5",
            "H(0.5,30)-jan_convex-A1B-1", "H(0.5,30)-jan_convex-A0.5B-0.5",
            "H(1,10)-jan_convex-A1B-1", "H(1,30)-jan_convex-A1B-1",
            "H(1,30)-jan_convex-A0.5B-0.5", "H(2,30)-jan_convex-A1B-1",
            "H(2,30)-jan_convex-A0.5B-0.5", "H(4,10)-jan_convex-A0.5B-0.5",
            "H(4,30)-jan_convex-A0.5B-0.5",
        ),
        _CANCEL: (
            "F(0.1,30)-jan_star-A1B-1", "F(0.1,30)-jan_star-A0.5B-0.5",
            "F(0.25,30)-jan_star-A0.5B-0.5", "F(0.5,30)-jan_star-A1B-1",
            "F(0.5,30)-jan_star-A0.5B-0.5", "F(1,30)-jan_star-A0.5B-0.5",
        ),
        _ROUNDING: (
            "H(4,30)-jan_star-A0.5B-0.5", "H(4,30)-jan_convex-A1B-1",
        ),
    },
    "real_axis": {},
}


def outcome(route: str, entry) -> str:
    """Route's answer to the query entry: "right", "refused" or "wrong"."""
    kind, rho, beta, what, (A, B), truth = entry
    q = RadiusQuery(NormalizedKind.from_string(kind), WrightParams(rho, beta),
                    what, JanowskiParams(A, B))
    try:
        res = ROUTES[route](q, TOL)
    except WrightRadiiError:
        return "refused"
    return "right" if abs(res.radius - truth) <= TOL else "wrong"


def outcomes(route: str) -> dict[str, str]:
    """The outcome of route on every probe query, by the query's label."""
    return {_label(entry): outcome(route, entry) for entry in PROBE}


@pytest.mark.parametrize("route", ROUTES)
def test_probe_wrong_answers_are_the_listed_ones(route):
    got = outcomes(route)
    assert len(got) == len(PROBE) == 432          # each query once
    wrong = {label for label, verdict in got.items() if verdict == "wrong"}
    listed = [label for labels in WRONG[route].values() for label in labels]
    assert len(listed) == len(set(listed))
    assert sorted(wrong - set(listed)) == [], "wrong answers that are not listed"
    assert sorted(set(listed) - wrong) == [], \
        "listed answers now right or refused: take them off the list"
