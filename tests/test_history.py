"""No public result depends on what the process was asked before.

Every process-wide cache is a pure memo: zeros._x_zero_cache,
kernel._lgammas, kernel._magnitude_rows, family._refinement_grid and
radii._real_axis_grid.  So a fixed set of radii and zero tables, computed
cold in one fresh interpreter and again in another after a history of other
requests and cache floods, agree bit for bit.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints the output set, one repr a line, after the history when argv[1] is
# "history"; an error prints its type name.
OUTPUTS = """
import sys
import wright_radii as W
from wright_radii import family, kernel, radii

K = W.NormalizedKind
PAIRS = [W.WrightParams(rho, beta) for rho, beta in ((0.5, 1.0), (1.0, 1.5), (2.0, 2.0))]
TARGETS = (("lem_star", None), ("lem_convex", None), ("jan_star", (1.0, -1.0)),
           ("jan_convex", (0.5, -0.5)), ("jan_star", (0.5, 0.25)))


def query(kind, p, what, ab):
    return W.RadiusQuery(kind, p, what, None if ab is None else W.JanowskiParams(*ab))


def attempt(fn, *args, **kw):
    try:
        return repr(fn(*args, **kw))
    except W.WrightRadiiError as exc:
        return type(exc).__name__


def history():
    for p in PAIRS:
        for tol in (1e-14, 1e-6):
            for form in ("minus_z_squared", "minus_z"):
                attempt(W.positive_zeros, p, form, 3, tol=tol)
            for kind in K:
                attempt(W.derivative_positive_zeros, kind, p, 2, tol=tol)
        attempt(W.positive_zeros, p, "minus_z_squared", 16)
        attempt(W.derivative_positive_zeros, K.G, p, 6)
        for kind in K:
            for tol in (1e-6, 0.03):
                attempt(W.cross_validate, query(kind, p, "lem_star", None), tol)
                attempt(W.cross_validate, query(kind, p, "jan_star", (1.0, -1.0)), tol)
    for i in range(300):
        kernel._magnitude_rows(1.0, 1.0, 0.01 * (i + 1), (0, 1))
        kernel._lgammas(1.0, 0.5 + 0.01 * i)
    for i in range(40):
        family._refinement_grid(0.0, 0.01 * (i + 1))
    for i in range(200):
        radii._real_axis_grid(K.G, PAIRS[0], True, 0.5 + 0.001 * i)


if sys.argv[1] == "history":
    history()
for p in PAIRS:
    for kind in K:
        for what, ab in TARGETS:
            print(attempt(W.cross_validate, query(kind, p, what, ab)))
    for form in ("minus_z_squared", "minus_z"):
        print(attempt(W.positive_zeros, p, form, 12))
    print(attempt(W.derivative_positive_zeros, K.G, p, 4))
"""


def _outputs(mode: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", OUTPUTS, mode], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_outputs_do_not_depend_on_earlier_requests():
    cold = _outputs("cold")
    assert len(cold) == 54
    assert _outputs("history") == cold
