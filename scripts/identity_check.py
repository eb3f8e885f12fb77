"""Compare a fixed set of package outputs between a parent commit and the tree.

    python3 scripts/identity_check.py --parent HEAD \
        --allow 'circle.starlike.F=1e-15' --allow '*.bound=1e-15'

Exports the parent with bench_pairs.export into .bench_build/, then computes
the same outputs on both sides, each in a fresh interpreter (so every cache
starts cold):

  - the 288 surface and 216 Janowski B > 0 cross_validate results, and
    radius_by_certification alone on the surface;
  - the boundary sweeps the certifier takes on each of those three runs
    (radii.boundary_sup calls) and the real-axis functional's evaluations
    in the first two (radii._functional_real calls), printed per side but
    not compared, as a change to the sweep schedule or to what the
    real-axis route keeps moves them with every output kept.  The
    certifier works out its own seed, so certifying the surface alone
    sweeps as cross_validate does, 1,150 circles, where an unseeded
    certifier takes 3,869;
  - the point, real-axis and circle functionals on the grid and on one
    non-dyadic pair, NON_DYADIC, where rho*n + beta is not exact in binary,
    so a change to how a term's lgamma argument rounds shows up; the region
    modulus on the grid;
  - the circle functionals on the kept sweep grids, level 0 and the
    refinement grids REFINED_CELLS, each next to a fresh grid of the same
    angles, built per call;
  - the 12 cold 80-zero tables, 5-zero derivative tables and winding counts,
    plus one winding count for (0.3, 1.1) that needs the mpmath rescue, and
    the number of certified evaluations (_ComboSeries.certified calls) that
    building those tables takes; the cancellation-depth searches
    (zeros.term_exponent_max calls), the mpmath sums (_ComboSeries._eval_mp
    calls) and the winding nodes rescued in mpmath (zeros._mp_wright_complex
    calls, two a node) of that section are printed per side but not
    compared, as the sweeps are: a change to the rescue's noise bound moves
    them with every winding count kept;
  - radius_real_axis and radius_by_certification on the 336-query Janowski
    (1, -1) probe (rho in PROBE_RHO, beta in PROBE_BETA, every kind, star
    and convex): the radius or the name of the error it raises, so a change
    to either route's accuracy rule or refusals shows up as a diff;
  - both routes on the 288 surface queries at each tol in COARSE_TOLS, where
    the search ends within 10 tol of the singularity matter: the result's
    RESULT_FIELDS or the name of the error it raises;
  - the stdout bytes of `wright-radii sweep --check` and of plain
    `wright-radii sweep` on the surface grid;
  - the exit code, stdout and stderr of `wright-radii radius`, by both
    methods and by the certifier alone, on the beta = 30 queries
    CLI_RADIUS_QUERIES.  The CLI runs with one BLAS thread unless told
    otherwise, and the certifier's circles for G(0.25, 30) jan_star (1, -1)
    reach 129 terms, a matrix product above OpenBLAS's threading size, so
    a parent that ran it threaded shows whether its bits depend on the
    thread count.  With both methods, each query's real axis refuses tol
    1e-9 before any circle is summed, so tol 1e-3 runs as well;
  - the right, refused and wrong answers of each route on the probe of
    tests/test_probe.py, printed per side but not compared: the probe's
    truths and its list of wrong answers are the tree's own.

Every RadiusResult is read through the fixed list RESULT_FIELDS, so a change
to the dataclass's own fields is not a diff.

Prints, per output field, the items compared, the mismatches and the
largest relative difference.  Exits 1 on any mismatch, except a relative
difference no larger than the one --allow grants the field (an fnmatch
pattern; repeatable), which is reported as moved.
"""
from __future__ import annotations

import argparse
import cmath
import collections
import fnmatch
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export  # noqa: E402

GRID = [(rho, beta) for rho in (0.5, 1.0, 2.0) for beta in (0.5, 1.0, 1.5, 2.0)]
NON_DYADIC = (0.3, 1.1)
KINDS = ("f", "g", "h")
SURFACE_PAIRS = ((1.0, -1.0), (1.0, 0.0), (0.5, -0.5))
B_POSITIVE_PAIRS = ((0.5, 0.25), (1.0, 0.5), (0.9, 0.8))
POINT_RADII = (0.1, 0.3, 0.5)
POINT_ANGLES = (0.0, 0.7, 1.6, 2.5, math.pi)
CIRCLE_RADII = (0.2, 0.45, 0.7)
PROBE_RHO = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
PROBE_BETA = (0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
COARSE_TOLS = (0.02, 0.03, 0.05)
# refinement grids by their cells (i, j) of the level-0 grid: those about
# theta = 0, pi/2 and pi, where most sweeps refine, and an interior one
REFINED_CELLS = ((0, 1), (127, 129), (255, 256), (40, 42))
CLI_RADIUS_QUERIES = (
    ("g", "0.25", "jan-star", "1", "-1"),
    ("g", "0.25", "jan-convex", "1", "-1"),
    ("g", "0.1", "jan-star", "1", "-1"),
    ("f", "0.5", "lem-star", None, None),
)
RESULT_FIELDS = ("radius", "bracket", "method", "sup_at_radius", "argmax_angle",
                 "clamped")
SWEEP_GRID = """rho = 0.5, 1, 2
beta = 0.5, 1, 1.5, 2
kind = f, g, h
what = lem-star, lem-convex, jan-star, jan-convex
A = 1, 1, 0.5
B = -1, 0, -0.5
"""


# ----------------------------------------------------------------------------
# one side: the outputs, as JSON-exact values
# ----------------------------------------------------------------------------

def _c(v) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def _fields(res) -> list:
    return [getattr(res, name) for name in RESULT_FIELDS]


def _result(out: dict, prefix: str, res) -> None:
    for name in RESULT_FIELDS:
        out.setdefault(f"{prefix}.{name}", []).append(getattr(res, name))


def _attempt(fn, *args):
    """fn(*args), or the name of the package error it raised."""
    import wright_radii as W
    try:
        return fn(*args)
    except W.WrightRadiiError as exc:
        return type(exc).__name__


def emit() -> dict:
    import numpy as np

    import wright_radii as W
    from wright_radii import radii, zeros
    from wright_radii.family import (_GRID0, _AngleGrid, _refinement_grid,
                                     convex_on_circle, starlike_on_circle)
    from wright_radii.zeros import _ComboSeries

    out: dict[str, list] = {}
    params = [W.WrightParams(rho, beta) for rho, beta in GRID]

    def query(kind, p, what, jp=None):
        return W.RadiusQuery(W.NormalizedKind.from_string(kind), p, what,
                             W.JanowskiParams(*jp) if jp else None)

    surface = [query(kind, p, what, jp) for kind in KINDS for p in params
               for what, pairs in (("lem_star", (None,)), ("lem_convex", (None,)),
                                   ("jan_star", SURFACE_PAIRS),
                                   ("jan_convex", SURFACE_PAIRS))
               for jp in pairs]
    b_positive = [query(kind, p, what, jp) for jp in B_POSITIVE_PAIRS
                  for kind in KINDS for p in params
                  for what in ("jan_star", "jan_convex")]
    sweeps = []
    sup = radii.boundary_sup

    def counted_sup(*args, **kwargs):
        sweeps.append(args[1])
        return sup(*args, **kwargs)

    real_calls = 0
    real = radii._functional_real

    def counted_real(*args):
        nonlocal real_calls
        real_calls += 1
        return real(*args)

    radii.boundary_sup = counted_sup
    radii._functional_real = counted_real
    # work counts, printed per side but not compared
    out["counts"] = {}
    for prefix, queries in (("surface", surface), ("b_positive", b_positive)):
        sweeps.clear()
        real_calls = 0
        for q in queries:
            chk = W.cross_validate(q)
            _result(out, f"{prefix}.certifier", chk.certifier)
            _result(out, f"{prefix}.real_axis", chk.real_axis)
            out.setdefault(f"{prefix}.delta", []).append(chk.delta)
            # the finding's text, whether it is a message or a record holding one
            f = chk.finding
            out.setdefault(f"{prefix}.finding", []).append(
                None if f is None else [chk.certifier.radius, chk.real_axis.radius,
                                        chk.delta, chk.certifier.argmax_angle,
                                        getattr(f, "message", f)])
            for theta in (0.0, 1.0):
                z = 0.5 * chk.certifier.radius * cmath.exp(1j * theta)
                out.setdefault(f"{prefix}.region_functional", []).append(
                    _attempt(W.region_functional, q, z))
        out["counts"][f"certifier sweeps on {prefix}"] = len(sweeps)
        out["counts"][f"real-axis functional calls on {prefix}"] = real_calls
    sweeps.clear()
    for q in surface:
        _result(out, "surface.plain_certifier", W.radius_by_certification(q))
    out["counts"]["plain certifier sweeps on surface"] = len(sweeps)
    radii.boundary_sup = sup
    radii._functional_real = real

    fresh = np.linspace(0.0, math.pi, 33)
    theta0 = np.linspace(0.0, math.pi, 257)
    refined = [(_refinement_grid(float(theta0[i]), float(theta0[j])),
                np.linspace(theta0[i], theta0[j], 21))
               for i, j in REFINED_CELLS]
    for kind in W.NormalizedKind:
        for name, point, real, circle in (
                ("starlike", W.starlike_functional, W.starlike_real, starlike_on_circle),
                ("convex", W.convex_functional, W.convex_real, convex_on_circle)):
            key = f"{name}.{kind.name}"
            for p in params + [W.WrightParams(*NON_DYADIC)]:
                for r in POINT_RADII:
                    out.setdefault(f"real.{key}", []).append(
                        _attempt(real, kind, p, r))
                    for theta in POINT_ANGLES:
                        fv = _attempt(point, kind, p, r * cmath.exp(1j * theta))
                        ok = not isinstance(fv, str)
                        out.setdefault(f"point.{key}.value", []).append(
                            _c(fv.value) if ok else fv)
                        out.setdefault(f"point.{key}.bound", []).append(
                            fv.abs_error_bound if ok else fv)
                for r in CIRCLE_RADII:
                    for grid in (_GRID0, _AngleGrid(fresh.copy())):
                        vals = circle(kind, p, r, grid)
                        out.setdefault(f"circle.{key}", []).append(
                            [x for v in vals for x in _c(v)])
                    for kept, theta in refined:
                        for grid in (kept, _AngleGrid(theta.copy())):
                            vals = circle(kind, p, r, grid)
                            out.setdefault(f"circle_refined.{key}", []).append(
                                [x for v in vals for x in _c(v)])

    # count the scan's work as well as its outputs
    evals = searches = mp_sums = rescues = 0
    certified = _ComboSeries.certified
    depth = zeros.term_exponent_max
    eval_mp = _ComboSeries._eval_mp
    rescue = zeros._mp_wright_complex

    def counted(self, x, *args):
        nonlocal evals
        evals += 1
        return certified(self, x, *args)

    def counted_depth(*args):
        nonlocal searches
        searches += 1
        return depth(*args)

    def counted_mp(self, *args):
        nonlocal mp_sums
        mp_sums += 1
        return eval_mp(self, *args)

    def counted_rescue(*args):
        nonlocal rescues
        rescues += 1
        return rescue(*args)

    _ComboSeries.certified = counted
    zeros.term_exponent_max = counted_depth
    _ComboSeries._eval_mp = counted_mp
    zeros._mp_wright_complex = counted_rescue
    for p in params:
        table = W.positive_zeros(p, "minus_z_squared", 80).zeros
        out.setdefault("zeros.table", []).append(list(table))
        for form, lam in (("minus_z_squared", table[:5]),
                          ("minus_z", [x * x for x in table[:5]])):
            out.setdefault(f"zeros.winding.{form}", []).append(
                [W.count_zeros_in_disk(p, form, 0.5 * (a + b))
                 for a, b in zip(lam, lam[1:])])
        for kind in W.NormalizedKind:
            out.setdefault(f"zeros.derivative.{kind.name}", []).append(
                list(W.derivative_positive_zeros(kind, p, 5).zeros))
    # a contour whose drowned nodes go through the mpmath rescue
    p = W.WrightParams(0.3, 1.1)
    lam = W.positive_zeros(p, "minus_z_squared", 5).zeros
    out["zeros.winding.rescued"] = [
        W.count_zeros_in_disk(p, "minus_z_squared", 0.5 * (lam[3] + lam[4]))]
    _ComboSeries.certified = certified
    zeros.term_exponent_max = depth
    _ComboSeries._eval_mp = eval_mp
    zeros._mp_wright_complex = rescue
    out["zeros.evals"] = [evals]
    out["counts"]["depth searches in the zero tables"] = searches
    out["counts"]["mpmath sums in the zero tables"] = mp_sums
    out["counts"]["winding nodes rescued in mpmath"] = rescues // 2

    for kind in KINDS:
        for rho in PROBE_RHO:
            for beta in PROBE_BETA:
                for what in ("jan_star", "jan_convex"):
                    q = query(kind, W.WrightParams(rho, beta), what, (1.0, -1.0))
                    for field, route in (("real_axis_probe", W.radius_real_axis),
                                         ("cert_probe", W.radius_by_certification)):
                        res = _attempt(route, q)
                        out.setdefault(field, []).append(
                            res if isinstance(res, str) else res.radius)
    for tol in COARSE_TOLS:
        for q in surface:
            for route in (W.radius_real_axis, W.radius_by_certification):
                res = _attempt(route, q, tol)
                out.setdefault("coarse_probe", []).append(
                    res if isinstance(res, str) else _fields(res))

    sys.path.insert(0, str(ROOT / "tests"))
    from test_probe import outcomes
    for route in ("cert", "real_axis"):
        tally = collections.Counter(outcomes(route).values())
        out["counts"][f"probe {route} right/refused/wrong"] = "/".join(
            str(tally[v]) for v in ("right", "refused", "wrong"))

    with tempfile.TemporaryDirectory() as tmp:
        grid = Path(tmp) / "grid.txt"
        grid.write_text(SWEEP_GRID)
        for field, flags in (("sweep_check.lines", ["--check"]),
                             ("sweep.lines", [])):
            proc = subprocess.run(
                [sys.executable, "-m", "wright_radii.cli", "sweep", str(grid),
                 *flags], capture_output=True, text=True, check=True)
            out[field] = proc.stdout.split("\n")
    for kind, rho, what, a, b in CLI_RADIUS_QUERIES:
        janowski = ["-A", a, "-B", b] if a else []
        for flags in (["--method", "both"], ["--method", "both", "--tol", "1e-3"],
                      ["--method", "cert"]):
            proc = subprocess.run(
                [sys.executable, "-m", "wright_radii.cli", "radius", "--kind", kind,
                 "--rho", rho, "--beta", "30", "--what", what, *janowski, *flags],
                capture_output=True, text=True)
            out.setdefault("radius_cli.lines", []).append(
                [proc.returncode, proc.stdout, proc.stderr])
    return out


# ----------------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------------

def _flat(v) -> list:
    return [x for item in v for x in _flat(item)] if isinstance(v, list) else [v]


def _rel_diff(a, b) -> float:
    """Largest relative difference of two items; inf if not both numeric."""
    fa, fb = _flat(a), _flat(b)
    if len(fa) != len(fb):
        return math.inf
    worst = 0.0
    for x, y in zip(fa, fb):
        if x == y or (isinstance(x, float) and isinstance(y, float)
                      and math.isnan(x) and math.isnan(y)):
            continue
        if isinstance(x, bool) or isinstance(y, bool) or not (
                isinstance(x, (int, float)) and isinstance(y, (int, float))):
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(parent: dict, change: dict, allow: dict[str, float]) -> tuple[list[str], bool]:
    """Report lines and whether every field is identical or moved within allowance."""
    lines = [f"{'field':40} {'items':>6} {'differ':>6} {'max rel diff':>13}  verdict"]
    ok = True
    for field in sorted(set(parent) | set(change)):
        a, b = parent.get(field), change.get(field)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"{field:40} missing or of another length on one side")
            ok = False
            continue
        diffs = [d for d in (_rel_diff(x, y) for x, y in zip(a, b) if x != y)
                 if d > 0.0]
        worst = max(diffs, default=0.0)
        limit = max((v for pat, v in allow.items() if fnmatch.fnmatchcase(field, pat)),
                    default=0.0)
        verdict = ("identical" if not diffs else
                   f"moved (allowed {limit:g})" if worst <= limit else "MISMATCH")
        ok = ok and verdict != "MISMATCH"
        lines.append(f"{field:40} {len(a):6d} {len(diffs):6d} {worst:13.3g}  {verdict}")
    return lines, ok


def _side(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--emit"],
                            cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare with")
    ap.add_argument("--allow", action="append", default=[], metavar="FIELD=REL",
                    help="accept relative differences up to REL on fields "
                         "matching the fnmatch pattern FIELD")
    ap.add_argument("--emit", action="store_true",
                    help="print this checkout's outputs as JSON and exit")
    args = ap.parse_args()
    if args.emit:
        json.dump(emit(), sys.stdout)
        return 0
    allow = {}
    for item in args.allow:
        pat, _, rel = item.rpartition("=")
        allow[pat] = float(rel)
    # both sides at once, one process each
    procs = {"parent": _side(export(args.parent)), "change": _side(ROOT)}
    sides = {}
    for name, proc in procs.items():
        text, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"{name} side exited {proc.returncode}")
        sides[name] = json.loads(text)
    counts = {name: side.pop("counts") for name, side in sides.items()}
    lines, ok = compare(sides["parent"], sides["change"], allow)
    for what, n in counts["change"].items():
        lines.append(f"{what}: parent {counts['parent'][what]}, "
                     f"change {n} (not compared)")
    reference = (ROOT / "perfbench" / "reference_sweep.csv").read_text().split("\n")
    same = sides["change"]["sweep_check.lines"] == reference
    lines.append(f"sweep --check stdout equals perfbench/reference_sweep.csv: {same}")
    print("\n".join(lines))
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
