"""Command-line front end.

Subcommands: eval (Wright function values with certified error bounds),
zeros (tables of positive real zeros), radius (one radius query by either or
both methods), sweep (grid of radius queries from a spec file, optionally
cross-checked).

Output goes to stdout as CSV (default) or JSON (--json); diagnostics go to
stderr.  Reals are printed with 15 significant digits and CSV rows end in LF,
so identical invocations are byte-identical.  Exit codes: 0 success, 1
numeric failure, 2 invalid parameters.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import ParameterError, WrightRadiiError
from .family import NormalizedKind
from .kernel import WrightParams, wright_eval
from .radii import (JanowskiParams, RadiusQuery, cross_validate,
                    radius_by_certification, radius_real_axis)
from .zeros import base_residual, positive_zeros

_WHAT = {"lem-star": "lem_star", "lem-convex": "lem_convex",
         "jan-star": "jan_star", "jan-convex": "jan_convex"}
_FORM = {"sq": "minus_z_squared", "minus_z_squared": "minus_z_squared",
         "lin": "minus_z", "minus_z": "minus_z"}


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------

def _sig15(x: float) -> str:
    return f"{x:.15g}"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _sig15(v)
    if v is None:
        return ""
    return str(v)


def _json_value(v):
    if isinstance(v, float):
        return float(_sig15(v))
    return v


def emit(records: list[dict], json_mode: bool, stream=None) -> None:
    """Serialize flat records; column order is the dict insertion order."""
    out = stream if stream is not None else sys.stdout
    if json_mode:
        payload = [{k: _json_value(v) for k, v in rec.items()} for rec in records]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    if not records:
        return
    writer = csv.writer(out, lineterminator="\n")
    header = list(records[0].keys())
    writer.writerow(header)
    for rec in records:
        writer.writerow([_cell(rec[k]) for k in header])


# ----------------------------------------------------------------------------
# query assembly
# ----------------------------------------------------------------------------

def _build_query(kind_token: str, rho: float, beta: float, what_token: str,
                 A: float | None, B: float | None) -> RadiusQuery:
    if what_token not in _WHAT:
        raise ParameterError(
            f"--what must be one of {sorted(_WHAT)}, got {what_token!r}")
    radius_kind = _WHAT[what_token]
    jp = None
    if radius_kind.startswith("jan"):
        if A is None or B is None:
            raise ParameterError(f"{what_token} requires -A and -B")
        jp = JanowskiParams(A, B)
    elif A is not None or B is not None:
        raise ParameterError(f"{what_token} takes no -A or -B")
    return RadiusQuery(kind=NormalizedKind.from_string(kind_token),
                       params=WrightParams(rho, beta),
                       radius_kind=radius_kind, janowski=jp)


def _query_columns(query: RadiusQuery) -> dict:
    jp = query.janowski
    return {
        "kind": query.kind.value,
        "rho": query.params.rho,
        "beta": query.params.beta,
        "what": query.radius_kind,
        "A": jp.A if jp else None,
        "B": jp.B if jp else None,
    }


def _result_row(query: RadiusQuery, res) -> dict:
    return {
        **_query_columns(query),
        "method": res.method,
        "radius": res.radius,
        "clamped": res.clamped,
        "bracket_lo": res.bracket[0],
        "bracket_hi": res.bracket[1],
        "sup_at_radius": res.sup_at_radius,
        "argmax_angle": res.argmax_angle,
        # no route returns its search end; the column keeps the CSV schema
        "hit_domain_bound": False,
    }


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_eval(args) -> int:
    p = WrightParams(args.rho, args.beta)
    z = complex(args.z, args.z_imag)
    res = wright_eval(p, z, args.tol)
    emit([{
        "rho": p.rho, "beta": p.beta, "z_re": z.real, "z_im": z.imag,
        "value_re": res.value.real, "value_im": res.value.imag,
        "abs_error_bound": res.abs_error_bound, "terms_used": res.terms_used,
    }], args.json)
    return 0


def cmd_zeros(args) -> int:
    if args.form not in _FORM:
        raise ParameterError(f"--form must be one of {sorted(_FORM)}, got {args.form!r}")
    p = WrightParams(args.rho, args.beta)
    form = _FORM[args.form]
    table = positive_zeros(p, form, args.count, args.tol)
    emit([{"index": i + 1, "zero": z, "residual": base_residual(p, form, z)}
          for i, z in enumerate(table.zeros)], args.json)
    return 0


def cmd_radius(args) -> int:
    query = _build_query(args.kind, args.rho, args.beta, args.what, args.A, args.B)
    if args.method == "cert":
        emit([_result_row(query, radius_by_certification(query, args.tol))], args.json)
    elif args.method == "real-axis":
        emit([_result_row(query, radius_real_axis(query, args.tol))], args.json)
    else:                           # both; argparse rejects any other method
        chk = cross_validate(query, args.tol)
        emit([{
            **_query_columns(query),
            "radius_certifier": chk.certifier.radius,
            "radius_real_axis": chk.real_axis.radius,
            "delta": chk.delta,
            "sup_at_radius": chk.certifier.sup_at_radius,
            "argmax_angle": chk.certifier.argmax_angle,
            "finding": chk.finding or "",
        }], args.json)
        if chk.finding:
            print(f"finding: {chk.finding}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

def _parse_grid(path: str) -> dict[str, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read grid file {path!r}: {exc}") from exc
    grid: dict[str, list[str]] = {}
    line_of: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"grid file line {ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in line_of:
            raise ParameterError(
                f"grid file line {ln}: key {key!r} repeats line {line_of[key]}")
        line_of[key] = ln
        items = [tok.strip() for tok in value.split(",") if tok.strip()]
        if not items:
            raise ParameterError(f"grid file line {ln}: no values for key {key!r}")
        grid[key] = items
    if not grid:
        raise ParameterError(f"grid file {path!r} is empty")
    return grid


def _floats(grid: dict, key: str) -> list[float]:
    try:
        return [float(tok) for tok in grid[key]]
    except ValueError as exc:
        raise ParameterError(f"grid key {key!r}: {exc}") from exc


def _sweep_queries(grid: dict[str, list[str]]) -> list[RadiusQuery]:
    known = {"rho", "beta", "kind", "what", "A", "B"}
    unknown = set(grid) - known
    if unknown:
        raise ParameterError(f"unknown grid keys: {sorted(unknown)}")
    for key in ("rho", "beta"):
        if key not in grid:
            raise ParameterError(f"grid file must set {key!r}")
    rhos = _floats(grid, "rho")
    betas = _floats(grid, "beta")
    kinds = grid.get("kind", ["g"])
    whats = grid.get("what", list(_WHAT))
    As = _floats(grid, "A") if "A" in grid else []
    Bs = _floats(grid, "B") if "B" in grid else []
    if len(As) != len(Bs):
        raise ParameterError(
            f"A and B lists must pair up, got {len(As)} vs {len(Bs)} entries")
    if any(_WHAT.get(w, w).startswith("jan") for w in whats) and not As:
        raise ParameterError("grid includes Janowski radius kinds but sets no A/B")
    queries = []
    for rho in rhos:
        for beta in betas:
            for kind in kinds:
                for what in whats:
                    rk = _WHAT.get(what, what)
                    if rk.startswith("jan"):
                        for a, b in zip(As, Bs):
                            queries.append(_build_query(kind, rho, beta, what, a, b))
                    else:
                        queries.append(_build_query(kind, rho, beta, what, None, None))
    return queries


def cmd_sweep(args) -> int:
    queries = _sweep_queries(_parse_grid(args.grid))

    def run(query: RadiusQuery) -> dict:
        if args.check:
            chk = cross_validate(query, args.tol)
            row = _result_row(query, chk.certifier)
            row["delta"] = chk.delta
            row["finding"] = chk.finding or ""
            return row
        return _result_row(query, radius_by_certification(query, args.tol))

    rows = [run(q) for q in queries]
    emit(rows, args.json)
    findings = [r for r in rows if r.get("finding")]
    for r in findings:
        print(f"finding: {r['finding']}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wright-radii",
        description="Wright function values, zero tables, and radii of "
                    "lemniscate/Janowski starlikeness and convexity.")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the Wright function")
    pe.add_argument("--rho", type=float, required=True)
    pe.add_argument("--beta", type=float, required=True)
    pe.add_argument("--z", type=float, required=True, help="real part of z")
    pe.add_argument("--z-imag", type=float, default=0.0, dest="z_imag",
                    help="imaginary part of z (default 0)")
    pe.add_argument("--tol", type=float, default=1e-12)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pz = sub.add_parser("zeros", help="table of positive real zeros")
    pz.add_argument("--rho", type=float, required=True)
    pz.add_argument("--beta", type=float, required=True)
    pz.add_argument("--form", default="sq",
                    help="sq: zeros in r of Gamma(beta)W(-r^2); lin: of Gamma(beta)W(-r)")
    pz.add_argument("--count", type=int, required=True)
    pz.add_argument("--tol", type=float, default=1e-12)
    pz.add_argument("--json", action="store_true")
    pz.set_defaults(func=cmd_zeros)

    pr = sub.add_parser("radius", help="one radius query")
    pr.add_argument("--kind", default="g", help="normalized kind: f, g, or h")
    pr.add_argument("--rho", type=float, default=1.0)
    pr.add_argument("--beta", type=float, default=1.0)
    pr.add_argument("--what", required=True,
                    help="lem-star | lem-convex | jan-star | jan-convex")
    pr.add_argument("-A", type=float, default=None)
    pr.add_argument("-B", type=float, default=None)
    pr.add_argument("--method", default="cert",
                    choices=["cert", "real-axis", "both"])
    pr.add_argument("--tol", type=float, default=1e-9)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_radius)

    ps = sub.add_parser("sweep", help="radius sweep over a (rho, beta) grid file")
    ps.add_argument("grid", help="key=value grid file, comma lists (rho=0.5,1,2)")
    ps.add_argument("--check", action="store_true",
                    help="run both methods per row and append the delta column")
    ps.add_argument("--tol", type=float, default=1e-9)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WrightRadiiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
