"""Inputs of the three benchmark workloads and the checks on their outputs.

The inputs are fixed sets of items; the seed only shuffles their order, so
every seed does the same work.  Queries and rows are plain tuples here so
that this module imports nothing from the package under test.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("radius_surface", "zero_tables", "sweep_cli")

GRID = tuple((rho, beta) for rho in (0.5, 1.0, 2.0) for beta in (0.5, 1.0, 1.5, 2.0))
KINDS = ("f", "g", "h")
RADIUS_KINDS = ("lem_star", "lem_convex", "jan_star", "jan_convex")
JAN_PAIRS = ((1.0, -1.0), (1.0, 0.0), (0.5, -0.5))

# One row per rho: rho = 1/2, 1 and 2 take different Gamma-chain paths in the
# deep-zero evaluator.  All twelve rows take ~50 s, more than one run can
# spend; these three take ~12 s.  (1, 1) is the Bessel row, J0(2r).
ZERO_ROWS = ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0))
ZERO_DEPTH = 80
SHALLOW_DEPTH = 5
PRODUCT_N = (10, 20, 40, 80)
PRODUCT_POINT = 0.6            # product checked at 0.6 * lambda_1
PERCENTILE_SUPPORT = 10        # samples a reported percentile needs beyond it

# Sweep grid, one key per line.  The CLI builds its rows in a fixed key order
# whatever the line order, so shuffling lines leaves stdout byte-identical.
SWEEP_GRID_LINES = (
    "rho = 0.5, 1, 2",
    "beta = 0.5, 1, 1.5, 2",
    "kind = f, g, h",
    "what = lem-star, lem-convex, jan-star, jan-convex",
    "A = 1, 1, 0.5",
    "B = -1, 0, -0.5",
)

# Tolerances of the correctness checks.
RADIUS_TOL = 1e-8
ZERO_TOL = 1e-10
BESSEL_TOL = 1e-8
CROSS_CHECK = 1e-5
JAN_STAR_G11 = 0.627891855699      # G, (1, 1), jan_star (1, -1): J0(2r) = 2r J1(2r)
JAN_STAR_G11_TOL = 1e-9            # the certifier's bisection tolerance
J0_HALF_ZEROS = (1.2024127788478864, 2.7600390551431553, 4.3268639564555061)

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SWEEP = Path(__file__).resolve().parent / "reference_sweep.csv"


def shuffled(items, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def surface_queries() -> list[tuple]:
    """The 288 acceptance queries (kind, rho, beta, what, A, B) in canonical order."""
    out = []
    for kind in KINDS:
        for rho, beta in GRID:
            for what in RADIUS_KINDS:
                if what.startswith("jan"):
                    out.extend((kind, rho, beta, what, A, B) for A, B in JAN_PAIRS)
                else:
                    out.append((kind, rho, beta, what, None, None))
    return out


def query_key(q: tuple) -> str:
    return "|".join("" if v is None else str(v) for v in q)


def row_key(row: tuple) -> str:
    return f"{row[0]}|{row[1]}"


def sweep_grid_text(seed: int) -> str:
    return "\n".join(shuffled(SWEEP_GRID_LINES, seed)) + "\n"


# ----------------------------------------------------------------------------
# reference and checks
# ----------------------------------------------------------------------------

def load_reference() -> dict:
    ref = json.loads(REFERENCE.read_text())
    sweep = REFERENCE_SWEEP.read_bytes()
    if hashlib.sha256(sweep).hexdigest() != ref["sweep_sha256"]:
        raise ValueError(f"{REFERENCE_SWEEP.name} does not match its sha256 in "
                         f"{REFERENCE.name}")
    ref["sweep_lines"] = sweep.split(b"\n")
    return ref


def check_query(key: str, res: dict, ref: dict) -> list[str]:
    """Problems with one cross_validate result; empty when it is correct."""
    want = ref["radii"][key]
    probs = []
    for field in ("certifier", "real_axis"):
        if not abs(res[field] - want[field]) <= RADIUS_TOL:
            probs.append(f"{field} radius {res[field]!r} vs reference {want[field]!r}")
    delta = res["delta"]
    if key.split("|")[3].startswith("jan") and not delta <= CROSS_CHECK:
        probs.append(f"janowski delta {delta:.3e} > {CROSS_CHECK:g}")
    if res["finding"] != (delta > CROSS_CHECK):
        probs.append(f"finding present={res['finding']} with delta {delta:.3e}")
    if res["finding"] != want["finding"]:
        probs.append(f"finding present={res['finding']}, reference {want['finding']}")
    if key == query_key(("g", 1.0, 1.0, "jan_star", 1.0, -1.0)):
        if not abs(res["certifier"] - JAN_STAR_G11) <= JAN_STAR_G11_TOL:
            probs.append(f"G(1,1) jan_star(1,-1) radius {res['certifier']!r} "
                         f"is not {JAN_STAR_G11}")
    return probs


def check_zero_row(key: str, res: dict, ref: dict) -> list[str]:
    """Problems with one zero-table row; the product error itself is not one."""
    want = ref["zeros"][key]
    probs = []
    deep, shallow = res["zeros"], res["shallow"]
    if len(deep) != ZERO_DEPTH or len(shallow) != SHALLOW_DEPTH:
        return [f"table lengths {len(shallow)}, {len(deep)}"]
    worst = max(abs(a - b) for a, b in zip(deep + shallow, want + want[:SHALLOW_DEPTH]))
    if not worst <= ZERO_TOL:
        probs.append(f"zeros differ from reference by {worst:.3e}")
    if key == row_key((1.0, 1.0)):
        err = max(abs(a - b) for a, b in zip(deep, J0_HALF_ZEROS))
        if not err <= BESSEL_TOL:
            probs.append(f"(1,1) zeros differ from j0k/2 by {err:.3e}")
    if res["winding"] != [2 * k for k in range(1, SHALLOW_DEPTH)]:
        probs.append(f"winding counts {res['winding']}")
    errs = res["product_errors"]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        probs.append(f"product errors not decreasing in N: {errs}")
    return probs


def check_sweep(code: int, stdout: bytes, ref: dict) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, problems) of one sweep against the reference bytes."""
    want = ref["sweep_lines"]
    rows = len(want) - 2                  # header line and trailing newline
    got = stdout.split(b"\n")
    if code != 0:
        return rows, rows, [f"exit code {code}"]
    if len(got) != len(want) or got[0] != want[0]:
        return rows, rows, [f"{len(got)} lines against {len(want)}, or another header"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    return rows, len(bad), [f"row {i} differs: {got[i]!r}" for i in bad[:5]]


def percentile_with_support(samples, q: float):
    """q-quantile of samples, or None when fewer than PERCENTILE_SUPPORT lie above it."""
    n = len(samples)
    if n == 0 or math.floor(n * (1.0 - q)) < PERCENTILE_SUPPORT:
        return None
    s = sorted(samples)
    return s[min(n - 1, int(math.ceil(q * n)) - 1)]
