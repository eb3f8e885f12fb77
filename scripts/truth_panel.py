"""Recompute the truth panel's radii in mpmath, apart from the double kernel.

    python3 scripts/truth_panel.py          (from the root of a checkout; ~2 s)
    python3 scripts/truth_panel.py --probe  (~100 s)

For each entry of PANEL in tests/test_truth_panel.py (Janowski targets with
B <= 0, where the radius is the real-axis crossing) this sums
W(rho, beta + k rho; u) = sum_n u^n / (n! Gamma(rho n + beta + k rho)) at
DPS digits and passes the values to the package's formulas, family._starlike
and family._convex, which take mpf values as well as doubles.  So the check
shares the formulas but not the kernel's tails or rounding.  The first sign
change of v(r) - c, c = (1 - A)/(1 - B), is bracketed by a geometric scan up
from r = SCAN_START, not from the stored value, and then solved at DPS
digits.  Prints each root to 17 digits beside the stored truth, and exits 1
if any stored truth is off by more than MAX_REL relative.

--probe computes the same roots for the PROBE_* grid of Janowski queries
instead and writes them, each rounded to a double (17 significant digits),
to tests/probe_truths.json, which tests/test_probe.py reads.  If that file
exists, it first prints the largest relative move of a stored truth and
exits 1 if one moved by more than MAX_REL or the file holds another grid,
leaving the file as it was (delete it to write a new grid).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_truth_panel import PANEL, _label  # noqa: E402
from wright_radii.family import NormalizedKind, _convex, _starlike  # noqa: E402

DPS = 80
SCAN_START = 1e-3
SCAN_FACTOR = 1.02     # small against the gap from each panel root to the next pole
MAX_REL = 1e-12
PROBE_FILE = ROOT / "tests" / "probe_truths.json"
PROBE_KINDS = ("f", "g", "h")
PROBE_RHO = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
PROBE_BETA = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0)
PROBE_WHAT = ("jan_star", "jan_convex")
PROBE_PAIRS = ((1.0, -1.0), (0.5, -0.5))


class _Series:
    """W(rho, b; u) by its power series, its coefficients kept as they grow.

    The terms' moduli rise and then fall (log Gamma is convex), so the sum
    stops at the first term below 10^-(DPS + 10) of the largest one."""

    def __init__(self, rho: mp.mpf, b: mp.mpf):
        self.rho, self.b = rho, b
        self.coef: list[mp.mpf] = []

    def __call__(self, u: mp.mpf) -> mp.mpf:
        eps = mp.mpf(10) ** -(DPS + 10)
        total, largest, power, n = mp.mpf(0), mp.mpf(0), mp.mpf(1), 0
        while True:
            if n == len(self.coef):
                self.coef.append(mp.rgamma(n + 1) * mp.rgamma(self.rho * n + self.b))
            term = self.coef[n] * power
            total += term
            largest = max(largest, abs(term))
            if n > 0 and abs(term) < eps * largest:
                return total
            power *= u
            n += 1


def truth(entry) -> mp.mpf:
    """The smallest positive root of v(r) = c for one panel entry."""
    kind_token, rho, beta, what, (A, B), _ = entry
    kind = NormalizedKind.from_string(kind_token)
    rho, beta = mp.mpf(rho), mp.mpf(beta)
    star = what.endswith("_star")
    functional = _starlike if star else _convex
    series = [_Series(rho, beta + k * rho) for k in range(2 if star else 3)]
    c = (1 - mp.mpf(A)) / (1 - mp.mpf(B))

    def excess(r) -> mp.mpf:
        z = mp.mpf(r)
        u = -z if kind is NormalizedKind.H else -z * z
        return functional(kind, beta, z, [w(u) for w in series]) - c

    a = mp.mpf(SCAN_START)
    if not excess(a) > 0:
        raise SystemExit(f"{_label(entry)}: v - c is not positive at r = {a}")
    b = a * SCAN_FACTOR
    while excess(b) > 0:
        a, b = b, b * SCAN_FACTOR
    root = mp.findroot(excess, (a, b), solver="anderson")
    if not a <= root <= b:
        raise SystemExit(f"{_label(entry)}: root {root} left its bracket [{a}, {b}]")
    return root


def probe() -> int:
    """Write the probe's truths, or exit 1 if one moved from the stored file."""
    t0 = time.perf_counter()
    queries = [[kind, rho, beta, what, list(pair)]
               for kind in PROBE_KINDS for rho in PROBE_RHO for beta in PROBE_BETA
               for what in PROBE_WHAT for pair in PROBE_PAIRS]
    for q in queries:
        q.append(float(truth(q + [None])))
    print(f"{len(queries)} truths at {DPS} digits in {time.perf_counter() - t0:.0f} s")
    if PROBE_FILE.exists():
        stored = json.loads(PROBE_FILE.read_text())["queries"]
        if [q[:-1] for q in stored] != [q[:-1] for q in queries]:
            print(f"{PROBE_FILE.name} holds other queries")
            return 1
        worst = max(abs(a[-1] - b[-1]) / b[-1] for a, b in zip(stored, queries))
        print(f"largest relative move from {PROBE_FILE.name}: {worst:.1e}")
        if worst > MAX_REL:
            return 1
    lines = ",\n".join(json.dumps(q) for q in queries)
    PROBE_FILE.write_text(
        '{"about": "the truths of tests/test_probe.py, each the real-axis root '
        f'at {DPS} digits from scripts/truth_panel.py --probe; '
        'a query is [kind, rho, beta, what, [A, B], truth]",\n'
        f'"queries": [\n{lines}\n]}}\n')
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probe", action="store_true",
                    help=f"compute the probe grid's truths into {PROBE_FILE.name}")
    args = ap.parse_args()
    mp.mp.dps = DPS
    if args.probe:
        return probe()
    ok = True
    for entry in PANEL:
        t0 = time.perf_counter()
        root = truth(entry)
        seconds = time.perf_counter() - t0
        stored = entry[-1]
        rel = abs(root - stored) / root
        ok = ok and rel <= MAX_REL
        print(f"{_label(entry):28} {mp.nstr(root, 17):>20}  stored {stored!r:20} "
              f"rel diff {float(rel):.1e}  {seconds:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
