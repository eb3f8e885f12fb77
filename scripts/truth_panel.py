"""Recompute the truth panel's radii in mpmath, apart from the double kernel.

    python3 scripts/truth_panel.py        (from the root of a checkout; ~2 s)

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
"""
from __future__ import annotations

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


def main() -> int:
    mp.mp.dps = DPS
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
