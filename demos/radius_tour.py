"""All four radii of one normalized function, by both methods.

The certifier bisects on the definition (boundary supremum of the region
functional reaching 1); the real-axis route solves a scalar equation
w(r) = c.  For Janowski targets with B <= 0 the two agree to solver
tolerance; for the lemniscate the real-axis constant only guarantees an
inscribed disk, and the routes legitimately disagree: that shows up as a
structured finding, not a silent pick.
"""
from __future__ import annotations

from wright_radii import (
    JanowskiParams,
    NormalizedKind,
    RadiusQuery,
    WrightParams,
    cross_validate,
    radius_real_axis,
)

KIND = NormalizedKind.G
P = WrightParams(1.0, 1.0)


def show(what: str, jp: JanowskiParams | None = None) -> None:
    q = RadiusQuery(KIND, P, what, jp)
    chk = cross_validate(q)
    tag = what if jp is None else f"{what} (A={jp.A}, B={jp.B})"
    print(f"{tag}")
    print(f"  certifier  {chk.certifier.radius:.12f}   "
          f"sup at radius {chk.certifier.sup_at_radius:.9f} "
          f"(argmax angle {chk.certifier.argmax_angle:.4f})")
    print(f"  real axis  {chk.real_axis.radius:.12f}   delta {chk.delta:.3e}")
    if chk.finding is not None:
        print(f"  finding: {chk.finding}")
    print()


def main() -> None:
    print(f"kind {KIND.value}, rho={P.rho}, beta={P.beta}\n")
    show("lem_star")
    show("lem_convex")
    show("jan_star", JanowskiParams(1.0, -1.0))
    show("jan_convex", JanowskiParams(1.0, -1.0))
    show("jan_star", JanowskiParams(0.5, -0.5))

    q = RadiusQuery(KIND, P, "jan_star", JanowskiParams(1.0, -1.0))
    ra = radius_real_axis(q)
    print("half-plane Re w > 0: w first vanishes on the real axis at")
    print(f"  r = {ra.radius:.12f}  -- the certified jan_star (1,-1) radius above")


if __name__ == "__main__":
    main()
