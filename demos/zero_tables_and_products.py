"""Zero tables, interlacing, and Hadamard partial products.

The base functions are entire of order below one, so they factor over their
real zeros.  Truncating that product gives a cheap polynomial surrogate whose
defect is controlled by the tail of sum 1/lambda_n^2; the sum itself has the
closed form Gamma(beta)/Gamma(rho+beta), which the table must approach from
below.
"""
from __future__ import annotations

import math

from wright_radii import (
    NormalizedKind,
    WrightParams,
    base_eval,
    count_zeros_in_disk,
    derivative_positive_zeros,
    hadamard_partial_product,
    positive_zeros,
    reciprocal_square_sum,
)


def main() -> None:
    p = WrightParams(0.5, 1.5)

    table = positive_zeros(p, "minus_z_squared", 60)
    deriv = derivative_positive_zeros(NormalizedKind.G, p, 4)
    print(f"rho={p.rho}, beta={p.beta}: first zeros of g and g'")
    print("  g : " + "  ".join(f"{x:.8f}" for x in table.zeros[:4]))
    print("  g': " + "  ".join(f"{x:.8f}" for x in deriv.zeros))
    print("  (one derivative zero before each base zero: interlacing)")

    print()
    print("argument-principle counts around the even base (zeros at +-lambda_n)")
    for k in range(1, 4):
        mid = 0.5 * (table.zeros[k - 1] + table.zeros[k])
        n = count_zeros_in_disk(p, "minus_z_squared", mid)
        print(f"  |z| < {mid:8.5f}: {n} zeros (expected {2 * k})")

    print()
    print("partial products against the base at z = 0.6 lambda_1")
    z = 0.6 * table.zeros[0]
    phi = base_eval(p, z).value.real
    print(f"  base value {phi:.12f}")
    for n in (5, 10, 20, 40, 60):
        prod = hadamard_partial_product(table, z, n).real
        print(f"  N={n:3d}: product {prod:.12f}   error {abs(prod - phi):.3e}")
    print("  (errors shrink slowly: the tail decays like a small power of N)")

    print()
    limit = math.exp(math.lgamma(p.beta) - math.lgamma(p.rho + p.beta))
    print(f"sum of 1/lambda_n^2 versus Gamma(beta)/Gamma(rho+beta) = {limit:.10f}")
    for n in (10, 30, 60):
        s = reciprocal_square_sum(table, n)
        print(f"  N={n:3d}: {s:.10f}   gap {limit - s:.3e}")


if __name__ == "__main__":
    main()
