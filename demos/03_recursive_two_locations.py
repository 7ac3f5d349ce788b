"""Recursive elimination for two heterogeneous locations.

For J = 2 with both base stocks above one, the stationary inventory
measure follows from sweeping the (k1, k2) grid with single balance
equations: seed one corner, express each new entry through one equation,
and close each sweep by solving for the one unknown it introduced.  No
matrix factorization anywhere; the demo cross-checks against the direct
linear-algebra solve.
"""
import numpy as np

from qinet import (
    NetworkConfig,
    ServiceRateProfile,
    build_reduced_generator,
    solve_theta_exact,
    solve_theta_recursive,
    total_variation,
)

config = NetworkConfig(
    lam=(1.2, 0.7),
    mu=(ServiceRateProfile.constant(3.0), ServiceRateProfile.constant(2.0)),
    b=(4, 2),
    nu=1.5,
)

rec = solve_theta_recursive(config)
exact = solve_theta_exact(build_reduced_generator(config))
print(f"TV(recursive, exact) = {total_variation(rec, exact):.2e}")

b1, b2 = config.b
grid = rec.grid

print(f"\ntheta on the (k1, k2) grid, k1 rows 0..{b1}, k2 columns 0..{b2}:")
for k1 in range(b1 + 1):
    print("  " + "  ".join(f"{grid[k1, k2]:.5f}" for k2 in range(b2 + 1)))

# The deficit-priority policy shows up as geometric decay of the
# location-1 marginal below the point where the two deficits can tie.
marg1 = grid.sum(axis=1)
print("\nP(Y1 = l):", np.round(marg1, 5))
print("ratios P(Y1=l)/P(Y1=l-1):", np.round(marg1[1:] / marg1[:-1], 5))
print(f"nu/lam1 = {config.nu / config.lam[0]:.5f} "
      f"(the ratio on levels 1..{b1 - b2})")
