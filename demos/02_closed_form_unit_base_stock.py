"""Closed-form inventory measure when every base-stock level is one.

With b_j = 1 everywhere, each weight is an explicit product over the
stocked locations; no linear algebra needed.  The demo evaluates the
formula for five locations and confirms it against the exact solve.
"""
import numpy as np

from qinet import (
    NetworkConfig,
    ServiceRateProfile,
    build_reduced_generator,
    solve_theta_exact,
    theta_unit_base_stock,
    total_variation,
    unit_base_stock_weights,
)

J = 5
config = NetworkConfig(
    lam=(0.6, 1.0, 1.7, 0.9, 1.2),
    mu=tuple(ServiceRateProfile.constant(4.0) for _ in range(J)),
    b=(1,) * J,
    nu=1.3,
)

raw = unit_base_stock_weights(config)
theta = theta_unit_base_stock(config)
print(f"{2**J} states, raw weight range [{raw.min():.3e}, {raw.max():.3e}]")

exact = solve_theta_exact(build_reduced_generator(config))
print(f"TV(closed form, exact solve) = {total_variation(theta, exact):.2e}")

print("\nmost and least likely inventory patterns:")
order = np.argsort(theta.weights)
for idx in (*order[-3:][::-1], *order[:2]):
    on_hand = tuple(int(k) for k in np.unravel_index(idx, theta.grid.shape))
    print(f"  on-hand {on_hand}  outstanding {J - sum(on_hand)}: "
          f"{theta.weights[idx]:.5f}")

# The total stock on hand follows from the same product structure.
stocked = np.indices(theta.grid.shape).sum(axis=0)
by_total = np.bincount(stocked.reshape(-1), weights=theta.weights)
print("\ndistribution of the total on-hand stock:")
for total, p in enumerate(by_total):
    print(f"  {total} unit(s): {p:.4f}")
