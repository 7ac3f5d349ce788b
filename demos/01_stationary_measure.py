"""Exact stationary analysis of a three-location network.

Builds the inventory-replenishment generator, solves the balance
equations, and prints everything the product form gives us: the inventory
measure, its marginals, and the per-queue geometric-tailed marginals.
"""
import numpy as np

from qinet import (
    NetworkConfig,
    ServiceRateProfile,
    build_reduced_generator,
    ergodicity_check,
    inventory_marginal,
    queue_marginal,
    solve_theta_exact,
)

config = NetworkConfig(
    lam=(1.0, 1.4, 0.8),
    mu=(
        ServiceRateProfile.constant(2.5),
        ServiceRateProfile(head=(1.0, 2.0), tail=3.0),  # slow start, fast tail
        ServiceRateProfile.constant(2.0),
    ),
    b=(2, 1, 2),
    nu=1.6,
)

report = ergodicity_check(config)
print("ergodic:", report.ergodic)
for diag in report.per_location:
    print(f"  location {diag.location}: rho_tail = {diag.rho_tail:.3f}")

gen = build_reduced_generator(config)
print(f"\ninventory state space: {gen.size} states")

theta = solve_theta_exact(gen)
residual = np.abs(theta.weights @ gen.rates).max()
print(f"balance residual: {residual:.2e}")

print("\nstationary inventory measure (k1, k2, k3, outstanding):")
for k in np.ndindex(theta.grid.shape):
    outstanding = sum(config.b) - sum(k)
    print(f"  {k + (outstanding,)}: {theta.grid[k]:.6f}")

print("\non-hand marginals:")
for j in (1, 2, 3):
    marg = inventory_marginal(theta, j)
    pretty = ", ".join(f"P(Y{j}={lvl}) = {p:.4f}" for lvl, p in enumerate(marg))
    print(f"  {pretty}")

print("\nqueue marginals (geometric tails):")
for j in (1, 2, 3):
    qm = queue_marginal(config, j)
    print(
        f"  location {j}: P(empty) = {qm.xi(0):.4f}, "
        f"mean queue length = {qm.mean_queue_length:.3f}"
    )
