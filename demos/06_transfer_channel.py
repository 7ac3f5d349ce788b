"""Two homogeneous locations connected by a lateral transfer channel.

When the stock levels differ by two or more, the channel moves one unit
from the richer to the poorer location at rate beta.  The demo sweeps
beta and watches the stationary measure concentrate on balanced
inventory patterns while staying exchangeable.
"""
import numpy as np

from qinet import (
    NetworkConfig,
    ServiceRateProfile,
    build_reduced_generator,
    check_symmetry,
    solve_theta_exact,
)


def config_with(beta):
    return NetworkConfig(
        lam=(1.0, 1.0),
        mu=(ServiceRateProfile.constant(2.5),) * 2,
        b=(3, 3),
        nu=1.2,
        transfer_beta=beta,
    )


print("beta   P(|k1-k2| >= 2)   P(balanced)   symmetry residual")
for beta in (0.0, 0.5, 2.0, 10.0):
    config = config_with(beta)
    theta = solve_theta_exact(build_reduced_generator(config))
    k1, k2 = np.indices(theta.grid.shape)
    spread = theta.grid[abs(k1 - k2) >= 2].sum()
    balanced = np.trace(theta.grid)
    sym = check_symmetry(theta, config)
    print(f"{beta:>4.1f}   {spread:>14.4f}   {balanced:>11.4f}   {sym:.2e}")

print("\nbeta = 0 reproduces the base model exactly:")
base = NetworkConfig(
    lam=(1.0, 1.0), mu=(ServiceRateProfile.constant(2.5),) * 2, b=(3, 3), nu=1.2
)
t0 = solve_theta_exact(build_reduced_generator(config_with(0.0)))
tb = solve_theta_exact(build_reduced_generator(base))
print("  identical weights:", bool(np.array_equal(t0.weights, tb.weights)))
