"""Explicit stationary measure for unit base-stock levels.

With every ``b_j = 1`` the inventory measure has a closed form: the weight
of a state with on-hand vector k is

    prod_{l=0}^{(sum_j k_j) - 1} 1/(J - l)
      * prod_j (1/lam_j)^{k_j} * (1/nu)^{k_{J+1}}

(empty products are one).  Normalizing removes the arbitrary constant, so
the result is directly comparable with the exact solve.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .exact import ThetaMeasure
# enumerate_inventory_states is unused here; perfbench/spans.py traces this binding.
from .model import NetworkConfig, enumerate_inventory_states, method_inapplicable  # noqa: F401

__all__ = ["theta_unit_base_stock", "unit_base_stock_weights"]


def unit_base_stock_weights(config: NetworkConfig) -> np.ndarray:
    """Unnormalized closed-form weights in canonical state order."""
    reason = method_inapplicable(config, "closed")
    if reason:
        raise PreconditionError(reason)
    J = config.J
    # prefactor[s] = prod_{l=0}^{s-1} 1/(J-l), built up iteratively
    prefactor = np.ones(J + 1)
    for s in range(1, J + 1):
        prefactor[s] = prefactor[s - 1] / (J - (s - 1))

    # supplier[s] = (1/nu)^s by Python's pow, which numpy's vectorized power may not match
    supplier = np.array([(1.0 / config.nu) ** s for s in range(J + 1)])

    on_hand = np.indices([2] * J)  # on_hand[j] is k_{j+1} on the (2, ..., 2) grid
    stocked = on_hand.sum(axis=0)
    grid = prefactor[stocked]
    for kj, lamj in zip(on_hand, config.lam):
        grid = np.where(kj > 0, grid / lamj, grid)
    grid = grid * supplier[J - stocked]
    return grid.reshape(-1)


def theta_unit_base_stock(config: NetworkConfig) -> ThetaMeasure:
    """Normalized closed-form inventory measure (all ``b_j = 1``)."""
    weights = unit_base_stock_weights(config)
    return ThetaMeasure(
        grid=(weights / weights.sum()).reshape([2] * config.J),
        normalized=True,
        provenance="closed_form",
    )
