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
from .model import NetworkConfig, enumerate_inventory_states, method_inapplicable

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

    states = enumerate_inventory_states(config.b)
    weights = np.empty(len(states))
    for i, state in enumerate(states):
        w = prefactor[sum(state.on_hand)]
        for kj, lamj in zip(state.on_hand, config.lam):
            if kj:
                w /= lamj
        weights[i] = w * (1.0 / config.nu) ** state.outstanding
    return weights


def theta_unit_base_stock(config: NetworkConfig) -> ThetaMeasure:
    """Normalized closed-form inventory measure (all ``b_j = 1``)."""
    weights = unit_base_stock_weights(config)
    return ThetaMeasure(
        states=enumerate_inventory_states(config.b),
        weights=weights / weights.sum(),
        normalized=True,
        provenance="closed_form",
    )
