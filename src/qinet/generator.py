"""Transition structure of the inventory chain and its reduced generator.

The inventory-replenishment subsystem alone is a finite continuous-time
Markov chain on the state space K.  Its generator ("reduced generator")
has two transition families:

* consumption  ``k -> k - e_i + e_{J+1}`` at rate ``lam_i`` while ``k_i > 0``,
* replenishment ``k -> k + e_i - e_{J+1}`` at rate ``nu * p_i(k)`` while
  ``k_i < b_i``,

plus, when the two-location transfer channel is enabled, lateral moves
``k -> k - e_i + e_j`` at rate ``beta`` whenever ``k_i - k_j >= 2``.

``_transition_arrays`` writes these families down once, as COO arrays.
The dense generator, the simulator's rate tables (which add the queues),
the recursive solver's balance terms and :func:`balance_residual` are all
derived from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, PreconditionError, ReducibilityError
from .model import (InventoryState, NetworkConfig, _on_hand_rows, enumerate_inventory_states,
                    method_inapplicable)

__all__ = ["ReducedGenerator", "balance_residual", "build_reduced_generator"]

# Conservativeness tolerance for row sums, relative to the largest rate.
ROW_SUM_RTOL = 1e-12


@dataclass(frozen=True)
class ReducedGenerator:
    """Dense rate matrix over the inventory box of base stocks ``b``.

    ``rates[r, c]`` is the transition rate from ``states[r]`` to
    ``states[c]`` (canonical order); diagonal entries are the negated row
    sums.  ``states`` holds one record per row of
    :func:`enumerate_inventory_states`, built on each read.  Construction
    checks that the matrix is a conservative generator whose positive-rate
    graph is strongly connected, so every instance has a unique stationary
    measure; :class:`ReducibilityError` is raised otherwise.
    """

    b: tuple[int, ...]
    rates: np.ndarray

    def __post_init__(self):
        n = self.size
        if self.rates.shape != (n, n):
            raise ConfigError("rate matrix shape must match the state count")
        # Zero entries are finite and carry no edge: the nonzero entries alone
        # decide the sign, finiteness, scale and graph checks.
        rows, cols = np.nonzero(self.rates)
        values = self.rates[rows, cols]
        off = rows != cols
        if values[off].min(initial=0.0) < 0:  # NaN propagates to the finite check
            raise ConfigError("off-diagonal rates must be non-negative")
        if not np.isfinite(values).all():
            raise ConfigError("rates must be finite")
        scale = max(np.abs(values).max(initial=0.0), 1.0)
        if np.abs(self.rates.sum(axis=1)).max() > ROW_SUM_RTOL * scale:
            raise ConfigError("generator rows must sum to zero")
        _assert_strongly_connected(n, rows[off], cols[off], values[off])

    @property
    def size(self) -> int:
        return math.prod(bj + 1 for bj in self.b)

    @property
    def states(self) -> tuple[InventoryState, ...]:
        return tuple(InventoryState(tuple(k)) for k in enumerate_inventory_states(self.b).tolist())


def _transition_arrays(config: NetworkConfig):
    """COO arrays ``(src, dst, rate, family)`` of every off-diagonal transition.

    States are canonical indices.  ``family`` is ``i`` for consumption at
    location ``i`` (0-based), ``J + i`` for replenishment routed to ``i``
    and ``2J`` for the transfer channel.  Edges are ordered by source
    state, then by family; every rate is positive.
    """
    b = np.asarray(config.b)
    J = config.J
    levels = _on_hand_rows(b)
    strides = np.ones(J, dtype=np.int64)
    for j in range(J - 2, -1, -1):
        strides[j] = strides[j + 1] * (b[j + 1] + 1)

    deficits = b[None, :] - levels
    top = deficits.max(axis=1)
    winners = deficits == top[:, None]
    probs = winners / winners.sum(axis=1, keepdims=True)

    src, dst, rate, family = [], [], [], []

    def add(mask, step, rates, fam):
        rows = np.flatnonzero(mask)
        src.append(rows)
        dst.append(rows + step)
        rate.append(np.broadcast_to(rates, rows.shape))
        family.append(np.full(rows.size, fam))

    for i in range(J):
        add(levels[:, i] > 0, -strides[i], config.lam[i], i)
    for i in range(J):
        active = (deficits[:, i] > 0) & (probs[:, i] > 0)
        add(active, strides[i], config.nu * probs[active, i], J + i)
    if config.has_transfer:
        # Two homogeneous locations only (enforced by NetworkConfig): the
        # channel drains the richer location while the gap is >= 2.
        for i, j in ((0, 1), (1, 0)):
            gap = levels[:, i] - levels[:, j] >= 2
            add(gap, strides[j] - strides[i], config.transfer_beta, 2 * J)

    order = np.argsort(np.concatenate(src), kind="stable")
    return tuple(np.concatenate(a)[order] for a in (src, dst, rate, family))


def balance_residual(config: NetworkConfig, weights) -> float:
    """Largest ``|weights @ Q|`` entry relative to the largest rate of ``Q``.

    ``Q`` is the reduced generator, applied straight from the transition
    arrays; no dense matrix is formed.
    """
    src, dst, rate, _ = _transition_arrays(config)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    outflow = np.bincount(src, weights=rate, minlength=n)
    flux = np.bincount(dst, weights=weights[src] * rate, minlength=n) - weights * outflow
    return float(np.abs(flux).max() / max(outflow.max(), 1.0))


def _assert_strongly_connected(n: int, rows, cols, rates) -> None:
    graph = coo_matrix((rates, (rows, cols)), shape=(n, n))
    ncomp, _ = connected_components(graph, directed=True, connection="strong")
    if ncomp != 1:
        raise ReducibilityError(
            f"transition graph splits into {ncomp} strongly connected components; "
            "the policy/config pair does not define an irreducible chain on K"
        )


def build_reduced_generator(config: NetworkConfig) -> ReducedGenerator:
    """Build the reduced generator for ``config``.

    A box too large for a dense solve raises :class:`PreconditionError`
    before anything is allocated.  Irreducibility cannot fail for a valid
    config, but :class:`ReducedGenerator` checks it rather than assuming it.
    """
    if (reason := method_inapplicable(config, "exact")) is not None:
        raise PreconditionError(reason)
    n = math.prod(bj + 1 for bj in config.b)
    rows, cols, rates, _ = _transition_arrays(config)
    Q = np.zeros((n, n))
    np.add.at(Q, (rows, cols), rates)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return ReducedGenerator(b=config.b, rates=Q)
