"""Transition structure of the inventory chain and its reduced generator.

The inventory-replenishment subsystem alone is a finite continuous-time
Markov chain on the state space K.  Its generator ("reduced generator")
has two transition families:

* consumption  ``k -> k - e_i + e_{J+1}`` at rate ``lam_i`` while ``k_i > 0``,
* replenishment ``k -> k + e_i - e_{J+1}`` at rate ``nu * p_i(k)`` while
  ``k_i < b_i``,

plus, when the two-location transfer channel is enabled, lateral moves
``k -> k - e_i + e_j`` at rate ``beta`` whenever ``k_i - k_j >= 2``.

Each move changes the total on-hand stock ``L = sum_j k_j`` ("level") by
one, or leaves it alone (a transfer), so the generator is
block-tridiagonal by level.  :class:`ReducedGenerator` holds it that way:
one dense block per level and neighbouring level, and no ``n x n`` array.

``_transition_arrays`` writes these families down once, as COO arrays.
The level blocks, the simulator's rate tables (which add the queues), the
recursive solver's balance terms and the residuals are all derived from
it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, PreconditionError, ReducibilityError
from .model import (DENSE_BYTES_CAP, InventoryState, NetworkConfig, _on_hand_rows,
                    enumerate_inventory_states, method_inapplicable)

__all__ = ["ReducedGenerator", "balance_residual", "build_reduced_generator",
           "componentwise_residual"]


@dataclass(frozen=True, eq=False)
class ReducedGenerator:
    """The reduced generator over the inventory box of base stocks ``b``.

    ``src``, ``dst`` and ``rate`` list every off-diagonal transition (COO,
    canonical state indices); the diagonal is implied.  Construction checks
    the arrays: indices inside the box, finite non-negative rates, steps of
    at most one level, and a strongly connected positive-rate graph
    (:class:`ReducibilityError` otherwise), so every instance has a unique
    stationary measure.  It then lays the rates out as level blocks:

    * ``order[p]`` is the canonical index of the state at level-ordered
      position ``p`` (levels ascending, canonical order inside a level);
    * ``levels[L]`` is ``(same, up, down, down_sum)``: the rates from level
      ``L`` to ``L``, ``L + 1`` and ``L - 1`` as dense blocks, and the
      row sums of ``down``.

    ``rates`` is the dense matrix (diagonal = minus the row sums), built on
    first read and refused above ``DENSE_BYTES_CAP``.  ``states`` holds one
    record per row of :func:`enumerate_inventory_states`, built on each read.
    """

    b: tuple[int, ...]
    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    levels: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.size
        src, dst = np.asarray(self.src, dtype=np.int64), np.asarray(self.dst, dtype=np.int64)
        rate = np.asarray(self.rate, dtype=float)
        if not src.shape == dst.shape == rate.shape or src.ndim != 1:
            raise ConfigError("src, dst and rate must be 1-d arrays of one length")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ConfigError(f"transition indices must lie in 0..{n - 1}")
        if not np.isfinite(rate).all():
            raise ConfigError("rates must be finite")
        if rate.min(initial=0.0) < 0:
            raise ConfigError("off-diagonal rates must be non-negative")
        level = _on_hand_rows(self.b).sum(axis=1)
        step = level[dst] - level[src]
        if np.abs(step).max(initial=0) > 1:
            raise ConfigError("a transition may change the total on-hand stock by at most one")
        live = rate > 0
        _assert_strongly_connected(n, src[live], dst[live], rate[live])
        for name, value in (("src", src), ("dst", dst), ("rate", rate)):
            object.__setattr__(self, name, value)

        # Block (kind, L) holds the rates from level L to level L + kind - 1.
        m = np.bincount(level)
        order = np.argsort(level, kind="stable")
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n) - np.repeat(np.cumsum(m) - m, m)
        cols = np.zeros((3, m.size), dtype=np.int64)
        cols[0, 1:], cols[1], cols[2, :-1] = m[:-1], m, m[1:]
        sizes = m * cols
        offsets = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
        kind, lsrc = step + 1, level[src]
        flat = offsets[kind, lsrc] + pos[src] * cols[kind, lsrc] + pos[dst]
        buf = np.bincount(flat, weights=rate, minlength=int(sizes.sum()))

        def block(k, L):
            return buf[offsets[k, L]:offsets[k, L] + sizes[k, L]].reshape(m[L], cols[k, L])

        levels = []
        for L in range(m.size):
            down = block(0, L)
            levels.append((block(1, L), block(2, L), down, down.sum(axis=1)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def size(self) -> int:
        return math.prod(bj + 1 for bj in self.b)

    @property
    def states(self) -> tuple[InventoryState, ...]:
        return tuple(InventoryState(tuple(k)) for k in enumerate_inventory_states(self.b).tolist())

    @functools.cached_property
    def rates(self) -> np.ndarray:
        n = self.size
        if 8 * n * n > DENSE_BYTES_CAP:
            raise PreconditionError(f"a dense rate matrix of {n} states needs {8 * n * n} bytes; "
                                    f"the cap is {DENSE_BYTES_CAP} bytes")
        Q = np.bincount(self.src * n + self.dst, weights=self.rate, minlength=n * n).reshape(n, n)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q


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


def balance_flows(src, dst, rate, weights) -> tuple[np.ndarray, np.ndarray]:
    """Per state, its total outflow rate ``q_i`` and its net inflow ``(weights @ Q)_i``."""
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    outflow = np.bincount(src, weights=rate, minlength=n)
    net = np.bincount(dst, weights=weights[src] * rate, minlength=n) - weights * outflow
    return outflow, net


def relative_imbalance(outflow, net, weights) -> np.ndarray:
    """``|(wQ)_i| / (w_i q_i)`` per state: ``inf`` where that is undefined (a zero weight)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        imbalance = np.abs(net) / (weights * outflow)
    return np.where(np.isnan(imbalance), np.inf, imbalance)


def balance_residual(config: NetworkConfig, weights) -> float:
    """Largest ``|weights @ Q|`` entry relative to the largest total outflow rate of ``Q``.

    ``Q`` is the reduced generator, applied straight from the transition
    arrays; no dense matrix is formed.
    """
    src, dst, rate, _ = _transition_arrays(config)
    outflow, net = balance_flows(src, dst, rate, weights)
    return float(np.abs(net).max() / max(outflow.max(), 1.0))


def componentwise_residual(config: NetworkConfig, weights) -> float:
    """Largest relative imbalance ``|(wQ)_i| / (w_i q_i)`` of one state's own balance equation.

    ``q_i`` is state ``i``'s total outflow rate.  Since ``w_i q_i`` never
    exceeds the largest outflow rate, this is never below
    :func:`balance_residual`, and unlike it, it sees an error in the small
    weights.  A zero weight reads ``inf``.
    """
    src, dst, rate, _ = _transition_arrays(config)
    weights = np.asarray(weights, dtype=float)
    return float(relative_imbalance(*balance_flows(src, dst, rate, weights), weights).max())


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

    A box whose level blocks exceed ``DENSE_BYTES_CAP`` raises
    :class:`PreconditionError` before anything is allocated.
    Irreducibility cannot fail for a valid config, but
    :class:`ReducedGenerator` checks it rather than assuming it.
    """
    if (reason := method_inapplicable(config, "exact")) is not None:
        raise PreconditionError(reason)
    src, dst, rate, _ = _transition_arrays(config)
    return ReducedGenerator(b=config.b, src=src, dst=dst, rate=rate)
