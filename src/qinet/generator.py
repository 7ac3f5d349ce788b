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
block-tridiagonal by level.  :class:`ReducedGenerator` keeps its edges
grouped by level and writes one level's dense blocks on request; it stores
no block, and no ``n x n`` array unless ``rates`` is read.

``_move_table`` writes these moves down once, as one row of fixed columns
per state, rate 0 where a move is absent.  The simulator's rate tables
(which add the queues) read its columns; ``_transition_arrays``, its
non-zero entries as COO arrays, feeds the level blocks, the recursive
solver's balance terms and the residuals.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .model import (DENSE_BYTES_CAP, InventoryState, NetworkConfig, _on_hand_rows,
                    enumerate_inventory_states, method_inapplicable)

__all__ = ["ReducedGenerator", "balance_residuals", "build_reduced_generator"]


@dataclass(frozen=True, eq=False)
class ReducedGenerator:
    """The reduced generator of ``config``'s inventory chain, built from the config alone.

    ``src``, ``dst`` and ``rate`` list every off-diagonal transition (COO,
    canonical state indices) as :func:`_transition_arrays` writes them; the
    diagonal is implied, and ``outflow`` holds each state's total outflow
    rate.  Every such chain is irreducible (replenishment fills any state
    up to ``b``, consumption then reaches every state below it), and every
    move changes the level by at most one; a property test checks both, so
    construction does not.  A box whose level blocks and level loop exceed
    ``DENSE_BYTES_CAP`` raises :class:`PreconditionError` before anything
    is allocated.  The rates are grouped by level:

    * ``order[p]`` is the canonical index of the state at level-ordered
      position ``p`` (levels ascending, canonical order inside a level);
    * ``sizes[L]`` is the number of states at level ``L``;
    * :meth:`level_blocks` writes out, on request, the dense blocks between
      level ``L`` and the level below.  Only the edges are kept: no block is
      stored.

    ``rates`` is the dense matrix (diagonal = minus the row sums), built on
    first read and refused above ``DENSE_BYTES_CAP``.  ``states`` holds one
    record per row of :func:`enumerate_inventory_states`, built on each read.
    """

    config: NetworkConfig
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)
    rate: np.ndarray = field(init=False, repr=False)
    outflow: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    sizes: tuple = field(init=False, repr=False)
    _edges: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if (reason := method_inapplicable(self.config, "exact")) is not None:
            raise PreconditionError(reason)
        src, dst, rate = _transition_arrays(self.config)[:3]
        n = self.size
        level = _on_hand_rows(self.b).sum(axis=1)
        m = np.bincount(level)
        order = np.argsort(level, kind="stable")
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n) - np.repeat(np.cumsum(m) - m, m)

        # An edge belongs to the higher of its two levels L, whose elimination
        # reads it: down_L (m_L x m_{L-1}), same_L (m_L x m_L) or up_{L-1}
        # (m_{L-1} x m_L).  Each block keeps its edges' row-major positions
        # and rates.  The edge-sized temporaries are dropped as soon as used.
        lsrc, ldst = level[src], level[dst]
        key = 3 * np.maximum(lsrc, ldst) + (ldst - lsrc + 1)  # 3 L + (0 down, 1 same, 2 up)
        flat = pos[src] * m[ldst] + pos[dst]
        del lsrc, ldst
        by_key = np.argsort(key, kind="stable")
        bounds = [0] + np.cumsum(np.bincount(key, minlength=3 * m.size)).tolist()
        del key
        flat, rate_by_key = flat[by_key], rate[by_key]
        sizes = m.tolist()
        edges = []
        for L, (m_L, below) in enumerate(zip(sizes, [0] + sizes[:-1])):
            down, same, up, end = bounds[3 * L:3 * L + 4]
            edges.append((m_L, below, flat[down:same], rate_by_key[down:same], flat[up:end],
                          rate_by_key[up:end], (flat[same:up], rate_by_key[same:up]) if up > same else None))
        for name, value in (("src", src), ("dst", dst), ("rate", rate),
                            ("outflow", np.bincount(src, weights=rate, minlength=n)),
                            ("order", order), ("sizes", tuple(sizes)), ("_edges", tuple(edges))):
            object.__setattr__(self, name, value)

    def level_blocks(self, L: int):
        """Dense rates ``(same, down, up)`` between level ``L`` and level ``L - 1``.

        ``same`` is from level ``L`` to itself (``None`` where level ``L``
        has no same-level edge), ``down`` from ``L`` to ``L - 1`` and ``up``
        from ``L - 1`` to ``L``; rows and columns are in level order (see
        ``order``).  Each call writes new arrays.
        """
        m, below, down_flat, down_rate, up_flat, up_rate, same = self._edges[L]
        return (None if same is None else _dense(m, m, *same),
                _dense(m, below, down_flat, down_rate), _dense(below, m, up_flat, up_rate))

    @property
    def b(self) -> tuple[int, ...]:
        return self.config.b

    @functools.cached_property
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
        Q = np.bincount(self.src * n + self.dst, weights=self.rate, minlength=n * n)
        Q[:: n + 1] = -np.add.reduce(Q.reshape(n, n), 1)
        return Q.reshape(n, n)


def _dense(rows: int, cols: int, flat, rate) -> np.ndarray:
    """A ``rows x cols`` block of zeros with ``rate`` at row-major positions ``flat``."""
    block = np.zeros((rows, cols))
    block.ravel()[flat] = rate
    return block


def _move_table(config: NetworkConfig):
    """Every state's rate on a fixed move list: ``(rates, steps)``.

    ``rates`` is ``(n, M)`` over canonical states.  Its columns are
    consumption at each location, replenishment routed to each location
    and, when the transfer channel is on, a transfer from location 1 to 2
    and from 2 to 1.  A move absent from a state has rate 0.  Move ``m``
    takes canonical index ``k`` to ``k + steps[m]``.
    """
    b = np.asarray(config.b)
    J = config.J
    levels = _on_hand_rows(b)
    strides = np.ones(J, dtype=np.int64)
    for j in range(J - 2, -1, -1):
        strides[j] = strides[j + 1] * (b[j + 1] + 1)

    deficits = b[None, :] - levels
    winners = deficits == deficits.max(axis=1)[:, None]
    probs = winners / winners.sum(axis=1, keepdims=True)
    columns = [np.where(levels > 0, np.asarray(config.lam), 0.0),
               np.where(deficits > 0, config.nu * probs, 0.0)]
    steps = [-strides, strides]
    if config.has_transfer:
        # Two homogeneous locations only (enforced by NetworkConfig): the
        # channel drains the richer location while the gap is >= 2.
        gap = levels[:, 0] - levels[:, 1]
        columns.append(np.where(np.stack([gap >= 2, gap <= -2], axis=1), config.transfer_beta, 0.0))
        steps.append(np.array([1, -1]) * (strides[1] - strides[0]))
    return np.hstack(columns), np.concatenate(steps)


def _transition_arrays(config: NetworkConfig):
    """COO arrays ``(src, dst, rate, family)`` of every off-diagonal transition.

    The non-zero entries of :func:`_move_table`, row by row.  States are
    canonical indices.  ``family`` is ``i`` for consumption at location
    ``i`` (0-based), ``J + i`` for replenishment routed to ``i`` and ``2J``
    for the transfer channel.  Edges are ordered by source state, then by
    family; every rate is positive.
    """
    rates, steps = _move_table(config)
    src, move = np.nonzero(rates)
    return src, src + steps[move], rates[src, move], np.minimum(move, 2 * config.J)


def net_inflow(src, dst, rate, outflow, weights) -> np.ndarray:
    """Per state, its net inflow ``(weights @ Q)_i``, where ``outflow`` holds its total outflow rate."""
    return np.bincount(dst, weights=weights[src] * rate, minlength=weights.size) - weights * outflow


def relative_imbalance(outflow, net, weights) -> np.ndarray:
    """``|(wQ)_i| / (w_i q_i)`` per state: ``inf`` where that is undefined (a zero weight)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        imbalance = np.abs(net) / (weights * outflow)
    return np.where(np.isnan(imbalance), np.inf, imbalance)


def balance_residuals(config: NetworkConfig, weights) -> tuple[float, float]:
    """The balance and componentwise residuals of ``weights`` under the reduced generator ``Q``.

    * The balance residual is the largest ``|weights @ Q|`` entry relative
      to the largest total outflow rate of ``Q`` (floored at 1).
    * The componentwise residual is the largest relative imbalance
      ``|(wQ)_i| / (w_i q_i)`` of one state's own balance equation, where
      ``q_i`` is state ``i``'s total outflow rate.  Since ``w_i q_i`` never
      exceeds the largest outflow rate, it is never below the balance
      residual, and unlike it, it sees an error in the small weights.  A
      zero weight reads ``inf``.

    One pass over the transition arrays serves both; ``Q`` is applied
    straight from them, and no dense matrix is formed.
    """
    src, dst, rate, _ = _transition_arrays(config)
    weights = np.asarray(weights, dtype=float)
    outflow = np.bincount(src, weights=rate, minlength=weights.size)
    net = net_inflow(src, dst, rate, outflow, weights)
    return (float(np.abs(net).max() / max(outflow.max(), 1.0)),
            float(relative_imbalance(outflow, net, weights).max()))


def build_reduced_generator(config: NetworkConfig) -> ReducedGenerator:
    """The reduced generator of ``config``: :class:`ReducedGenerator` built from the config."""
    return ReducedGenerator(config)
