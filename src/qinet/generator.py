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
per state, rate 0 where a move is absent.  The simulator's rows (which
add the queues) read its columns; ``_transition_arrays``, its
non-zero entries as COO arrays, feeds the level blocks, the recursive
solver's balance terms, the residuals and :func:`gated`: the one gate of
every solve, which refuses a measure, naming its cell, where a state's
own balance equation does not hold.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SolverError
from .model import (DENSE_BYTES_CAP, InventoryState, NetworkConfig, ThetaMeasure, _on_hand_rows,
                    enumerate_inventory_states, method_inapplicable)

__all__ = ["ReducedGenerator", "balance_residuals", "build_reduced_generator"]

# Weights below the smallest normal double have lost digits: the gate refuses them.
TINY = np.finfo(float).tiny


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


def imbalance(src, dst, rate, outflow, weights) -> tuple[np.ndarray, np.ndarray]:
    """Per state, its net inflow ``(wQ)_i`` and relative imbalance ``|(wQ)_i| / (w_i q_i)``.

    ``outflow`` holds each state's total outflow rate ``q_i``.  The relative
    imbalance reads ``inf`` where the weight is not positive (a negative
    weight would read a negative one) and where it is undefined.
    """
    net = np.bincount(dst, weights=weights[src] * rate, minlength=weights.size) - weights * outflow
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.abs(net) / (weights * outflow)
    return net, np.where((weights > 0) & (relative >= 0), relative, np.inf)


def gated(weights, b, src, dst, rate, outflow, rtol, failure: str, provenance: str,
          pieces=None) -> ThetaMeasure:
    """Canonical weights of the box ``b``, normalized in place, as a measure once they balance.

    The measure is accepted only when every state's relative imbalance
    (:func:`imbalance`) is at most ``rtol`` and no weight is below ``TINY``;
    it carries the two residuals of :func:`balance_residuals` read off the
    same imbalance.  Otherwise the :class:`SolverError` opens with
    ``failure`` and names the worst cell (the smallest weight, once one is
    not positive), its weight, its imbalance and the dynamic range of the
    positive weights, read from ``pieces``: ``(x, s)`` pairs of weights
    ``x`` on natural-log scale ``s``, by default the weights themselves.
    """
    weights /= np.add.reduce(weights)
    net, relative = imbalance(src, dst, rate, outflow, weights)
    residuals = _residual_pair(net, relative, outflow)
    unbalanced = not residuals[1] <= rtol
    smallest = np.minimum.reduce(weights)
    if unbalanced or smallest < TINY:
        worst = int(relative.argmax() if unbalanced and smallest > 0 else weights.argmin())
        on_hand = tuple(int(k) for k in np.unravel_index(worst, [bj + 1 for bj in b]))
        positive = [(x[x > 0], s) for x, s in pieces or [(weights, 0.0)]]
        logs = [(math.log(x.max()) + s, math.log(x.min()) + s) for x, s in positive if x.size] or [(math.nan,) * 2]
        decades = (max(hi for hi, _ in logs) - min(lo for _, lo in logs)) / math.log(10)
        raise SolverError(f"{failure}: weight {weights[worst]:.3e} at on-hand {on_hand} balances to "
                          f"{relative[worst]:.1e} relative (tolerance {rtol:.0e}); "
                          f"log10(max/min) = {decades:.1f}")
    return ThetaMeasure(grid=weights.reshape([bj + 1 for bj in b]), provenance=provenance, residuals=residuals)


def _residual_pair(net, relative, outflow) -> tuple[float, float]:
    """``(balance, componentwise)`` residuals from :func:`imbalance`'s reading (see :func:`balance_residuals`)."""
    return float(np.abs(net).max() / outflow.max()), float(relative.max())


def balance_residuals(config: NetworkConfig, weights) -> tuple[float, float]:
    """The balance and componentwise residuals of ``weights`` under the reduced generator ``Q``.

    * The balance residual is the largest ``|weights @ Q|`` entry relative
      to the largest total outflow rate of ``Q``.
    * The componentwise residual is the largest relative imbalance
      ``|(wQ)_i| / (w_i q_i)`` of one state's own balance equation, where
      ``q_i`` is state ``i``'s total outflow rate.  Since ``w_i q_i`` never
      exceeds the largest outflow rate, it is never below the balance
      residual, and unlike it, it sees an error in the small weights.  A
      weight that is not positive reads ``inf``.

    Neither depends on the unit of the rates.  One pass over the transition
    arrays serves both; ``Q`` is applied straight from them, and no dense
    matrix is formed.  A measure that :func:`gated` accepted carries the
    same pair, read off the same arrays, as its ``residuals``.
    """
    src, dst, rate, _ = _transition_arrays(config)
    weights = np.asarray(weights, dtype=float)
    outflow = np.bincount(src, weights=rate, minlength=weights.size)
    return _residual_pair(*imbalance(src, dst, rate, outflow, weights), outflow)


def build_reduced_generator(config: NetworkConfig) -> ReducedGenerator:
    """The reduced generator of ``config``: :class:`ReducedGenerator` built from the config."""
    return ReducedGenerator(config)
