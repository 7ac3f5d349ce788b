"""Network parameters, the inventory state space, its measure type and the routing policy.

A network has J > 1 locations, each a single-server make-to-order queue fed
from a local inventory, plus one shared supplier (treated as workstation
J+1) that rebuilds the inventories one item at a time.  Inventory at
location j is run under a base-stock policy with level ``b[j]``: every
consumed item immediately places one replenishment order, so on-hand stock
plus outstanding orders is constant.

The supplier routes each finished item to the location(s) with the largest
inventory deficit ``b_j - k_j`` (strict priority, ties split uniformly).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError

__all__ = [
    "ServiceRateProfile",
    "NetworkConfig",
    "InventoryState",
    "ThetaMeasure",
    "enumerate_inventory_states",
    "level_sizes",
    "method_inapplicable",
]

# Memory a solve may take.  The exact solve (``exact_solve_bytes``), the
# iterative solve's arrays, a dense n x n rate matrix, the recursion's table,
# the closed form's arrays, a simulation's start and the solve report have
# the same cap.
DENSE_BYTES_CAP = 4 << 30
# Bytes per level of the exact solve's Python objects: each level's edge
# views, R_L and pi_L.  tracemalloc peak of build and solve at (20000,2),
# 20,003 levels and 60,003 states: 28.7 MiB, 23.8 of it covered by this term.
LEVEL_LOOP_BYTES = 1_250
# Bytes per state and location of the exact solve's arrays besides its
# blocks: the generator's edges (at most J + 1 per state on the boxes below,
# each kept by source, target and rate, and by level position and rate), its
# outflow and level order, and the measure.  tracemalloc peak of the build:
# 120 at (300,300) and (120,120), 103 at (30,30,30), 90 at (3,)*6, 87 at
# (6,)*5, 74 at (1,)*12.
EXACT_BYTES_PER_STATE_LOCATION = 128
# Bytes per state of the recursion's balance terms and table, Python
# objects all.  tracemalloc peak: 964 per state at (20000,2), 1,034 at (300,300).
RECURSIVE_BYTES_PER_STATE = 1_100
# Bytes per state and location of the closed form's arrays (np.indices alone
# takes 8).  tracemalloc peak: 14.1 at J=8, 10.9 at J=12, 9.7 at J=20.
CLOSED_BYTES_PER_STATE_LOCATION = 16
# Bytes per state and location of an iterative aggregation-disaggregation
# solve: the transition arrays, the two half steps' CSR operators (a column
# and a rate per edge), the weights and the gate.  tracemalloc peak of the
# solve: 71 at (3,)*6, 72 at (5,)*6 and (6,)*6, 95 at (20,20,20) and
# (30,30,30), 96 at (100,100,100), 116 at (120,120) and (150,150).
IAD_BYTES_PER_STATE_LOCATION = 192
# Bytes per state and location a simulation holds for its move table and for
# every state's moves, which it reads off the table on first visit and keeps
# as lists of (rate, move column) pairs; a long run may visit every state.
# Rows are capped (below); what else grows with the run is the occupancy,
# about 150 bytes per visited cell, which the estimator needs.  tracemalloc
# peak once every state's moves are read: 170 at (1,)*10, 165 at (1,)*12,
# 160 at (1,)*16, 192 at (2,)*8, 240 at (6,)*5, 310 at (30,30,30), 371 at
# (20000,2), 385 at (100,100), 393 at (1000,1000), 402 at (300,300); with
# the transfer channel (beta=0.6): 427 at (6,6), 432 at (100,100), 435 at
# (200,200), 449 at (300,300).
SIMULATE_BYTES_PER_STATE_LOCATION = 512
# Rows a simulation keeps, one per visited (queue signature, state) pair,
# and entries, one per visited key (queue lengths clipped at max(n_obs,
# signature caps), and the state); it drops both, and the queue vectors it
# decoded, once either holds this many.  The largest signature x state
# count of a benchmark box, 46,656 at (2,)*6 with constant mu, stays below.
# On (1,)*12 (lam 0.6..1.7, nu 5, mu 6.8), 1e6 events visit 509,868 pairs
# and build 746,329 rows and 856,846 entries under this cap, dropping all
# six times; under 1 << 16 the rows loop built 801,000 rows and ran 1-12%
# behind keeping every row.
SIMULATE_MAX_ROWS = 1 << 17
# Bytes per location charged for SIMULATE_MAX_ROWS rows, as many entries
# and as many queue vectors: what tracemalloc sees freed when a run drops
# its entries, its queue vectors and its rows with their service rates,
# per entry + per vector + per row, over J.  At the cap or a run's end:
# 149 + 201 + 885 (103) at (1,)*12 (lam 1, mu 4, nu 5); 158 + 166 + 540
# (144) at (2,)*6; 75 + 115 + 267 (153) at (4,3,2); 62 + 134 + 277 (237) at
# (300,300) (lam 0.9, 1.3, nu 1.3, mu 5.2) and 106 + 121 + 332 (280) with
# mu 1.5; 60 + 99 + 192 (176) at (6,6) with beta=0.6.  What the runs held
# at once came to 51-155 per location and row or entry, whichever they
# held more of: vectors come far fewer than entries.
SIMULATE_ROW_BYTES_PER_LOCATION = 320
REPORT_BYTES_PER_STATE_LOCATION = 320


def _finite(x, what: str) -> float:
    """``x`` as a float; a bool, a non-number or a non-finite value is a :class:`ConfigError`."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class ServiceRateProfile:
    """Queue-length dependent service rates with an eventually constant tail.

    ``rate(n)`` is ``head[n-1]`` for ``1 <= n <= len(head)`` and ``tail``
    for every larger n, so the profile is total on n >= 1.  The constant
    tail is what makes the stability check and the queue normalization
    constant computable in closed form.
    """

    head: tuple[float, ...]
    tail: float

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(_finite(r, "service rate") for r in self.head))
        object.__setattr__(self, "tail", _finite(self.tail, "service rate tail"))
        if any(r <= 0 for r in self.head) or self.tail <= 0:
            raise ConfigError("service rates must be strictly positive")

    @classmethod
    def constant(cls, rate: float) -> "ServiceRateProfile":
        return cls(head=(), tail=rate)

    def rate(self, n: int) -> float:
        """Service intensity with n >= 1 customers present."""
        if n < 1:
            raise ValueError(f"service rate undefined for n={n}")
        if n <= len(self.head):
            return self.head[n - 1]
        return self.tail


@dataclass(frozen=True)
class NetworkConfig:
    """All model parameters of one network instance.

    Parameters
    ----------
    lam : arrival rate per location (Poisson demand), strictly positive.
    mu : one :class:`ServiceRateProfile` per location.
    b : base-stock level per location, each >= 1.
    nu : service rate of the shared supplier, strictly positive.
    transfer_beta : optional lateral transfer rate between two locations,
        active while their stock levels differ by at least two.  A positive
        rate is only meaningful for the two-location homogeneous extension,
        hence the J == 2, b1 == b2, lam1 == lam2 restriction; zero (like
        ``None``) means no channel and is allowed for any network.
    """

    lam: tuple[float, ...]
    mu: tuple[ServiceRateProfile, ...]
    b: tuple[int, ...]
    nu: float
    transfer_beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(_finite(x, "arrival rate") for x in self.lam))
        object.__setattr__(self, "mu", tuple(self.mu))
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in self.b):
            raise ConfigError(f"base-stock levels must be integers, got {list(self.b)!r}")
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        object.__setattr__(self, "nu", _finite(self.nu, "supplier rate nu"))
        J = len(self.b)
        if J <= 1:
            raise ConfigError("a network needs J > 1 locations")
        if len(self.lam) != J or len(self.mu) != J:
            raise ConfigError("lam, mu and b must all have length J")
        if any(x <= 0 for x in self.lam):
            raise ConfigError("arrival rates must be strictly positive")
        if not all(isinstance(p, ServiceRateProfile) for p in self.mu):
            raise ConfigError("mu entries must be ServiceRateProfile instances")
        if any(x < 1 for x in self.b):
            raise ConfigError("base-stock levels must be >= 1")
        if self.nu <= 0:
            raise ConfigError("supplier rate nu must be strictly positive")
        if self.transfer_beta is not None:
            object.__setattr__(self, "transfer_beta", _finite(self.transfer_beta, "transfer_beta"))
            if self.transfer_beta < 0:
                raise ConfigError("transfer_beta must be non-negative")
            if self.has_transfer and not (J == 2 and self.is_homogeneous()):
                raise ConfigError(
                    "transfer channel requires two homogeneous locations "
                    "(J == 2, equal base stocks, equal arrival rates)"
                )

    @property
    def J(self) -> int:
        return len(self.b)

    @property
    def has_transfer(self) -> bool:
        return self.transfer_beta is not None and self.transfer_beta > 0

    def is_homogeneous(self) -> bool:
        """Equal base stocks and equal arrival rates (service rates are free)."""
        return len(set(self.b)) == 1 and len(set(self.lam)) == 1


@dataclass(frozen=True)
class InventoryState:
    """A state ``k = (k_1, ..., k_J, k_{J+1})``, the record ``ReducedGenerator.states`` holds."""

    k: tuple[int, ...]


def _on_hand_rows(b) -> np.ndarray:
    """On-hand rows ``(k_1, ..., k_J)`` of the box ``0 <= k_j <= b_j``, in canonical order."""
    b = np.asarray(b)
    return np.indices(b + 1).reshape(b.size, -1).T


def enumerate_inventory_states(b) -> np.ndarray:
    """All inventory states for base-stock vector b: a ``(prod_j (b_j + 1), J + 1)`` int array.

    Row ``r`` is ``(k_1, ..., k_J, k_{J+1})``.  Canonical order is
    lexicographic on ``(k_1, ..., k_J)``; every matrix and measure in the
    package indexes the state space this way.  The supplier coordinate
    ``k_{J+1} = sum_j (b_j - k_j)`` counts outstanding orders.
    """
    b = tuple(int(x) for x in b)
    if not b or any(x < 1 for x in b):
        raise ConfigError("base-stock levels must be a non-empty list of integers >= 1")
    on_hand = _on_hand_rows(b)
    return np.column_stack([on_hand, sum(b) - on_hand.sum(axis=1)])


PROVENANCES = ("exact", "iad", "closed_form", "recursive", "empirical")


@dataclass(frozen=True)
class ThetaMeasure:
    """A probability distribution on the inventory box ``0 <= k_j <= b_j``.

    ``grid[k_1, ..., k_J]`` is the weight of on-hand vector ``k``; the
    supplier coordinate ``sum_j (b_j - k_j)`` is implied.  ``weights`` is
    the same array flattened in canonical (lexicographic) state order.
    The weights always sum to one within ``1e-12``.  Analytic provenances
    carry strictly positive weights; empirical measures may put zero mass
    on states a finite run never visited.  A refusal is a
    :class:`SolverError` naming the on-hand cell and its weight, or the sum.
    """

    grid: np.ndarray
    provenance: str

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", g)
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if g.ndim == 0 or min(g.shape) < 2:
            raise ValueError("grid needs one axis of length b_j + 1 >= 2 per location")
        # ufunc reductions, not ndarray.min, .sum or np.all: their Python wrappers outcost a small grid.
        if not np.logical_and.reduce(finite := np.isfinite(g), axis=None):
            raise self._refusal("non-finite", np.argmin(finite), "")
        empirical = self.provenance == "empirical"
        if (least := np.minimum.reduce(g, axis=None)) < 0 or (least == 0 and not empirical):
            raise self._refusal("negative" if empirical else "non-positive", np.argmin(g), " (floor 0)")
        if abs((total := float(np.add.reduce(g, axis=None))) - 1.0) > 1e-12:
            raise SolverError(f"weights sum to {total!r}: a normalized measure must sum to one within 1e-12")

    def _refusal(self, what: str, flat: int, floor: str) -> SolverError:
        on_hand = tuple(int(k) for k in np.unravel_index(flat, self.grid.shape))
        return SolverError(f"{what} weight {self.grid.flat[flat]:.3e} at on-hand {on_hand} in the "
                           f"{self.provenance} measure{floor}")

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.grid.shape)

    @property
    def weights(self) -> np.ndarray:
        return self.grid.reshape(-1)


def level_sizes(b) -> np.ndarray:
    """States per level ``L = sum_j k_j`` of the box ``b``, ``L = 0 .. sum_j b_j``.

    They are the coefficients of ``prod_j (1 + x + ... + x^{b_j})``: no
    state is enumerated.
    """
    m = np.ones(1, dtype=np.int64)
    for bj in b:
        m = np.convolve(m, np.ones(bj + 1, dtype=np.int64))
    return m


def exact_solve_bytes(b) -> int:
    """An upper bound on the bytes an exact solve holds on the box ``b`` (see ``DENSE_BYTES_CAP``).

    The solve keeps every ``R_L`` (``m_{L-1} x m_L`` float64 for levels of
    ``m_L`` states) and one level's blocks at a time: ``same_L``, the LU
    factors of ``A_L``, ``down_L`` and ``up_L``, ``16 (m_L^2 + m_L m_{L-1})``
    bytes, charged for the largest level.  The generator's arrays and the
    measure add ``EXACT_BYTES_PER_STATE_LOCATION`` per state and location,
    and the level loop ``LEVEL_LOOP_BYTES`` per level.  tracemalloc peaks of
    build and solve against this charge, MiB: 18.6 / 25.6 at ``(3,)*6``,
    11.6 / 13.3 at ``(120,120)``, 28.7 / 39.9 at ``(20000,2)``, 153.8 / 164.3
    at ``(300,300)``, 126.2 / 146.9 at ``(30,30,30)``, 155.7 / 206.1 at
    ``(6,)*5``.  A box above the cap on its per-state term alone is not
    convolved into its :func:`level_sizes`.
    """
    n = math.prod(bj + 1 for bj in b)
    arrays = EXACT_BYTES_PER_STATE_LOCATION * n * len(b) + LEVEL_LOOP_BYTES * (sum(b) + 1)
    if arrays > DENSE_BYTES_CAP:
        return arrays
    m = level_sizes(b)
    below = np.concatenate([[0], m[:-1]])
    return arrays + 8 * int(m @ below) + 16 * int((m * m + m * below).max())


def method_inapplicable(config: NetworkConfig, method: str) -> str | None:
    """Why ``method`` cannot solve ``config``, or ``None`` when it can.

    ``"exact"`` needs a box whose solve (:func:`exact_solve_bytes`) fits
    ``DENSE_BYTES_CAP``; ``"iad"`` needs no transfer channel (its
    same-level moves break the level-parity split) and arrays of
    ``IAD_BYTES_PER_STATE_LOCATION`` per state and location that fit it;
    ``"closed"`` needs every ``b_j = 1`` and arrays that fit it;
    ``"recursive"`` needs two locations, both base stocks above one (in
    either order), no transfer channel (``beta`` absent or zero) and a box
    whose table fits it.  ``"simulate"`` and ``"report"`` (not solve
    methods) need a simulation's move table and capped rows, and a ``qinet
    solve`` report, that fit it.
    """
    n = math.prod(bj + 1 for bj in config.b)
    if method == "exact":
        if (need := exact_solve_bytes(config.b)) > DENSE_BYTES_CAP:
            return (f"a level-by-level exact solve of {n} states needs {need} bytes; "
                    f"the cap is {DENSE_BYTES_CAP} bytes")
    elif method == "iad":
        if config.has_transfer:
            return ("iterative aggregation-disaggregation does not cover the transfer channel: its "
                    "same-level moves break the level-parity split; use exact")
        if (need := IAD_BYTES_PER_STATE_LOCATION * n * config.J) > DENSE_BYTES_CAP:
            return (f"iterative aggregation-disaggregation of {n} states needs {need} bytes; "
                    f"the cap is {DENSE_BYTES_CAP} bytes")
    elif method == "closed":
        if any(bj != 1 for bj in config.b):
            return "closed form requires every base-stock level to equal one; use exact"
        if (need := CLOSED_BYTES_PER_STATE_LOCATION * n * config.J) > DENSE_BYTES_CAP:
            return f"the closed form of {n} states needs {need} bytes; the cap is {DENSE_BYTES_CAP} bytes"
    elif method == "recursive":
        if config.J != 2:
            return "recursive elimination handles exactly two locations; use exact"
        if config.has_transfer:
            return "recursive elimination does not cover the transfer channel; use exact"
        if config.b == (1, 1):
            return "all base stocks equal one; use the closed form"
        if min(config.b) == 1:
            return "recursive elimination requires both base stocks above one; use exact"
        if RECURSIVE_BYTES_PER_STATE * n > DENSE_BYTES_CAP:
            return (f"recursive elimination of {n} states needs {RECURSIVE_BYTES_PER_STATE * n} "
                    f"bytes; the cap is {DENSE_BYTES_CAP} bytes")
    elif method == "simulate":
        rows = SIMULATE_ROW_BYTES_PER_LOCATION * SIMULATE_MAX_ROWS
        if (need := (SIMULATE_BYTES_PER_STATE_LOCATION * n + rows) * config.J) > DENSE_BYTES_CAP:
            return (f"a simulation of {n} inventory states needs {need} bytes for its move table "
                    f"and rows; the cap is {DENSE_BYTES_CAP} bytes")
    elif method == "report":
        if (need := REPORT_BYTES_PER_STATE_LOCATION * n * config.J) > DENSE_BYTES_CAP:
            return (f"the solve report of {n} states needs {need} bytes; "
                    f"the cap is {DENSE_BYTES_CAP} bytes")
    return None
