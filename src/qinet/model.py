"""Network parameters, inventory state space and the replenishment routing policy.

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

from .errors import ConfigError

__all__ = [
    "ServiceRateProfile",
    "NetworkConfig",
    "InventoryState",
    "enumerate_inventory_states",
    "method_inapplicable",
]

# Memory a solve may take.  An exact solve is charged, per level L of m_L
# states, a same-level block and its LU factors (2 m_L^2 float64) and the
# blocks to and from level L + 1 (2 m_L m_{L+1}), 16 (sum m_L^2 + sum m_L
# m_{L+1}) bytes in all (see ``level_block_bytes``).  A dense n x n rate
# matrix, the recursion's table, the closed form's arrays and a simulation's
# first rate table have the same cap.
DENSE_BYTES_CAP = 4 << 30
# Bytes per level of the exact solve's Python objects: each level's edge
# views, R_L and pi_L.  tracemalloc peak of build and solve at (20000,2),
# 20,003 levels and 60,003 states: 28.7 MiB, below the 29.3 MiB that
# ``level_block_bytes`` plus this charge per level allow.
LEVEL_LOOP_BYTES = 1_250
# Bytes per state of the recursion's balance terms and table, Python
# objects all.  tracemalloc peak: 964 per state at (20000,2), 1,034 at (300,300).
RECURSIVE_BYTES_PER_STATE = 1_100
# Bytes per state and location of the closed form's arrays (np.indices alone
# takes 8).  tracemalloc peak: 14.1 at J=8, 10.9 at J=12, 9.7 at J=20.
CLOSED_BYTES_PER_STATE_LOCATION = 16
# Bytes per state and location of a simulation's first rate table, its move
# tuples mostly (a move no signature makes holds a shared None).  tracemalloc
# peak of a one-event run in a fresh process, with the transfer channel
# (beta=0.6): 965 at (100,100), 925 at (200,200), 918 at (300,300); without
# it: 816 at homogeneous (100,100), 767 at (300,300), 697 at (20000,2), 652
# at (30,30,30), 464 at (2,)*8.
SIMULATE_BYTES_PER_STATE_LOCATION = 1_000
# Bytes per state and location of ``qinet solve``'s report once the measure
# is solved: the residual pair's transition arrays, the printed table, the
# ``--json`` state lists and string.  tracemalloc peak with ``--json``: 304
# at (2000,2), 181 at (300,300), 156 at (6,)*4, 126 at (30,30,30), 103 at
# (2,)*8, 102 at (1,)*17.
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


def level_block_bytes(b) -> int:
    """An upper bound on an exact solve's block bytes on the box ``b`` (see ``DENSE_BYTES_CAP``).

    It counts every level's dense blocks as if all were held at once.  The
    solve writes one level's blocks at a time and keeps the ``R_L``, so this
    over-counts it 3-4x: tracemalloc peaks of build and solve are 18.6 MiB
    against 51 MiB at ``(3,)*6``, 11.6 against 36 at ``(120,120)``, 154
    against 555 at ``(300,300)``, 126 against 481 at ``(30,30,30)`` and 156
    against 532 at ``(6,)*5``.  The level sizes ``m_L`` are the coefficients
    of ``prod_j (1 + x + ... + x^{b_j})``; no state is enumerated.  Every
    ``m_L >= 1``, so the count is at least ``16 n`` bytes for ``n`` states;
    a box above the cap by that floor is not convolved.
    """
    n = math.prod(bj + 1 for bj in b)
    if 16 * n > DENSE_BYTES_CAP:
        return 16 * n
    m = np.ones(1, dtype=np.int64)
    for bj in b:
        m = np.convolve(m, np.ones(bj + 1, dtype=np.int64))
    return 16 * int(m @ m + m[:-1] @ m[1:])


def method_inapplicable(config: NetworkConfig, method: str) -> str | None:
    """Why ``method`` cannot solve ``config``, or ``None`` when it can.

    ``"exact"`` needs a box whose level blocks and level loop fit
    ``DENSE_BYTES_CAP``; ``"closed"`` needs every ``b_j = 1`` and arrays
    that fit it; ``"recursive"`` needs two locations, both base stocks
    above one (in either order), no transfer channel (``beta`` absent or
    zero) and a box whose table fits it.  ``"simulate"`` and ``"report"``
    (not solve methods) need a simulation's first rate table and a
    ``qinet solve`` report that fit it.
    """
    n = math.prod(bj + 1 for bj in config.b)
    if method == "exact":
        need, levels = level_block_bytes(config.b), sum(config.b) + 1
        if need + LEVEL_LOOP_BYTES * levels > DENSE_BYTES_CAP:
            return (f"a dense exact solve of {n} states needs {need} bytes for its level blocks; "
                    f"the cap is {DENSE_BYTES_CAP} bytes, less {LEVEL_LOOP_BYTES * levels} "
                    f"for the objects of its {levels} levels")
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
        if (need := SIMULATE_BYTES_PER_STATE_LOCATION * n * config.J) > DENSE_BYTES_CAP:
            return (f"a simulation of {n} inventory states needs {need} bytes for its first rate "
                    f"table; the cap is {DENSE_BYTES_CAP} bytes")
    elif method == "report":
        if (need := REPORT_BYTES_PER_STATE_LOCATION * n * config.J) > DENSE_BYTES_CAP:
            return (f"the solve report of {n} states needs {need} bytes; "
                    f"the cap is {DENSE_BYTES_CAP} bytes")
    return None
