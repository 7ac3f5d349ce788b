"""Product-form assembly, ergodicity, marginals and structural identities.

The joint stationary distribution factorizes into a product of per-queue
geometric-tailed marginals and the inventory measure.  This module builds
the queue side, extracts inventory marginals, and verifies the structural
identities the inventory measure must satisfy: permutation symmetry for
homogeneous locations, and flow-balance identities across state-space cuts
(one family for homogeneous networks, four families plus a geometric decay
relation for two heterogeneous locations).

Every check reads the measure as its ``(b1+1, ..., bJ+1)`` grid: a
marginal is an axis sum, the flow across a cut is a sum over slices of
the box, and a relabelling of the locations is a transpose.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ErgodicityError, PreconditionError
from .exact import ThetaMeasure
from .model import NetworkConfig

__all__ = [
    "LocationDiagnostic",
    "ErgodicityReport",
    "ergodicity_check",
    "QueueMarginal",
    "queue_marginal",
    "inventory_marginal",
    "check_cut_homogeneous",
    "HeterogeneousCutReport",
    "check_cut_heterogeneous",
    "check_symmetry",
    "total_variation",
]


@dataclass(frozen=True)
class LocationDiagnostic:
    location: int          # 1-based
    lam: float
    tail_rate: float
    rho_tail: float
    ergodic: bool


@dataclass(frozen=True)
class ErgodicityReport:
    ergodic: bool
    per_location: tuple[LocationDiagnostic, ...]

    def __bool__(self) -> bool:
        return self.ergodic


def ergodicity_check(config: NetworkConfig) -> ErgodicityReport:
    """Stability verdict with a per-location diagnostic.

    The inventory space is finite, so stability is decided by the queues
    alone: with eventually constant service rates, location j is stable
    iff ``lam_j < tail rate``.  Head rates never matter (a finite number
    of terms cannot break summability).
    """
    diags = []
    for j, (lam, prof) in enumerate(zip(config.lam, config.mu), start=1):
        rho = lam / prof.tail
        diags.append(
            LocationDiagnostic(
                location=j, lam=lam, tail_rate=prof.tail, rho_tail=rho, ergodic=rho < 1.0
            )
        )
    return ErgodicityReport(ergodic=all(d.ergodic for d in diags), per_location=tuple(diags))


@dataclass(frozen=True)
class QueueMarginal:
    """Stationary queue-length distribution of one location.

    ``xi(n)`` is proportional to ``prod_{l=1}^{n} lam/mu(l)``; the
    normalization constant ``C`` is the head sum plus the closed-form
    geometric tail.  ``prob_nonempty`` and ``mean_queue_length`` summarize
    the load.
    """

    location: int          # 1-based
    C: float
    rho_tail: float
    head_weights: tuple[float, ...]   # unnormalized xi * C for n = 0..m

    def xi(self, n: int) -> float:
        if n < 0:
            raise ValueError("queue length must be non-negative")
        m = len(self.head_weights) - 1
        if n <= m:
            return self.head_weights[n] / self.C
        return self.head_weights[m] * self.rho_tail ** (n - m) / self.C

    def cdf(self, n: int) -> float:
        """P(queue length <= n), evaluated in closed form."""
        if n < 0:
            return 0.0
        m = len(self.head_weights) - 1
        if n <= m:
            return sum(self.head_weights[: n + 1]) / self.C
        rho = self.rho_tail
        tail = self.head_weights[m] * rho * (1.0 - rho ** (n - m)) / (1.0 - rho)
        return (sum(self.head_weights) + tail) / self.C

    @property
    def prob_nonempty(self) -> float:
        return 1.0 - self.xi(0)

    @property
    def mean_queue_length(self) -> float:
        m = len(self.head_weights) - 1
        rho = self.rho_tail
        head = sum(n * w for n, w in enumerate(self.head_weights))
        tail = self.head_weights[m] * (m * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)
        return (head + tail) / self.C


def queue_marginal(config: NetworkConfig, j: int) -> QueueMarginal:
    """Queue marginal of location ``j`` (1-based); requires that location stable."""
    if not 1 <= j <= config.J:
        raise PreconditionError(f"location index {j} out of range 1..{config.J}")
    lam = config.lam[j - 1]
    prof = config.mu[j - 1]
    rho = lam / prof.tail
    if rho >= 1.0:
        raise ErgodicityError(
            f"location {j} is not stable (lam={lam:g} >= tail rate {prof.tail:g})"
        )
    weights = [1.0]
    for n in range(1, len(prof.head) + 1):
        weights.append(weights[-1] * lam / prof.head[n - 1])
    C = sum(weights) + weights[-1] * rho / (1.0 - rho)
    return QueueMarginal(location=j, C=C, rho_tail=rho, head_weights=tuple(weights))


def inventory_marginal(theta: ThetaMeasure, j: int) -> np.ndarray:
    """Marginal distribution of the on-hand stock at location ``j`` (1-based)."""
    if not theta.normalized:
        raise PreconditionError("inventory_marginal expects a normalized measure")
    J = theta.grid.ndim
    if not 1 <= j <= J:
        raise PreconditionError(f"location index {j} out of range 1..{J}")
    # A running sum in canonical state order rather than numpy's pairwise sum,
    # so a marginal equals a plain per-state loop bit for bit.
    rows = np.moveaxis(theta.grid, j - 1, -1).reshape(-1, theta.grid.shape[j - 1])
    return np.cumsum(rows, axis=0)[-1]


def _transfer_outflow(grid: np.ndarray, level: int, config: NetworkConfig) -> float:
    """Net transfer-channel flow out of the cut ``{k_1 >= level}`` (zero without one).

    The channel moves a unit out of location 1 at ``level`` while location
    2 sits at ``level - 2`` or below, and into it at ``level - 1`` while
    location 2 sits at ``level + 1`` or above.  Pass ``grid.T`` for the
    cut on location 2.
    """
    if not config.has_transfer:
        return 0.0
    out = grid[level, : level - 1].sum()
    back = grid[level - 1, level + 1 :].sum()
    return config.transfer_beta * (out - back)


def check_cut_homogeneous(theta: ThetaMeasure, config: NetworkConfig) -> float:
    """Largest residual of the homogeneous flow-balance identity.

    For every level ``l`` in 1..b, the probability flow of consumptions
    out of {stock at location 1 >= l} must equal the replenishment flow
    in, which pins P(Y_1 = l) * lam_1 to a combinatorial sum over the
    states where location 1 sits at ``l - 1`` and is (possibly tied)
    deficit leader.  A transfer channel adds its net flow across the cut
    to the outflow side.  Requires a homogeneous configuration.
    """
    if not config.is_homogeneous():
        raise PreconditionError("homogeneous cut identity needs equal b and equal lam")
    if not theta.normalized:
        raise PreconditionError("cut identities expect a normalized measure")
    J = config.J
    b = config.b[0]
    lam = config.lam[0]
    nu = config.nu
    grid = theta.grid

    worst = 0.0
    for level in range(1, b + 1):
        lhs = lam * grid[level].sum() + _transfer_outflow(grid, level, config)
        rhs = grid[(level - 1,) * J] * nu / J
        for i in range(1, J):
            # first i locations at level - 1, the other J - i at level or above
            mass = grid[(level - 1,) * i + (slice(level, None),) * (J - i)].sum()
            rhs += mass * math.comb(J - 1, i - 1) * nu / i
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class HeterogeneousCutReport:
    """Residuals of the two-location cut identities, by family."""

    families: dict[str, float]
    max_residual: float


def check_cut_heterogeneous(theta: ThetaMeasure, config: NetworkConfig) -> HeterogeneousCutReport:
    """Residuals of the four two-location cut identities plus geometric decay.

    Families (levels written for the ``b1 >= b2`` labeling; empty ranges
    and impossible events contribute nothing):

    * ``low``: for l1 <= b1-b2, P(Y1=l1) lam1 = P(Y1=l1-1) nu.
    * ``mid``: for b1-b2 < l1 < b1, the replenishment flow into location 1
      splits into a full-rate part (location 1 strictly deficit leader)
      and a half-rate tie term.
    * ``full``: l1 = b1, same split at the top level.
    * ``second``: the analogous identity for location 2 levels 1..b2.
    * ``geometric``: P(Y1=l1) = P(Y1=0) (nu/lam1)^l1 on the ``low`` range.

    With a transfer channel, ``mid``, ``full`` and ``second`` also count
    the channel's net flow across their cut.
    """
    if config.J != 2:
        raise PreconditionError("heterogeneous cut identities are for J = 2")
    if not theta.normalized:
        raise PreconditionError("cut identities expect a normalized measure")
    b1, b2 = config.b
    lam1, lam2 = config.lam
    nu = config.nu
    grid = theta.grid
    p1 = grid.sum(axis=1)  # P(Y1 = l)
    p2 = grid.sum(axis=0)  # P(Y2 = l)

    def joint(y1, y2):
        # Levels outside the box carry no mass (a negative index would wrap).
        return grid[y1, y2] if 0 <= y1 <= b1 and 0 <= y2 <= b2 else 0.0

    fams: dict[str, float] = {}

    low = 0.0
    for l1 in range(1, b1 - b2 + 1):
        low = max(low, abs(p1[l1] * lam1 - p1[l1 - 1] * nu))
    fams["low"] = low

    mid = 0.0
    for l1 in range(max(1, b1 - b2 + 1), b1):
        tie_level = l1 - 1 - b1 + b2
        above = grid[l1 - 1, max(tie_level + 1, 0) :].sum()
        rhs = joint(l1 - 1, tie_level) * 0.5 * nu + above * nu
        mid = max(mid, abs(p1[l1] * lam1 + _transfer_outflow(grid, l1, config) - rhs))
    fams["mid"] = mid

    rhs = joint(b1 - 1, b2 - 1) * 0.5 * nu + joint(b1 - 1, b2) * nu
    fams["full"] = abs(p1[b1] * lam1 + _transfer_outflow(grid, b1, config) - rhs)

    second = 0.0
    for l2 in range(1, b2 + 1):
        tie_level = b1 - b2 + l2 - 1
        above = grid[max(tie_level + 1, 0) :, l2 - 1].sum()
        rhs = joint(tie_level, l2 - 1) * 0.5 * nu + above * nu
        second = max(second, abs(p2[l2] * lam2 + _transfer_outflow(grid.T, l2, config) - rhs))
    fams["second"] = second

    geometric = 0.0
    for l1 in range(1, b1 - b2 + 1):
        geometric = max(geometric, abs(p1[l1] - p1[0] * (nu / lam1) ** l1))
    fams["geometric"] = geometric

    return HeterogeneousCutReport(families=fams, max_residual=max(fams.values()))


def check_symmetry(
    theta: ThetaMeasure, config: NetworkConfig, allow_heterogeneous: bool = False
) -> float:
    """Largest weight change under any permutation of the locations.

    Homogeneous networks must be exchangeable; pass
    ``allow_heterogeneous=True`` to measure the asymmetry of other
    configurations with equal base stocks (useful as a negative control).
    """
    if not config.is_homogeneous() and not allow_heterogeneous:
        raise PreconditionError("symmetry check needs a homogeneous configuration")
    if len(set(config.b)) != 1:
        raise PreconditionError(
            "symmetry check needs equal base stocks: permuting locations with "
            "different levels does not map the state space onto itself"
        )
    grid = theta.grid
    worst = 0.0
    for sigma in itertools.permutations(range(config.J)):
        worst = max(worst, float(np.abs(grid - np.transpose(grid, sigma)).max()))
    return worst


def total_variation(p: ThetaMeasure, q: ThetaMeasure) -> float:
    """Total-variation distance between two measures on the same state space."""
    if p.grid.shape != q.grid.shape:
        raise PreconditionError("measures live on different state spaces")
    return float(0.5 * np.abs(p.grid - q.grid).sum())
