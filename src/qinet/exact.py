"""Brute-force stationary solve on K and the truncated joint distribution.

``solve_theta_exact`` is the oracle every other route is checked against:
it solves the balance equations of the reduced generator directly by
linear algebra and verifies its own residual.  ``solve_pi_truncated``
assembles the product-form joint distribution on a finite queue window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ErgodicityError, PreconditionError, ReducibilityError, SolverError
from .generator import ReducedGenerator, _assert_strongly_connected, build_reduced_generator
from .model import NetworkConfig

__all__ = ["ThetaMeasure", "PiWindow", "solve_theta_exact", "solve_pi_truncated"]

# Residual tolerance relative to the largest rate magnitude, and the
# positivity floor below which a solve is declared failed.
RESIDUAL_RTOL = 1e-12
POSITIVITY_FLOOR = 1e-14

PROVENANCES = ("exact", "closed_form", "recursive", "empirical")


@dataclass(frozen=True)
class ThetaMeasure:
    """A positive measure on the inventory box ``0 <= k_j <= b_j``.

    ``grid[k_1, ..., k_J]`` is the weight of on-hand vector ``k``; the
    supplier coordinate ``sum_j (b_j - k_j)`` is implied.  ``weights`` is
    the same array flattened in canonical (lexicographic) state order.
    Analytic provenances carry strictly positive weights; empirical
    measures may put zero mass on states a finite run never visited.
    """

    grid: np.ndarray
    normalized: bool
    provenance: str

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", g)
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if g.ndim == 0 or min(g.shape) < 2:
            raise ValueError("grid needs one axis of length b_j + 1 >= 2 per location")
        if not np.all(np.isfinite(g)):
            raise SolverError("non-finite weights")
        if self.provenance == "empirical":
            if g.min() < 0:
                raise SolverError("empirical weights must be non-negative")
        elif g.min() <= 0:
            raise SolverError("stationary weights must be strictly positive")
        if self.normalized and abs(g.sum() - 1.0) > 1e-12:
            raise SolverError("normalized measure must sum to one")

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.grid.shape)

    @property
    def weights(self) -> np.ndarray:
        return self.grid.reshape(-1)


def _diagnose_failure(gen: ReducedGenerator, detail: str) -> Exception:
    # Distinguish a reducible chain (null space dimension > 1) from a
    # plain numerical breakdown.  The positive entries are the off-diagonal rates.
    rows, cols = np.nonzero(gen.rates > 0)
    try:
        _assert_strongly_connected(gen.size, rows, cols, gen.rates[rows, cols])
    except ReducibilityError as exc:
        return exc
    return SolverError(f"stationary solve failed: {detail}")


def solve_theta_exact(gen: ReducedGenerator) -> ThetaMeasure:
    """Solve ``theta . Q_red = 0``, normalize, and verify the residual.

    One balance equation of an irreducible generator is a linear
    combination (with all-nonzero coefficients) of the others, so the last
    one is replaced by the normalization constraint and the square system
    is LU-solved.  The residual is then checked against the *full*
    generator at ``1e-12`` relative to the largest rate, and every weight
    must clear the positivity floor; on failure the generator graph is
    examined to raise the precise error.
    """
    Q = gen.rates
    n = gen.size
    M = Q.T.copy()
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        theta = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise _diagnose_failure(gen, f"anchored system singular ({exc})") from exc

    total = theta.sum()
    if not np.isfinite(total) or total <= 0:
        raise _diagnose_failure(gen, "normalization is singular")
    theta = theta / total

    scale = max(np.abs(Q).max(), 1.0)
    residual = np.abs(theta @ Q).max()
    if residual > RESIDUAL_RTOL * scale:
        raise _diagnose_failure(
            gen, f"balance residual {residual:.3e} exceeds {RESIDUAL_RTOL * scale:.3e}"
        )
    if theta.min() <= POSITIVITY_FLOOR:
        raise _diagnose_failure(
            gen, f"weight {theta.min():.3e} at or below positivity floor"
        )
    shape = [k + 1 for k in gen.states[-1].on_hand]  # the last canonical state is b
    return ThetaMeasure(grid=theta.reshape(shape), normalized=True, provenance="exact")


@dataclass(frozen=True)
class PiWindow:
    """Product-form joint distribution on a finite queue window.

    ``pi[n_1, ..., n_J, k_1, ..., k_J]`` is the stationary probability of
    queue vector ``n`` and on-hand vector ``k``, so ``pi`` has shape
    ``(n_1+1, ..., n_J+1, b_1+1, ..., b_J+1)``; ``window_mass`` is the total
    probability the window captures (computed analytically from the
    geometric queue tails, so it is exact, not a sum of the array).
    """

    caps: tuple[int, ...]
    pi: np.ndarray
    window_mass: float
    theta: ThetaMeasure


def solve_pi_truncated(config: NetworkConfig, n_max) -> PiWindow:
    """Joint stationary probabilities for all ``n <= n_max`` componentwise.

    ``n_max`` may be a single cap applied to every location or one cap per
    location.  Requires an ergodic configuration.
    """
    from .analysis import ergodicity_check, queue_marginal

    report = ergodicity_check(config)
    if not report.ergodic:
        bad = [d.location for d in report.per_location if not d.ergodic]
        raise ErgodicityError(f"configuration is not ergodic (locations {bad})")

    if np.isscalar(n_max):
        caps = (int(n_max),) * config.J
    else:
        caps = tuple(int(x) for x in n_max)
        if len(caps) != config.J:
            raise PreconditionError("one queue cap per location required")
    if any(c < 0 for c in caps):
        raise PreconditionError("queue caps must be non-negative")

    theta = solve_theta_exact(build_reduced_generator(config))
    marginals = [queue_marginal(config, j) for j in range(1, config.J + 1)]

    xi_vecs = [np.array([m.xi(n) for n in range(cap + 1)]) for m, cap in zip(marginals, caps)]
    queue_part = xi_vecs[0]
    for vec in xi_vecs[1:]:
        queue_part = np.multiply.outer(queue_part, vec)
    pi = np.multiply.outer(queue_part, theta.grid)

    window_mass = 1.0
    for m, cap in zip(marginals, caps):
        window_mass *= m.cdf(cap)

    return PiWindow(
        caps=caps,
        pi=pi,
        window_mass=float(window_mass),
        theta=theta,
    )
