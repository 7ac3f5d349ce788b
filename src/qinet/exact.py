"""The inventory measure type and the brute-force stationary solve on K.

``solve_theta_exact`` is the oracle every other route is checked against:
it solves the balance equations of the reduced generator directly by
linear algebra and verifies its own residual.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .generator import ReducedGenerator

__all__ = ["ThetaMeasure", "solve_theta_exact"]

# Residual tolerance relative to the largest rate magnitude, and the
# positivity floor below which a solve is declared failed.
RESIDUAL_RTOL = 1e-12
POSITIVITY_FLOOR = 1e-14
# Dense solves up to this many states run on one BLAS thread: there a
# second OpenBLAS thread costs more than it saves (a 256-state solve took
# 16 ms on two threads against 1 ms on one, on a 2-vCPU host).
ONE_THREAD_MAX_STATES = 512

PROVENANCES = ("exact", "closed_form", "recursive", "empirical")


@dataclass(frozen=True)
class ThetaMeasure:
    """A probability distribution on the inventory box ``0 <= k_j <= b_j``.

    ``grid[k_1, ..., k_J]`` is the weight of on-hand vector ``k``; the
    supplier coordinate ``sum_j (b_j - k_j)`` is implied.  ``weights`` is
    the same array flattened in canonical (lexicographic) state order.
    The weights always sum to one within ``1e-12``.  Analytic provenances
    carry strictly positive weights; empirical measures may put zero mass
    on states a finite run never visited.
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
        if not np.all(np.isfinite(g)):
            raise SolverError("non-finite weights")
        if self.provenance == "empirical":
            if g.min() < 0:
                raise SolverError("empirical weights must be non-negative")
        elif g.min() <= 0:
            raise SolverError("stationary weights must be strictly positive")
        if abs(g.sum() - 1.0) > 1e-12:
            raise SolverError("normalized measure must sum to one")

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.grid.shape)

    @property
    def weights(self) -> np.ndarray:
        return self.grid.reshape(-1)


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread(n: int):
    """Run the block on one OpenBLAS thread when ``n`` is small; restore after."""
    threads = _openblas_threads() if n <= ONE_THREAD_MAX_STATES else None
    if threads is None:
        yield
        return
    get, set_ = threads
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def solve_theta_exact(gen: ReducedGenerator) -> ThetaMeasure:
    """Solve ``theta . Q_red = 0``, normalize, and verify the residual.

    One balance equation of an irreducible generator is a linear
    combination (with all-nonzero coefficients) of the others, so the last
    one is replaced by the normalization constraint and the square system
    is LU-solved.  The residual is then checked against the *full*
    generator at ``1e-12`` relative to the largest rate, and every weight
    must clear the positivity floor.  The generator is irreducible by
    construction, so any failure is numerical.  Systems of at most
    ``ONE_THREAD_MAX_STATES`` states are solved on one BLAS thread.
    """
    Q = gen.rates
    n = gen.size
    M = Q.T.copy()
    M[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    with _one_blas_thread(n):
        try:
            theta = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"stationary solve failed: anchored system singular ({exc})") from exc

        total = theta.sum()
        if not np.isfinite(total) or total <= 0:
            raise SolverError("stationary solve failed: normalization is singular")
        theta = theta / total

        scale = max(np.abs(Q).max(), 1.0)
        residual = np.abs(theta @ Q).max()
    if residual > RESIDUAL_RTOL * scale:
        raise SolverError(
            f"stationary solve failed: balance residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL * scale:.3e}"
        )
    shape = [bj + 1 for bj in gen.b]
    low = int(theta.argmin())
    if theta[low] <= POSITIVITY_FLOOR:
        on_hand = tuple(int(k) for k in np.unravel_index(low, shape))
        raise SolverError(
            f"stationary solve failed: weight {theta[low]:.3e} at on-hand {on_hand} "
            f"at or below positivity floor {POSITIVITY_FLOOR:.0e}"
        )
    return ThetaMeasure(grid=theta.reshape(shape), provenance="exact")
