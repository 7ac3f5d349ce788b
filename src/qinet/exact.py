"""The inventory measure type and the stationary solve on K, level by level.

``solve_theta_exact`` is the oracle every other route is checked against.
It censors the reduced generator level by level (total on-hand stock),
which involves no subtraction of like-signed terms, and accepts its answer
only when every state's own balance equation holds.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg.lapack import dgesv

from .errors import SolverError
from .generator import ReducedGenerator, balance_flows, relative_imbalance

__all__ = ["ThetaMeasure", "solve_theta_exact"]

# Largest relative imbalance |(wQ)_i| / (w_i q_i) a solve may leave in any
# state's balance equation.
COMPONENTWISE_RTOL = 1e-12
# A level's weights are rescaled when its first weight leaves this range.
SCALE_RANGE = (1e-100, 1e100)
# Weights below the smallest normal double have lost digits: they fail too.
TINY = np.finfo(float).tiny

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


def _thread_controls(pattern: str, suffix: str):
    """The thread-count getter and setter of the OpenBLAS matching ``pattern``, or None."""
    try:
        lib = ctypes.CDLL(glob.glob(pattern)[0])
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _openblas_threads() -> tuple:
    """Thread controls of numpy's and of scipy's bundled OpenBLAS, each one that loads.

    numpy multiplies the blocks and scipy's LAPACK factors them; each wheel
    links its own library, with its own thread count.
    """
    found = []
    for package, name, suffix in ((np, "libscipy_openblas64_*.so", "64_"),
                                  (scipy, "libscipy_openblas-*.so", "")):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            f"{package.__name__}.libs", name)
        if (threads := _thread_controls(libs, suffix)) is not None:
            found.append(threads)
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of every bundled OpenBLAS; restore the counts after.

    The level loop makes many small BLAS and LAPACK calls.  On a 2-vCPU host
    a second thread cost more than it saved on every box measured, up to
    blocks of 921 states (``(30,30,30)``: 1.8 s on one thread, 3.4 s on two).
    """
    threads = _openblas_threads()
    saved = [get() for get, _ in threads]
    for _, set_ in threads:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(threads, saved):
            set_(count)


def _censored_levels(gen: ReducedGenerator) -> tuple[list, np.ndarray]:
    """Weights of every level, each scaled into range, and the natural log of each scale.

    Top-down, ``A_L = -same_L - R_{L+1} down_{L+1}`` is minus the generator
    of the chain censored to levels ``<= L``, restricted to level ``L``, and
    ``R_L = up_{L-1} A_L^{-1}``.  The diagonal of ``A_L`` is rebuilt as the
    down-rate sum plus the negated off-diagonal entries
    (Grassmann-Taksar-Heyman), a sum of non-negative terms.  ``R_L`` comes
    from the LU factors of ``A_L^T``, which is column diagonally dominant, so
    partial pivoting leaves its rows in place.  Level 0 is the single empty
    state: its weight is one, and ``pi_L = pi_{L-1} R_L`` gives the rest.
    """
    levels = gen.levels
    R = [None] * len(levels)
    A = -levels[-1][0]
    for L in range(len(levels) - 1, 0, -1):
        if L < len(levels) - 1:
            A = R[L + 1] @ levels[L + 1][2]
            A += levels[L][0]
            np.negative(A, out=A)
        diagonal = A.reshape(-1)[:: A.shape[0] + 1]
        diagonal[:] = 0.0
        np.subtract(levels[L][3], np.add.reduce(A, 1), out=diagonal)
        _, _, RT, info = dgesv(A.T, levels[L - 1][1].T, overwrite_a=True)
        if info != 0:
            raise SolverError(f"stationary solve failed: censored block of level {L} is singular")
        R[L] = RT.T
    pi, log_scale = [np.ones(1)], np.zeros(len(levels))
    low, high = SCALE_RANGE
    for L in range(1, len(levels)):
        x = pi[-1] @ R[L]
        log_scale[L] = log_scale[L - 1]
        if not low <= float(x[0]) <= high:
            scale = x.max()
            x /= scale
            log_scale[L] += math.log(scale)
        pi.append(x)
    return pi, log_scale


def solve_theta_exact(gen: ReducedGenerator) -> ThetaMeasure:
    """Solve ``theta . Q_red = 0`` level by level, normalize, and check every balance equation.

    The levels are combined on their carried log scales, never clamped, and
    normalized.  The answer is accepted only when every state's relative
    imbalance ``|(theta Q)_i| / (theta_i q_i)`` is at most
    ``COMPONENTWISE_RTOL``; a zero or subnormal weight fails too, and the
    :class:`SolverError` names the cell, its weight and the measure's
    dynamic range.  The levels are solved on one BLAS thread.
    """
    with _one_blas_thread():
        pi, log_scale = _censored_levels(gen)
    top = log_scale.max()
    theta = np.empty(gen.size)
    theta[gen.order] = np.concatenate(
        [x * math.exp(s - top) for x, s in zip(pi, log_scale)] if log_scale.any() else pi)
    theta /= theta.sum()

    imbalance = relative_imbalance(*balance_flows(gen.src, gen.dst, gen.rate, theta), theta)
    unbalanced = not imbalance.max() <= COMPONENTWISE_RTOL
    if unbalanced or theta.min() < TINY:
        worst = int(imbalance.argmax() if unbalanced else theta.argmin())
        on_hand = tuple(int(k) for k in np.unravel_index(worst, [bj + 1 for bj in gen.b]))
        with np.errstate(divide="ignore"):  # a level holding a zero reads -inf
            logs = [(np.log(x.max()) + s, np.log(x.min()) + s) for x, s in zip(pi, log_scale)]
        decades = (max(hi for hi, _ in logs) - min(lo for _, lo in logs)) / math.log(10)
        raise SolverError(
            f"stationary solve failed: weight {theta[worst]:.3e} at on-hand {on_hand} balances to "
            f"{imbalance[worst]:.1e} relative (tolerance {COMPONENTWISE_RTOL:.0e}); "
            f"log10(max/min) = {decades:.1f}"
        )
    return ThetaMeasure(grid=theta.reshape([bj + 1 for bj in gen.b]), provenance="exact")
