"""The two exact stationary solves on K.

``solve_theta_exact`` is the oracle every other route is checked against.
It censors the reduced generator level by level (total on-hand stock),
which involves no subtraction of like-signed terms.  Its cost grows with
the cube of the largest level, and its memory with the levels' blocks.

``solve_theta_iad`` iterates instead, on the transition arrays alone:
iterative aggregation-disaggregation over the levels, with red-black
Gauss-Seidel steps between level parities (Takahashi 1975; Koury,
McAllister & Stewart 1984).  Each half step is one compiled sparse
mat-vec over the edges into one level parity.  It holds a few arrays per
edge, so it reaches ``J >= 3`` boxes the level solver's cap refuses.  It
does not cover the transfer channel.

Both return their measure only when every state's own balance equation
holds (:func:`_gated`).  The two compiled kernels, LAPACK's ``dgesv`` for
the level solver and scipy's ``csr_matvec`` for the iterative one, are
loaded from scipy's extension module files, so that no ``scipy`` module is
imported (see :func:`_scipy_extension`); ``csr_matvec`` only on the first
iterative solve (:func:`_csr_matvec`).
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import PreconditionError, SolverError
from .generator import ReducedGenerator, _transition_arrays, net_inflow, relative_imbalance
from .model import NetworkConfig, ThetaMeasure, _on_hand_rows, method_inapplicable

__all__ = ["solve_theta_exact", "solve_theta_iad"]

# Largest relative imbalance |(wQ)_i| / (w_i q_i) a solve may leave in any
# state's balance equation.
COMPONENTWISE_RTOL = 1e-12
# A level's weights are rescaled when its first weight leaves this range.
SCALE_RANGE = (1e-100, 1e100)
# Weights below the smallest normal double have lost digits: they fail too.
TINY = np.finfo(float).tiny
# The iterative solve stops once every relative imbalance is at most
# IAD_RTOL, checked every IAD_CHECK sweeps, and fails after IAD_MAX_SWEEPS.
# At 1e-13 its weights agreed with the level solver's to 5.3e-13 or better
# on the solve-grid shapes and (20,20,20), (30,30,30), in 65-310 sweeps.
# Rates graded over three decades took up to about 4,500, or stalled.
IAD_RTOL = 1e-13
IAD_CHECK = 5
IAD_MAX_SWEEPS = 3000
# A level rescale is applied only while some level's factor is further than
# this from one.  Closer, it is the rounding of the cut sums: applied every
# sweep, it held (6,)*6 (117,649 states) at a residual of 1.4e-13 for 3,000
# sweeps; skipped, the solve stopped after 175.
IAD_RESCALE_MIN = 1e-12


def _package_dir(name: str) -> str:
    """The directory of the installed package ``name``, found without importing it."""
    return importlib.util.find_spec(name).submodule_search_locations[0]


def _scipy_extension(subpackage: str, name: str):
    """scipy's extension module ``scipy/<subpackage>/<name>``, loaded from its file.

    ``from scipy.linalg.lapack import dgesv`` would bind the same routine,
    but it runs ``scipy.linalg``'s ``__init__``: 85 scipy modules and about
    0.25 s of every process's start.  A module loaded from its file is not
    entered in ``sys.modules`` and imports no ``scipy`` module; each load
    takes under a millisecond.  There is no fallback: if scipy moves the
    file, importing qinet fails here.
    """
    directory = os.path.join(_package_dir("scipy"), subpackage)
    if (spec := importlib.machinery.PathFinder.find_spec(name, [directory])) is None:
        raise ImportError(f"scipy's extension module {name} is not in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# f2py's LAPACK binding.
dgesv = _scipy_extension("linalg", "_flapack").dgesv


@functools.cache
def _csr_matvec():
    """The compiled sparse kernel ``y += A x`` of a CSR matrix ``A`` that ``scipy.sparse.csr_matrix @ x`` runs.

    It is called as ``csr_matvec(rows, cols, indptr, indices, data, x, y)``.
    Only the iterative solve uses it, so its 4.5 MB module is loaded on the
    first call, not when qinet is imported.
    """
    return _scipy_extension("sparse", "_sparsetools").csr_matvec


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
    links its own library, with its own thread count, in the ``numpy.libs``
    or ``scipy.libs`` directory next to the package.  Both packages are
    located with :func:`_package_dir`, so no scipy module is imported.
    """
    found = []
    for package, name, suffix in (("numpy", "libscipy_openblas64_*.so", "64_"),
                                  ("scipy", "libscipy_openblas-*.so", "")):
        libs = os.path.join(_package_dir(package), os.pardir, f"{package}.libs", name)
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


def _censored_levels(gen: ReducedGenerator) -> tuple[list, list]:
    """Weights of every level, each scaled into range, and the natural log of each scale.

    Top-down, ``A_L = -same_L - R_{L+1} down_{L+1}`` is minus the generator
    of the chain censored to levels ``<= L``, restricted to level ``L``, and
    ``R_L = up_{L-1} A_L^{-1}``.  The diagonal of ``A_L`` is rebuilt as the
    row sum of ``down_L`` plus the negated off-diagonal entries
    (Grassmann-Taksar-Heyman), a sum of non-negative terms.  ``R_L`` comes
    from the LU factors of ``A_L^T``, which is column diagonally dominant, so
    partial pivoting leaves its rows in place.  Level ``L``'s blocks are
    written out when ``L`` is eliminated, ``down_L`` is kept for one more
    step and ``dgesv`` writes ``R_L`` over ``up_{L-1}``, so besides the
    ``R_L`` only one level's blocks are held.
    Level 0 is the single empty state: its weight is one, and
    ``pi_L = pi_{L-1} R_L`` gives the rest.
    """
    top = len(gen.sizes) - 1
    R, down = [None] * (top + 1), None
    for L in range(top, 0, -1):
        # The top level is the full box alone: nothing above it feeds back.
        A = np.zeros((1, 1)) if down is None else R[L + 1] @ down
        del down  # down_{L+1} is read: drop it before level L's blocks are written
        same, down, up = gen.level_blocks(L)
        if same is not None:
            A += same
        np.negative(A, out=A)
        diagonal = A.reshape(-1)[:: A.shape[0] + 1]
        diagonal[:] = 0.0
        np.subtract(np.add.reduce(down, 1), np.add.reduce(A, 1), out=diagonal)
        _, _, RT, info = dgesv(A.T, up.T, overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise SolverError(f"stationary solve failed: censored block of level {L} is singular")
        R[L] = RT.T
    pi, log_scale = [np.ones(1)], [0.0]
    low, high = SCALE_RANGE
    for L in range(1, top + 1):
        x = pi[-1] @ R[L]
        log_scale.append(log_scale[-1])
        if not low <= float(x[0]) <= high:
            scale = x.max()
            x /= scale
            log_scale[-1] += math.log(scale)
        pi.append(x)
    return pi, log_scale


def solve_theta_exact(gen: ReducedGenerator) -> ThetaMeasure:
    """Solve ``theta . Q_red = 0`` level by level, normalize, and pass the gate (:func:`_gated`).

    The levels are combined on their carried log scales, never clamped, and
    normalized.  The levels are solved on one BLAS thread.
    """
    with _one_blas_thread():
        pi, log_scale = _censored_levels(gen)
    top = max(log_scale)
    theta = np.empty(gen.size)
    # A level on the top scale is used as is: multiplying by exp(0) = 1 changes no bit.
    theta[gen.order] = np.concatenate([x if s == top else x * math.exp(s - top)
                                       for x, s in zip(pi, log_scale)])
    theta /= np.add.reduce(theta)
    return _gated(theta, gen.b, gen.src, gen.dst, gen.rate, gen.outflow, pi, log_scale, "exact")


def _gated(theta, b, src, dst, rate, outflow, pi, log_scale, provenance: str) -> ThetaMeasure:
    """The normalized canonical weights ``theta`` as a measure, once every balance equation holds.

    The answer is accepted only when every state's relative imbalance
    ``|(theta Q)_i| / (theta_i q_i)`` is at most ``COMPONENTWISE_RTOL``; a
    zero or subnormal weight fails too, and the :class:`SolverError` names
    the cell, its weight and the measure's dynamic range, read from the
    solve's pieces ``pi`` on their natural-log scales ``log_scale``.
    """
    net = net_inflow(src, dst, rate, outflow, theta)
    imbalance = relative_imbalance(outflow, net, theta)
    unbalanced = not np.maximum.reduce(imbalance) <= COMPONENTWISE_RTOL
    if unbalanced or np.minimum.reduce(theta) < TINY:
        worst = int(imbalance.argmax() if unbalanced else theta.argmin())
        on_hand = tuple(int(k) for k in np.unravel_index(worst, [bj + 1 for bj in b]))
        with np.errstate(divide="ignore"):  # a piece holding a zero reads -inf
            logs = [(np.log(x.max()) + s, np.log(x.min()) + s) for x, s in zip(pi, log_scale)]
        decades = (max(hi for hi, _ in logs) - min(lo for _, lo in logs)) / math.log(10)
        raise SolverError(
            f"stationary solve failed: weight {theta[worst]:.3e} at on-hand {on_hand} balances to "
            f"{imbalance[worst]:.1e} relative (tolerance {COMPONENTWISE_RTOL:.0e}); "
            f"log10(max/min) = {decades:.1f}"
        )
    return ThetaMeasure(grid=theta.reshape([bj + 1 for bj in b]), provenance=provenance)


def solve_theta_iad(config: NetworkConfig) -> tuple[ThetaMeasure, int, float]:
    """Solve ``theta . Q_red = 0`` by iterative aggregation-disaggregation: ``(measure, sweeps, residual)``.

    Without the transfer channel every move changes the level
    ``L = sum_j k_j`` by one, so the chain is bipartite by level parity.
    The weights start at one, and each sweep

    * (a) rescales every level so that every cut between levels ``L`` and
      ``L + 1`` balances: ``factor_{L+1} = factor_L * up_L / down_{L+1}``,
      the current weights' flows up and down across the cut.  This is the
      birth-death chain on the levels, a product of ratios with no
      subtraction.  Factors all within ``IAD_RESCALE_MIN`` of one are
      rounding, and are not applied;
    * (b) sets every odd-level weight to its inflow from the even levels
      over its outflow rate, then every even-level weight from the odd
      levels (red-black Gauss-Seidel).

    Each half step of (b) is one ``csr_matvec`` over a CSR operator built
    once per solve, whose rows are the states it sets, then a multiply by
    the inverse outflow rates.  The cut flows of (a) are two ``bincount``s
    over the states, of the weights times each state's summed rate up a
    level and down a level.

    After (b) every even-level state balances, so every ``IAD_CHECK``-th
    sweep skips (a) and reads the largest relative imbalance of the odd
    levels off its step: the componentwise residual ``residual`` of the
    weights ``sweeps`` sweeps in.  The solve stops at the first check at
    most ``IAD_RTOL``, and returns the weights it checked, normalized,
    once they pass the gate of :func:`solve_theta_exact` (:func:`_gated`).
    It raises :class:`SolverError` naming the sweeps and the residual
    after ``IAD_MAX_SWEEPS`` sweeps, at a non-finite residual, or when the
    gate refuses.  A config with the transfer channel, or whose arrays
    would pass ``DENSE_BYTES_CAP``, raises :class:`PreconditionError`.
    """
    if (reason := method_inapplicable(config, "iad")) is not None:
        raise PreconditionError(reason)
    src, dst, rate = _transition_arrays(config)[:3]
    b = config.b
    n, top = math.prod(bj + 1 for bj in b), sum(b)
    level = _on_hand_rows(b).sum(axis=1)
    odd = level & 1
    outflow = np.bincount(src, weights=rate, minlength=n)
    # The weights are held in level order, even levels first: each half step
    # writes one slice.  ``order[p]`` is the canonical index at position p.
    order = np.argsort(odd * (top + 1) + level, kind="stable")
    even = n - int(np.add.reduce(odd))
    level_at, inverse_q = level[order], 1.0 / outflow[order]
    # Each state's summed rate up a level and down a level: the cut flows
    # are the weights times these, summed per level.
    up = level[dst] > level[src]
    up_at = np.bincount(src[up], rate[up], minlength=n)[order]
    down_at = np.bincount(src[~up], rate[~up], minlength=n)[order]
    del up, odd, level
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    # One CSR operator per half step: row p holds the edges into position p
    # in edge order, the order in which the gate's net_inflow sums them.
    # Rows below ``even`` read the odd positions, the rest the even ones.
    tail = position[dst]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    # Sorted on the unique keys (target, edge), numpy's default sort keeps
    # edge order within a row; it took 0.7 ms against the stable sort's 1.5
    # at (3,)*6, and 3.9 against 5.2 at (30,30,30).
    tail *= src.size
    tail += np.arange(src.size)
    by_target = np.argsort(tail)
    del tail
    column, weight = position[src[by_target]], rate[by_target]
    del by_target, position
    split = int(indptr[even])
    column[:split] -= even
    into_even = (even, n - even, indptr[:even + 1], column[:split], weight[:split])
    into_odd = (n - even, even, indptr[even:] - split, column[split:], weight[split:])

    csr_matvec = _csr_matvec()
    pi, factor, flow, new = np.ones(n), np.ones(top + 1), np.empty(n), np.empty(n - even)
    evens, odds = pi[:even], pi[even:]
    even_q, odd_q = inverse_q[:even], inverse_q[even:]

    sweeps, residual = 0, math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            checking = sweeps > 0 and sweeps % IAD_CHECK == 0
            if not checking:
                ups = np.bincount(level_at, np.multiply(pi, up_at, out=flow), minlength=top + 1)
                downs = np.bincount(level_at, np.multiply(pi, down_at, out=flow), minlength=top + 1)
                np.cumprod(ups[:-1] / downs[1:], out=factor[1:])
                if not np.maximum.reduce(np.abs(factor - 1.0)) <= IAD_RESCALE_MIN:
                    pi *= factor[level_at]
            # Each half step: the inflow from the other parity, over the outflow rate.
            new.fill(0.0)
            csr_matvec(*into_odd, evens, new)
            new *= odd_q
            if checking:
                residual = float(np.maximum.reduce(np.abs(new / odds - 1.0)))
                if residual <= IAD_RTOL:
                    break
                if sweeps >= IAD_MAX_SWEEPS or not math.isfinite(residual):
                    why = "" if math.isfinite(residual) else ": a weight left the double range"
                    raise SolverError(
                        f"iterative aggregation-disaggregation stopped after {sweeps} sweeps at "
                        f"componentwise residual {residual:.1e} (tolerance {IAD_RTOL:.0e}){why}")
            odds[:] = new
            evens.fill(0.0)
            csr_matvec(*into_even, odds, evens)
            evens *= even_q
            sweeps += 1

    del into_even, into_odd, column, weight  # the gate's edge temporaries take their place
    theta = np.empty(n)
    theta[order] = pi
    theta /= np.add.reduce(theta)
    try:
        return _gated(theta, b, src, dst, rate, outflow, [theta], [0.0], "iad"), sweeps, residual
    except SolverError as exc:
        raise SolverError(f"{exc} (iterative aggregation-disaggregation, {sweeps} sweeps, "
                          f"residual {residual:.1e})") from exc
