"""Recursive balance-equation elimination for two locations.

For J = 2 with both base-stock levels above one the inventory measure
can be computed without any matrix solve: seed one corner weight, sweep
the grid row by row expressing each new entry through one balance
equation, and close each sweep by solving a designated balance equation
for the single scalar unknown ("kappa") the sweep introduced.

The elimination order is data: :func:`_sweeps` lists, sweep by sweep,
the seeded cell, the ``(equation, target)`` steps and the closing
equation.  Entries live in one array of affine pairs ``(a, c)`` meaning
``a + c * kappa``; closing a sweep substitutes kappa into every entry, so
one unknown at a time is always enough.  Every balance equation used must
reference only entries already derived (zero-rate terms excluded), and
:class:`SequencingError` is raised the moment that is violated rather
than silently reading garbage.

The balance equations are read off the transition arrays of
:mod:`qinet.generator`, the one description of the dynamics, so the
half-rate ties on the deficit diagonal are never hard-coded here.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateEliminationError, PreconditionError, SequencingError, SolverError
from .exact import ThetaMeasure
from .generator import _transition_arrays
# enumerate_inventory_states is unused here; perfbench/spans.py traces this binding.
from .model import NetworkConfig, enumerate_inventory_states, method_inapplicable  # noqa: F401

__all__ = ["solve_theta_recursive"]


def _balance_terms(config: NetworkConfig) -> dict:
    """Coefficients of every balance equation, keyed by on-hand state.

    ``terms[state]`` is ``[((k1, k2), coef), ...]`` such that the equation
    reads ``sum coef * theta(entry) = 0``: the state itself carries its
    total outflow rate (summed in family order), then each in-neighbour
    the negated rate into ``state``, in family order.  Zero-rate terms are
    absent, which is what makes the elimination schedule feasible.
    """
    b1, b2 = config.b
    src, dst, rate, family = _transition_arrays(config)
    cells = [divmod(s, b2 + 1) for s in range((b1 + 1) * (b2 + 1))]
    outflow = [0.0] * len(cells)
    for s, r in zip(src.tolist(), rate.tolist()):
        outflow[s] += r
    terms = {cell: [(cell, out)] for cell, out in zip(cells, outflow)}
    order = np.lexsort((family, dst))
    for s, d, r in zip(src[order].tolist(), dst[order].tolist(), rate[order].tolist()):
        terms[cells[d]].append((cells[s], -r))
    return terms


def _sweeps(b1: int, b2: int):
    """The elimination schedule, top row down: one ``(seed, steps, close)`` per sweep.

    Each sweep seeds kappa at ``seed``; each step ``(state, target)``
    derives ``target`` from the balance equation of ``state``; the
    balance equation of ``close`` then fixes kappa.  The corner
    ``(b1, 0)`` is seeded with weight one before the first sweep.
    """
    # First sweep: the right column from the corner up (its equations link
    # right-column entries only, so it stays free of kappa), the top row
    # left to right, the full corner from its own equation, one step inside.
    steps = [((b1, ell), (b1, ell + 1)) for ell in range(b2 - 1)]
    steps += [((k1, b2), (k1 + 1, b2)) for k1 in range(b1 - 1)]
    steps += [((b1, b2), (b1, b2)), ((b1 - 1, b2), (b1 - 1, b2 - 1))]
    yield (0, b2), steps, (b1, b2 - 1)
    # Middle sweeps: row k2 up to the column where the two deficits tie,
    # then down that diagonal column to the bottom row.
    for k2 in range(b2 - 1, 1, -1):
        diag = b1 - (b2 - k2)
        steps = [((k1, k2), (k1 + 1, k2)) for k1 in range(diag - 1)]
        steps.append(((diag - 1, k2), (diag - 1, k2 - 1)))
        steps += [((diag, ell), (diag, ell - 1)) for ell in range(k2, 0, -1)]
        yield (0, k2), steps, (diag, 0)
    # Bottom sweep: row one, then the rest of the bottom row leftwards.
    gap = b1 - b2
    steps = [((k1, 1), (k1 + 1, 1)) for k1 in range(gap)]
    steps += [((k1, 1), (k1, 0)) for k1 in (gap, gap + 1)]
    steps += [((k1, 0), (k1 - 1, 0)) for k1 in range(gap, 0, -1)]
    yield (0, 1), steps, (gap + 1, 0)


def _combine(table: np.ndarray, known: np.ndarray, terms, skip=None) -> tuple[float, float]:
    """``sum coef * table[entry]`` over ``terms`` in order, leaving out ``skip``."""
    a = c = 0.0
    for entry, coef in terms:
        if entry == skip:
            continue
        if not known[entry]:
            raise SequencingError(f"entry ({entry[0]},{entry[1]}) referenced before it was derived")
        ea, ec = table[entry].tolist()
        a += ea * coef
        c += ec * coef
    return a, c


def _put(table: np.ndarray, known: np.ndarray, cell, a: float, c: float) -> None:
    if known[cell]:
        raise SequencingError(f"entry ({cell[0]},{cell[1]}) derived twice")
    table[cell] = a, c
    known[cell] = True


def _sweep(table: np.ndarray, known: np.ndarray, terms: dict, seed, steps, close) -> None:
    """Run one schedule entry: seed kappa, derive each target, close, substitute."""
    _put(table, known, seed, 0.0, 1.0)
    for state, target in steps:
        a, c = _combine(table, known, terms[state], skip=target)
        coef = dict(terms[state]).get(target, 0.0)
        if coef == 0.0:
            raise SequencingError(f"balance equation of {state} does not involve {target}")
        _put(table, known, target, a * (-1.0 / coef), c * (-1.0 / coef))
    a, c = _combine(table, known, terms[close])
    if c == 0.0 or abs(c) <= 1e-14 * abs(a):
        raise DegenerateEliminationError(
            f"closing balance equation at {close} cannot determine kappa "
            f"(coefficient {c:.3e} against constant {a:.3e})"
        )
    kappa = -a / c
    dep = table[..., 1] != 0.0
    table[dep, 0] += table[dep, 1] * kappa
    table[..., 1] = 0.0


def solve_theta_recursive(config: NetworkConfig) -> ThetaMeasure:
    """Inventory measure for two locations with both base stocks above one.

    Seeds the corner ``(b1, 0)`` and runs the :func:`_sweeps` schedule,
    which is written for ``b1 >= b2``.  For ``b1 < b2`` the swapped network
    is solved and its grid transposed back; a :class:`SolverError` raised
    there names cells of the swapped network, and says so.
    """
    reason = method_inapplicable(config, "recursive")
    if reason:
        raise PreconditionError(reason)
    if config.b[0] < config.b[1]:
        swapped = replace(config, lam=config.lam[::-1], mu=config.mu[::-1], b=config.b[::-1])
        try:
            grid = solve_theta_recursive(swapped).grid.T
        except SolverError as exc:
            raise type(exc)(f"{exc} (locations swapped to b1 >= b2)") from exc
        return ThetaMeasure(grid=np.ascontiguousarray(grid), provenance="recursive")
    b1, b2 = config.b
    terms = _balance_terms(config)
    table = np.zeros((b1 + 1, b2 + 1, 2))
    known = np.zeros((b1 + 1, b2 + 1), dtype=bool)
    _put(table, known, (b1, 0), 1.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed, steps, close in _sweeps(b1, b2):
            _sweep(table, known, terms, seed, steps, close)
    if not known.all():
        raise SequencingError("table is not complete")
    grid = table[..., 0].copy()
    k1, k2 = np.unravel_index(np.argmin(grid), grid.shape)
    if grid[k1, k2] <= 0:
        raise SolverError(
            f"non-positive weight {grid[k1, k2]:.3e} at on-hand ({k1}, {k2}) in recursive table "
            f"(floor 0)"
        )
    return ThetaMeasure(grid=grid / grid.sum(), provenance="recursive")
