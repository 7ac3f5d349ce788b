"""Recursive balance-equation elimination for two locations.

For J = 2 with base-stock levels ``b1 >= b2 > 1`` the inventory measure
can be computed without any matrix solve: seed one corner weight, sweep
the grid row by row expressing each new entry through one balance
equation, and close each sweep by solving a designated balance equation
for the single scalar unknown ("kappa") the sweep introduced.

Entries are carried symbolically as affine forms ``a + c * kappa`` until
the closing step resolves kappa; each sweep is fully resolved before the
next begins, so one unknown at a time is always enough.  The elimination
order matters: every balance equation used must reference only entries
that are already in the table (zero-rate terms excluded), and the
implementation raises :class:`SequencingError` the moment that is
violated rather than silently reading garbage.

The balance equations are read off the transition arrays of
:mod:`qinet.generator`, the one description of the dynamics, so the
half-rate ties on the deficit diagonal are never hard-coded here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEliminationError, PreconditionError, SequencingError, SolverError
from .exact import ThetaMeasure
from .generator import _transition_arrays
# enumerate_inventory_states is unused here; perfbench/spans.py traces this binding.
from .model import NetworkConfig, enumerate_inventory_states, method_inapplicable  # noqa: F401

__all__ = ["AffineKappa", "ThetaTable", "gbe_residual", "solve_theta_recursive"]


@dataclass(frozen=True)
class AffineKappa:
    """Value of the form ``a + c * kappa`` with exact linear arithmetic."""

    a: float
    c: float

    def __add__(self, other: "AffineKappa") -> "AffineKappa":
        return AffineKappa(self.a + other.a, self.c + other.c)

    def __sub__(self, other: "AffineKappa") -> "AffineKappa":
        return AffineKappa(self.a - other.a, self.c - other.c)

    def __neg__(self) -> "AffineKappa":
        return AffineKappa(-self.a, -self.c)

    def scaled(self, factor: float) -> "AffineKappa":
        return AffineKappa(self.a * factor, self.c * factor)

    def resolve(self, kappa: float) -> float:
        return self.a + self.c * kappa

    @property
    def is_constant(self) -> bool:
        # Exact: sweeps that never touch kappa keep c == 0.0 bit for bit.
        return self.c == 0.0


class ThetaTable:
    """Partially filled ``(b1+1) x (b2+1)`` grid of affine entries.

    Indexed by on-hand levels ``(k1, k2)``; the supplier coordinate is
    implied.  ``get`` raises :class:`SequencingError` for entries the
    elimination has not produced yet.
    """

    def __init__(self, b1: int, b2: int):
        self.b1 = int(b1)
        self.b2 = int(b2)
        self._grid: list[list[AffineKappa | None]] = [
            [None] * (self.b2 + 1) for _ in range(self.b1 + 1)
        ]

    def _check_bounds(self, k1: int, k2: int) -> None:
        if not (0 <= k1 <= self.b1 and 0 <= k2 <= self.b2):
            raise KeyError((k1, k2))

    def get(self, k1: int, k2: int) -> AffineKappa:
        self._check_bounds(k1, k2)
        value = self._grid[k1][k2]
        if value is None:
            raise SequencingError(
                f"entry ({k1},{k2}) referenced before it was derived"
            )
        return value

    def set(self, k1: int, k2: int, value: AffineKappa, overwrite: bool = False) -> None:
        self._check_bounds(k1, k2)
        if not overwrite and self._grid[k1][k2] is not None:
            raise SequencingError(f"entry ({k1},{k2}) derived twice")
        self._grid[k1][k2] = value

    def resolve_kappa(self, kappa: float) -> None:
        """Substitute kappa into every entry that still depends on it."""
        for row in self._grid:
            for j, value in enumerate(row):
                if value is not None and value.c != 0.0:
                    row[j] = AffineKappa(value.resolve(kappa), 0.0)

    def assert_resolved(self) -> None:
        for k1, row in enumerate(self._grid):
            for k2, value in enumerate(row):
                if value is not None and not value.is_constant:
                    raise SolverError(
                        f"entry ({k1},{k2}) still depends on kappa after resolution"
                    )

    def is_complete(self) -> bool:
        return all(value is not None for row in self._grid for value in row)

    def values(self) -> np.ndarray:
        """Dense grid of resolved values (entries must be complete and constant)."""
        if not self.is_complete():
            raise SequencingError("table is not complete")
        self.assert_resolved()
        return np.array([[v.a for v in row] for row in self._grid])


def _balance_terms(config: NetworkConfig) -> dict:
    """Coefficients of every balance equation, keyed by on-hand state.

    ``terms[state]`` is ``[((k1, k2), coef), ...]`` such that the equation
    reads ``sum coef * theta(entry) = 0``: the state itself carries its
    total outflow rate (summed in family order), then each in-neighbour
    the negated rate into ``state``, in family order.  Zero-rate terms are
    absent, which is what makes the printed elimination order feasible.
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


def _residual(table: ThetaTable, terms) -> AffineKappa:
    residual = AffineKappa(0.0, 0.0)
    for entry, coef in terms:
        residual = residual + table.get(*entry).scaled(coef)
    return residual


def gbe_residual(table: ThetaTable, config: NetworkConfig, state: tuple[int, int]) -> AffineKappa:
    """Left side minus right side of the balance equation at ``state``.

    Every entry with a nonzero coefficient must be present in the table.
    """
    if config.J != 2:
        raise PreconditionError("balance tables are two-dimensional (J = 2)")
    return _residual(table, _balance_terms(config)[tuple(state)])


def _derive(table: ThetaTable, terms: dict, state, target) -> AffineKappa:
    """Use the balance equation of ``state`` to express ``target``."""
    coef_target = None
    acc = AffineKappa(0.0, 0.0)
    for entry, coef in terms[state]:
        if entry == tuple(target):
            coef_target = coef
        else:
            acc = acc + table.get(*entry).scaled(coef)
    if coef_target is None or coef_target == 0.0:
        raise SequencingError(
            f"balance equation of {state} does not involve {tuple(target)}"
        )
    value = acc.scaled(-1.0 / coef_target)
    table.set(*target, value)
    return value


def _close(table: ThetaTable, terms: dict, state) -> float:
    """Solve the balance equation of ``state`` for kappa."""
    residual = _residual(table, terms[state])
    if residual.c == 0.0 or abs(residual.c) <= 1e-14 * abs(residual.a):
        raise DegenerateEliminationError(
            f"closing balance equation at {tuple(state)} cannot determine kappa "
            f"(coefficient {residual.c:.3e} against constant {residual.a:.3e})"
        )
    return -residual.a / residual.c


def solve_theta_recursive(config: NetworkConfig) -> ThetaMeasure:
    """Inventory measure for two locations with ``b1 >= b2 > 1``.

    Sweeps the grid top row down.  The first sweep (full top row plus the
    full right column), the middle sweeps (one row plus the adjoining
    diagonal column segment each) and the final bottom sweep each
    introduce one fresh kappa, derive entries as affine forms, close with
    a designated balance equation and substitute before moving on.
    """
    reason = method_inapplicable(config, "recursive")
    if reason:
        raise PreconditionError(reason)
    b1, b2 = config.b
    terms = _balance_terms(config)

    table = ThetaTable(b1, b2)
    table.set(b1, 0, AffineKappa(1.0, 0.0))

    for k2 in range(b2, 0, -1):
        if k2 == b2:
            _sweep_top(table, b1, b2, terms)
        elif k2 >= 2:
            _sweep_middle(table, b1, b2, terms, k2)
        else:
            _sweep_bottom(table, b1, b2, terms)
        table.assert_resolved()

    grid = table.values()  # raises SequencingError if an entry is missing
    if grid.min() <= 0:
        raise SolverError(f"non-positive weight {grid.min():.3e} in recursive table")
    return ThetaMeasure(grid=grid / grid.sum(), normalized=True, provenance="recursive")


def _sweep_top(table: ThetaTable, b1: int, b2: int, terms: dict) -> None:
    """First sweep: top row and right column."""
    table.set(0, b2, AffineKappa(0.0, 1.0))
    # Right column from the seed upwards; these balance equations only link
    # right-column entries, so each result must stay independent of kappa.
    for ell in range(0, b2 - 1):
        value = _derive(table, terms, (b1, ell), (b1, ell + 1))
        if not value.is_constant:
            raise SolverError(
                f"right-column entry ({b1},{ell + 1}) unexpectedly depends on kappa"
            )
    # Top row left to right.
    for k1 in range(0, b1 - 1):
        _derive(table, terms, (k1, b2), (k1 + 1, b2))
    # Full corner from its own balance equation, then step inside.
    _derive(table, terms, (b1, b2), (b1, b2))
    _derive(table, terms, (b1 - 1, b2), (b1 - 1, b2 - 1))
    kappa = _close(table, terms, (b1, b2 - 1))
    table.resolve_kappa(kappa)


def _sweep_middle(table: ThetaTable, b1: int, b2: int, terms: dict, k2: int) -> None:
    """Row ``b2 > k2 >= 2`` plus the diagonal-column segment below it."""
    diag = b1 - (b2 - k2)  # column where the two deficits tie on this row
    table.set(0, k2, AffineKappa(0.0, 1.0))
    for k1 in range(0, diag):
        if k1 < diag - 1:
            _derive(table, terms, (k1, k2), (k1 + 1, k2))
        else:
            _derive(table, terms, (k1, k2), (k1, k2 - 1))
    for ell in range(k2, 0, -1):
        _derive(table, terms, (diag, ell), (diag, ell - 1))
    kappa = _close(table, terms, (diag, 0))
    table.resolve_kappa(kappa)


def _sweep_bottom(table: ThetaTable, b1: int, b2: int, terms: dict) -> None:
    """Final sweep: row one and the remaining bottom row."""
    gap = b1 - b2
    table.set(0, 1, AffineKappa(0.0, 1.0))
    for k1 in range(0, gap + 2):
        if k1 < gap:
            _derive(table, terms, (k1, 1), (k1 + 1, 1))
        else:
            _derive(table, terms, (k1, 1), (k1, 0))
    for k1 in range(gap, 0, -1):
        _derive(table, terms, (k1, 0), (k1 - 1, 0))
    kappa = _close(table, terms, (gap + 1, 0))
    table.resolve_kappa(kappa)
