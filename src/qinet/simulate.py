"""Event-driven simulation of the full joint process.

Classic exponential-race simulation: the holding time in each state is
exponential with the total outflow rate, the jump is drawn categorically
from the outgoing rates, and statistics are time-weighted occupancies.

Randomness comes from ``numpy.random.default_rng`` (PCG64) seeded by the
caller, so a run is fully reproducible from its seed.  Uniforms and then
exponentials are drawn in blocks of ``_BLOCK`` and reach the event loop
as Python floats, ``_SLICE`` of each at a time: indexing a numpy array
and computing on its scalars costs several times as much per event.

The outgoing moves come from the move table of :mod:`qinet.generator`:
an arrival at location i is admitted exactly where consumption at i
leaves the inventory state, and a service at i is that same move at rate
``mu_i(n_i)``.  Rates only depend on the queue vector through, per
location, "empty / one of the head levels / in the constant tail": its
signature.  Everything is built on first use.  A signature holds its
service rates, a state its moves read from its row of the move table,
and a (signature, state) pair its row: the total rate, the running rate
sums and the moves.  Rows are dropped once ``SIMULATE_MAX_ROWS`` are
kept, so only the occupancies grow with the run.  An event reads its
row, adds the holding time to its cell's occupancy, and picks the move
by bisecting the running sums.  The cell's code (clipped queue vector
and inventory index in one integer) and the row's key (signature and
inventory index in one integer) are running sums: a queue move adds to
them only when it changes a location's clipped length or signature.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import analysis
from .errors import ErgodicityError, PreconditionError
from .generator import _move_table
# enumerate_inventory_states is unused here; perfbench/spans.py traces this binding.
from .model import (SIMULATE_MAX_ROWS, NetworkConfig, ThetaMeasure, enumerate_inventory_states,  # noqa: F401
                    method_inapplicable)

__all__ = ["SimulationResult", "simulate", "decoupling_test", "merge_results"]

_BLOCK = 1 << 15
# Draws converted to Python floats at a time; a block is 8 slices.
# Converting whole blocks costs more memory for no more speed.
_SLICE = 1 << 12
# Fraction of each run's events discarded before occupancies are recorded.
BURN_IN = 0.1


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Time-weighted occupancy statistics of one run (or a merge of runs).

    Three parallel arrays over the visited cells, in first-visit order for
    a single run.  Queue lengths are clipped at ``n_obs`` (the last bucket
    means "at least n_obs").  Marginals are ``np.bincount`` reductions, e.g.
    ``np.bincount(queues[:, j - 1], mass)`` for the queue at location j.
    """

    b: tuple[int, ...]
    n_obs: int
    seed: int | tuple[int, ...]
    total_events: int
    events: int            # events that contributed after burn-in
    sim_time: float        # simulated time after burn-in
    queues: np.ndarray     # (cells, J) clipped queue vectors
    states: np.ndarray     # (cells,) canonical inventory indices
    mass: np.ndarray       # (cells,) occupancy fractions

    def empirical_theta(self) -> ThetaMeasure:
        """Empirical inventory measure; unvisited states carry zero mass.

        The grid is divided by its own sum: ``mass`` is occupancy over the
        run's summed holding times, and over a long run that sum drifts from
        the occupancies' own sum by more than the measure's ``1e-12``.
        """
        shape = [bj + 1 for bj in self.b]
        grid = np.bincount(self.states, self.mass, minlength=math.prod(shape))
        return ThetaMeasure(grid=(grid / grid.sum()).reshape(shape), provenance="empirical")


def _transition_tables(config: NetworkConfig, require_stock_for_service: bool):
    """Signature caps, service rates per signature and moves per state, read off the move table.

    ``service_rates(sig)`` is the ``J`` service rates under queue signature
    ``sig`` (0 at an empty queue).  ``moves(mu, k)`` lists ``(rate, delta)``
    out of inventory index ``k`` under service rates ``mu``, in column order:
    ``J`` arrivals, ``J`` services, then the columns of
    :func:`~qinet.generator._move_table` after its consumption ones; an
    absent move is left out.  Each delta is ``(location, dn, new_k_index)``;
    ``location == -1`` means the queues do not move.  A state's moves are
    read from its table row on first use and kept, so every signature shares
    its delta tuples.  ``require_stock_for_service=False`` builds a
    deliberately coupled counter-model in which servers keep working with
    depleted stock (draining the queue without consuming inventory); it
    exists purely as a negative control for the decoupling test.
    """
    J = config.J
    caps = [len(p.head) + 1 for p in config.mu]  # signature cap per location
    table, steps = _move_table(config)
    steps = steps.tolist()
    states: dict[int, tuple] = {}
    by_level = [[0.0] + [p.rate(s) for s in range(1, c + 1)] for p, c in zip(config.mu, caps)]

    def service_rates(sig):
        return [rates[s] for rates, s in zip(by_level, sig)]

    def moves(mu, k):
        found = states.get(k)
        if found is None:
            # An arrival at i is admitted, and a service at i consumes
            # stock, exactly where consumption at i leaves the state.
            row = table[k].tolist()
            found = states[k] = (
                [(r, (i, 1, k)) for i, r in enumerate(row[:J]) if r > 0],
                [(i, (i, -1, k + steps[i] if r > 0 else k)) for i, r in enumerate(row[:J])
                 if r > 0 or not require_stock_for_service],
                [(r, (-1, 0, k + s)) for r, s in zip(row[J:], steps[J:]) if r > 0],
            )
        arrivals, services, inventory = found
        return arrivals + [(mu[i], delta) for i, delta in services if mu[i] > 0] + inventory

    return caps, service_rates, moves


def _slices(total_events: int, burn: int):
    """Event ranges ``(start, stop)`` of at most ``_SLICE`` events, split at ``burn``.

    Slices never cross a block of ``_BLOCK`` draws.  What the loop has
    recorded when a range starts at ``burn`` is dropped there.
    """
    for start in range(0, total_events, _SLICE):
        stop = min(start + _SLICE, total_events)
        if start < burn < stop:
            yield start, burn
            start = burn
        yield start, stop


def _code_dtype(J: int, clip: int, n_states: int):
    """The dtype of cell codes: int64, or Python ints where a huge ``n_obs`` pushes them past int64."""
    return object if clip**J * n_states > np.iinfo(np.int64).max else np.int64


def _pack(queues: np.ndarray, states, clip: int, n_states: int) -> np.ndarray:
    """Cell codes ``sum_i q_i * clip**(J-1-i) * n_states + k``, which sort as the cells do.

    ``states`` is an array of inventory indices ``k``, or one index for every cell.
    """
    dtype = _code_dtype(queues.shape[1], clip, n_states)
    codes = np.zeros(len(queues), dtype=dtype)
    for column in queues.T.astype(dtype):
        codes = codes * clip + column
    return codes * n_states + np.asarray(states, dtype=dtype)


def _unpack(codes: np.ndarray, J: int, clip: int, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """``(queues, states)`` of cell codes, last digit first."""
    states = (codes % n_states).astype(np.intp)
    codes = codes // n_states
    queues = np.empty((len(codes), J), dtype=np.int64)
    for i in range(J - 1, -1, -1):
        queues[:, i] = codes % clip
        codes //= clip
    return queues, states


def simulate(
    config: NetworkConfig,
    total_events: int,
    seed: int,
    n_obs: int = 8,
    require_stock_for_service: bool = True,
) -> SimulationResult:
    """Simulate ``total_events`` jumps and return time-weighted occupancies.

    The first ``BURN_IN`` fraction of events is discarded.  Starts from
    empty queues with full inventories.  Refuses a negative ``seed``, a box
    whose move table and rows would pass ``DENSE_BYTES_CAP`` (before
    anything is allocated) and a non-ergodic configuration, naming each
    unstable location.
    """
    if total_events < 1:
        raise PreconditionError("total_events must be >= 1")
    if n_obs < 0:
        raise PreconditionError("n_obs must be >= 0")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    if (reason := method_inapplicable(config, "simulate")) is not None:
        raise PreconditionError(reason)
    report = analysis.ergodicity_check(config)
    if not report.ergodic:
        bad = "; ".join(f"location {d.location} UNSTABLE, lambda={d.lam:g} vs tail rate "
                        f"{d.tail_rate:g}" for d in report.per_location if not d.ergodic)
        raise ErgodicityError(f"simulation refused: configuration is not ergodic: {bad}")

    caps, service_rates, moves = _transition_tables(config, require_stock_for_service)
    n_states = math.prod(bj + 1 for bj in config.b)
    J = config.J
    clip = n_obs + 1
    # Occupancy code of a cell: sum_i min(n_i, n_obs) * place[i] + k.
    place = [clip ** (J - 1 - i) * n_states for i in range(J)]
    # Row keys: sum_i min(n_i, caps[i]) * sig_place[i] + k, one dict of rows
    # (total, cum, deltas) over the visited (signature, state) pairs, dropped
    # with the service rates (kept per signature code only to build rows)
    # once it holds max_rows: a row is rebuilt the same, so the stream is too.
    sig_place = [math.prod(c + 1 for c in caps[i + 1 :]) * n_states for i in range(J)]
    rows: dict[int, tuple] = {}
    mus: dict[int, list] = {}
    max_rows = SIMULATE_MAX_ROWS

    rng = np.random.default_rng(seed)
    n = [0] * J
    code = 0  # queue part of the occupancy code
    sig = 0  # signature part of the row key
    kidx = n_states - 1  # all inventories full in canonical (lexicographic) order

    burn = int(round(BURN_IN * total_events))
    # A plain dict of floats, not a defaultdict: the cyclic GC stops tracking it.
    occ: dict[int, float] = {}
    t_acc = 0.0
    for start, stop in _slices(total_events, burn):
        if start % _BLOCK == 0:
            uniforms = rng.random(_BLOCK)
            exponentials = rng.standard_exponential(_BLOCK)
        if start == burn:
            occ, t_acc = {}, 0.0
        first = start % _BLOCK
        last = first + stop - start
        for u, e in zip(uniforms[first:last].tolist(), exponentials[first:last].tolist()):
            try:
                total, cum, deltas = rows[sig + kidx]
            except KeyError:
                if len(rows) >= max_rows:
                    rows.clear()
                    mus.clear()
                mu = mus.get(sig)
                if mu is None:
                    mu = mus[sig] = service_rates([min(m, c) for m, c in zip(n, caps)])
                rates, deltas = zip(*moves(mu, kidx))
                cum = tuple(accumulate(rates))  # a tuple of floats, which the cyclic GC stops tracking
                total = cum[-1]
                rows[sig + kidx] = total, cum, deltas
            dt = e / total
            occ[code + kidx] = occ.get(code + kidx, 0.0) + dt
            t_acc += dt
            loc, dn, kidx = deltas[bisect_left(cum, u * total)]
            if loc >= 0:
                x = n[loc] + dn
                n[loc] = x
                top = x if dn > 0 else x + 1  # the larger of the old and new length
                if top <= n_obs:
                    code += place[loc] if dn > 0 else -place[loc]
                if top <= caps[loc]:
                    sig += sig_place[loc] if dn > 0 else -sig_place[loc]

    if t_acc <= 0:
        raise PreconditionError("no simulated time left after burn-in")

    # Unpacked with the rows and the occupancy dict already dropped.
    rows.clear()
    mass = np.fromiter(occ.values(), dtype=float, count=len(occ)) / t_acc
    codes = np.fromiter(occ, dtype=_code_dtype(J, clip, n_states), count=len(occ))
    del occ
    queues, states = _unpack(codes, J, clip, n_states)

    return SimulationResult(
        b=config.b,
        n_obs=n_obs,
        seed=seed,
        total_events=total_events,
        events=total_events - burn,
        sim_time=t_acc,
        queues=queues,
        states=states,
        mass=mass,
    )


def decoupling_test(result: SimulationResult) -> float:
    """TV distance between the empirical joint and the product of its marginals.

    Zero means the clipped joint factorizes exactly into (queue vector
    marginal) x (inventory marginal); the product-form theory predicts a
    small value for long ergodic runs of the true dynamics.  The sum runs
    over visited queue vectors x visited states; an unvisited pair
    contributes its product mass.
    """
    # Queue vectors grouped by their codes without the inventory digit.
    qid = np.unique(_pack(result.queues, 0, result.n_obs + 1, 1), return_inverse=True)[1]
    pn = np.bincount(qid, result.mass)
    pk = np.bincount(result.states, result.mass)
    product = pn[qid] * pk[result.states]
    unvisited = pn.sum() * pk.sum() - product.sum()
    return 0.5 * float(np.abs(result.mass - product).sum() + unvisited)


def merge_results(results) -> SimulationResult:
    """Time-weighted average of independent replications."""
    results = list(results)
    if not results:
        raise PreconditionError("nothing to merge")
    first = results[0]
    if any(r.b != first.b or r.n_obs != first.n_obs for r in results):
        raise PreconditionError("replications must share b and n_obs")
    total_time = sum(r.sim_time for r in results)
    clip, n_states = first.n_obs + 1, math.prod(bj + 1 for bj in first.b)
    codes = np.concatenate([_pack(r.queues, r.states, clip, n_states) for r in results])
    weighted = np.concatenate([r.sim_time / total_time * r.mass for r in results])
    codes, inverse = np.unique(codes, return_inverse=True)
    queues, states = _unpack(codes, len(first.b), clip, n_states)
    seeds = [s for r in results for s in (r.seed if isinstance(r.seed, tuple) else (r.seed,))]
    return SimulationResult(
        b=first.b,
        n_obs=first.n_obs,
        seed=tuple(seeds),
        total_events=sum(r.total_events for r in results),
        events=sum(r.events for r in results),
        sim_time=total_time,
        queues=queues,
        states=states,
        mass=np.bincount(inverse, weighted),
    )
