"""Event-driven simulation of the full joint process.

Classic exponential-race simulation: the holding time in each state is
exponential with the total outflow rate, the jump is drawn categorically
from the outgoing rates, and statistics are time-weighted occupancies.

Randomness comes from ``numpy.random.default_rng`` (PCG64) seeded by the
caller, so a run is fully reproducible from its seed.  Uniforms and then
exponentials are drawn in blocks of ``_BLOCK`` and read ``_SLICE`` at a
time: the uniforms reach the event loop as Python floats, as indexing a
numpy array and computing on its scalars costs several times as much per
event, while the exponentials stay in numpy for the slice's accounting.

The outgoing moves come from the move table of :mod:`qinet.generator`:
an arrival at location i is admitted exactly where consumption at i
leaves the inventory state, and a service at i is that same move at rate
``mu_i(n_i)``.  Each move is a fixed column ``(location, dn, dk)``: the
queue at the location changes by ``dn`` and the inventory index by
``dk``, in every state.  Rates only depend on the queue vector through,
per location, "empty / one of the head levels / in the constant tail":
its signature.

The event loop keeps one integer, the key: the queue lengths clipped at
``top = max(n_obs, signature caps)`` as digits, and the inventory index.
The key fixes both the occupancy cell and the row, so an event is one
dict lookup of its entry ``(id, total, cum, steps)``: it logs the entry's
id, bisects the running sums and adds the picked step to the key.  After
each slice, and before the entries are dropped, numpy does the slice's
accounting in event order: each holding time is the event's exponential
over its entry's total rate, added to the occupancy of the entry's cell
and to the clock.  A miss decodes the key's queue vector, once per
vector, into its signature, cell code and service rates, then reads the
(signature, state) row ``(total, cum, steps)``, built on first use from
the state's parallel move rates and columns with one shared integer step
per column, stores the entry under the next id and takes the hit path.
A location at its top digit keeps its excess ``n_i - top`` in a counter:
its queue moves are stored as their columns, which the integer add
refuses, and are stepped one by one.  A cell gets the next slot on its
first visit.  Entries and rows are dropped once either holds
``SIMULATE_MAX_ROWS``, and the entries at the burn-in too, so only the
occupancies grow with the run.  A run returns each cell's code and
occupancy (:class:`SimulationResult`); no other module reads the codes.
"""
from __future__ import annotations

import gc
import math
from array import array
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
# Uniforms converted to Python floats, and events accounted, at a time; a
# block is 8 slices.  Converting whole blocks costs more memory for no more
# speed.
_SLICE = 1 << 12
# Fraction of each run's events discarded before occupancies are recorded.
BURN_IN = 0.1


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Time-weighted occupancy statistics of one run (or a merge of runs).

    Two parallel arrays over the visited cells, in first-visit order for a
    single run and in code order for a merge: ``codes``, one integer per
    cell, and ``mass``.  A cell's code is ``sum_i q_i * clip**(J-1-i) *
    n_states + k`` with ``clip = n_obs + 1``, which sorts as the cells do:
    its queue lengths ``q_i`` clipped at ``n_obs`` (the last bucket means
    "at least n_obs") and its canonical inventory index ``k``.  ``queue(j)``,
    ``queues`` and ``states`` are computed from the codes on each read.
    Marginals are ``np.bincount`` reductions, e.g. ``np.bincount(queue(j),
    mass)`` for the queue at location j.
    """

    b: tuple[int, ...]
    n_obs: int
    seed: int | tuple[int, ...]
    total_events: int
    events: int            # events that contributed after burn-in
    sim_time: float        # simulated time after burn-in
    codes: np.ndarray      # (cells,) cell codes: int64, or Python ints where a huge n_obs passes int64
    mass: np.ndarray       # (cells,) occupancy fractions

    @property
    def _n_states(self) -> int:
        return math.prod(bj + 1 for bj in self.b)

    def queue(self, j: int) -> np.ndarray:
        """``(cells,)`` clipped queue lengths at location ``j`` (1-based): its digit of the codes."""
        clip = self.n_obs + 1
        return (self.codes // (clip ** (len(self.b) - j) * self._n_states) % clip).astype(np.int64)

    @property
    def queues(self) -> np.ndarray:
        """``(cells, J)`` clipped queue vectors."""
        return np.stack([self.queue(j) for j in range(1, len(self.b) + 1)], axis=1)

    @property
    def states(self) -> np.ndarray:
        """``(cells,)`` canonical inventory indices."""
        return (self.codes % self._n_states).astype(np.intp)

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
    """Signature caps, service rates by level, moves per state and move columns.

    ``columns[c]`` is move column ``c`` as ``(location, dn, dk)``: the queue
    at ``location`` changes by ``dn`` (``location == -1``: no queue moves)
    and the inventory index by ``dk``, whatever the state.  The columns are
    ``J`` arrivals, ``J`` services that consume stock, the columns of
    :func:`~qinet.generator._move_table` after its consumption ones and, for
    the counter-model only, ``J`` services that do not.
    ``by_level[i][s]`` is location ``i``'s service rate at signature level
    ``s`` (0 empty, ``caps[i]`` the tail).  ``moves(mu, k)`` gives the
    parallel lists ``(rates, columns)`` of the moves out of inventory index
    ``k`` under service rates ``mu``: arrivals, services by location, then
    inventory moves; an absent move is left out.  A state's arrival and
    inventory moves, and its service columns, are read from its table row on
    first use and kept; the services are spliced in at ``mu`` on each call.
    ``require_stock_for_service=False`` builds a deliberately coupled
    counter-model in which servers keep working with depleted stock
    (draining the queue without consuming inventory); it exists purely as a
    negative control for the decoupling test.
    """
    J = config.J
    caps = [len(p.head) + 1 for p in config.mu]  # signature cap per location
    table, steps = _move_table(config)
    steps = steps.tolist()
    columns = ([(i, 1, 0) for i in range(J)] + [(i, -1, steps[i]) for i in range(J)]
               + [(-1, 0, s) for s in steps[J:]])
    unstocked = len(columns)
    if not require_stock_for_service:
        columns += [(i, -1, 0) for i in range(J)]
    states: dict[int, tuple] = {}
    by_level = [[0.0] + [p.rate(s) for s in range(1, c + 1)] for p, c in zip(config.mu, caps)]

    def moves(mu, k):
        found = states.get(k)
        if found is None:
            # An arrival at i is admitted, and a service at i consumes
            # stock, exactly where consumption at i leaves the state.
            row = table[k].tolist()
            arrivals = [i for i, r in enumerate(row[:J]) if r > 0]
            inventory = [c for c, r in enumerate(row[J:], 2 * J) if r > 0]  # row[c - J] is column c's rate
            found = states[k] = (
                tuple([row[i] for i in arrivals]), tuple(arrivals),
                tuple([(i, J + i if r > 0 else unstocked + i) for i, r in enumerate(row[:J])
                       if r > 0 or not require_stock_for_service]),
                tuple([row[c - J] for c in inventory]), tuple(inventory),
            )
        arrival_rates, arrival_cols, services, inventory_rates, inventory_cols = found
        rates, cols = list(arrival_rates), list(arrival_cols)
        # The service band at these rates: a loop, as a comprehension costs a call.
        for i, c in services:
            if mu[i] > 0:
                rates.append(mu[i])
                cols.append(c)
        rates += inventory_rates
        cols += inventory_cols
        return rates, cols

    return caps, by_level, moves, columns


def _account(vals, slot_of, total_of, ids, exponentials, clock: float) -> float:
    """Add the holding times of the events whose entry ids are logged, in event order.

    The events drew ``exponentials[:len(ids)]``.  Each holding time is its
    draw over its entry's total rate; it goes to its cell's occupancy with
    ``np.add.at``, which adds repeated slots one after another, and to the
    clock by a running sum: both sum in event order, as a Python loop
    would.  Returns the clock after the events.
    """
    if not ids:
        return clock
    ids = np.fromiter(ids, np.intp, len(ids))
    dt = exponentials[: len(ids)] / np.frombuffer(total_of)[ids]
    np.add.at(np.frombuffer(vals), np.frombuffer(slot_of, np.int64)[ids], dt)
    dt[0] += clock
    return float(np.cumsum(dt)[-1])


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

    caps, by_level, moves, columns = _transition_tables(config, require_stock_for_service)
    n_states = math.prod(bj + 1 for bj in config.b)
    J = config.J
    clip = n_obs + 1
    # The loop's state is one key, sum_i min(n_i, top) * place[i] + k, and
    # excess[i] = n_i - top for a location at its top digit.  With top at
    # least n_obs and every signature cap, the key fixes the cell (digits
    # clipped at n_obs, code_place) and the row (digits clipped at the caps,
    # sig_place); with top == n_obs it is the cell's code.
    top = max(n_obs, *caps)
    radix = top + 1
    place = [radix ** (J - 1 - i) * n_states for i in range(J)]
    code_place = [clip ** (J - 1 - i) * n_states for i in range(J)]
    sig_place = [math.prod(c + 1 for c in caps[i + 1 :]) * n_states for i in range(J)]
    decode = list(enumerate(zip(place, caps, sig_place, code_place, by_level)))
    # Move column c changes the key by column_step[c], one int object that
    # every row shares (a location at -1 has dn 0).
    column_step = [dk + dn * place[loc] for loc, dn, dk in columns]
    # entries: key -> (id, total, cum, steps), where vals[slot_of[id]] is
    # the cell's occupancy and steps[m] the key's change under move m, or for
    # a queue move at a top digit its column (loc, dn, dk).  slots: cell code
    # -> slot, in first-visit order.  rows: sig + k -> (total, cum, steps).
    # vectors: queue part of a key -> (sig, code, locations at the top digit
    # or None, service rates).  The caches are rebuilt the same, so the
    # stream is too: all are dropped once entries or rows hold SIMULATE_MAX_ROWS.
    entries: dict[int, tuple] = {}
    rows: dict[int, tuple] = {}
    vectors: dict[int, tuple] = {}

    rng = np.random.default_rng(seed)
    excess = [0] * J
    key = n_states - 1  # empty queues, all inventories full in canonical (lexicographic) order

    burn = int(round(BURN_IN * total_events))
    # Occupancies by slot, in an array of float64 appended to on a cell's
    # first visit only: the loop logs each event's entry id, and _account
    # adds a slice's holding times into them with numpy (8 bytes a cell).
    # slot_of and total_of give an entry id's slot and total rate; ids
    # restart at 0 whenever the entries are dropped, the logged ones
    # accounted first, so they hold no more items than the entries.
    vals, slot_of, total_of = array("d"), array("q"), array("d")
    log: list[int] = []
    log_event = log.append
    slots: dict[int, int] = {}
    t_acc = 0.0
    # The loop makes no reference cycles, but on a wide box it allocates a
    # row or an entry nearly every event: the collector's passes cost it
    # 8-13%, so they wait for the run's end.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for start, stop in _slices(total_events, burn):
            if start % _BLOCK == 0:
                uniforms = rng.random(_BLOCK)
                exponentials = rng.standard_exponential(_BLOCK)
            if start == burn:
                vals, slots, t_acc, entries = array("d"), {}, 0.0, {}
                slot_of, total_of = array("q"), array("d")
            first = start % _BLOCK
            last = first + stop - start
            for u in uniforms[first:last].tolist():
                entry = entries.get(key)
                if entry is None:
                    if len(entries) >= SIMULATE_MAX_ROWS or len(rows) >= SIMULATE_MAX_ROWS:
                        t_acc = _account(vals, slot_of, total_of, log, exponentials[first:], t_acc)
                        first += len(log)
                        log.clear()
                        entries, rows, vectors = {}, {}, {}
                        slot_of, total_of = array("q"), array("d")
                    kidx = key % n_states
                    vector = vectors.get(key - kidx)
                    if vector is None:
                        sig = code = 0
                        tail = None
                        mu = []
                        for i, (p, c, sp, cp, rate_at) in decode:
                            d = key // p % radix
                            level = d if d < c else c
                            sig += level * sp
                            mu.append(rate_at[level])
                            code += (d if d < n_obs else n_obs) * cp
                            if d == top:
                                tail = tail + [i] if tail else [i]
                        vector = vectors[key - kidx] = sig, code, tail, mu
                    sig, code, tail, mu = vector
                    slot = slots.setdefault(code + kidx, len(vals))
                    if slot == len(vals):
                        vals.append(0.0)
                    row = rows.get(sig + kidx)
                    if row is None:
                        rates, cols = moves(mu, kidx)
                        cum = tuple(accumulate(rates))  # a tuple of floats, which the cyclic GC stops tracking
                        row = rows[sig + kidx] = cum[-1], cum, tuple(map(column_step.__getitem__, cols))
                    total, cum, steps = row
                    if tail:
                        # moves() lists the columns in the row's order.
                        steps = tuple([columns[c] if columns[c][0] in tail else step
                                       for step, c in zip(steps, moves(mu, kidx)[1])])
                    entry = entries[key] = len(slot_of), total, cum, steps
                    slot_of.append(slot)
                    total_of.append(total)
                eid, total, cum, steps = entry
                log_event(eid)
                step = steps[bisect_left(cum, u * total)]
                try:
                    key += step
                except TypeError:
                    # A queue move at a location at its top digit.
                    loc, dn, dk = step
                    key += dk
                    if dn > 0:
                        excess[loc] += 1
                    elif excess[loc]:
                        excess[loc] -= 1
                    else:
                        key -= place[loc]
            t_acc = _account(vals, slot_of, total_of, log, exponentials[first:last], t_acc)
            log.clear()
    finally:
        if collecting:
            gc.enable()

    if t_acc <= 0:
        raise PreconditionError("no simulated time left after burn-in")

    del entries, rows, vectors  # the arrays are built with the caches already dropped
    # Python ints where a huge n_obs pushes the codes past int64.
    dtype = object if clip**J * n_states > np.iinfo(np.int64).max else np.int64
    return SimulationResult(
        b=config.b,
        n_obs=n_obs,
        seed=seed,
        total_events=total_events,
        events=total_events - burn,
        sim_time=t_acc,
        codes=np.fromiter(slots, dtype=dtype, count=len(slots)),
        mass=np.frombuffer(vals) / t_acc,
    )


def decoupling_test(result: SimulationResult) -> float:
    """TV distance between the empirical joint and the product of its marginals.

    Zero means the clipped joint factorizes exactly into (queue vector
    marginal) x (inventory marginal); the product-form theory predicts a
    small value for long ergodic runs of the true dynamics.  The sum runs
    over visited queue vectors x visited states; an unvisited pair
    contributes its product mass.
    """
    # Queue vectors grouped by their codes: the cell codes without the inventory digit.
    qid = np.unique(result.codes // result._n_states, return_inverse=True)[1]
    states = result.states
    pn = np.bincount(qid, result.mass)
    pk = np.bincount(states, result.mass)
    product = pn[qid] * pk[states]
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
    codes, inverse = np.unique(np.concatenate([r.codes for r in results]), return_inverse=True)
    weighted = np.concatenate([r.sim_time / total_time * r.mass for r in results])
    seeds = [s for r in results for s in (r.seed if isinstance(r.seed, tuple) else (r.seed,))]
    return SimulationResult(
        b=first.b,
        n_obs=first.n_obs,
        seed=tuple(seeds),
        total_events=sum(r.total_events for r in results),
        events=sum(r.events for r in results),
        sim_time=total_time,
        codes=codes,
        mass=np.bincount(inverse, weighted),
    )
