"""Event-driven simulation of the full joint process.

Classic exponential-race simulation: the holding time in each state is
exponential with the total outflow rate, the jump is drawn categorically
from the outgoing rates, and statistics are time-weighted occupancies.

Randomness comes from ``numpy.random.default_rng`` (PCG64) seeded by the
caller, so a run is fully reproducible from its seed.  Uniforms and then
exponentials are drawn in blocks of ``_BLOCK`` and reach the event loop
as Python floats, ``_SLICE`` of each at a time: indexing a numpy array
and computing on its scalars costs several times as much per event.

The outgoing-rate tables come from the move table of
:mod:`qinet.generator`: an arrival at location i is admitted exactly where
consumption at i leaves the inventory state, and a service at i is that
same move at rate ``mu_i(n_i)``.  Rates only depend on the queue
vector through, per location, "empty / one of the head levels / in the
constant tail", so one table per queue signature, built with array
operations on the signature's first visit, serves every inventory state.
An event reads its state's row, adds the holding time to its cell's
occupancy, and picks the move by bisecting the row's running rate sums.
The cell's code (clipped queue vector and inventory index in one
integer) and the signature's code are running integers: a move changes
them only when it changes a location's clipped length or signature.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import ErgodicityError, PreconditionError
from .exact import ThetaMeasure
from .generator import _move_table
# enumerate_inventory_states is unused here; perfbench/spans.py traces this binding.
from .model import NetworkConfig, enumerate_inventory_states, method_inapplicable  # noqa: F401

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
        """Empirical inventory measure; unvisited states carry zero mass."""
        shape = [bj + 1 for bj in self.b]
        grid = np.bincount(self.states, self.mass, minlength=math.prod(shape))
        return ThetaMeasure(grid=grid.reshape(shape), provenance="empirical")


def _transition_tables(config: NetworkConfig, require_stock_for_service: bool):
    """Lazy per-queue-signature tables of every inventory state's outgoing moves.

    ``moves(sig)`` is ``(rows, rates, cum, deltas)`` under queue signature
    ``sig``.  The moves of inventory index ``k`` are ``rates[lo:hi]`` and
    ``deltas[lo:hi]``, where ``rows[k] == (total, lo, hi)``; ``cum[lo:hi]``
    are their rates summed in sequence, so ``cum[hi - 1] == total``.  Each
    delta is ``(location, dn, new_k_index)``; ``location == -1`` means the
    queues do not move.  Arrivals come first, then services, then the
    inventory-only moves, each in family order.  Setting
    ``require_stock_for_service=False`` builds a deliberately coupled
    counter-model in which servers keep working with depleted stock
    (draining the queue without consuming inventory); it exists purely as
    a negative control for the decoupling test.

    Each state's moves sit in one row of fixed columns: ``J`` arrivals,
    ``J`` services and the columns of :func:`~qinet.generator._move_table`
    after its consumption ones.  An absent move has rate 0: it is dropped,
    and it leaves the running sums of the present ones unchanged bit for
    bit.  The delta tuples are built once and shared by every signature.
    """
    J = config.J
    caps = [len(p.head) + 1 for p in config.mu]  # signature cap per location
    table, steps = _move_table(config)
    here = np.arange(table.shape[0])[:, None]

    # An arrival at i is admitted, and a service at i consumes stock,
    # exactly where consumption at i leaves the state.
    arrivals, inv_rate = table[:, :J], table[:, J:]
    stocked = arrivals > 0
    served = stocked if require_stock_for_service else np.ones_like(stocked)
    loc = [*range(J), *range(J)] + [-1] * inv_rate.shape[1]
    dn = [1] * J + [-1] * J + [0] * inv_rate.shape[1]
    target = np.hstack([here.repeat(J, axis=1), np.where(stocked, here + steps[:J], here), here + steps[J:]])
    # A move no signature can make (an unstocked arrival, a service where
    # ``served`` is false, a zero inventory rate) gets no tuple: None.
    possible = np.hstack([stocked, served, inv_rate > 0])
    column = np.nonzero(possible)[1]
    all_deltas = np.empty(target.shape, dtype=object)
    all_deltas[possible] = np.fromiter(
        ((loc[c], dn[c], k) for c, k in zip(column.tolist(), target[possible].tolist())),
        dtype=object, count=column.size,
    )

    def moves(sig):
        busy = np.array(sig) > 0
        mu = [config.mu[i].rate(sig[i]) if busy[i] else 0.0 for i in range(J)]
        rates = np.hstack([arrivals, np.where(served & busy, mu, 0.0), inv_rate])
        present = rates > 0
        cum = np.cumsum(rates, axis=1)[present]
        hi = np.cumsum(present.sum(axis=1))
        lo = np.concatenate([[0], hi[:-1]])
        rows = list(zip(cum[hi - 1].tolist(), lo.tolist(), hi.tolist()))
        return rows, rates[present].tolist(), cum.tolist(), all_deltas[present].tolist()

    return caps, moves


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
    whose first rate table would pass ``DENSE_BYTES_CAP`` (before anything
    is allocated) and a non-ergodic configuration, naming each unstable
    location.
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

    caps, moves = _transition_tables(config, require_stock_for_service)
    n_states = math.prod(bj + 1 for bj in config.b)
    J = config.J
    clip = n_obs + 1
    # Occupancy code of a cell: sum_i min(n_i, n_obs) * place[i] + k.
    place = [clip ** (J - 1 - i) * n_states for i in range(J)]
    # Rate tables by signature code sum_i min(n_i, caps[i]) * sig_place[i].
    sig_place = [math.prod(c + 1 for c in caps[i + 1 :]) for i in range(J)]
    tables: dict[int, tuple] = {}

    rng = np.random.default_rng(seed)
    n = [0] * J
    code = 0  # queue part of the occupancy code
    sig = 0
    kidx = n_states - 1  # all inventories full in canonical (lexicographic) order
    rows, _, cum, deltas = tables[0] = moves((0,) * J)

    burn = int(round(BURN_IN * total_events))
    occ: defaultdict[int, float] = defaultdict(float)
    t_acc = 0.0
    for start, stop in _slices(total_events, burn):
        if start % _BLOCK == 0:
            uniforms = rng.random(_BLOCK)
            exponentials = rng.standard_exponential(_BLOCK)
        if start == burn:
            occ, t_acc = defaultdict(float), 0.0
        first = start % _BLOCK
        last = first + stop - start
        for u, e in zip(uniforms[first:last].tolist(), exponentials[first:last].tolist()):
            total, lo, hi = rows[kidx]
            dt = e / total
            occ[code + kidx] += dt
            t_acc += dt
            loc, dn, kidx = deltas[bisect_left(cum, u * total, lo, hi)]
            if loc >= 0:
                x = n[loc] + dn
                n[loc] = x
                top = x if dn > 0 else x + 1  # the larger of the old and new length
                if top <= n_obs:
                    code += place[loc] if dn > 0 else -place[loc]
                if top <= caps[loc]:
                    sig += sig_place[loc] if dn > 0 else -sig_place[loc]
                    table = tables.get(sig)
                    if table is None:
                        table = tables[sig] = moves(tuple(min(m, c) for m, c in zip(n, caps)))
                    rows, _, cum, deltas = table

    if t_acc <= 0:
        raise PreconditionError("no simulated time left after burn-in")

    # Unpack the codes, last digit first.  A huge n_obs can push them past
    # int64; they are then unpacked as Python ints.
    wide = clip**J * n_states > np.iinfo(np.int64).max
    codes = np.fromiter(occ, dtype=object if wide else np.int64, count=len(occ))
    states = (codes % n_states).astype(np.intp)
    codes //= n_states
    queues = np.empty((len(occ), J), dtype=np.int64)
    for i in range(J - 1, -1, -1):
        queues[:, i] = codes % clip
        codes //= clip

    return SimulationResult(
        b=config.b,
        n_obs=n_obs,
        seed=seed,
        total_events=total_events,
        events=total_events - burn,
        sim_time=t_acc,
        queues=queues,
        states=states,
        mass=np.fromiter(occ.values(), dtype=float, count=len(occ)) / t_acc,
    )


def _group_rows(rows):
    """The distinct rows of a 2-d array in lexicographic order, and each row's index into them.

    The same as ``np.unique(rows, axis=0, return_inverse=True)``, by one
    ``lexsort`` and a comparison of neighbouring sorted rows.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


def decoupling_test(result: SimulationResult) -> float:
    """TV distance between the empirical joint and the product of its marginals.

    Zero means the clipped joint factorizes exactly into (queue vector
    marginal) x (inventory marginal); the product-form theory predicts a
    small value for long ergodic runs of the true dynamics.  The sum runs
    over visited queue vectors x visited states; an unvisited pair
    contributes its product mass.
    """
    qid = _group_rows(result.queues)[1]
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
    cells = np.concatenate([np.column_stack([r.queues, r.states]) for r in results])
    weighted = np.concatenate([r.sim_time / total_time * r.mass for r in results])
    cells, inverse = _group_rows(cells)
    seeds = [s for r in results for s in (r.seed if isinstance(r.seed, tuple) else (r.seed,))]
    return SimulationResult(
        b=first.b,
        n_obs=first.n_obs,
        seed=tuple(seeds),
        total_events=sum(r.total_events for r in results),
        events=sum(r.events for r in results),
        sim_time=total_time,
        queues=cells[:, :-1],
        states=cells[:, -1],
        mass=np.bincount(inverse, weighted),
    )
