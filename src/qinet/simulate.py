"""Event-driven simulation of the full joint process.

Classic exponential-race simulation: the holding time in each state is
exponential with the total outflow rate, the jump is drawn categorically
from the outgoing rates, and statistics are time-weighted occupancies.

Randomness comes from ``numpy.random.default_rng`` (PCG64) seeded by the
caller, with uniforms and exponentials pre-drawn in fixed-size blocks, so
a run is fully reproducible from its seed.

The outgoing-rate tables come from the transition arrays of
:mod:`qinet.generator`: an arrival at location i is admitted exactly where
a consumption edge for i leaves the inventory state, and a service at i is
that same edge at rate ``mu_i(n_i)``.  Rates only depend on the queue
vector through, per location, "empty / one of the head levels / in the
constant tail", so the tables are cached per (queue signature, inventory
state) and the inner loop is table lookups.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ErgodicityError, PreconditionError
from .exact import ThetaMeasure
from .generator import _transition_arrays
from .model import NetworkConfig, enumerate_inventory_states

__all__ = ["SimulationResult", "simulate", "decoupling_test", "merge_results"]

_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimulationResult:
    """Time-weighted occupancy statistics of one run (or a merge of runs).

    ``joint`` maps ``(clipped queue vector, inventory state tuple)`` to its
    occupancy fraction; queue lengths are clipped at ``n_obs`` (the last
    bucket means "at least n_obs").  Clipping cannot touch the inventory
    coordinates, which live on the finite space anyway.
    """

    b: tuple[int, ...]
    n_obs: int
    seed: int | tuple[int, ...]
    total_events: int
    events: int            # events that contributed after burn-in
    sim_time: float        # simulated time after burn-in
    joint: dict[tuple[tuple[int, ...], tuple[int, ...]], float]
    queue_marginals: tuple[dict[int, float], ...]
    inventory_occupancy: dict[tuple[int, ...], float]

    def empirical_theta(self) -> ThetaMeasure:
        """Empirical inventory measure in canonical state order."""
        states = enumerate_inventory_states(self.b)
        weights = np.array([self.inventory_occupancy.get(s.k, 0.0) for s in states])
        return ThetaMeasure(
            states=states, weights=weights, normalized=True, provenance="empirical"
        )


def _transition_tables(config: NetworkConfig, require_stock_for_service: bool):
    """Lazy per-(signature, inventory index) outgoing moves.

    ``moves(sig)[k]`` is ``(rates, deltas)`` for inventory index ``k``
    under queue signature ``sig``, with each delta
    ``(location, dn, new_k_index)``; ``location == -1`` means the queues
    do not move.  Arrivals come first, then services, then the
    inventory-only moves, each in family order.  Setting
    ``require_stock_for_service=False`` builds a deliberately coupled
    counter-model in which servers keep working with depleted stock
    (draining the queue without consuming inventory); it exists purely as
    a negative control for the decoupling test.
    """
    states = enumerate_inventory_states(config.b)
    J = config.J
    caps = [len(p.head) + 1 for p in config.mu]  # signature cap per location
    src, dst, rate, family = (a.tolist() for a in _transition_arrays(config))
    edges = [[] for _ in states]  # per source state: (family, target, rate)
    for s, d, r, f in zip(src, dst, rate, family):
        edges[s].append((f, d, r))

    def moves(sig):
        mu = [config.mu[i].rate(sig[i]) if sig[i] > 0 else None for i in range(J)]
        rows = []
        for k, out in enumerate(edges):
            consumed = {f: d for f, d, _ in out if f < J}
            rates = [r for f, _, r in out if f < J]
            deltas = [(i, 1, k) for i in consumed]
            for i in range(J):
                if mu[i] is not None and (i in consumed or not require_stock_for_service):
                    rates.append(mu[i])
                    deltas.append((i, -1, consumed.get(i, k)))
            for f, d, r in out:
                if f >= J:
                    rates.append(r)
                    deltas.append((-1, 0, d))
            rows.append((rates, deltas))
        return rows

    return states, caps, moves


def _rate_table(rows):
    """Sampling rows ``(total_rate, cumulative_rates, deltas)`` of ``moves(sig)``."""
    table = []
    for rates, deltas in rows:
        cum = list(itertools.accumulate(rates))
        table.append((cum[-1], cum, deltas))
    return table


def simulate(
    config: NetworkConfig,
    total_events: int,
    seed: int,
    n_obs: int = 8,
    burn_in: float = 0.1,
    require_stock_for_service: bool = True,
) -> SimulationResult:
    """Simulate ``total_events`` jumps and return time-weighted occupancies.

    The first ``burn_in`` fraction of events is discarded.  Starts from
    empty queues with full inventories.  Refuses non-ergodic
    configurations.
    """
    from .analysis import ergodicity_check

    if total_events < 1:
        raise PreconditionError("total_events must be >= 1")
    if n_obs < 0:
        raise PreconditionError("n_obs must be >= 0")
    if not 0.0 <= burn_in < 1.0:
        raise PreconditionError("burn_in must lie in [0, 1)")
    report = ergodicity_check(config)
    if not report.ergodic:
        bad = [d.location for d in report.per_location if not d.ergodic]
        raise ErgodicityError(f"simulation refused: locations {bad} are unstable")

    states, caps, moves = _transition_tables(config, require_stock_for_service)
    n_states = len(states)
    tables: dict[tuple[int, ...], list] = {}
    J = config.J

    rng = np.random.default_rng(seed)
    n = [0] * J
    sig = (0,) * J
    kidx = n_states - 1  # all inventories full in canonical (lexicographic) order
    row = tables.setdefault(sig, _rate_table(moves(sig)))

    burn = int(round(burn_in * total_events))
    occ: dict[int, float] = {}
    clip = n_obs + 1
    t_acc = 0.0
    pos = _BLOCK
    uniforms = exponentials = None

    for ev in range(total_events):
        if pos == _BLOCK:
            uniforms = rng.random(_BLOCK)
            exponentials = rng.standard_exponential(_BLOCK)
            pos = 0
        total, cum, deltas = row[kidx]
        dt = exponentials[pos] / total
        r = uniforms[pos] * total
        pos += 1
        j = 0
        last = len(cum) - 1
        while j < last and cum[j] < r:
            j += 1
        if ev >= burn:
            code = 0
            for x in n:
                code = code * clip + (x if x < n_obs else n_obs)
            code = code * n_states + kidx
            occ[code] = occ.get(code, 0.0) + dt
            t_acc += dt
        loc, dn, kidx = deltas[j]
        if loc >= 0:
            n[loc] += dn
            s = n[loc] if n[loc] < caps[loc] else caps[loc]
            if s != sig[loc]:
                sig = sig[:loc] + (s,) + sig[loc + 1 :]
                row = tables.get(sig)
                if row is None:
                    row = tables.setdefault(sig, _rate_table(moves(sig)))

    if t_acc <= 0:
        raise PreconditionError("no simulated time left after burn-in")

    joint: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    queue_marginals: list[dict[int, float]] = [dict() for _ in range(J)]
    inventory: dict[tuple[int, ...], float] = {}
    for code, w in occ.items():
        p = w / t_acc
        s_idx = code % n_states
        code //= n_states
        nvec = [0] * J
        for i in range(J - 1, -1, -1):
            nvec[i] = code % clip
            code //= clip
        nkey = tuple(nvec)
        kkey = states[s_idx].k
        joint[(nkey, kkey)] = joint.get((nkey, kkey), 0.0) + p
        for i in range(J):
            queue_marginals[i][nvec[i]] = queue_marginals[i].get(nvec[i], 0.0) + p
        inventory[kkey] = inventory.get(kkey, 0.0) + p

    return SimulationResult(
        b=config.b,
        n_obs=n_obs,
        seed=seed,
        total_events=total_events,
        events=total_events - burn,
        sim_time=t_acc,
        joint=joint,
        queue_marginals=tuple(queue_marginals),
        inventory_occupancy=inventory,
    )


def decoupling_test(result: SimulationResult) -> float:
    """TV distance between the empirical joint and the product of its marginals.

    Zero means the clipped joint factorizes exactly into (queue vector
    marginal) x (inventory marginal); the product-form theory predicts a
    small value for long ergodic runs of the true dynamics.
    """
    queue_joint: dict[tuple[int, ...], float] = {}
    for (nkey, _), p in result.joint.items():
        queue_joint[nkey] = queue_joint.get(nkey, 0.0) + p
    inv = result.inventory_occupancy
    tv = 0.0
    for nkey, pn in queue_joint.items():
        for kkey, pk in inv.items():
            tv += abs(result.joint.get((nkey, kkey), 0.0) - pn * pk)
    return 0.5 * tv


def merge_results(results) -> SimulationResult:
    """Time-weighted average of independent replications."""
    results = list(results)
    if not results:
        raise PreconditionError("nothing to merge")
    first = results[0]
    if any(r.b != first.b or r.n_obs != first.n_obs for r in results):
        raise PreconditionError("replications must share b and n_obs")
    total_time = sum(r.sim_time for r in results)
    joint: dict = {}
    inventory: dict = {}
    queues: list[dict[int, float]] = [dict() for _ in first.queue_marginals]
    for r in results:
        w = r.sim_time / total_time
        for key, p in r.joint.items():
            joint[key] = joint.get(key, 0.0) + w * p
        for key, p in r.inventory_occupancy.items():
            inventory[key] = inventory.get(key, 0.0) + w * p
        for i, marg in enumerate(r.queue_marginals):
            for nval, p in marg.items():
                queues[i][nval] = queues[i].get(nval, 0.0) + w * p
    seeds = []
    for r in results:
        seeds.extend(r.seed if isinstance(r.seed, tuple) else (r.seed,))
    return SimulationResult(
        b=first.b,
        n_obs=first.n_obs,
        seed=tuple(seeds),
        total_events=sum(r.total_events for r in results),
        events=sum(r.events for r in results),
        sim_time=total_time,
        joint=joint,
        queue_marginals=tuple(queues),
        inventory_occupancy=inventory,
    )
