import gc
import hashlib
import math
import pickle
import sys

import numpy as np
import pytest

from conftest import make_config, traced_peak
from qinet import (
    ErgodicityError,
    NetworkConfig,
    PreconditionError,
    ServiceRateProfile,
    SimulationResult,
    build_reduced_generator,
    decoupling_test,
    enumerate_inventory_states,
    merge_results,
    method_inapplicable,
    queue_marginal,
    simulate,
    solve_theta_exact,
    total_variation,
)
from qinet import cli
from qinet.model import SIMULATE_BYTES_PER_STATE_LOCATION
from qinet.simulate import _transition_tables

BASE = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
# The head-rate J=3 config of the simulate-replicas benchmark, at unit scale.
J3_HEADS = NetworkConfig(
    lam=(0.8, 1.0, 1.3),
    mu=(ServiceRateProfile((2.0, 3.5), 5.2), ServiceRateProfile((3.0,), 5.2),
        ServiceRateProfile.constant(5.2)),
    b=(4, 3, 2),
    nu=4.65,
)
J6 = make_config((1.0,) * 6, (2,) * 6, 9.0)
# J3_HEADS with lam scaled to rho 0.9 at location 3: its queues spend much
# of the time two or more past the clip digit max(n_obs, caps) = 3.
J3_TAIL = NetworkConfig(lam=(2.88, 3.6, 4.68), mu=J3_HEADS.mu, b=J3_HEADS.b, nu=J3_HEADS.nu)


@pytest.fixture(scope="module")
def base_run():
    return simulate(BASE, total_events=300_000, seed=42)


def joint_items(result):
    """Sorted ``((queue vector, inventory k tuple), mass)`` items of a result."""
    states = enumerate_inventory_states(result.b).tolist()
    return sorted(
        ((tuple(q), tuple(states[s])), p)
        for q, s, p in zip(result.queues.tolist(), result.states.tolist(), result.mass.tolist())
    )


def same_cells(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("queues", "states", "mass"))


def test_determinism(base_run):
    again = simulate(BASE, total_events=300_000, seed=42)
    assert same_cells(again, base_run)
    assert again.sim_time == base_run.sim_time
    assert not same_cells(
        simulate(BASE, total_events=50_000, seed=43), simulate(BASE, total_events=50_000, seed=44)
    )


def test_seeded_stream_pinned(base_run):
    # A change to event order or table order changes the seeded stream.
    assert base_run.sim_time == float.fromhex("0x1.b7f7a030c3dafp+16")
    joint = repr(joint_items(base_run))
    digest = hashlib.sha256(joint.encode()).hexdigest()
    assert digest == "34f31877f08e859278474ae673695e8324b2daa4e3f5bc6b1d9ef490ebe43d40"


def result_digest(result):
    """SHA-256 of a run's simulated time, event count and cell arrays, bit for bit."""
    h = hashlib.sha256(f"{result.sim_time.hex()} {result.events}".encode())
    for a in (result.queues.astype(np.int64), result.states.astype(np.int64), result.mass):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (config, total_events, seed, options, digest).  The burn-in ends inside a
# slice of 4,096 draws at 4,097 and 70,001 events, and on a slice boundary
# at 40,960; 70,001 events run into the third block of 32,768 draws.
GOLDEN_STREAMS = {
    "transfer": (make_config((1, 1), (4, 4), 1.5, mu_rate=2.0, beta=0.6), 70_001, 3, {},
                 "66cd1959eecab6d14cbe6ce1acee6051e094171913db0f8cd52561420ec2b7b4"),
    "j3-heads": (J3_HEADS, 70_001, 7, {},
                 "57810e950594e9becd6723fadde18a3b83d87595e727369c9a274c1c0b6663b9"),
    "j6": (J6, 40_960, 5, {},
           "da15bcbc13365163f1b0c07ac767da18ee36afd1b5b306a89154fd093f69a529"),
    "coupled": (BASE, 4_097, 9, {"require_stock_for_service": False},
                "873b20ff2aed6ee6788059c913bc580ddaca506d6f5309f21c84874d2ed3f81a"),
    "n_obs-0": (J3_HEADS, 4_097, 2, {"n_obs": 0},
                "c70c7a769503db7809254bf4e5e8f44a55a12958b88e05af4c58681fd729fd41"),
    "n_obs-huge": (J3_HEADS, 70_001, 4, {"n_obs": 10**12},
                   "99660f938ac42546d26314fb19002ea30806ef2ebcbf8384838d99f1e35c43df"),
    "one-event": (J3_HEADS, 1, 8, {},
                  "b1c04ea932bf487db8c61eaefd754fc299adf7cf8f780068a9cd6a9fb5f599b1"),
    "tail": (J3_TAIL, 70_001, 6, {"n_obs": 1},
             "f1782b4b86177f6dafc0c345d18dc223a2ff5c3a6e3b4a81db60b3fa9237ae5a"),
    # Nearly every event visits a new (signature, state) pair: a run of misses.
    "wide": (make_config((1.0,) * 10, (1,) * 10, 15.0, mu_rate=4.0), 20_000, 1, {},
             "21fb760d7e351bec89e811708dc4e4d3593c6b2a8f1677799622e939fb1d3769"),
}


@pytest.mark.parametrize("case", GOLDEN_STREAMS)
def test_golden_streams(case):
    # Digests taken from an event loop that scanned each move's running
    # rate sum and packed the occupancy code digit by digit on every event;
    # a change to the draw order, the move order or the arithmetic shows.
    config, total_events, seed, options, digest = GOLDEN_STREAMS[case]
    assert result_digest(simulate(config, total_events, seed, **options)) == digest


def test_cells_are_distinct(base_run):
    cells = np.column_stack([base_run.queues, base_run.states])
    assert len(np.unique(cells, axis=0)) == len(cells)
    assert base_run.queues.shape == (len(cells), BASE.J)
    assert base_run.mass.min() > 0


def test_masses_sum_to_one(base_run):
    assert abs(base_run.mass.sum() - 1.0) < 1e-9
    assert abs(base_run.empirical_theta().grid.sum() - 1.0) < 1e-9
    for j in range(BASE.J):
        assert abs(np.bincount(base_run.queues[:, j], base_run.mass).sum() - 1.0) < 1e-9


def test_reductions_equal_per_cell_loop(base_run):
    # Same additions in the same (first-visit) order, then the same division
    # by the grid's own sum: bit-equal.
    grid = np.zeros(base_run.empirical_theta().weights.size)
    margs = [{} for _ in range(BASE.J)]
    for q, s, p in zip(base_run.queues.tolist(), base_run.states.tolist(), base_run.mass.tolist()):
        grid[s] += p
        for j, n in enumerate(q):
            margs[j][n] = margs[j].get(n, 0.0) + p
    assert base_run.empirical_theta().weights.tolist() == (grid / grid.sum()).tolist()
    for j, marg in enumerate(margs):
        emp = np.bincount(base_run.queues[:, j], base_run.mass)
        assert emp.tolist() == [marg.get(n, 0.0) for n in range(len(emp))]


def test_empirical_theta_close_to_exact(base_run):
    exact = solve_theta_exact(build_reduced_generator(BASE))
    emp = base_run.empirical_theta()
    assert emp.provenance == "empirical"
    assert total_variation(emp, exact) <= 0.02


def test_queue_marginal_close_to_geometric(base_run):
    qm = queue_marginal(BASE, 1)
    emp = np.bincount(base_run.queues[:, 0], base_run.mass, minlength=6)
    tv = 0.5 * sum(abs(emp[n] - qm.xi(n)) for n in range(6))
    assert tv <= 0.02


def test_decoupling_small_for_true_model(base_run):
    assert decoupling_test(base_run) <= 0.03


def hand_result(queues, states, mass, b=(1, 1), sim_time=1.0, seed=0):
    n_obs = 3
    dims = (n_obs + 1,) * len(b) + (math.prod(bj + 1 for bj in b),)
    return SimulationResult(
        b=b,
        n_obs=n_obs,
        seed=seed,
        total_events=1,
        events=1,
        sim_time=sim_time,
        codes=np.ravel_multi_index((*np.array(queues).T, states), dims),
        mass=np.array(mass, dtype=float),
    )


def test_empirical_theta_normalizes_its_own_sum():
    # A long run's occupancies sum to one only up to the drift of its summed
    # holding times, which can pass the measure's 1e-12.
    result = hand_result([(0, 0), (1, 0), (0, 2)], [0, 3, 3], [0.25, 0.5, 0.25 + 5e-12])
    assert result.mass.sum() - 1.0 > 4e-12
    theta = result.empirical_theta()
    assert abs(theta.weights.sum() - 1.0) <= 1e-15
    np.testing.assert_allclose(theta.weights, [0.25, 0.0, 0.0, 0.75], rtol=1e-11)


def test_decoupling_equals_per_pair_sum(base_run):
    joint = dict(joint_items(base_run))
    pn, pk = {}, {}
    for (n, k), p in joint.items():
        pn[n] = pn.get(n, 0.0) + p
        pk[k] = pk.get(k, 0.0) + p
    by_pair = 0.5 * sum(abs(joint.get((n, k), 0.0) - pn[n] * pk[k]) for n in pn for k in pk)
    assert decoupling_test(base_run) == pytest.approx(by_pair, rel=0, abs=1e-13)


def test_decoupling_zero_for_exact_product():
    # Hand-built result whose joint is exactly the product of its marginals.
    pn = {(0, 1): 0.7, (1, 0): 0.3}
    pk = {0: 0.4, 3: 0.6}
    cells = [(n, k, pn[n] * pk[k]) for n in pn for k in pk]
    result = hand_result(*zip(*cells))
    assert decoupling_test(result) == pytest.approx(0.0, abs=1e-15)


def test_decoupling_counts_unvisited_pairs():
    # Queue vectors (0,0), (1,0), (2,1); states 0, 1, 3.  Only four of the
    # nine (queue vector, state) pairs are visited.
    queues = [(0, 0), (0, 0), (1, 0), (2, 1)]
    states = [0, 1, 3, 3]
    mass = [0.1, 0.2, 0.3, 0.4]
    pn = {(0, 0): 0.3, (1, 0): 0.3, (2, 1): 0.4}
    pk = {0: 0.1, 1: 0.2, 3: 0.7}
    joint = {(q, k): p for q, k, p in zip(queues, states, mass)}
    by_hand = 0.5 * sum(
        abs(joint.get((q, k), 0.0) - pn[q] * pk[k]) for q in pn for k in pk
    )
    # visited |joint - product|: .07 + .14 + .09 + .12; unvisited product: .21 + .03 + .06 + .04 + .08
    assert by_hand == pytest.approx(0.5 * (0.42 + 0.42))
    assert decoupling_test(hand_result(queues, states, mass)) == pytest.approx(by_hand, abs=1e-15)


def test_coupled_counter_model_detected():
    # Letting servers run with depleted stock couples queues and inventory.
    run = simulate(BASE, total_events=300_000, seed=42, require_stock_for_service=False)
    assert decoupling_test(run) > 0.05


def test_inventory_conservation(base_run):
    total = sum(BASE.b)
    for (n, k), _ in joint_items(base_run):
        assert sum(k) == total
        assert all(0 <= x <= base_run.n_obs for x in n)


def test_clipping_does_not_touch_inventory_marginal():
    # Same event path, different clip level: the k-marginal only changes
    # by the summation order of the occupancy buckets.
    a = simulate(BASE, total_events=60_000, seed=5, n_obs=2)
    b = simulate(BASE, total_events=60_000, seed=5, n_obs=9)
    assert np.array_equal(np.unique(a.states), np.unique(b.states))
    assert np.allclose(a.empirical_theta().grid, b.empirical_theta().grid, rtol=0, atol=1e-12)


@pytest.mark.parametrize("config", [BASE, make_config((1, 1, 1), (1, 2, 1), 1.5, mu_rate=2.0)],
                         ids=["J2", "J3"])
def test_huge_n_obs(config):
    # Packed occupancy codes (n_obs + 1)^J * |K| exceed int64 here, and at
    # J=3 so do the codes of visited cells; nothing may be sized by n_obs.
    run = simulate(config, 2_000, seed=1, n_obs=10**12)
    assert run.queues.dtype == np.int64
    assert 0 < run.queues.max() < 2_000
    assert abs(run.mass.sum() - 1.0) < 1e-9
    small = simulate(config, 2_000, seed=1, n_obs=2_000)
    assert same_cells(run, small)


def test_convergence_majority_vote():
    # TV against the exact measure should shrink with the event count for
    # most seeds (stochastic, so majority vote over 10 seeds).
    exact = solve_theta_exact(build_reduced_generator(BASE))
    wins = 0
    for seed in range(300, 310):
        tv_short = total_variation(
            simulate(BASE, total_events=100_000, seed=seed).empirical_theta(), exact
        )
        tv_long = total_variation(
            simulate(BASE, total_events=1_000_000, seed=seed).empirical_theta(), exact
        )
        wins += tv_long < tv_short
    assert wins >= 6


def test_memory_peak_bounded():
    # The draws reach the event loop in short slices: converting whole
    # blocks of 32,768 draws to Python floats would pass this bound.
    simulate(J3_HEADS, 1_000, seed=1)
    _, peak = traced_peak(simulate, J3_HEADS, 250_000, seed=1)
    assert peak <= 2.5 * 2**20


def test_long_service_heads():
    # Signatures run to 1,501 per location, 1,501^6 > 2^63 in all: only
    # the visited ones may get a table.  Head rates equal to the tail give
    # the same moves, so the same stream as constant rates.
    long_heads = NetworkConfig(lam=J6.lam, mu=(ServiceRateProfile((4.0,) * 1_500, 4.0),) * 6,
                               b=J6.b, nu=J6.nu)
    assert same_cells(simulate(long_heads, 2_000, seed=3), simulate(J6, 2_000, seed=3))


def test_non_ergodic_refused():
    cfg = make_config((3, 1), (1, 1), 1.0, mu_rate=2.0)
    with pytest.raises(ErgodicityError):
        simulate(cfg, total_events=1000, seed=1)


def test_simulation_size_cap(monkeypatch):
    # (10000,10000) has 100,020,001 inventory states: its move table would
    # take about 20 GB.  It is refused before the table is read or anything
    # sizeable is allocated.
    def unreachable(*args, **kwargs):
        raise AssertionError("move table read for a refused box")

    monkeypatch.setattr(sys.modules["qinet.simulate"], "_transition_tables", unreachable)
    huge = make_config((1.0, 1.1), (10000, 10000), 2.5)

    def refused():
        with pytest.raises(PreconditionError, match="a simulation of 100020001 inventory states needs "
                                                    "102504367104 bytes for its move table and rows; "
                                                    "the cap is 4294967296 bytes"):
            simulate(huge, total_events=10, seed=1)

    _, peak = traced_peak(refused)
    assert peak < 1 << 20
    # 512 bytes per state and location, and 320 per row and location for
    # 131,072 rows: (1500,1500) is admitted, (3000,3000) is not.
    assert method_inapplicable(make_config((1.0, 1.1), (1500, 1500), 2.5), "simulate") is None
    assert method_inapplicable(make_config((1.0, 1.1), (3000, 3000), 2.5), "simulate") is not None


def test_wide_unit_box_builds_only_visited_rows():
    # (1,)*10 has 1,024 inventory states under each of 1,024 signatures.
    # Rows are built per visited (signature, state) pair: a table over
    # every state per visited signature held 855 MiB here; these hold 13.
    cfg = make_config((1.0,) * 10, (1,) * 10, 15.0, mu_rate=4.0)
    _, peak = traced_peak(simulate, cfg, 20_000, seed=1)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("case", GOLDEN_STREAMS)
def test_dropping_rows_keeps_the_stream(case, monkeypatch):
    # Rows are a cache: rebuilt after every eighth one, each is the same.
    monkeypatch.setattr(sys.modules["qinet.simulate"], "SIMULATE_MAX_ROWS", 8)
    config, total_events, seed, options, digest = GOLDEN_STREAMS[case]
    assert result_digest(simulate(config, total_events, seed, **options)) == digest


def test_memory_grows_only_with_the_occupancy(monkeypatch):
    # (1,)*10 visits a new (signature, state) pair about every second event.
    # With the rows capped at 256, what grows is the occupancy (a dict entry
    # and the cell's arrays) and the moves of newly visited inventory states
    # (about 2.7 KB each, at most 1,024 of them).  From 2e4 to 8e4 events,
    # with the states mostly visited, that reads 94 B per new cell.  Here it
    # reads 499 B, and 965 with every row kept.
    monkeypatch.setattr(sys.modules["qinet.simulate"], "SIMULATE_MAX_ROWS", 256)
    cfg = make_config((1.0,) * 10, (1,) * 10, 15.0, mu_rate=4.0)
    simulate(cfg, 10, seed=1)  # first-call allocations out of the peaks
    # A full collection empties the free lists, so every object a run makes is traced.
    gc.collect()
    short, low = traced_peak(simulate, cfg, 2_000, seed=1)
    gc.collect()
    long, high = traced_peak(simulate, cfg, 8_000, seed=1)
    assert high - low <= 700 * (long.mass.size - short.mass.size)


def test_entry_ids_do_not_pile_up(monkeypatch):
    # Each event logs its entry's id, which indexes the slot and total rate
    # of every entry made since the last drop; the ids restart at each drop.
    # From 2e3 to 8e3 events with the rows capped at 256, the traced peak
    # grows by 455 B per new cell; ids kept across the drops read 476.
    monkeypatch.setattr(sys.modules["qinet.simulate"], "SIMULATE_MAX_ROWS", 256)
    cfg = make_config((1.0,) * 10, (1,) * 10, 15.0, mu_rate=4.0)
    simulate(cfg, 10, seed=1)  # first-call allocations out of the peaks
    gc.collect()
    short, low = traced_peak(simulate, cfg, 2_000, seed=1)
    gc.collect()
    long, high = traced_peak(simulate, cfg, 8_000, seed=1)
    assert high - low <= 460 * (long.mass.size - short.mass.size)


def test_simulation_cap_covers_transfer_tables():
    # The transfer channel adds two move columns to every state: the move
    # table of a transfer box still fits the per-state estimate.
    cfg = make_config((1.0, 1.0), (200, 200), 2.5, beta=0.6)
    _, peak = traced_peak(simulate, cfg, total_events=1, seed=1)
    assert peak < SIMULATE_BYTES_PER_STATE_LOCATION * 201 * 201 * 2


@pytest.mark.parametrize("config", [
    make_config((1.0,) * 10, (1,) * 10, 15.0, mu_rate=4.0),
    make_config((1.0, 1.0), (100, 100), 2.5, beta=0.6),
], ids=["1^10", "100x100-transfer"])
def test_simulation_cap_covers_every_state_read(config):
    # A long run may read every state's moves, and keeps them: the per-state
    # charge covers the move table and all of them.
    n = math.prod(bj + 1 for bj in config.b)

    def read_every_state():
        _, by_level, moves, _ = _transition_tables(config, True)
        mu = [rates[1] for rates in by_level]
        for k in range(n):
            moves(mu, k)

    gc.collect()
    _, peak = traced_peak(read_every_state)
    assert peak <= SIMULATE_BYTES_PER_STATE_LOCATION * n * config.J


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        simulate(BASE, total_events=0, seed=1)
    with pytest.raises(PreconditionError):
        simulate(BASE, total_events=100, seed=1, n_obs=-1)


def test_negative_seed_rejected():
    # numpy's generator refuses a negative seed with a bare ValueError.
    with pytest.raises(PreconditionError, match="seed must be >= 0, got -5"):
        simulate(BASE, total_events=100, seed=-5)


def test_transfer_channel_runs():
    cfg = make_config((1, 1), (2, 2), 1.0, mu_rate=2.0, beta=0.6)
    run = simulate(cfg, total_events=200_000, seed=11)
    exact = solve_theta_exact(build_reduced_generator(cfg))
    assert total_variation(run.empirical_theta(), exact) <= 0.03
    assert run.states.max() < 9


def test_merge_results():
    runs = [simulate(BASE, total_events=50_000, seed=s) for s in (1, 2, 3)]
    merged = merge_results(runs)
    assert merged.total_events == 150_000
    assert abs(merged.mass.sum() - 1.0) < 1e-9
    assert merged.seed == (1, 2, 3)
    expected_time = sum(r.sim_time for r in runs)
    assert merged.sim_time == pytest.approx(expected_time)
    # merged occupancy is the time-weighted average
    theta = merged.empirical_theta().grid
    manual = sum(r.empirical_theta().grid * r.sim_time for r in runs) / expected_time
    assert np.allclose(theta, manual, rtol=1e-12, atol=0)
    with pytest.raises(PreconditionError):
        merge_results([])
    other = simulate(make_config((1, 1), (2, 2), 1.0, mu_rate=2.0), 1000, seed=1)
    with pytest.raises(PreconditionError):
        merge_results([runs[0], other])


def unique_decoupling(result):
    """``decoupling_test`` with its queue vectors grouped by ``np.unique(axis=0)``."""
    qid = np.unique(result.queues, axis=0, return_inverse=True)[1].reshape(-1)
    pn = np.bincount(qid, result.mass)
    pk = np.bincount(result.states, result.mass)
    product = pn[qid] * pk[result.states]
    unvisited = pn.sum() * pk.sum() - product.sum()
    return 0.5 * float(np.abs(result.mass - product).sum() + unvisited)


def unique_merge_cells(results):
    """The merged ``(queues, states, mass)`` with cells grouped by ``np.unique(axis=0)``."""
    total_time = sum(r.sim_time for r in results)
    cells = np.concatenate([np.column_stack([r.queues, r.states]) for r in results])
    weighted = np.concatenate([r.sim_time / total_time * r.mass for r in results])
    cells, inverse = np.unique(cells, axis=0, return_inverse=True)
    return cells[:, :-1], cells[:, -1], np.bincount(inverse.reshape(-1), weighted)


@pytest.mark.parametrize("config, events, n_obs", [(J6, 100_000, 8), (J3_HEADS, 20_000, 10**12)],
                         ids=["J6", "huge-n_obs"])
def test_grouping_equals_unique_rows(config, events, n_obs):
    runs = [simulate(config, events, seed=s, n_obs=n_obs) for s in (1, 2)]
    for run in runs:
        assert decoupling_test(run) == unique_decoupling(run)
    merged = merge_results(runs)
    queues, states, mass = unique_merge_cells(runs)
    assert len(mass) < sum(len(r.mass) for r in runs)  # some cells are shared
    for got, want in zip((merged.queues, merged.states, merged.mass), (queues, states, mass)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def code_runs():
    """Two seeded ``J6`` runs and two huge-``n_obs`` ``J3_HEADS`` runs, whose codes pass int64."""
    return {"J6": [simulate(J6, 100_000, seed=s) for s in (1, 2)],
            "huge-n_obs": [simulate(J3_HEADS, 20_000, seed=s, n_obs=10**12) for s in (1, 2)]}


@pytest.mark.parametrize("case", ["J6", "huge-n_obs"])
def test_statistics_never_unpack_the_queue_view(code_runs, monkeypatch, case):
    # A run holds one code per cell; the merge, the decoupling test, the
    # empirical measure and the run scores work on the codes, one queue
    # digit at a time, and never build the (cells, J) queue array.
    runs = code_runs[case]
    config = {"J6": J6, "huge-n_obs": J3_HEADS}[case]
    theta = solve_theta_exact(build_reduced_generator(config))

    def values():
        merged = merge_results(runs)
        return ([merged.codes, merged.mass],
                [decoupling_test(r) for r in (*runs, merged)]
                + [cli._scores(r, theta, config) for r in (*runs, merged)],
                [r.empirical_theta().grid for r in (*runs, merged)])

    want = values()

    def refuse(self):
        raise AssertionError("queue codes unpacked")

    monkeypatch.setattr(SimulationResult, "queues", property(refuse))
    with pytest.raises(AssertionError, match="unpacked"):
        runs[0].queues
    got = values()
    for g, w in zip(got[0] + got[2], want[0] + want[2]):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()  # object codes compare by value
    assert got[1] == want[1]


def test_replica_pickles_one_code_and_one_mass_per_cell(code_runs):
    # A replica crosses the process pool as its codes and masses: 16 bytes a cell.
    run = code_runs["J6"][0]
    assert run.codes.dtype == np.int64 and len(run.mass) > 10_000
    assert len(pickle.dumps(run)) <= 16 * len(run.mass) + 1_000


def test_merge_is_time_weighted_sum_per_cell():
    a = hand_result([(0, 0), (1, 0), (0, 2)], [0, 0, 3], [0.5, 0.25, 0.25], sim_time=2.0, seed=1)
    b = hand_result([(0, 2), (0, 0), (1, 1)], [3, 1, 0], [0.5, 0.25, 0.25], sim_time=6.0, seed=(2, 3))
    merged = merge_results([a, b])
    expected: dict = {}
    for r in (a, b):
        for (q, k), p in joint_items(r):
            expected[(q, k)] = expected.get((q, k), 0.0) + r.sim_time / 8.0 * p
    assert dict(joint_items(merged)) == expected
    assert len(merged.mass) == 5  # (0,0) at state 0 and (0,2) at state 3 are shared
    assert merged.seed == (1, 2, 3)
    assert merged.sim_time == 8.0
