import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import make_config
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
    queue_marginal,
    simulate,
    solve_theta_exact,
    total_variation,
)

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
    # Same additions in the same (first-visit) order: bit-equal.
    grid = np.zeros(base_run.empirical_theta().weights.size)
    margs = [{} for _ in range(BASE.J)]
    for q, s, p in zip(base_run.queues.tolist(), base_run.states.tolist(), base_run.mass.tolist()):
        grid[s] += p
        for j, n in enumerate(q):
            margs[j][n] = margs[j].get(n, 0.0) + p
    assert base_run.empirical_theta().weights.tolist() == grid.tolist()
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
    return SimulationResult(
        b=b,
        n_obs=3,
        seed=seed,
        total_events=1,
        events=1,
        sim_time=sim_time,
        queues=np.array(queues, dtype=np.int64),
        states=np.array(states),
        mass=np.array(mass, dtype=float),
    )


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
    tracemalloc.start()
    try:
        simulate(J3_HEADS, 250_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
