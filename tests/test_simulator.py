import hashlib

import pytest

from conftest import make_config
from qinet import (
    ErgodicityError,
    PreconditionError,
    SimulationResult,
    build_reduced_generator,
    decoupling_test,
    merge_results,
    queue_marginal,
    simulate,
    solve_theta_exact,
    total_variation,
)

BASE = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)


@pytest.fixture(scope="module")
def base_run():
    return simulate(BASE, total_events=300_000, seed=42)


def test_determinism(base_run):
    again = simulate(BASE, total_events=300_000, seed=42)
    assert again.joint == base_run.joint
    assert again.sim_time == base_run.sim_time
    assert simulate(BASE, total_events=50_000, seed=43).joint != simulate(
        BASE, total_events=50_000, seed=44
    ).joint


def test_seeded_stream_pinned(base_run):
    # A change to event order or table order changes the seeded stream.
    assert base_run.sim_time == float.fromhex("0x1.b7f7a030c3dafp+16")
    joint = repr([(key, float(p)) for key, p in sorted(base_run.joint.items())])
    digest = hashlib.sha256(joint.encode()).hexdigest()
    assert digest == "34f31877f08e859278474ae673695e8324b2daa4e3f5bc6b1d9ef490ebe43d40"


def test_masses_sum_to_one(base_run):
    assert abs(sum(base_run.joint.values()) - 1.0) < 1e-9
    assert abs(sum(base_run.inventory_occupancy.values()) - 1.0) < 1e-9
    for marg in base_run.queue_marginals:
        assert abs(sum(marg.values()) - 1.0) < 1e-9


def test_empirical_theta_close_to_exact(base_run):
    exact = solve_theta_exact(build_reduced_generator(BASE))
    emp = base_run.empirical_theta()
    assert emp.provenance == "empirical"
    assert total_variation(emp, exact) <= 0.02


def test_queue_marginal_close_to_geometric(base_run):
    qm = queue_marginal(BASE, 1)
    emp = base_run.queue_marginals[0]
    tv = 0.5 * sum(abs(emp.get(n, 0.0) - qm.xi(n)) for n in range(6))
    assert tv <= 0.02


def test_decoupling_small_for_true_model(base_run):
    assert decoupling_test(base_run) <= 0.03


def test_decoupling_zero_for_exact_product():
    # Hand-built result whose joint is exactly the product of its marginals.
    pn = {(0,): 0.7, (1,): 0.3}
    pk = {(0, 1): 0.4, (1, 0): 0.6}
    joint = {(n, k): pn[n] * pk[k] for n in pn for k in pk}
    result = SimulationResult(
        b=(1,),
        n_obs=1,
        seed=0,
        total_events=1,
        events=1,
        sim_time=1.0,
        joint=joint,
        queue_marginals=(pn,),
        inventory_occupancy=pk,
    )
    assert decoupling_test(result) == pytest.approx(0.0, abs=1e-15)


def test_coupled_counter_model_detected():
    # Letting servers run with depleted stock couples queues and inventory.
    run = simulate(BASE, total_events=300_000, seed=42, require_stock_for_service=False)
    assert decoupling_test(run) > 0.05


def test_inventory_conservation(base_run):
    total = sum(BASE.b)
    for k in base_run.inventory_occupancy:
        assert sum(k) == total
    for n, k in base_run.joint:
        assert sum(k) == total
        assert all(0 <= x <= base_run.n_obs for x in n)


def test_clipping_does_not_touch_inventory_marginal():
    # Same event path, different clip level: the k-marginal only changes
    # by the summation order of the occupancy buckets.
    a = simulate(BASE, total_events=60_000, seed=5, n_obs=2)
    b = simulate(BASE, total_events=60_000, seed=5, n_obs=9)
    assert a.inventory_occupancy.keys() == b.inventory_occupancy.keys()
    for key, value in a.inventory_occupancy.items():
        assert b.inventory_occupancy[key] == pytest.approx(value, abs=1e-12)


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


def test_non_ergodic_refused():
    cfg = make_config((3, 1), (1, 1), 1.0, mu_rate=2.0)
    with pytest.raises(ErgodicityError):
        simulate(cfg, total_events=1000, seed=1)


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        simulate(BASE, total_events=0, seed=1)
    with pytest.raises(PreconditionError):
        simulate(BASE, total_events=100, seed=1, burn_in=1.0)
    with pytest.raises(PreconditionError):
        simulate(BASE, total_events=100, seed=1, n_obs=-1)


def test_transfer_channel_runs():
    cfg = make_config((1, 1), (2, 2), 1.0, mu_rate=2.0, beta=0.6)
    run = simulate(cfg, total_events=200_000, seed=11)
    exact = solve_theta_exact(build_reduced_generator(cfg))
    assert total_variation(run.empirical_theta(), exact) <= 0.03
    total = sum(cfg.b)
    assert all(sum(k) == total for k in run.inventory_occupancy)


def test_merge_results():
    runs = [simulate(BASE, total_events=50_000, seed=s) for s in (1, 2, 3)]
    merged = merge_results(runs)
    assert merged.total_events == 150_000
    assert abs(sum(merged.joint.values()) - 1.0) < 1e-9
    assert merged.seed == (1, 2, 3)
    expected_time = sum(r.sim_time for r in runs)
    assert merged.sim_time == pytest.approx(expected_time)
    # merged occupancy is the time-weighted average
    key = next(iter(runs[0].inventory_occupancy))
    manual = (
        sum(r.inventory_occupancy.get(key, 0.0) * r.sim_time for r in runs)
        / expected_time
    )
    assert merged.inventory_occupancy[key] == pytest.approx(manual, rel=1e-12)
    with pytest.raises(PreconditionError):
        merge_results([])
    other = simulate(make_config((1, 1), (2, 2), 1.0, mu_rate=2.0), 1000, seed=1)
    with pytest.raises(PreconditionError):
        merge_results([runs[0], other])
