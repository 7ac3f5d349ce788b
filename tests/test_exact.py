import itertools

import numpy as np
import pytest

from conftest import draw_rates, make_config
from qinet import (
    ErgodicityError,
    PreconditionError,
    ReducedGenerator,
    ReducibilityError,
    SolverError,
    ThetaMeasure,
    build_reduced_generator,
    enumerate_inventory_states,
    solve_pi_truncated,
    solve_theta_exact,
)


def hand_solved_unit_theta():
    """Independent oracle: the four balance equations of b=(1,1),
    lam=(1,1), nu=1 written out by hand and least-squares solved."""
    # state order: (0,0,2), (0,1,1), (1,0,1), (1,1,0)
    Q = np.array(
        [
            # from (0,0,2): replenish to (1,0,1) and (0,1,1) at nu/2 each
            [-1.0, 0.5, 0.5, 0.0],
            # from (0,1,1): consume at 2 -> (0,0,2); replenish 1 -> (1,1,0)
            [1.0, -2.0, 0.0, 1.0],
            # from (1,0,1): symmetric
            [1.0, 0.0, -2.0, 1.0],
            # from (1,1,0): consume either -> (0,1,1) / (1,0,1)
            [0.0, 1.0, 1.0, -2.0],
        ]
    )
    M = np.vstack([Q.T, np.ones(4)])
    rhs = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    theta, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return theta


# Frozen from the oracle above (verified in test_unit_example_oracle).
UNIT_THETA = {(0, 0, 2): 0.4, (0, 1, 1): 0.2, (1, 0, 1): 0.2, (1, 1, 0): 0.2}


def test_unit_example_oracle():
    oracle = hand_solved_unit_theta()
    assert np.allclose(oracle, [0.4, 0.2, 0.2, 0.2], atol=1e-12)


def test_unit_example_exact_solver():
    cfg = make_config((1, 1), (1, 1), 1.0)
    theta = solve_theta_exact(build_reduced_generator(cfg))
    assert theta.provenance == "exact"
    assert theta.normalized
    for k, weight in UNIT_THETA.items():
        assert theta.grid[k[:-1]] == pytest.approx(weight, abs=1e-13)


@pytest.mark.parametrize("b", [(1, 1), (3, 2), (2, 2, 2), (1, 3, 2)])
def test_residual_and_positivity(b, rng):
    for _ in range(5):
        cfg = make_config(draw_rates(rng, len(b)), b, float(draw_rates(rng, 1)[0]))
        gen = build_reduced_generator(cfg)
        theta = solve_theta_exact(gen)
        scale = np.abs(gen.rates).max()
        assert np.abs(theta.weights @ gen.rates).max() <= 1e-12 * scale
        assert theta.weights.min() > 0
        assert theta.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_symmetry(rng):
    cfg = make_config((1.4, 1.4), (2, 2), 0.9)
    grid = solve_theta_exact(build_reduced_generator(cfg)).grid
    assert grid == pytest.approx(grid.T, rel=1e-12)


def test_rate_scaling_invariance(rng):
    lam = (draw_rates(rng, 1)[0],) * 2  # transfer channel needs equal rates
    cfg1 = make_config(lam, (2, 2), 1.0, beta=0.4)
    c = 37.5
    cfg2 = make_config(tuple(c * l for l in lam), (2, 2), c * 1.0, beta=c * 0.4)
    t1 = solve_theta_exact(build_reduced_generator(cfg1))
    t2 = solve_theta_exact(build_reduced_generator(cfg2))
    assert np.allclose(t1.weights, t2.weights, atol=1e-13)


def test_cut_balance_on_random_partitions(rng):
    cfg = make_config(draw_rates(rng, 3), (2, 1, 2), 1.2)
    gen = build_reduced_generator(cfg)
    theta = solve_theta_exact(gen)
    n = gen.size
    flow = theta.weights[:, None] * gen.rates
    for _ in range(20):
        mask = rng.random(n) < 0.5
        if mask.all() or not mask.any():
            continue
        outward = flow[np.ix_(mask, ~mask)].sum()
        inward = flow[np.ix_(~mask, mask)].sum()
        assert outward == pytest.approx(inward, abs=1e-13)


def test_reducible_generator_rejected():
    # Two disconnected 2-state blocks pass the local dataclass checks but
    # must be caught by the solver.
    states = enumerate_inventory_states((1, 1))
    Q = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    gen = ReducedGenerator(states=states, rates=Q)
    with pytest.raises(ReducibilityError):
        solve_theta_exact(gen)


def test_theta_measure_validation():
    with pytest.raises(SolverError):
        ThetaMeasure(grid=np.array([[0.5, 0.5], [0.0, 0.0]]),
                     normalized=True, provenance="exact")
    with pytest.raises(SolverError):
        ThetaMeasure(grid=np.full((2, 2), 0.5), normalized=True, provenance="exact")
    # empirical measures may carry zeros
    emp = ThetaMeasure(grid=np.array([[0.5, 0.5], [0.0, 0.0]]),
                       normalized=True, provenance="empirical")
    assert emp.grid[0, 1] == 0.5
    assert emp.b == (1, 1)
    assert np.array_equal(emp.weights, [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        ThetaMeasure(grid=np.full((2, 2), 0.25), normalized=True, provenance="guesswork")
    with pytest.raises(ValueError, match="b_j"):
        ThetaMeasure(grid=np.full((1, 4), 0.25), normalized=True, provenance="exact")


def test_grid_flattens_to_canonical_order():
    # weights is the grid read in the order of enumerate_inventory_states.
    cfg = make_config((1.3, 0.8, 1.1), (2, 1, 3), 0.9)
    gen = build_reduced_generator(cfg)
    theta = solve_theta_exact(gen)
    assert theta.grid.shape == (3, 2, 4) and theta.b == cfg.b
    for state, weight in zip(enumerate_inventory_states(cfg.b), theta.weights):
        assert theta.grid[state.on_hand] == weight


class TestPiTruncated:
    def test_matches_geometric_product(self):
        # mu const 2, lam 1: xi(n) = (1/2)^(n+1); theta from the unit example.
        cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
        window = solve_pi_truncated(cfg, 4)
        for (n1, n2) in itertools.product(range(5), repeat=2):
            expected = 0.5 ** (n1 + 1) * 0.5 ** (n2 + 1) * window.theta.grid
            assert window.pi[n1, n2] == pytest.approx(expected, rel=1e-12)

    def test_factorization_is_k_free(self):
        cfg = make_config((0.9, 1.3), (2, 1), 1.1)
        window = solve_pi_truncated(cfg, 3)
        ratio = window.pi / window.theta.grid  # broadcasts over the k axes
        spread = ratio.max(axis=(-2, -1)) - ratio.min(axis=(-2, -1))
        assert spread.max() <= 1e-14 * ratio.max()

    def test_window_mass_monotone_to_one(self):
        cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
        masses = [solve_pi_truncated(cfg, cap).window_mass for cap in (0, 1, 2, 5, 30)]
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(1.0, abs=1e-8)
        # window sums agree with the analytic mass
        window = solve_pi_truncated(cfg, 5)
        assert window.pi.sum() == pytest.approx(window.window_mass, rel=1e-12)

    def test_per_location_caps(self):
        cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
        window = solve_pi_truncated(cfg, (2, 4))
        assert window.pi.shape == (3, 5, 2, 2)

    def test_non_ergodic_rejected(self):
        cfg = make_config((3, 1), (1, 1), 1.0, mu_rate=2.0)
        with pytest.raises(ErgodicityError):
            solve_pi_truncated(cfg, 3)

    def test_bad_caps(self):
        cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
        with pytest.raises(PreconditionError):
            solve_pi_truncated(cfg, (1, 2, 3))
        with pytest.raises(PreconditionError):
            solve_pi_truncated(cfg, -1)
