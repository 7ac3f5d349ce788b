import numpy as np
import pytest

from conftest import draw_rates, make_config
from qinet import (
    ReducedGenerator,
    ReducibilityError,
    SolverError,
    ThetaMeasure,
    build_reduced_generator,
    enumerate_inventory_states,
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
    assert theta.weights.sum() == pytest.approx(1.0, abs=1e-12)
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
    # Two disconnected 2-state blocks form a conservative generator, but no
    # ReducedGenerator is built from them, so no solver ever sees one.
    Q = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    with pytest.raises(ReducibilityError, match="2 strongly connected components"):
        ReducedGenerator(b=(1, 1), rates=Q)


def test_floor_failure_names_cell():
    # Strongly graded rates push the smallest weight under the absolute floor.
    gen = build_reduced_generator(make_config((1.0, 1.0), (10, 6), 0.3))
    with pytest.raises(SolverError, match=r"weight \S+ at on-hand \(0, 6\) at or below positivity floor 1e-14"):
        solve_theta_exact(gen)


def test_blas_thread_count_restored(monkeypatch):
    from qinet import exact

    threads = exact._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS is not loadable here")
    get, set_ = threads
    original = get()
    seen = []
    real_solve = np.linalg.solve

    def spy(M, rhs):
        seen.append(get())
        return real_solve(M, rhs)

    def singular(M, rhs):
        seen.append(get())
        raise np.linalg.LinAlgError("synthetic")

    gen = build_reduced_generator(make_config((1.2, 0.7), (3, 2), 1.4))
    try:
        set_(2)
        before = get()
        monkeypatch.setattr(np.linalg, "solve", spy)
        solve_theta_exact(gen)
        assert get() == before
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SolverError):
            solve_theta_exact(gen)
        assert get() == before
        assert seen == [1, 1]
    finally:
        set_(original)


def test_theta_measure_validation():
    with pytest.raises(SolverError):
        ThetaMeasure(grid=np.array([[0.5, 0.5], [0.0, 0.0]]), provenance="exact")
    with pytest.raises(SolverError, match="sum to one"):
        ThetaMeasure(grid=np.full((2, 2), 0.5), provenance="exact")
    # empirical measures may carry zeros
    emp = ThetaMeasure(grid=np.array([[0.5, 0.5], [0.0, 0.0]]), provenance="empirical")
    assert emp.grid[0, 1] == 0.5
    assert emp.b == (1, 1)
    assert np.array_equal(emp.weights, [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        ThetaMeasure(grid=np.full((2, 2), 0.25), provenance="guesswork")
    with pytest.raises(ValueError, match="b_j"):
        ThetaMeasure(grid=np.full((1, 4), 0.25), provenance="exact")


def test_grid_flattens_to_canonical_order():
    # weights is the grid read in the order of enumerate_inventory_states.
    cfg = make_config((1.3, 0.8, 1.1), (2, 1, 3), 0.9)
    gen = build_reduced_generator(cfg)
    theta = solve_theta_exact(gen)
    assert theta.grid.shape == (3, 2, 4) and theta.b == cfg.b
    for k, weight in zip(enumerate_inventory_states(cfg.b).tolist(), theta.weights):
        assert theta.grid[tuple(k[:-1])] == weight
