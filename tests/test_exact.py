import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import draw_rates, make_config, mp_stationary
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
    # Two closed 2-state classes, (0,0) <-> (0,1) and (1,0) <-> (1,1): a
    # valid rate list, but no ReducedGenerator is built from it, so no
    # solver ever sees one.
    with pytest.raises(ReducibilityError, match="2 strongly connected components"):
        ReducedGenerator(b=(1, 1), src=np.array([0, 1, 2, 3]), dst=np.array([1, 0, 3, 2]),
                         rate=np.array([1.0, 1.0, 2.0, 2.0]))


def test_graded_box_matches_oracle():
    # Strongly graded rates: the smallest weight is 6e-15.  Dense LU lost
    # six digits here (relative error 8.6e-7); level elimination keeps
    # every weight to rounding against a 60-digit solve.
    gen = build_reduced_generator(make_config((1.0, 1.0), (10, 6), 0.3))
    theta = solve_theta_exact(gen).weights
    oracle = mp_stationary(gen)
    assert oracle.min() < 1e-14
    assert np.max(np.abs(theta - oracle) / oracle) <= 1e-13


def _assert_entrywise(b, lam, ratio, beta=None):
    gen = build_reduced_generator(make_config(lam, b, ratio * float(np.mean(lam)), beta=beta))
    oracle = mp_stationary(gen)
    assert np.max(np.abs(solve_theta_exact(gen).weights - oracle) / oracle) <= 1e-13


@pytest.mark.parametrize("b, lam", [((3, 3), (10.0, 0.1)), ((5, 1), (0.1, 10.0))])
def test_graded_levels_against_mpmath(b, lam):
    # nu = 100 mean(lam) with arrival rates 100 apart: here a diagonal
    # computed by subtraction (down_sum + diag - rowsum) instead of as a sum
    # of non-negative terms misses the bound (measured 4.8e-13 and 9.3e-13).
    _assert_entrywise(b, lam, 100.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_entrywise_against_mpmath(data):
    # J in 2..4, at most 36 states, arrival rates log-uniform in [0.1, 10],
    # nu / mean(lam) log-uniform in [1e-2, 1e2], and the transfer channel
    # for two equal locations.
    b = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)
                  .filter(lambda b: math.prod(x + 1 for x in b) <= 36), label="b")
    log_rate = st.floats(math.log(0.1), math.log(10.0))
    lam = tuple(math.exp(data.draw(log_rate, label="log_lam")) for _ in b)
    ratio = math.exp(data.draw(st.floats(math.log(1e-2), math.log(1e2)), label="log_ratio"))
    beta = None
    if len(b) == 2 and data.draw(st.booleans(), label="transfer"):
        b, lam = (b[0], b[0]), (lam[0], lam[0])
        beta = lam[0] * math.exp(data.draw(st.floats(math.log(1e-2), math.log(1e2)), label="log_beta"))
    _assert_entrywise(b, lam, ratio, beta)


def test_underflow_names_cell_value_and_range():
    # The smallest box found to underflow: at nu = lam / 100, (0, 1) waits
    # for 134 replenishments and weighs 1e-308.5 of the empty state, below
    # the smallest normal double.  The solve carries each level's scale, so
    # it knows the range, and refuses instead of clamping.  One unit less
    # still solves.
    solve_theta_exact(build_reduced_generator(make_config((1.0, 1.0), (133, 1), 0.01)))
    gen = build_reduced_generator(make_config((1.0, 1.0), (134, 1), 0.01))
    with pytest.raises(SolverError) as info:
        solve_theta_exact(gen)
    assert re.fullmatch(
        r"stationary solve failed: weight 3\.250e-309 at on-hand \(0, 1\) balances to \S+ relative "
        r"\(tolerance 1e-12\); log10\(max/min\) = 308\.5", str(info.value))


def test_blas_thread_count_restored(monkeypatch):
    # numpy and scipy each bundle an OpenBLAS with its own thread count; the
    # level loop pins both to one thread, and restores them on success and
    # on failure.
    from qinet import exact

    threads = exact._openblas_threads()
    if len(threads) != 2:
        pytest.skip("the bundled OpenBLAS libraries are not loadable here")
    original = [get() for get, _ in threads]
    seen = []
    real_dgesv = exact.dgesv

    def spy(*args, **kwargs):
        seen.append(tuple(get() for get, _ in threads))
        return real_dgesv(*args, **kwargs)

    def singular(*args, **kwargs):
        lu, piv, x, _ = spy(*args, **kwargs)
        return lu, piv, x, 1

    gen = build_reduced_generator(make_config((1.2, 0.7), (3, 2), 1.4))
    try:
        for _, set_ in threads:
            set_(2)
        monkeypatch.setattr(exact, "dgesv", spy)
        solve_theta_exact(gen)
        assert [get() for get, _ in threads] == [2, 2]
        monkeypatch.setattr(exact, "dgesv", singular)
        with pytest.raises(SolverError, match="censored block of level 5 is singular"):
            solve_theta_exact(gen)
        assert [get() for get, _ in threads] == [2, 2]
        assert seen and set(seen) == {(1, 1)}
    finally:
        for (_, set_), count in zip(threads, original):
            set_(count)


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
