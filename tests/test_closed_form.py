import hashlib
import math

import numpy as np
import pytest

from conftest import draw_rates, make_config
from qinet import (
    PreconditionError,
    build_reduced_generator,
    enumerate_inventory_states,
    solve_theta_exact,
    theta_unit_base_stock,
    total_variation,
    unit_base_stock_weights,
)


def test_all_empty_state_weight(rng):
    # No stock anywhere: the prefactor is an empty product, weight (1/nu)^J.
    for J in (2, 3, 5):
        lam = draw_rates(rng, J)
        nu = float(draw_rates(rng, 1)[0])
        cfg = make_config(lam, (1,) * J, nu)
        weights = unit_base_stock_weights(cfg)
        states = enumerate_inventory_states(cfg.b)
        empty = next(i for i, k in enumerate(states.tolist()) if sum(k[:-1]) == 0)
        assert weights[empty] == pytest.approx((1.0 / nu) ** J, rel=1e-14)


def test_all_full_state_weight(rng):
    # Every location stocked: prefactor telescopes to 1/J!.
    for J in (2, 4):
        lam = draw_rates(rng, J)
        cfg = make_config(lam, (1,) * J, 1.7)
        weights = unit_base_stock_weights(cfg)
        states = enumerate_inventory_states(cfg.b)
        full = next(i for i, k in enumerate(states.tolist()) if all(kj == 1 for kj in k[:-1]))
        expected = (1.0 / math.factorial(J)) * float(np.prod([1.0 / l for l in lam]))
        assert weights[full] == pytest.approx(expected, rel=1e-14)


def test_symmetric_two_location_example():
    cfg = make_config((1, 1), (1, 1), 1.0)
    raw = unit_base_stock_weights(cfg)
    # canonical order (0,0), (0,1), (1,0), (1,1)
    assert np.allclose(raw, [1.0, 0.5, 0.5, 0.5], atol=1e-15)
    theta = theta_unit_base_stock(cfg)
    assert np.allclose(theta.weights, [0.4, 0.2, 0.2, 0.2], atol=1e-15)
    assert theta.provenance == "closed_form"


@pytest.mark.parametrize("J", [2, 3, 4, 5, 6])
def test_matches_exact_solver(J, rng):
    for _ in range(5):
        cfg = make_config(draw_rates(rng, J), (1,) * J, float(draw_rates(rng, 1)[0]))
        closed = theta_unit_base_stock(cfg)
        exact = solve_theta_exact(build_reduced_generator(cfg))
        assert total_variation(closed, exact) <= 1e-12


def test_permutation_equivariance(rng):
    lam = draw_rates(rng, 3)
    cfg = make_config(lam, (1, 1, 1), 1.3)
    grid = theta_unit_base_stock(cfg).grid
    sigma = (2, 0, 1)
    cfg_perm = make_config(tuple(lam[s] for s in sigma), (1, 1, 1), 1.3)
    grid_perm = theta_unit_base_stock(cfg_perm).grid
    # location i of the permuted network is location sigma[i] of the original
    assert grid_perm == pytest.approx(np.transpose(grid, sigma), rel=1e-13)


def test_alternative_constant_same_distribution(rng):
    # Rescaling all raw weights by nu^J is the other normalization seen in
    # the literature; the probability measure cannot change.
    cfg = make_config(draw_rates(rng, 3), (1, 1, 1), 2.2)
    raw = unit_base_stock_weights(cfg)
    rescaled = raw * cfg.nu ** cfg.J
    assert np.allclose(rescaled / rescaled.sum(), raw / raw.sum(), rtol=1e-13)


def test_requires_unit_base_stocks():
    cfg = make_config((1, 1), (2, 1), 1.0)
    with pytest.raises(PreconditionError):
        theta_unit_base_stock(cfg)


def test_weights_pinned():
    # sha256 of the raw and normalized weights for J = 2, 3, 4; recorded
    # from the per-state loop the vectorized formula replaced.
    digest = hashlib.sha256()
    for lam, nu in (((0.7, 1.9), 0.35), ((1.3, 0.45, 2.2), 3.1), ((0.6, 1.0, 1.7, 0.9), 1.3)):
        cfg = make_config(lam, (1,) * len(lam), nu)
        digest.update(unit_base_stock_weights(cfg).tobytes())
        digest.update(theta_unit_base_stock(cfg).weights.tobytes())
    assert digest.hexdigest() == (
        "a0ebc6a570f076c393e1aa6c8cc729918d82663e130ab934d26aadd1c0365c1c"
    )
