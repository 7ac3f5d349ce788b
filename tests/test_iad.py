"""The iterative aggregation-disaggregation solve against the level solver."""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import grid_config, make_config, mp_stationary, traced_peak
from qinet import (PreconditionError, SolverError, build_reduced_generator, method_inapplicable,
                   solve_theta_exact, solve_theta_iad)
from qinet.exact import IAD_MAX_SWEEPS, IAD_RTOL
from qinet.model import IAD_BYTES_PER_STATE_LOCATION, level_sizes

@pytest.mark.parametrize("b", [(3,) * 6, (6,) * 4, (12,) * 3, (8,) * 3], ids=["3^6", "6^4", "12^3", "8^3"])
def test_matches_level_solver_on_the_grid_shapes(b, rng):
    for ratio in (0.5, 1.0, 2.0, 2.0 * len(b)):
        config = grid_config(rng, b, ratio)
        theta, sweeps, residual = solve_theta_iad(config)
        expected = solve_theta_exact(build_reduced_generator(config)).weights
        assert theta.provenance == "iad" and theta.b == b
        assert 0 < sweeps < IAD_MAX_SWEEPS and residual <= IAD_RTOL
        assert np.max(np.abs(theta.weights / expected - 1.0)) <= 1e-12


@st.composite
def drawn_configs(draw):
    """A box of 3 or 4 locations with ``b_j`` up to 12, ``lam`` log-uniform in
    [0.5, 2] and ``nu / mean(lam)`` in [0.5, 2J]; its largest level holds at
    most 600 states, so the level solver answers within about 0.15 s."""
    J = draw(st.integers(3, 4))
    b = tuple(draw(st.lists(st.integers(1, 12), min_size=J, max_size=J)))
    assume(level_sizes(b).max() <= 600)
    lam = tuple(math.exp(draw(st.floats(math.log(0.5), math.log(2.0)))) for _ in range(J))
    return make_config(lam, b, draw(st.floats(0.5, 2.0 * J)) * float(np.mean(lam)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(drawn_configs())
def test_matches_level_solver_on_drawn_boxes(config):
    try:
        theta, sweeps, residual = solve_theta_iad(config)
    except SolverError as exc:
        assert re.search(r"stopped after \d+ sweeps at componentwise residual |\d+ sweeps, residual ", str(exc))
        return
    expected = solve_theta_exact(build_reduced_generator(config)).weights
    assert 0 < sweeps < IAD_MAX_SWEEPS and residual <= IAD_RTOL
    assert np.max(np.abs(theta.weights / expected - 1.0)) <= 1e-12


@pytest.mark.parametrize("b, lam, ratio", [
    ((2, 2, 2), (1.3, 0.8, 1.1), 1.0),
    ((3, 2, 1), (0.2, 1.0, 5.0), 10.0),
    ((1, 2, 1, 2), (0.7, 1.4, 1.0, 0.5), 0.3),
    ((4, 4), (1.0, 0.6), 1.5),
], ids=["2x2x2", "3x2x1-graded", "1x2x1x2", "4x4"])
def test_entrywise_against_mpmath(b, lam, ratio):
    config = make_config(lam, b, ratio * float(np.mean(lam)))
    oracle = mp_stationary(build_reduced_generator(config))
    theta = solve_theta_iad(config)[0].weights
    assert np.max(np.abs(theta - oracle) / oracle) <= 1e-12


def test_refuses_the_transfer_channel():
    config = make_config((1.0, 1.0), (4, 4), 1.5, beta=0.6)
    reason = ("iterative aggregation-disaggregation does not cover the transfer channel: its "
              "same-level moves break the level-parity split; use exact")
    assert method_inapplicable(config, "iad") == reason
    with pytest.raises(PreconditionError) as info:
        solve_theta_iad(config)
    assert str(info.value) == reason
    assert method_inapplicable(make_config((1.0, 1.0), (4, 4), 1.5, beta=0.0), "iad") is None


def test_byte_cap():
    # (6,)^6 is refused by the level solver and admitted here; (300,300,300) by both.
    assert method_inapplicable(make_config((1.0,) * 6, (6,) * 6, 6.0), "exact") is not None
    assert method_inapplicable(make_config((1.0,) * 6, (6,) * 6, 6.0), "iad") is None
    assert method_inapplicable(make_config((1.0,) * 3, (100,) * 3, 3.0), "iad") is None
    assert method_inapplicable(make_config((1.0,) * 3, (300,) * 3, 3.0), "iad") == (
        "iterative aggregation-disaggregation of 27270901 states needs "
        f"{IAD_BYTES_PER_STATE_LOCATION * 27270901 * 3} bytes; the cap is 4294967296 bytes")


@pytest.mark.parametrize("config", [
    make_config((0.7, 1.3, 0.9, 1.1, 0.8, 1.2), (3,) * 6, 2.0),
    make_config((1.3, 0.8, 1.1), (20, 20, 20), 1.5),
    make_config((1.3, 0.8), (120, 120), 1.2),
], ids=["3^6", "20^3", "120x120"])
def test_charge_covers_the_solve(config):
    _, peak = traced_peak(solve_theta_iad, config)
    assert peak <= IAD_BYTES_PER_STATE_LOCATION * math.prod(bj + 1 for bj in config.b) * config.J


def test_weights_beyond_the_double_range_are_named():
    # At nu = lam / 100, (0, 1) of (160,1) weighs about 1e-368 of the empty
    # state: the sweeps underflow instead of converging.
    with pytest.raises(SolverError) as info:
        solve_theta_iad(make_config((1.0, 1.0), (160, 1), 0.01))
    assert str(info.value) == ("iterative aggregation-disaggregation stopped after 5 sweeps at componentwise "
                               "residual nan (tolerance 1e-13): a weight left the double range")


def test_level_sizes():
    assert level_sizes((1, 2)).tolist() == [1, 2, 2, 1]
    assert level_sizes((3,) * 6).max() == 580 and level_sizes((6,) * 4).max() == 231
    assert level_sizes((12,) * 3).max() == 127 and level_sizes((8,) * 3).max() == 61
    assert level_sizes((2, 3, 1)).sum() == 24
