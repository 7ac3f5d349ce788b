import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_mu, make_config, routing_probs
from qinet import (
    ConfigError,
    NetworkConfig,
    ServiceRateProfile,
    build_reduced_generator,
    enumerate_inventory_states,
    method_inapplicable,
    solve_theta_exact,
    solve_theta_recursive,
)


class TestServiceRateProfile:
    def test_head_then_tail(self):
        prof = ServiceRateProfile(head=(1.0, 2.0, 3.0), tail=5.0)
        assert prof.rate(1) == 1.0
        assert prof.rate(3) == 3.0
        assert prof.rate(4) == 5.0
        assert prof.rate(100) == 5.0

    def test_constant(self):
        prof = ServiceRateProfile.constant(2.5)
        assert prof.rate(1) == prof.rate(17) == 2.5

    def test_rates_positive(self):
        with pytest.raises(ConfigError):
            ServiceRateProfile(head=(1.0, 0.0), tail=1.0)
        with pytest.raises(ConfigError):
            ServiceRateProfile(head=(), tail=-1.0)

    def test_undefined_below_one(self):
        prof = ServiceRateProfile.constant(1.0)
        with pytest.raises(ValueError):
            prof.rate(0)


class TestNetworkConfig:
    def test_single_location_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(lam=(1.0,), mu=const_mu(2.0, 1), b=(1,), nu=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            NetworkConfig(lam=(1.0,), mu=const_mu(2.0, 2), b=(1, 1), nu=1.0)

    def test_base_stock_at_least_one(self):
        with pytest.raises(ConfigError):
            make_config((1, 1), (1, 0), 1.0)

    def test_positive_rates(self):
        with pytest.raises(ConfigError):
            make_config((1, -1), (1, 1), 1.0)
        with pytest.raises(ConfigError):
            make_config((1, 1), (1, 1), 0.0)

    def test_transfer_restrictions(self):
        with pytest.raises(ConfigError):
            make_config((1, 1, 1), (2, 2, 2), 1.0, beta=0.5)  # J != 2
        with pytest.raises(ConfigError):
            make_config((1, 1), (2, 3), 1.0, beta=0.5)  # unequal b
        with pytest.raises(ConfigError):
            make_config((1, 2), (2, 2), 1.0, beta=0.5)  # unequal lam
        with pytest.raises(ConfigError):
            make_config((1, 1), (2, 2), 1.0, beta=-0.1)
        cfg = make_config((1, 1), (2, 2), 1.0, beta=0.5)
        assert cfg.has_transfer

    @pytest.mark.parametrize(
        "lam, b", [((1.3, 0.8), (3, 2)), ((1.3, 0.8), (2, 1)), ((1.0, 1.2, 0.9), (2, 1, 3))]
    )
    def test_beta_zero_heterogeneous_is_no_transfer(self, lam, b):
        # A zero rate is no channel, so the homogeneity restriction does
        # not apply: every method decides and solves as without beta.
        plain = make_config(lam, b, 1.1)
        zero = make_config(lam, b, 1.1, beta=0.0)
        assert not zero.has_transfer
        for method in ("exact", "closed", "recursive"):
            assert method_inapplicable(zero, method) == method_inapplicable(plain, method)
        solves = [lambda c: solve_theta_exact(build_reduced_generator(c))]
        if method_inapplicable(plain, "recursive") is None:
            solves.append(solve_theta_recursive)
        for solve in solves:
            assert solve(zero).weights.tobytes() == solve(plain).weights.tobytes()

    def test_homogeneity(self):
        assert make_config((1, 1), (2, 2), 1.0).is_homogeneous()
        assert not make_config((1, 2), (2, 2), 1.0).is_homogeneous()
        assert not make_config((1, 1), (2, 3), 1.0).is_homogeneous()


class TestEnumeration:
    def test_two_unit_levels(self):
        states = enumerate_inventory_states((1, 1))
        assert isinstance(states, np.ndarray) and states.dtype.kind == "i"
        assert states.tolist() == [[0, 0, 2], [0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_counts(self):
        assert enumerate_inventory_states((2, 1)).shape == (6, 3)
        states = enumerate_inventory_states((3, 2, 1))
        assert states.shape == (24, 4)
        assert np.array_equal(states[:, 3], 6 - states[:, :3].sum(axis=1))

    def test_lexicographic_and_distinct(self):
        states = enumerate_inventory_states((2, 3))
        on_hand = [tuple(k[:-1]) for k in states.tolist()]
        assert on_hand == sorted(on_hand) == list(itertools.product(range(3), range(4)))
        assert len(set(on_hand)) == len(on_hand)

    def test_invalid_levels(self):
        with pytest.raises(ConfigError):
            enumerate_inventory_states(())
        with pytest.raises(ConfigError):
            enumerate_inventory_states((1, 0))


class TestRouting:
    def test_unique_leader(self):
        b = (2, 1)
        assert routing_probs((0, 1), b) == (1.0, 0.0)

    def test_tie(self):
        b = (2, 1)
        assert routing_probs((1, 0), b) == (0.5, 0.5)

    def test_all_full_guard_value(self):
        # Deficits all tie at zero: uniform value, never rate-effective
        # because k_i < b_i fails everywhere.
        b = (1, 1)
        assert routing_probs((1, 1), b) == (0.5, 0.5)

    def test_index_range(self):
        # The state must fit the base-stock vector it is routed against.
        with pytest.raises(ConfigError):
            routing_probs((0, 0), (1, 1, 1))
        with pytest.raises(ConfigError):
            routing_probs((2, 0), (1, 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_probabilities_sum_to_one(self, data):
        J = data.draw(st.integers(2, 5))
        b = tuple(data.draw(st.integers(1, 4)) for _ in range(J))
        levels = tuple(data.draw(st.integers(0, bj)) for bj in b)
        probs = routing_probs(levels, b)
        assert abs(sum(probs) - 1.0) < 1e-15
        deficits = [bj - kj for kj, bj in zip(levels, b)]
        leaders = [d == max(deficits) for d in deficits]
        assert probs == tuple(1.0 / sum(leaders) if lead else 0.0 for lead in leaders)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_permutation_equivariance(self, data):
        J = data.draw(st.integers(2, 4))
        b_val = data.draw(st.integers(1, 3))
        b = (b_val,) * J
        levels = tuple(data.draw(st.integers(0, b_val)) for _ in range(J))
        sigma = data.draw(st.permutations(range(J)))
        probs = routing_probs(levels, b)
        permuted_levels = tuple(levels[sigma[j]] for j in range(J))
        permuted_probs = routing_probs(permuted_levels, b)
        assert permuted_probs == tuple(probs[sigma[j]] for j in range(J))

    def test_heterogeneous_equivariance_in_pairs(self):
        # Permuting (b, k) jointly permutes the probabilities.
        b = (3, 1, 2)
        levels = (1, 0, 2)
        probs = routing_probs(levels, b)
        sigma = (2, 0, 1)
        b2 = tuple(b[s] for s in sigma)
        levels2 = tuple(levels[s] for s in sigma)
        probs2 = routing_probs(levels2, b2)
        assert probs2 == tuple(probs[s] for s in sigma)

    def test_sum_over_positive_deficit_states(self):
        # Over every state with at least one deficit, the rate-effective
        # probabilities alone must sum to one.
        b = (2, 3, 1)
        for k in enumerate_inventory_states(b).tolist():
            on_hand, outstanding = k[:-1], k[-1]
            if outstanding == 0:
                continue
            probs = routing_probs(on_hand, b)
            effective = sum(
                p for p, kj, bj in zip(probs, on_hand, b) if kj < bj
            )
            assert abs(effective - 1.0) < 1e-15
