import time

import numpy as np
import pytest

from conftest import const_mu, draw_rates, make_config
from qinet import (
    ErgodicityError,
    NetworkConfig,
    PreconditionError,
    ServiceRateProfile,
    SolverError,
    ThetaMeasure,
    build_reduced_generator,
    check_cut_heterogeneous,
    check_cut_homogeneous,
    check_symmetry,
    enumerate_inventory_states,
    ergodicity_check,
    inventory_marginal,
    queue_marginal,
    solve_theta_exact,
    solve_theta_recursive,
    theta_unit_base_stock,
    total_variation,
)


def exact_theta(cfg):
    return solve_theta_exact(build_reduced_generator(cfg))


class TestErgodicity:
    def test_stable(self):
        cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
        report = ergodicity_check(cfg)
        assert report.ergodic and bool(report)
        assert [d.rho_tail for d in report.per_location] == [0.5, 0.5]

    def test_critical_location_flagged(self):
        cfg = NetworkConfig(
            lam=(2, 1),
            mu=(ServiceRateProfile.constant(2), ServiceRateProfile.constant(3)),
            b=(1, 1),
            nu=1.0,
        )
        report = ergodicity_check(cfg)
        assert not report.ergodic
        assert not report.per_location[0].ergodic  # boundary lam == mu excluded
        assert report.per_location[1].ergodic

    def test_head_rates_irrelevant(self):
        slow_head = ServiceRateProfile(head=(0.1,) * 5, tail=2.0)
        cfg = NetworkConfig(
            lam=(1, 1), mu=(slow_head, ServiceRateProfile.constant(2)), b=(1, 1), nu=1.0
        )
        assert ergodicity_check(cfg).ergodic


class TestQueueMarginal:
    def test_geometric(self):
        cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
        qm = queue_marginal(cfg, 1)
        assert qm.C == pytest.approx(2.0)
        for n in range(8):
            assert qm.xi(n) == pytest.approx(0.5 ** (n + 1), rel=1e-14)
        assert qm.mean_queue_length == pytest.approx(1.0)  # rho/(1-rho)

    def test_xi0_times_C_is_one(self, rng):
        head = tuple(draw_rates(rng, 3))
        prof = ServiceRateProfile(head=head, tail=5.0)
        cfg = NetworkConfig(lam=(1.2, 1.0), mu=(prof, prof), b=(1, 1), nu=1.0)
        qm = queue_marginal(cfg, 1)
        assert qm.xi(0) * qm.C == pytest.approx(1.0, rel=1e-14)

    def test_head_profile_normalizes(self, rng):
        prof = ServiceRateProfile(head=(0.9, 3.0, 1.4), tail=4.0)
        cfg = NetworkConfig(lam=(1.1, 1.0), mu=(prof, prof), b=(1, 1), nu=1.0)
        qm = queue_marginal(cfg, 1)
        brute = sum(qm.xi(n) for n in range(4000))
        assert brute == pytest.approx(1.0, abs=1e-12)
        brute_mean = sum(n * qm.xi(n) for n in range(4000))
        assert qm.mean_queue_length == pytest.approx(brute_mean, rel=1e-10)

    def test_unstable_location_rejected(self):
        cfg = NetworkConfig(
            lam=(3, 1),
            mu=(ServiceRateProfile.constant(2), ServiceRateProfile.constant(2)),
            b=(1, 1),
            nu=1.0,
        )
        with pytest.raises(ErgodicityError):
            queue_marginal(cfg, 1)
        queue_marginal(cfg, 2)
        with pytest.raises(PreconditionError):
            queue_marginal(cfg, 3)


class TestInventoryMarginal:
    def test_unit_example(self):
        cfg = make_config((1, 1), (1, 1), 1.0)
        marg = inventory_marginal(exact_theta(cfg), 1)
        assert marg == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_equals_per_state_loop(self, rng):
        # Reference: accumulate the weights state by state in canonical order.
        cfg = make_config(draw_rates(rng, 3), (4, 2, 5), 0.8)
        theta = exact_theta(cfg)
        for j in (1, 2, 3):
            expected = np.zeros(cfg.b[j - 1] + 1)
            for k, w in zip(enumerate_inventory_states(cfg.b).tolist(), theta.weights):
                expected[k[j - 1]] += w
            assert np.array_equal(inventory_marginal(theta, j), expected)

    def test_homogeneous_marginals_agree(self, rng):
        cfg = make_config((1.3,) * 3, (2, 2, 2), 0.7)
        theta = exact_theta(cfg)
        margs = [inventory_marginal(theta, j) for j in (1, 2, 3)]
        for m in margs[1:]:
            assert np.allclose(m, margs[0], atol=1e-13)

    def test_sums_to_one(self, rng):
        cfg = make_config(draw_rates(rng, 2), (3, 2), 1.1)
        theta = exact_theta(cfg)
        for j in (1, 2):
            assert inventory_marginal(theta, j).sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_normalized(self):
        # A marginal is only read off a measure, and an unnormalized grid
        # is refused when the measure is built.
        cfg = make_config((1, 1), (1, 1), 1.0)
        theta = exact_theta(cfg)
        with pytest.raises(SolverError, match="must sum to one"):
            ThetaMeasure(grid=theta.grid * 3.0, provenance="exact")


class TestHomogeneousCut:
    def test_unit_example_numbers(self):
        # J=2, b=(1,1), lam=nu=1, level 1:
        # 0.4 * 1 == theta(0,0) * nu/2 + theta(0,1) * nu
        cfg = make_config((1, 1), (1, 1), 1.0)
        theta = exact_theta(cfg)
        lhs = 0.4 * 1.0
        rhs = theta.grid[0, 0] * 0.5 + theta.grid[0, 1] * 1.0
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert check_cut_homogeneous(theta, cfg) <= 1e-12

    @pytest.mark.parametrize("J,b", [(2, 1), (2, 3), (3, 2), (4, 2)])
    def test_identity_holds(self, J, b, rng):
        lam = float(draw_rates(rng, 1)[0])
        cfg = make_config((lam,) * J, (b,) * J, float(draw_rates(rng, 1)[0]))
        assert check_cut_homogeneous(exact_theta(cfg), cfg) <= 1e-10

    def test_perturbation_breaks_identity(self):
        cfg = make_config((1, 1), (2, 2), 1.0)
        theta = exact_theta(cfg)
        eps = 1e-3
        grid = theta.grid.copy()
        grid[0, 0] += eps
        grid[2, 2] -= eps
        bent = ThetaMeasure(grid=grid, provenance="exact")
        assert check_cut_homogeneous(bent, cfg) > eps / 10

    def test_heterogeneous_rejected(self):
        cfg = make_config((1, 2), (2, 2), 1.0)
        with pytest.raises(PreconditionError):
            check_cut_homogeneous(exact_theta(cfg), cfg)


class TestHeterogeneousCut:
    @pytest.mark.parametrize("b", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_all_families_hold(self, b, rng):
        cfg = make_config(draw_rates(rng, 2), b, float(draw_rates(rng, 1)[0]))
        report = check_cut_heterogeneous(exact_theta(cfg), cfg)
        assert report.max_residual <= 1e-10
        assert set(report.families) == {"low", "mid", "full", "second", "geometric"}

    def test_geometric_relation_unit_ratio(self):
        # b=(3,1), lam1=nu=1: P(Y1=l) is flat on the geometric range.
        cfg = make_config((1, 0.5), (3, 1), 1.0)
        theta = exact_theta(cfg)
        marg = inventory_marginal(theta, 1)
        assert marg[1] == pytest.approx(marg[0], rel=1e-12)
        assert marg[2] == pytest.approx(marg[1], rel=1e-12)
        assert check_cut_heterogeneous(theta, cfg).families["geometric"] <= 1e-12

    def test_equal_base_stocks_vacuous_families(self, rng):
        cfg = make_config(draw_rates(rng, 2), (2, 2), 1.0)
        report = check_cut_heterogeneous(exact_theta(cfg), cfg)
        assert report.families["low"] == 0.0
        assert report.families["geometric"] == 0.0
        assert report.max_residual <= 1e-10

    @pytest.mark.parametrize("b", [(2, 3), (3, 7), (2, 6)])
    def test_swapped_labels_still_hold(self, b, rng):
        # b1 < b2 puts tie levels below zero; they must count as empty, not
        # wrap around to the far edge of the grid.
        cfg = make_config(draw_rates(rng, 2), b, 1.0)
        assert check_cut_heterogeneous(exact_theta(cfg), cfg).max_residual <= 1e-10

    def test_swapped_labels_bent_measure_fails(self):
        # (2, 3) is the cell a wrapped tie level -1 would read at l2 = 4.
        cfg = make_config((1.1, 0.9), (2, 6), 1.0)
        grid = exact_theta(cfg).grid.copy()
        grid[2, 3] += 1e-4
        grid[0, 0] -= 1e-4
        bent = ThetaMeasure(grid=grid, provenance="exact")
        assert check_cut_heterogeneous(bent, cfg).families["second"] > 1e-6

    def test_wrong_location_count(self):
        cfg = make_config((1, 1, 1), (2, 2, 2), 1.0)
        with pytest.raises(PreconditionError):
            check_cut_heterogeneous(exact_theta(cfg), cfg)

    @pytest.mark.parametrize("b", [(3, 2), (6, 1), (12, 6)], ids=lambda b: f"{b[0]}x{b[1]}")
    def test_location_order_does_not_matter(self, b, rng):
        # The families are read with the larger base stock first, so the
        # swapped network with the transposed measure gives the same bits.
        lam = draw_rates(rng, 2)
        cfg = make_config(lam, b, 1.1)
        swapped = make_config(lam[::-1], b[::-1], 1.1)
        theta = exact_theta(cfg)
        bent = theta.grid * np.exp(1e-3 * rng.standard_normal(theta.grid.shape))
        for grid in (theta.grid, bent / bent.sum()):
            mine = check_cut_heterogeneous(ThetaMeasure(grid=grid, provenance="exact"), cfg)
            theirs = check_cut_heterogeneous(ThetaMeasure(grid=grid.T, provenance="exact"), swapped)
            assert {k: float(v).hex() for k, v in theirs.families.items()} == {
                k: float(v).hex() for k, v in mine.families.items()
            }

    def test_smaller_base_stock_first_checks_low_levels(self):
        # b=(6,12): the low and geometric ranges belong to location 2 and
        # must react to a bent measure instead of reading an empty range.
        cfg = make_config((1.1, 0.9), (6, 12), 1.0)
        grid = exact_theta(cfg).grid.copy()
        grid[0, 1] += 1e-4
        grid[0, 0] -= 1e-4
        report = check_cut_heterogeneous(ThetaMeasure(grid=grid, provenance="exact"), cfg)
        assert report.families["low"] > 1e-6 and report.families["geometric"] > 1e-6

    def test_perturbation_breaks_families(self):
        cfg = make_config((1.3, 0.8), (3, 2), 1.0)
        theta = exact_theta(cfg)
        grid = theta.grid.copy()
        grid[0, 0] += 1e-3
        grid[-1, -1] -= 1e-3
        bent = ThetaMeasure(grid=grid, provenance="exact")
        assert check_cut_heterogeneous(bent, cfg).max_residual > 1e-5

    def test_mid_family_reacts_to_perturbation(self):
        # Move mass onto (2, 0): P(Y1=2) sits on the left side of the
        # mid-range identity for b=(4,3), so the family must notice.
        cfg = make_config((1.0, 0.7), (4, 3), 1.2)
        theta = exact_theta(cfg)
        grid = theta.grid.copy()
        grid[2, 0] += 1e-4
        grid[0, 0] -= 1e-4
        bent = ThetaMeasure(grid=grid, provenance="exact")
        assert check_cut_heterogeneous(bent, cfg).families["mid"] > 1e-6


class TestTransferCut:
    """Cut identities of two homogeneous locations joined by a transfer channel."""

    @pytest.mark.parametrize("beta", [0.6, 2.0])
    def test_exact_measure_passes(self, beta):
        cfg = make_config((1.0, 1.0), (6, 6), 1.2, beta=beta)
        theta = exact_theta(cfg)
        assert check_cut_homogeneous(theta, cfg) <= 1e-12
        assert check_cut_heterogeneous(theta, cfg).max_residual <= 1e-12

    def test_bent_measure_fails(self):
        cfg = make_config((1.0, 1.0), (6, 6), 1.2, beta=0.6)
        grid = exact_theta(cfg).grid.copy()
        grid[4, 2] += 1e-4
        grid[3, 3] -= 1e-4
        bent = ThetaMeasure(grid=grid, provenance="exact")
        assert check_cut_homogeneous(bent, cfg) > 1e-6
        report = check_cut_heterogeneous(bent, cfg)
        assert report.families["mid"] > 1e-6 and report.families["second"] > 1e-6

    def test_channel_flow_is_counted(self):
        # The measure without a channel must fail the identities of the
        # network with one, and the other way round.
        base = make_config((1.0, 1.0), (6, 6), 1.2)
        channel = make_config((1.0, 1.0), (6, 6), 1.2, beta=0.6)
        assert check_cut_homogeneous(exact_theta(base), channel) > 1e-4
        assert check_cut_homogeneous(exact_theta(channel), base) > 1e-4

    def test_zero_beta_matches_no_channel_bitwise(self):
        theta = exact_theta(make_config((1.0, 1.0), (6, 6), 1.2))
        none = make_config((1.0, 1.0), (6, 6), 1.2)
        zero = make_config((1.0, 1.0), (6, 6), 1.2, beta=0.0)
        assert check_cut_homogeneous(theta, zero) == check_cut_homogeneous(theta, none)
        assert (
            check_cut_heterogeneous(theta, zero).families
            == check_cut_heterogeneous(theta, none).families
        )


@pytest.mark.parametrize("beta", [None, 0.6, 2.0])
@pytest.mark.parametrize("b", [4, 6])
def test_two_location_identities_agree(b, beta):
    # At J=2 the homogeneous identity is the heterogeneous mid and full
    # families at once; both formulas must give the same bits.
    cfg = make_config((1.0, 1.0), (b, b), 1.2, beta=beta)
    theta = exact_theta(cfg)
    noise = np.random.default_rng(b).standard_normal(theta.grid.shape)
    bent = theta.grid * np.exp(1e-3 * noise)
    for grid in (theta.grid, bent / bent.sum()):
        measure = ThetaMeasure(grid=grid, provenance="exact")
        fams = check_cut_heterogeneous(measure, cfg).families
        assert check_cut_homogeneous(measure, cfg) == max(fams["mid"], fams["full"])


class TestSymmetry:
    def test_homogeneous_zero(self, rng):
        for J, b in ((2, 2), (3, 1)):
            cfg = make_config((1.2,) * J, (b,) * J, 0.9)
            assert check_symmetry(exact_theta(cfg), cfg) <= 1e-12

    def test_three_locations_all_permutations(self):
        cfg = make_config((1, 1, 1), (1, 1, 1), 1.0)
        theta = exact_theta(cfg)
        assert theta.grid.shape == (2, 2, 2)
        assert check_symmetry(theta, cfg) <= 1e-12

    def test_negative_control(self):
        # Give every cell the weight of its sorted representative, so the
        # measure is symmetric bit for bit, then swap the weights of two
        # cells from different orbits: the check reads exactly their gap.
        cfg = make_config((1.0, 1.0, 1.0), (2, 2, 2), 0.8)
        grid = exact_theta(cfg).grid
        grid = grid[tuple(np.sort(np.indices(grid.shape), axis=0))]
        assert check_symmetry(ThetaMeasure(grid=grid, provenance="exact"), cfg) == 0.0
        a, b = (0, 1, 2), (1, 1, 2)
        wa, wb = grid[a], grid[b]
        assert abs(wa - wb) > 1e-3
        grid[a], grid[b] = wb, wa
        assert check_symmetry(ThetaMeasure(grid=grid, provenance="exact"), cfg) == abs(wa - wb)

    def test_twelve_locations_by_adjacent_swaps(self):
        # J=12: the 12! permutations would take hours; the 11 adjacent swaps
        # that generate them take milliseconds.  The closed form passes, and
        # swapping the weights of two cells from different orbits fails.
        cfg = make_config((1.0,) * 12, (1,) * 12, 2.0)
        theta = theta_unit_base_stock(cfg)
        start = time.perf_counter()
        assert check_symmetry(theta, cfg) <= 1e-12
        assert time.perf_counter() - start < 1.0
        grid = theta.grid.copy()
        a, b = (0,) * 11 + (1,), (0,) * 10 + (1, 1)
        wa, wb = grid[a], grid[b]
        assert abs(wa - wb) > 1e-3
        grid[a], grid[b] = wb, wa
        swapped = ThetaMeasure(grid=grid, provenance="closed_form")
        assert check_symmetry(swapped, cfg) == pytest.approx(abs(wa - wb), rel=1e-12)

    def test_unequal_base_stocks_rejected(self):
        # Permuting locations with different levels leaves the state space.
        cfg = make_config((1.0, 1.0), (2, 1), 1.0)
        with pytest.raises(PreconditionError, match="homogeneous"):
            check_symmetry(exact_theta(cfg), cfg)


class TestCrossSolverAndStructure:
    def test_identities_hold_for_all_solvers(self, rng):
        # closed form (unit base stocks)
        cfg1 = make_config((1.4, 1.4), (1, 1), 0.8)
        closed = theta_unit_base_stock(cfg1)
        assert check_cut_homogeneous(closed, cfg1) <= 1e-10
        assert check_symmetry(closed, cfg1) <= 1e-12
        assert check_cut_heterogeneous(closed, cfg1).max_residual <= 1e-10
        # recursive (two locations, b > 1)
        cfg2 = make_config(draw_rates(rng, 2), (3, 2), 1.2)
        rec = solve_theta_recursive(cfg2)
        assert check_cut_heterogeneous(rec, cfg2).max_residual <= 1e-10

    def test_insensitivity_to_service_rates(self):
        # The inventory side never reads mu: bitwise identical output.
        lam, b, nu = (1.2, 0.8), (2, 1), 1.3
        profiles = [
            const_mu(2.0, 2),
            const_mu(50.0, 2),
            (ServiceRateProfile(head=(0.2, 9.0), tail=3.0),) * 2,
            const_mu(0.5, 2),  # not even ergodic
        ]
        thetas = [
            solve_theta_exact(
                build_reduced_generator(NetworkConfig(lam=lam, mu=mu, b=b, nu=nu))
            )
            for mu in profiles
        ]
        for other in thetas[1:]:
            assert np.array_equal(thetas[0].weights, other.weights)

    def test_total_variation_basics(self):
        cfg = make_config((1, 1), (1, 1), 1.0)
        theta = exact_theta(cfg)
        assert total_variation(theta, theta) == 0.0
        other = theta_unit_base_stock(make_config((2, 2), (1, 1), 1.0))
        assert total_variation(theta, other) > 0
        mismatched = theta_unit_base_stock(make_config((1, 1, 1), (1, 1, 1), 1.0))
        with pytest.raises(PreconditionError):
            total_variation(theta, mismatched)
