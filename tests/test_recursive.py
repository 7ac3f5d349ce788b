import hashlib
import itertools

import numpy as np
import pytest

from conftest import draw_rates, make_config
from qinet import (
    AffineKappa,
    DegenerateEliminationError,
    PreconditionError,
    SequencingError,
    ThetaTable,
    build_reduced_generator,
    gbe_residual,
    solve_theta_exact,
    solve_theta_recursive,
    total_variation,
)
from qinet.model import InventoryState, routing_probs
from qinet.recursive import _balance_terms, _close


def brute_force_gbe(config, grid, state):
    """Independent evaluation of the balance equation at `state`.

    `grid` is a dense (b1+1) x (b2+1) array of plain numbers.  Written
    directly from the transition families, without reusing the package's
    term builder.
    """
    b1, b2 = config.b
    lam1, lam2 = config.lam
    nu = config.nu
    k1, k2 = state

    def p(x, y):
        return routing_probs(InventoryState.from_on_hand((x, y), config.b), config.b)

    p1, p2 = p(k1, k2)
    lhs = grid[k1][k2] * (
        lam1 * (k1 > 0)
        + lam2 * (k2 > 0)
        + nu * p1 * (k1 < b1)
        + nu * p2 * (k2 < b2)
    )
    rhs = 0.0
    if k1 < b1:
        rhs += grid[k1 + 1][k2] * lam1
    if k2 < b2:
        rhs += grid[k1][k2 + 1] * lam2
    if k1 > 0:
        rhs += grid[k1 - 1][k2] * nu * p(k1 - 1, k2)[0]
    if k2 > 0:
        rhs += grid[k1][k2 - 1] * nu * p(k1, k2 - 1)[1]
    return lhs - rhs


def table_from_grid(grid):
    b1 = len(grid) - 1
    b2 = len(grid[0]) - 1
    table = ThetaTable(b1, b2)
    for k1 in range(b1 + 1):
        for k2 in range(b2 + 1):
            table.set(k1, k2, AffineKappa(float(grid[k1][k2]), 0.0))
    return table


class TestAffineKappa:
    def test_arithmetic(self):
        x = AffineKappa(1.0, 2.0)
        y = AffineKappa(0.5, -1.0)
        assert (x + y) == AffineKappa(1.5, 1.0)
        assert (x - y) == AffineKappa(0.5, 3.0)
        assert (-x) == AffineKappa(-1.0, -2.0)
        assert x.scaled(3.0) == AffineKappa(3.0, 6.0)
        assert x.resolve(2.0) == 5.0
        assert not x.is_constant
        assert AffineKappa(7.0, 0.0).is_constant


class TestThetaTable:
    def test_sequencing_guards(self):
        table = ThetaTable(2, 2)
        with pytest.raises(SequencingError):
            table.get(0, 0)
        table.set(0, 0, AffineKappa(1.0, 0.0))
        with pytest.raises(SequencingError):
            table.set(0, 0, AffineKappa(2.0, 0.0))
        table.set(0, 0, AffineKappa(2.0, 0.0), overwrite=True)
        assert table.get(0, 0).a == 2.0
        with pytest.raises(KeyError):
            table.get(3, 0)

    def test_resolution(self):
        table = ThetaTable(1, 1)
        table.set(0, 0, AffineKappa(1.0, 2.0))
        table.set(1, 1, AffineKappa(3.0, 0.0))
        table.resolve_kappa(0.25)
        assert table.get(0, 0) == AffineKappa(1.5, 0.0)
        table.assert_resolved()


class TestGbeResidual:
    def test_solved_table_has_zero_residual(self):
        cfg = make_config((1.2, 0.7), (3, 2), 1.4)
        theta = solve_theta_exact(build_reduced_generator(cfg))
        grid = np.zeros((4, 3))
        for s, w in zip(theta.states, theta.weights):
            grid[s.on_hand] = w
        table = table_from_grid(grid)
        for k1 in range(4):
            for k2 in range(3):
                res = gbe_residual(table, cfg, (k1, k2))
                assert res.c == 0.0
                assert abs(res.a) < 1e-14

    def test_linearity_single_entry(self, rng):
        cfg = make_config(draw_rates(rng, 2), (2, 2), 1.0)
        for spot in ((0, 0), (1, 2), (2, 1)):
            grid = np.zeros((3, 3))
            grid[spot] = 1.0
            table = table_from_grid(grid)
            for state in itertools.product(range(3), repeat=2):
                res = gbe_residual(table, cfg, state)
                assert res.a == pytest.approx(brute_force_gbe(cfg, grid, state), abs=1e-15)

    def test_seeded_corner_residual(self):
        # b=(2,2), lam=(1,2), nu=3, all entries zero except the seed
        # theta(2,0)=1: the residual is the seed's own outflow coefficient.
        cfg = make_config((1, 2), (2, 2), 3.0)
        grid = np.zeros((3, 3))
        grid[2][0] = 1.0
        table = table_from_grid(grid)
        res = gbe_residual(table, cfg, (2, 0))
        oracle = brute_force_gbe(cfg, grid, (2, 0))
        assert res.c == 0.0
        assert res.a == pytest.approx(oracle, abs=1e-15)
        # lam1 consumption plus full-rate replenishment to location 2
        assert oracle == pytest.approx(1.0 + 3.0, abs=1e-15)

    def test_missing_entry_raises(self):
        cfg = make_config((1, 1), (2, 2), 1.0)
        table = ThetaTable(2, 2)
        table.set(2, 0, AffineKappa(1.0, 0.0))
        with pytest.raises(SequencingError):
            gbe_residual(table, cfg, (2, 0))  # needs theta(2, 1) too

    def test_zero_rate_terms_not_required(self):
        # The balance equation of (2,0) never references (1,0): the
        # replenishment from (1,0) routes entirely to location 2.
        cfg = make_config((1, 1), (2, 2), 1.0)
        grid = np.zeros((3, 3))
        table = table_from_grid(grid)
        table.set(1, 0, None, overwrite=True)  # knock the entry out
        gbe_residual(table, cfg, (2, 0))


class TestRecursiveSolver:
    @pytest.mark.parametrize(
        "b", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 4), (6, 3)]
    )
    def test_matches_exact(self, b, rng):
        for _ in range(4):
            cfg = make_config(
                draw_rates(rng, 2), b, float(draw_rates(rng, 1)[0])
            )
            rec = solve_theta_recursive(cfg)
            exact = solve_theta_exact(build_reduced_generator(cfg))
            assert total_variation(rec, exact) <= 1e-10
            assert rec.provenance == "recursive"

    def test_all_balance_equations_hold(self, rng):
        # The table must solve the whole system, not only the equations
        # the elimination consumed.
        for b in ((3, 2), (4, 4), (5, 3)):
            cfg = make_config(draw_rates(rng, 2), b, 1.9)
            rec = solve_theta_recursive(cfg)
            grid = np.zeros((b[0] + 1, b[1] + 1))
            for s, w in zip(rec.states, rec.weights):
                grid[s.on_hand] = w
            scale = max(max(cfg.lam), cfg.nu)
            for state in itertools.product(range(b[0] + 1), range(b[1] + 1)):
                assert abs(brute_force_gbe(cfg, grid, state)) <= 1e-10 * scale

    def test_homogeneous_symmetry(self, rng):
        cfg = make_config((1.1, 1.1), (3, 3), 0.8)
        rec = solve_theta_recursive(cfg).as_dict()
        for k, w in rec.items():
            assert rec[(k[1], k[0], k[2])] == pytest.approx(w, rel=1e-12)

    def test_scaling_invariance(self, rng):
        lam = draw_rates(rng, 2)
        cfg1 = make_config(lam, (3, 2), 1.0)
        c = 12.25
        cfg2 = make_config(tuple(c * l for l in lam), (3, 2), c)
        t1 = solve_theta_recursive(cfg1)
        t2 = solve_theta_recursive(cfg2)
        assert np.allclose(t1.weights, t2.weights, atol=1e-13)

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="exact"):
            solve_theta_recursive(make_config((1, 1, 1), (2, 2, 2), 1.0))
        with pytest.raises(PreconditionError, match="closed"):
            solve_theta_recursive(make_config((1, 1), (1, 1), 1.0))
        with pytest.raises(PreconditionError, match="exact"):
            solve_theta_recursive(make_config((1, 1), (2, 1), 1.0))
        with pytest.raises(PreconditionError, match="relabel"):
            solve_theta_recursive(make_config((1, 1), (2, 3), 1.0))
        with pytest.raises(PreconditionError, match="transfer"):
            solve_theta_recursive(make_config((1, 1), (2, 2), 1.0, beta=0.3))

    def test_weights_pinned(self):
        # Fingerprint of one heterogeneous solve: a change to the order in
        # which balance terms are summed changes these bytes.
        cfg = make_config((1.3, 0.8), (12, 6), 1.1)
        digest = hashlib.sha256(solve_theta_recursive(cfg).weights.tobytes()).hexdigest()
        assert digest == "7e5baddb96d5aac66e9f98ed93a5b960b57e750a54a70c7d3808cee9eb2a4226"

    def test_degenerate_close_detected(self):
        # A fully constant table leaves no kappa to solve for.
        cfg = make_config((1, 1), (2, 2), 1.0)
        grid = np.ones((3, 3))
        table = table_from_grid(grid)
        with pytest.raises(DegenerateEliminationError):
            _close(table, _balance_terms(cfg), (1, 0))
