import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_rates, make_config, routing_probs
from qinet import (
    DegenerateEliminationError,
    PreconditionError,
    SequencingError,
    SolverError,
    build_reduced_generator,
    solve_theta_exact,
    solve_theta_recursive,
    total_variation,
)
from qinet.generator import _transition_arrays, balance_residuals
from qinet.recursive import RECURSIVE_RTOL, _balance_terms, _combine, _sweep, _sweeps

# perfbench's solve-grid box grid-20x20-r2 at seed 1.  The float recursion
# closes every sweep here but loses the small weights: unchecked, it
# returned weights off by up to 2.6e-3 relative to the exact ones, whose TV
# (3.3e-11) and normwise residual (1.6e-13) both looked fine.
GRID_20X20_R2 = make_config((0.7703910799600172, 0.8991619542198879), (20, 20), 1.6695530341799052,
                            mu_rate=3.5966478168795515)


def terms_of(config):
    """The balance terms of ``config``, read off its transition arrays."""
    return _balance_terms(config, _transition_arrays(config))


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
        return routing_probs((x, y), config.b)

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
    """A fully derived, kappa-free table holding `grid`, and its `known` mask."""
    grid = np.asarray(grid, dtype=float)
    table = np.zeros(grid.shape + (2,))
    table[..., 0] = grid
    return table, np.ones(grid.shape, dtype=bool)


def involved(terms):
    """Cells with a nonzero coefficient in one balance equation."""
    return {entry for entry, coef in terms if coef != 0.0}


class TestAffineKappa:
    def test_arithmetic(self):
        # Entries are affine pairs (a, c) meaning a + c * kappa; combining
        # them is exact linear arithmetic on both parts.
        table = np.zeros((2, 2, 2))
        known = np.ones((2, 2), dtype=bool)
        table[0, 0] = 1.0, 2.0
        table[0, 1] = 0.5, -1.0
        x, y = (0, 0), (0, 1)
        assert _combine(table, known, [(x, 1.0), (y, 1.0)]) == (1.5, 1.0)
        assert _combine(table, known, [(x, 1.0), (y, -1.0)]) == (0.5, 3.0)
        assert _combine(table, known, [(x, -1.0)]) == (-1.0, -2.0)
        assert _combine(table, known, [(x, 3.0), (y, 1.0)], skip=y) == (3.0, 6.0)


class TestThetaTable:
    def test_sequencing_guards(self):
        table, known = table_from_grid(np.ones((3, 3)))
        known[1, 2] = False
        with pytest.raises(SequencingError, match=r"entry \(1,2\) referenced before it was derived"):
            _combine(table, known, [((0, 0), 1.0), ((1, 2), -1.0)])
        with pytest.raises(SequencingError, match=r"entry \(0,2\) derived twice"):
            _sweep(table, known, {}, (0, 2), [], (0, 0))

    def test_resolution(self):
        # Closing solves 2 * kappa + 3 = 0 and substitutes kappa = -1.5
        # into every entry that depends on it.
        table, known = table_from_grid(np.zeros((2, 2)))
        known[0, 1] = False
        table[0, 0] = 1.0, 2.0
        table[1, 1] = 3.0, 0.0
        _sweep(table, known, {(1, 0): [((0, 1), 2.0), ((1, 1), 1.0)]}, (0, 1), [], (1, 0))
        assert table[..., 0].tolist() == [[-2.0, -1.5], [0.0, 3.0]]
        assert not table[..., 1].any()

    def test_equation_lacks_target(self):
        cfg = make_config((1, 1), (2, 2), 1.0)
        table, known = table_from_grid(np.ones((3, 3)))
        known[0, 2] = known[2, 2] = False
        with pytest.raises(SequencingError, match=r"equation of \(0, 0\) does not involve \(2, 2\)"):
            _sweep(table, known, terms_of(cfg), (0, 2), [((0, 0), (2, 2))], (0, 0))

    def test_table_incomplete(self, monkeypatch):
        import qinet.recursive as recursive

        full = recursive._sweeps
        monkeypatch.setattr(recursive, "_sweeps", lambda b1, b2: list(full(b1, b2))[:-1])
        with pytest.raises(SequencingError, match="table is not complete"):
            solve_theta_recursive(make_config((1.3, 0.8), (4, 3), 1.1))


class TestGbeResidual:
    def test_solved_table_has_zero_residual(self):
        cfg = make_config((1.2, 0.7), (3, 2), 1.4)
        theta = solve_theta_exact(build_reduced_generator(cfg))
        table, known = table_from_grid(theta.grid)
        terms = terms_of(cfg)
        for state in itertools.product(range(4), range(3)):
            a, c = _combine(table, known, terms[state])
            assert c == 0.0
            assert abs(a) < 1e-14

    def test_linearity_single_entry(self, rng):
        # brute_force_gbe is the independent reference for _balance_terms.
        cfg = make_config(draw_rates(rng, 2), (2, 2), 1.0)
        terms = terms_of(cfg)
        for spot in ((0, 0), (1, 2), (2, 1)):
            grid = np.zeros((3, 3))
            grid[spot] = 1.0
            table, known = table_from_grid(grid)
            for state in itertools.product(range(3), repeat=2):
                a, _ = _combine(table, known, terms[state])
                assert a == pytest.approx(brute_force_gbe(cfg, grid, state), abs=1e-15)

    def test_seeded_corner_residual(self):
        # b=(2,2), lam=(1,2), nu=3, all entries zero except the seed
        # theta(2,0)=1: the residual is the seed's own outflow coefficient.
        cfg = make_config((1, 2), (2, 2), 3.0)
        grid = np.zeros((3, 3))
        grid[2][0] = 1.0
        table, known = table_from_grid(grid)
        a, c = _combine(table, known, terms_of(cfg)[(2, 0)])
        oracle = brute_force_gbe(cfg, grid, (2, 0))
        assert c == 0.0
        assert a == pytest.approx(oracle, abs=1e-15)
        # lam1 consumption plus full-rate replenishment to location 2
        assert oracle == pytest.approx(1.0 + 3.0, abs=1e-15)

    def test_zero_rate_terms_not_required(self):
        # The balance equation of (2,0) never references (1,0): the
        # replenishment from (1,0) routes entirely to location 2.
        cfg = make_config((1, 1), (2, 2), 1.0)
        table, known = table_from_grid(np.zeros((3, 3)))
        known[1, 0] = False  # knock the entry out
        _combine(table, known, terms_of(cfg)[(2, 0)])

    def test_missing_entry_raises(self):
        cfg = make_config((1, 1), (2, 2), 1.0)
        table, known = table_from_grid(np.zeros((3, 3)))
        known[:] = False
        known[2, 0] = True
        with pytest.raises(SequencingError, match=r"entry \(2,1\) referenced before it was derived"):
            _combine(table, known, terms_of(cfg)[(2, 0)])  # needs theta(2, 1) too


class TestSchedule:
    @pytest.mark.parametrize(
        "b",
        [(b1, b2) for b2 in range(2, 16) for b1 in range(b2, 16)] + [(40, 20)],
        ids=lambda b: f"{b[0]}x{b[1]}",
    )
    def test_schedule_is_feasible(self, b, rng):
        # Replays the schedule on the nonzero pattern of the balance terms;
        # the pattern depends only on b, so random positive rates suffice.
        b1, b2 = b
        cfg = make_config(draw_rates(rng, 2), b, float(draw_rates(rng, 1)[0]))
        terms = terms_of(cfg)
        # The right column below the corner (b1, b2) is derived before kappa
        # is seeded into any equation it uses, so it never depends on kappa.
        right = {(b1, k2) for k2 in range(b2)}
        known = {(b1, 0)}
        filled = [(b1, 0)]
        for number, (seed, steps, close) in enumerate(_sweeps(b1, b2)):
            known.add(seed)
            filled.append(seed)
            for state, target in steps:
                cells = involved(terms[state])
                assert target in cells
                assert cells - {target} <= known
                if number == 0 and target in right:
                    assert cells <= right
                known.add(target)
                filled.append(target)
            assert involved(terms[close]) <= known
        assert sorted(filled) == list(itertools.product(range(b1 + 1), range(b2 + 1)))

    def test_sweep_substitutes_kappa(self, rng):
        # After each sweep no entry depends on kappa, and every equation the
        # sweep used holds for the substituted values.
        cfg = make_config(draw_rates(rng, 2), (5, 3), 1.3)
        terms = terms_of(cfg)
        table = np.zeros((6, 4, 2))
        known = np.zeros((6, 4), dtype=bool)
        table[5, 0], known[5, 0] = (1.0, 0.0), True
        for seed, steps, close in _sweeps(5, 3):
            _sweep(table, known, terms, seed, steps, close)
            assert not table[..., 1].any()
            for state in [s for s, _ in steps] + [close]:
                a, c = _combine(table, known, terms[state])
                assert c == 0.0
                assert abs(a) <= 1e-12 * table[..., 0].max()
        assert known.all()


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
            grid = rec.grid
            scale = max(max(cfg.lam), cfg.nu)
            for state in itertools.product(range(b[0] + 1), range(b[1] + 1)):
                assert abs(brute_force_gbe(cfg, grid, state)) <= 1e-10 * scale

    def test_homogeneous_symmetry(self, rng):
        cfg = make_config((1.1, 1.1), (3, 3), 0.8)
        grid = solve_theta_recursive(cfg).grid
        assert grid.T == pytest.approx(grid, rel=1e-12)

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
        with pytest.raises(PreconditionError, match="both base stocks above one"):
            solve_theta_recursive(make_config((1, 1), (1, 3), 1.0))
        with pytest.raises(PreconditionError, match="transfer"):
            solve_theta_recursive(make_config((1, 1), (2, 2), 1.0, beta=0.3))

    def test_degenerate_close_detected(self):
        # The closing equation of (1,0) does not reach the seeded cell, so
        # the sweep leaves no kappa to solve for.
        cfg = make_config((1, 1), (2, 2), 1.0)
        table, known = table_from_grid(np.ones((3, 3)))
        known[0, 2] = False
        with pytest.raises(DegenerateEliminationError, match=r"at \(1, 0\) cannot determine kappa"):
            _sweep(table, known, terms_of(cfg), (0, 2), [], (1, 0))

    def test_degenerate_text_pinned(self):
        cfg = make_config((1.3, 0.8), (20, 20), 1.05)  # nu = mean(lam)
        with pytest.raises(DegenerateEliminationError) as info:
            solve_theta_recursive(cfg)
        assert str(info.value) == (
            "closing balance equation at (10, 0) cannot determine kappa "
            "(coefficient -1.289e+07 against constant 1.920e+21)"
        )

    def test_beta_zero_is_no_transfer(self):
        plain = solve_theta_recursive(make_config((1.1, 1.1), (3, 3), 0.8))
        zero = solve_theta_recursive(make_config((1.1, 1.1), (3, 3), 0.8, beta=0.0))
        assert zero.weights.tobytes() == plain.weights.tobytes()

    def test_off_balance_measure_names_cell(self):
        exact = solve_theta_exact(build_reduced_generator(GRID_20X20_R2))
        assert balance_residuals(GRID_20X20_R2, exact.weights)[1] <= 1e-12
        with pytest.raises(SolverError, match=r"^recursive measure is off balance: weight \S+ at on-hand "
                                              r"\(19, 0\) balances to 1\.7e-03 relative \(tolerance 1e-08\); "
                                              r"log10\(max/min\) = 11\.2$"):
            solve_theta_recursive(GRID_20X20_R2)

    def test_non_positive_weight_names_cell(self):
        # At b=(20,20) with nu four times mean(lam) the elimination loses
        # every digit and leaves a weight of zero, which the gate refuses.
        cfg = make_config((1.3, 0.8), (20, 20), 4 * 1.05)
        with pytest.raises(SolverError, match=r"^recursive measure is off balance: weight 0\.000e\+00 at on-hand "
                                              r"\(19, 1\) balances to inf relative \(tolerance 1e-08\)"):
            solve_theta_recursive(cfg)

    @pytest.mark.parametrize(
        "b, digest",
        [
            ((2, 2), "b4021167deb9dc457df5b57475a85fd710cd243fece2f68b072575135b0f8618"),
            ((3, 2), "0cc0093413afe453b4fc328128e3f88a8f33e9ef1567a65c7086140d6b43a42a"),
            ((12, 6), "7e5baddb96d5aac66e9f98ed93a5b960b57e750a54a70c7d3808cee9eb2a4226"),
        ],
        ids=["2x2", "3x2", "12x6"],
    )
    def test_weights_pinned(self, b, digest):
        # Fingerprints of heterogeneous solves, (3, 2) without a middle
        # sweep: a change to the order in which balance terms are summed
        # changes these bytes.
        cfg = make_config((1.3, 0.8), b, 1.1)
        assert hashlib.sha256(solve_theta_recursive(cfg).weights.tobytes()).hexdigest() == digest


def swap(cfg):
    """The same network with its two locations listed in the other order."""
    return make_config(cfg.lam[::-1], cfg.b[::-1], cfg.nu)


class TestLocationOrder:
    """The schedule is written for b1 >= b2; the solver sorts the locations itself."""

    @pytest.mark.parametrize("b", [(3, 2), (5, 2), (12, 6), (13, 4)], ids=lambda b: f"{b[0]}x{b[1]}")
    def test_swapped_network_gives_transposed_grid(self, b, rng):
        cfg = make_config(draw_rates(rng, 2), b, float(draw_rates(rng, 1)[0]))
        grid = solve_theta_recursive(cfg).grid
        swapped = solve_theta_recursive(swap(cfg))
        assert swapped.provenance == "recursive"
        assert swapped.grid.flags.c_contiguous
        assert swapped.grid.tobytes() == np.ascontiguousarray(grid.T).tobytes()

    def test_failure_says_locations_were_swapped(self):
        cfg = make_config((1.3, 0.8), (20, 19), 1.05)
        with pytest.raises(DegenerateEliminationError) as plain:
            solve_theta_recursive(cfg)
        with pytest.raises(DegenerateEliminationError) as swapped:
            solve_theta_recursive(swap(cfg))
        assert str(swapped.value) == f"{plain.value} (locations swapped to b1 >= b2)"

    def test_off_balance_failure_says_locations_were_swapped(self):
        cfg = make_config(GRID_20X20_R2.lam, (20, 19), GRID_20X20_R2.nu)
        with pytest.raises(SolverError, match="off balance") as plain:
            solve_theta_recursive(cfg)
        with pytest.raises(SolverError) as swapped:
            solve_theta_recursive(swap(cfg))
        assert str(swapped.value) == f"{plain.value} (locations swapped to b1 >= b2)"

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 12).flatmap(lambda b1: st.tuples(st.just(b1), st.integers(b1 + 1, 13))),
        st.lists(st.floats(np.log(0.5), np.log(2.0)), min_size=3, max_size=3),
    )
    def test_matches_exact_when_b1_below_b2(self, b, logs):
        # The exact solve answers on every draw.  The float recursion loses
        # digits as b grows (it raises at b=(12,13), nu~0.61, for one):
        # where it fails it must say so, never return a wrong measure.
        lam1, lam2, nu = np.exp(logs).tolist()
        cfg = make_config((lam1, lam2), b, nu)
        exact = solve_theta_exact(build_reduced_generator(cfg))
        try:
            recursive = solve_theta_recursive(cfg)
        except SolverError as exc:
            assert "(locations swapped to b1 >= b2)" in str(exc)
            return
        assert total_variation(recursive, exact) <= 1e-10
        assert balance_residuals(cfg, recursive.weights)[1] <= RECURSIVE_RTOL
