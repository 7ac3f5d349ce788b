"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""
import hashlib
import itertools
import json
import time

import numpy as np

from conftest import const_mu, draw_rates, make_config
from qinet import (
    NetworkConfig,
    ServiceRateProfile,
    build_reduced_generator,
    check_cut_heterogeneous,
    check_cut_homogeneous,
    check_symmetry,
    decoupling_test,
    enumerate_inventory_states,
    ergodicity_check,
    queue_marginal,
    simulate,
    solve_theta_exact,
    solve_theta_recursive,
    theta_unit_base_stock,
    total_variation,
)
from qinet.generator import balance_residuals, imbalance

MASTER_SEED = 20240801


def report(number, passed, detail):
    print(f"\n[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_balance_residual():
    """Exact solve: residual <= 1e-12 relative, under 1 s for the matrix."""
    rng = np.random.default_rng(MASTER_SEED)
    gens = []
    for J in (2, 3, 4):
        for b in itertools.product((1, 2, 3), repeat=J):
            for _ in range(20):
                cfg = make_config(
                    draw_rates(rng, J), b, float(draw_rates(rng, 1)[0])
                )
                gens.append(build_reduced_generator(cfg))

    # max |wQ| / max |Q_ij| from the generator's edges, balance_residuals'
    # normwise definition: the largest |Q_ij| is the largest outflow, so this
    # is the dense quotient up to summation order, without forming Q.
    start = time.perf_counter()
    worst = 0.0
    for gen in gens:
        theta = solve_theta_exact(gen)
        net, _ = imbalance(gen.src, gen.dst, gen.rate, gen.outflow, theta.weights)
        worst = max(worst, np.abs(net).max() / gen.outflow.max())
    elapsed = time.perf_counter() - start

    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"{len(gens)} solves, worst relative residual {worst:.2e}, "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_closed_form_equivalence():
    """Closed form vs exact: TV <= 1e-12 for unit base stocks, J in 2..6."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    count = 0
    for J in (2, 3, 4, 5, 6):
        for _ in range(50):
            cfg = make_config(
                draw_rates(rng, J), (1,) * J, float(draw_rates(rng, 1)[0])
            )
            tv = total_variation(
                theta_unit_base_stock(cfg),
                solve_theta_exact(build_reduced_generator(cfg)),
            )
            worst = max(worst, tv)
            count += 1
    report(2, worst <= 1e-12, f"{count} configs, worst TV {worst:.2e} (<= 1e-12)")


def test_criterion_3_recursive_equivalence():
    """Recursive vs exact: TV <= 1e-10 and every balance residual <= 1e-10."""
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_tv = 0.0
    worst_res = 0.0
    count = 0
    for b1 in (2, 3, 4):
        for b2 in range(2, b1 + 1):
            for _ in range(50):
                cfg = make_config(
                    draw_rates(rng, 2), (b1, b2), float(draw_rates(rng, 1)[0])
                )
                rec = solve_theta_recursive(cfg)
                exact = solve_theta_exact(build_reduced_generator(cfg))
                worst_tv = max(worst_tv, total_variation(rec, exact))
                worst_res = max(worst_res, balance_residuals(cfg, rec.weights)[0])
                count += 1
    report(
        3,
        worst_tv <= 1e-10 and worst_res <= 1e-10,
        f"{count} configs, worst TV {worst_tv:.2e}, "
        f"worst balance residual {worst_res:.2e} (both <= 1e-10)",
    )


def test_criterion_4_symmetry():
    """Homogeneous configs: permutation asymmetry <= 1e-12, all solvers."""
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    count = 0
    for J in (2, 3):
        for b in (1, 2, 3):
            for _ in range(10):
                lam = float(draw_rates(rng, 1)[0])
                cfg = make_config((lam,) * J, (b,) * J, float(draw_rates(rng, 1)[0]))
                thetas = [solve_theta_exact(build_reduced_generator(cfg))]
                if b == 1:
                    thetas.append(theta_unit_base_stock(cfg))
                if J == 2 and b > 1:
                    thetas.append(solve_theta_recursive(cfg))
                for theta in thetas:
                    worst = max(worst, check_symmetry(theta, cfg))
                    count += 1
    report(4, worst <= 1e-12, f"{count} measures, worst asymmetry {worst:.2e} (<= 1e-12)")


def test_criterion_5_cut_identities():
    """Flow-balance identities hold at 1e-10 on both config families."""
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst_homog = 0.0
    for J in (2, 3):
        for b in (1, 2, 3):
            for _ in range(10):
                lam = float(draw_rates(rng, 1)[0])
                cfg = make_config((lam,) * J, (b,) * J, float(draw_rates(rng, 1)[0]))
                theta = solve_theta_exact(build_reduced_generator(cfg))
                worst_homog = max(worst_homog, check_cut_homogeneous(theta, cfg))

    worst_het = 0.0
    for b in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
        for _ in range(10):
            cfg = make_config(draw_rates(rng, 2), b, float(draw_rates(rng, 1)[0]))
            theta = solve_theta_exact(build_reduced_generator(cfg))
            rep = check_cut_heterogeneous(theta, cfg)
            assert set(rep.families) == {"low", "mid", "full", "second", "geometric"}
            worst_het = max(worst_het, rep.max_residual)

    report(
        5,
        worst_homog <= 1e-10 and worst_het <= 1e-10,
        f"homogeneous residual {worst_homog:.2e}, heterogeneous (all four "
        f"families + geometric) {worst_het:.2e} (both <= 1e-10)",
    )


def test_criterion_6_ergodicity_criterion():
    """Accept iff lam_j < tail rate at every location; heads irrelevant."""
    ok = True
    checks = []

    cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
    checks.append(ergodicity_check(cfg).ergodic is True)

    cfg = NetworkConfig(
        lam=(2, 1),
        mu=(ServiceRateProfile.constant(2), ServiceRateProfile.constant(3)),
        b=(1, 1),
        nu=1.0,
    )
    rep = ergodicity_check(cfg)
    checks.append(rep.ergodic is False and rep.per_location[0].ergodic is False)

    cfg = NetworkConfig(
        lam=(1, 1),
        mu=(ServiceRateProfile(head=(0.1,) * 5, tail=2.0), ServiceRateProfile.constant(2)),
        b=(1, 1),
        nu=1.0,
    )
    checks.append(ergodicity_check(cfg).ergodic is True)

    cfg = NetworkConfig(
        lam=(1, 3.0001),
        mu=(ServiceRateProfile.constant(2), ServiceRateProfile.constant(3)),
        b=(2, 2),
        nu=1.0,
    )
    checks.append(ergodicity_check(cfg).ergodic is False)

    ok = all(checks)
    report(6, ok, f"{len(checks)} accept/reject cases all judged correctly")


def test_criterion_7_simulation_decoupling():
    """10 x 1e6-event runs reproduce theta, xi and the product form."""
    cfg = make_config((1, 1), (1, 1), 1.0, mu_rate=2.0)
    exact = solve_theta_exact(build_reduced_generator(cfg))
    qm = queue_marginal(cfg, 1)

    start = time.perf_counter()
    theta_hits = 0
    queue_ok = True
    dec_ok = True
    worst_theta = worst_queue = worst_dec = 0.0
    for seed in range(101, 111):
        run = simulate(cfg, total_events=1_000_000, seed=seed)
        tv_theta = total_variation(run.empirical_theta(), exact)
        worst_theta = max(worst_theta, tv_theta)
        theta_hits += tv_theta <= 0.02
        emp = np.bincount(run.queues[:, 0], run.mass, minlength=6)
        tv_queue = 0.5 * sum(abs(emp[n] - qm.xi(n)) for n in range(6))
        worst_queue = max(worst_queue, tv_queue)
        queue_ok &= tv_queue <= 0.02
        dec = decoupling_test(run)
        worst_dec = max(worst_dec, dec)
        dec_ok &= dec <= 0.03
    elapsed = time.perf_counter() - start

    report(
        7,
        theta_hits >= 9 and queue_ok and dec_ok and elapsed < 30.0,
        f"theta TV <= 0.02 in {theta_hits}/10 runs (worst {worst_theta:.4f}), "
        f"queue TV worst {worst_queue:.4f} (<= 0.02), decoupling worst "
        f"{worst_dec:.4f} (<= 0.03), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_insensitivity():
    """theta ignores the service rates: hash-identical serialized output."""
    lam, b, nu = (1.2, 0.8), (2, 1), 1.3
    profiles = [
        const_mu(2.0, 2),
        const_mu(123.0, 2),
        (ServiceRateProfile(head=(0.3, 7.0, 2.0), tail=4.0),) * 2,
        const_mu(0.4, 2),  # non-ergodic variant
    ]
    digests = set()
    for mu in profiles:
        cfg = NetworkConfig(lam=lam, mu=mu, b=b, nu=nu)
        theta = solve_theta_exact(build_reduced_generator(cfg))
        doc = json.dumps(
            {
                "shape": list(theta.grid.shape),
                "weights": [repr(float(w)) for w in theta.weights],
            }
        )
        digests.add(hashlib.sha256(doc.encode()).hexdigest())
    report(
        8,
        len(digests) == 1,
        f"{len(profiles)} service-rate profiles -> {len(digests)} distinct "
        "theta hash(es) (expected 1)",
    )


def test_criterion_9_transfer_extension():
    """Transfer channel: symmetric, conservative, and beta=0 == base."""
    lam = (1.1, 1.1)
    b = (3, 3)
    nu = 0.9

    with_beta = make_config(lam, b, nu, beta=0.7)
    gen_beta = build_reduced_generator(with_beta)
    theta_beta = solve_theta_exact(gen_beta)
    sym = check_symmetry(theta_beta, with_beta)

    conservative = True
    total = sum(b)
    states = enumerate_inventory_states(b)
    rows, cols = np.nonzero(gen_beta.rates > 0)
    for r, c in zip(rows, cols):
        if states[r].sum() != total or states[c].sum() != total:
            conservative = False

    base = make_config(lam, b, nu)
    zero = make_config(lam, b, nu, beta=0.0)
    gen_base = build_reduced_generator(base)
    gen_zero = build_reduced_generator(zero)
    bitwise = np.array_equal(gen_base.rates, gen_zero.rates) and np.array_equal(
        solve_theta_exact(gen_base).weights, solve_theta_exact(gen_zero).weights
    )

    report(
        9,
        sym <= 1e-12 and conservative and bitwise,
        f"beta>0 symmetry {sym:.2e} (<= 1e-12), inventory conserved: "
        f"{conservative}, beta=0 bitwise equal to base: {bitwise}",
    )
