import tracemalloc

import numpy as np
import pytest

from conftest import draw_rates, make_config, routing_probs
from qinet import (
    ConfigError,
    NetworkConfig,
    PreconditionError,
    ReducedGenerator,
    ReducibilityError,
    ServiceRateProfile,
    build_reduced_generator,
    enumerate_inventory_states,
    method_inapplicable,
    solve_theta_exact,
)
from qinet.generator import _assert_strongly_connected, _transition_arrays
from qinet.model import level_block_bytes
from qinet.simulate import _transition_tables


def joint_moves(config, n, k):
    """Outgoing moves of the joint state ``(n, k)`` as ``[((n', k'), rate), ...]``.

    Read off the simulator's per-signature tables, which add the queues to
    the inventory transition arrays.
    """
    caps, moves = _transition_tables(config, require_stock_for_service=True)
    states = [tuple(s) for s in enumerate_inventory_states(config.b).tolist()]
    sig = tuple(min(x, cap) for x, cap in zip(n, caps))
    rows, rates, _, deltas = moves(sig)
    _, lo, hi = rows[states.index(tuple(k))]
    out = []
    for rate, (loc, dn, target) in zip(rates[lo:hi], deltas[lo:hi]):
        n_next = list(n)
        if loc >= 0:
            n_next[loc] += dn
        out.append(((tuple(n_next), states[target]), rate))
    return out


def index_of(b, k):
    """Canonical position of state ``k = (k_1, ..., k_J, k_{J+1})`` in the box of ``b``."""
    return enumerate_inventory_states(b).tolist().index(list(k))


def test_tie_split_from_empty_state():
    # b=(1,1), lam=(1,1), nu=1: out of (0,0,2) two replenishments at nu/2.
    cfg = make_config((1, 1), (1, 1), 1.0)
    gen = build_reduced_generator(cfg)
    row = gen.rates[index_of(cfg.b, (0, 0, 2))]
    assert row[index_of(cfg.b, (1, 0, 1))] == pytest.approx(0.5)
    assert row[index_of(cfg.b, (0, 1, 1))] == pytest.approx(0.5)
    assert row[index_of(cfg.b, (0, 0, 2))] == pytest.approx(-1.0)
    assert row[index_of(cfg.b, (1, 1, 0))] == 0.0


def test_full_state_row():
    cfg = make_config((1.5, 0.5), (1, 1), 1.0)
    gen = build_reduced_generator(cfg)
    row = gen.rates[index_of(cfg.b, (1, 1, 0))]
    assert row[index_of(cfg.b, (0, 1, 1))] == pytest.approx(1.5)
    assert row[index_of(cfg.b, (1, 0, 1))] == pytest.approx(0.5)
    # no replenishment out of the all-full state
    assert row[index_of(cfg.b, (1, 1, 0))] == pytest.approx(-2.0)


@pytest.mark.parametrize("b", [(1, 1), (2, 1), (3, 2), (2, 2, 2), (1, 2, 3)])
def test_rows_sum_to_zero(b, rng):
    cfg = make_config(draw_rates(rng, len(b)), b, 1.3)
    gen = build_reduced_generator(cfg)
    assert np.abs(gen.rates.sum(axis=1)).max() < 1e-12 * np.abs(gen.rates).max()
    off = gen.rates.copy()
    np.fill_diagonal(off, 0)
    assert off.min() >= 0


def test_transitions_stay_inside_state_space(rng):
    b = (2, 3)
    cfg = make_config(draw_rates(rng, 2), b, 0.8)
    gen = build_reduced_generator(cfg)
    states = enumerate_inventory_states(b)
    rows, cols = np.nonzero(gen.rates > 0)
    for r, c in zip(rows, cols):
        # one unit moves between a location and the supplier, inside the box
        step = states[c] - states[r]
        assert sorted(step.tolist()) == [-1, 0, 1]
        assert np.all(states[c][:-1] <= b) and np.all(states[c] >= 0)


def test_full_transitions_depleted_state():
    # Both inventories empty: arrivals are lost, services blocked, only the
    # two replenishment moves remain.
    cfg = make_config((1, 1), (1, 1), 1.0)
    out = joint_moves(cfg, (0, 0), (0, 0, 2))
    assert len(out) == 2
    targets = {k: rate for (_, k), rate in out}
    assert targets == {(1, 0, 1): 0.5, (0, 1, 1): 0.5}
    assert all(n == (0, 0) for (n, _), _ in out)


def test_full_transitions_service_and_arrivals():
    cfg = NetworkConfig(
        lam=(1, 1),
        mu=(ServiceRateProfile.constant(2), ServiceRateProfile.constant(7)),
        b=(1, 1),
        nu=1.0,
    )
    out = dict(joint_moves(cfg, (3, 0), (1, 1, 0)))
    assert out == {
        ((4, 0), (1, 1, 0)): 1.0,          # arrival at 1
        ((3, 1), (1, 1, 0)): 1.0,          # arrival at 2
        ((2, 0), (0, 1, 1)): 2.0,          # service at 1 consumes a unit
    }


def test_full_transitions_service_blocked_without_stock():
    # n2 = 5 customers waiting but k2 = 0: the server idles until the next
    # replenishment.
    cfg = make_config((1, 1), (1, 1), 1.0)
    out = dict(joint_moves(cfg, (0, 5), (1, 0, 1)))
    assert ((0, 4), (1, 0, 1)) not in out and all(t[0][1] != 4 for t in out)
    # arrival only at location 1 (k2 = 0 loses demand), replenishment to 2
    assert out == {
        ((1, 5), (1, 0, 1)): 1.0,
        ((0, 5), (1, 1, 0)): 1.0,
    }


def test_aggregation_matches_reduced_generator(rng):
    # With mu_i(n) == lam_i the inventory-affecting part of the full
    # dynamics at an interior queue state is exactly the reduced generator.
    lam = draw_rates(rng, 2)
    b = (2, 2)
    cfg = NetworkConfig(
        lam=lam,
        mu=tuple(ServiceRateProfile.constant(l) for l in lam),
        b=b,
        nu=1.1,
    )
    gen = build_reduced_generator(cfg)
    states = [tuple(s) for s in enumerate_inventory_states(b).tolist()]
    for s0, row in zip(states, gen.rates):
        agg: dict[tuple, float] = {}
        for (_, k), rate in joint_moves(cfg, (4, 4), s0):
            if k != s0:
                agg[k] = agg.get(k, 0.0) + rate
        expected = {
            states[c]: row[c] for c in np.nonzero(row > 0)[0]
        }
        assert agg.keys() == expected.keys()
        for key in agg:
            assert agg[key] == pytest.approx(expected[key], rel=1e-15)


def test_inventory_conservation(rng):
    b = (2, 1, 2)
    cfg = make_config(draw_rates(rng, 3), b, 1.0)
    total = sum(b)
    for s0 in enumerate_inventory_states(b).tolist():
        for (_, k), _ in joint_moves(cfg, (1, 0, 2), s0):
            assert sum(k) == total


def test_transfer_zero_equals_absent():
    base = make_config((1, 1), (3, 3), 1.0)
    zero = make_config((1, 1), (3, 3), 1.0, beta=0.0)
    assert np.array_equal(
        build_reduced_generator(base).rates, build_reduced_generator(zero).rates
    )


def test_transfer_adds_lateral_moves():
    cfg = make_config((1, 1), (3, 3), 1.0, beta=0.7)
    gen = build_reduced_generator(cfg)
    # gap >= 2 triggers a transfer from the richer to the poorer location
    assert gen.rates[index_of(cfg.b, (3, 0, 3)), index_of(cfg.b, (2, 1, 3))] == pytest.approx(0.7)
    assert gen.rates[index_of(cfg.b, (0, 2, 4)), index_of(cfg.b, (1, 1, 4))] == pytest.approx(0.7)
    # gap of one does not
    assert gen.rates[index_of(cfg.b, (2, 1, 3)), index_of(cfg.b, (1, 2, 3))] == 0.0

    k0 = (3, 1, 2)
    out = {k: rate for (n, k), rate in joint_moves(cfg, (0, 0), k0) if n == (0, 0) and k != k0}
    assert out[(2, 2, 2)] == pytest.approx(0.7)


@pytest.mark.parametrize("b", [(2, 1), (3, 2), (2, 2, 2), (1, 2, 3)])
def test_kernel_routing_matches_scalar_reference(b, rng):
    # The vectorized replenishment family equals nu * routing_probs, on
    # exactly the locations below their base stock, and every edge list is
    # ordered by source state, then by family.
    cfg = make_config(draw_rates(rng, len(b)), b, 1.3)
    J = cfg.J
    on_hand = enumerate_inventory_states(b)[:, :-1]
    src, dst, rate, family = _transition_arrays(cfg)
    assert list(zip(src, family)) == sorted(zip(src, family))
    got = {}
    for s, d, r, f in zip(src, dst, rate, family):
        if J <= f < 2 * J:
            step = on_hand[d] - on_hand[s]
            assert step.tolist() == [int(j == f - J) for j in range(J)]
            got[(s, f - J)] = r
    expected = {}
    for idx, k in enumerate(on_hand.tolist()):
        for i, p in enumerate(routing_probs(k, b)):
            if k[i] < b[i] and p > 0:
                expected[(idx, i)] = cfg.nu * p
    assert got == expected


def test_reducibility_detection():
    with pytest.raises(ReducibilityError):
        _assert_strongly_connected(
            4,
            np.array([0, 1, 2, 3]),
            np.array([1, 0, 3, 2]),
            np.array([1.0, 1.0, 1.0, 1.0]),
        )


def _damaged(kind):
    """The b=(1,1) transition arrays with one guard's condition broken."""
    src, dst, rate, _ = _transition_arrays(make_config((1.0, 1.0), (1, 1), 1.0))
    rate = rate.copy()
    if kind == "index":
        dst = np.where(dst == 3, 4, dst)
    elif kind == "non_finite":
        rate[0] = np.nan
    elif kind == "negative_off_diagonal":
        rate[1] = -2.0
    elif kind == "level_step":
        src, dst, rate = np.append(src, 0), np.append(dst, 3), np.append(rate, 1.0)
    else:  # (0,0) <-> (0,1) and (1,0) <-> (1,1): two closed classes
        src, dst, rate = np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]), np.ones(4)
    return src, dst, rate


@pytest.mark.parametrize(
    "kind, error, message",
    [
        ("index", ConfigError, r"transition indices must lie in 0\.\.3"),
        ("non_finite", ConfigError, "rates must be finite"),
        ("negative_off_diagonal", ConfigError, "off-diagonal rates must be non-negative"),
        ("level_step", ConfigError, "change the total on-hand stock by at most one"),
        ("reducible", ReducibilityError,
         "transition graph splits into 2 strongly connected components"),
    ],
    ids=["index", "non_finite", "negative_off_diagonal", "level_step", "reducible"],
)
def test_generator_guards(kind, error, message):
    # Every ReducedGenerator is an irreducible generator whose moves change
    # the level by at most one; each guard fires with its own class and text.
    src, dst, rate = _damaged(kind)
    with pytest.raises(error, match=message):
        ReducedGenerator(b=(1, 1), src=src, dst=dst, rate=rate)


def test_level_blocks_hold_every_rate(rng):
    # The level blocks, put back in canonical order, are the dense matrix
    # off its diagonal, and each down_sum is its block's row sum.
    cfg = make_config((1.1, 1.1), (3, 3), 0.8, beta=0.6)
    gen = build_reduced_generator(cfg)
    n = gen.size
    starts = np.cumsum([0] + [len(level[3]) for level in gen.levels])
    Q = np.zeros((n, n))
    for L, (same, up, down, down_sum) in enumerate(gen.levels):
        rows = gen.order[starts[L]:starts[L + 1]]
        Q[np.ix_(rows, rows)] += same
        if L + 1 < len(gen.levels):
            Q[np.ix_(rows, gen.order[starts[L + 1]:starts[L + 2]])] += up
        if L > 0:
            Q[np.ix_(rows, gen.order[starts[L - 1]:starts[L]])] += down
        assert np.array_equal(down_sum, down.sum(axis=1))
    off = gen.rates.copy()
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(Q, off)
    levels = enumerate_inventory_states(cfg.b)[:, :-1].sum(axis=1)
    assert np.array_equal(levels[gen.order], np.repeat(np.arange(len(gen.levels)), np.diff(starts)))


def test_dense_size_cap(monkeypatch):
    # (100,100,100) has 1,030,301 states: the dense blocks of its 301
    # levels would take 172 GiB.  It is refused before the transition
    # arrays are written or anything sizeable is allocated.
    def unreachable(config):
        raise AssertionError("transition arrays built for a refused box")

    monkeypatch.setattr("qinet.generator._transition_arrays", unreachable)
    huge = make_config((1.0,) * 3, (100,) * 3, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError,
                           match="1030301 states needs 184977768656 bytes for its level blocks; "
                                 "the cap is 4294967296 bytes"):
            build_reduced_generator(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert method_inapplicable(huge, "exact") is not None
    # The north-star boxes stay admitted: 36, 555 and 481 MiB.
    for b, mib in (((120, 120), 36), ((300, 300), 555), ((30, 30, 30), 481)):
        assert round(level_block_bytes(b) / 2**20) == mib
        assert method_inapplicable(make_config((1.0,) * len(b), b, 1.0), "exact") is None


def test_north_star_box_allocates_no_dense_matrix():
    # (120,120) has 14,641 states; one dense float64 matrix of them is
    # 1.7 GB.  Building and solving stay under a tenth of that.
    cfg = make_config((1.3, 0.8), (120, 120), 1.2)
    dense = 8 * 14641**2
    tracemalloc.start()
    try:
        theta = solve_theta_exact(build_reduced_generator(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert theta.weights.size == 14641
    assert peak < dense / 10


def test_dense_rates_refused_above_the_cap(monkeypatch):
    # rates is built on first read, and refused where the n x n matrix
    # would pass the cap; the level blocks need no such matrix.
    gen = build_reduced_generator(make_config((1.0, 1.0), (3, 3), 1.0))
    monkeypatch.setattr("qinet.generator.DENSE_BYTES_CAP", 8 * 16 * 16 - 1)
    with pytest.raises(PreconditionError, match="a dense rate matrix of 16 states needs 2048 bytes"):
        gen.rates
    assert solve_theta_exact(gen).weights.size == 16
