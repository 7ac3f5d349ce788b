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
)
from qinet.generator import _assert_strongly_connected, _transition_arrays
from qinet.simulate import _transition_tables


def joint_moves(config, n, k):
    """Outgoing moves of the joint state ``(n, k)`` as ``[((n', k'), rate), ...]``.

    Read off the simulator's per-signature tables, which add the queues to
    the inventory transition arrays.
    """
    caps, moves = _transition_tables(config, require_stock_for_service=True)
    states = [tuple(s) for s in enumerate_inventory_states(config.b).tolist()]
    sig = tuple(min(x, cap) for x, cap in zip(n, caps))
    rates, deltas = moves(sig)[states.index(tuple(k))]
    out = []
    for rate, (loc, dn, target) in zip(rates, deltas):
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
    """The b=(1,1) generator with one guard's condition broken."""
    Q = build_reduced_generator(make_config((1.0, 1.0), (1, 1), 1.0)).rates.copy()
    if kind == "shape":
        return Q[:3, :3]
    if kind == "non_finite":
        Q[0, 3] = np.nan
    elif kind == "negative_off_diagonal":
        Q[1, 3] -= 2.0
        Q[1, 2] += 2.0
    elif kind == "row_sum":
        Q[2, 2] -= 1e-6
    else:  # two disconnected 2-state blocks: conservative but reducible
        Q = np.kron(np.eye(2), [[-1.0, 1.0], [1.0, -1.0]])
    return Q


@pytest.mark.parametrize(
    "kind, error, message",
    [
        ("shape", ConfigError, "rate matrix shape must match the state count"),
        ("non_finite", ConfigError, "rates must be finite"),
        ("negative_off_diagonal", ConfigError, "off-diagonal rates must be non-negative"),
        ("row_sum", ConfigError, "generator rows must sum to zero"),
        ("reducible", ReducibilityError,
         "transition graph splits into 2 strongly connected components"),
    ],
    ids=["shape", "non_finite", "negative_off_diagonal", "row_sum", "reducible"],
)
def test_generator_guards(kind, error, message):
    # Every ReducedGenerator is a conservative irreducible generator by
    # construction; each guard fires with its own class and text.
    with pytest.raises(error, match=message):
        ReducedGenerator(b=(1, 1), rates=_damaged(kind))


def test_dense_size_cap(monkeypatch):
    # (100,100,100) has 1,030,301 states: its three dense float64 arrays
    # would take 25 TB.  It is refused before the transition arrays are
    # written or anything sizeable is allocated.
    def unreachable(config):
        raise AssertionError("transition arrays built for a refused box")

    monkeypatch.setattr("qinet.generator._transition_arrays", unreachable)
    huge = make_config((1.0,) * 3, (100,) * 3, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError,
                           match="1030301 states needs 25476483614424 bytes; the cap is 4294967296 bytes"):
            build_reduced_generator(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert method_inapplicable(huge, "exact") is not None
    # The benchmark's largest box, 6,561 states, stays admitted.
    assert method_inapplicable(make_config((1.0, 1.0), (80, 80), 1.0), "exact") is None
