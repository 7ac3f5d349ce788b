import contextlib
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import draw_rates, make_config, routing_probs, traced_peak
from qinet import (
    NetworkConfig,
    PreconditionError,
    ServiceRateProfile,
    SolverError,
    build_reduced_generator,
    enumerate_inventory_states,
    method_inapplicable,
    solve_theta_exact,
)
from qinet.generator import _transition_arrays
from qinet.model import exact_solve_bytes
from qinet.simulate import _transition_tables


def joint_moves(config, n, k):
    """Outgoing moves of the joint state ``(n, k)`` as ``[((n', k'), rate), ...]``.

    Read off the simulator's row of ``(n, k)``, which adds the queues to
    the inventory move table.
    """
    caps, service_rates, moves, columns = _transition_tables(config, require_stock_for_service=True)
    states = [tuple(s) for s in enumerate_inventory_states(config.b).tolist()]
    mu = service_rates([min(x, cap) for x, cap in zip(n, caps)])
    kidx = states.index(tuple(k))
    out = []
    for rate, column in moves(mu, kidx):
        loc, dn, dk = columns[column]
        n_next = list(n)
        if loc >= 0:
            n_next[loc] += dn
        out.append(((tuple(n_next), states[kidx + dk]), rate))
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


@pytest.mark.parametrize(
    "lam, b, nu, beta, digest",
    [
        ((1.0, 1.0), (1, 1), 1.0, None,
         "b5dac4ce066fc4e77ff19b95eba6d0229f2a866e000c0f7321c8031832a76114"),
        ((1.0, 1.3), (3, 7), 0.9, None,
         "3d7bbe2aa3962fd981b85d4170ec3a827cc8a53373bf0310f61c4373c9569e3a"),
        ((1.2, 1.2, 1.2), (3, 3, 3), 2.0, None,
         "df9208b48d21ee6ac6b09542d40a41d63a126944400fc1e43708a23ade9909e7"),
        ((1e-3, 1e-1, 1e1, 1e3), (2, 3, 2, 1), 5.0, None,
         "3c083c3b5f114449d24503957d6d8eb7ab8f52f36fdfd7a3621e926b0d829362"),
        ((1.1, 1.1), (4, 4), 0.8, 0.6,
         "9dcc674d6e5f6c9745b73e24be0e473c3be1ab40e5653d39d337ac371621df09"),
        ((0.7, 1.9), (20, 2), 1.7, None,
         "203415bc4859e9d3620e0f0a78ce237ea257f2993babdf7a8c184498a1ae3b3d"),
    ],
    ids=["1x1", "3x7", "3x3x3", "graded_J4", "4x4_transfer", "20x2"],
)
def test_transition_arrays_pinned(lam, b, nu, beta, digest):
    # sha256 of src, dst, rate and family, recorded from the per-family
    # edge lists the move table replaced: a change to any edge, its rate
    # or the order of the edges changes these bytes.
    h = hashlib.sha256()
    arrays = _transition_arrays(make_config(lam, b, nu, beta=beta))
    for array, dtype in zip(arrays, (np.int64, np.int64, np.float64, np.int64)):
        h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    assert h.hexdigest() == digest


def _strong_components(n, src, dst, rate):
    graph = coo_matrix((rate, (src, dst)), shape=(n, n))
    return connected_components(graph, directed=True, connection="strong")[0]


def _broken_invariant(b, src, dst, rate):
    """The first invariant of a reduced generator's transition arrays that
    ``src``, ``dst`` and ``rate`` break, or None: moves inside the box at
    positive finite rates, each changing the level by at most one, over one
    strongly connected component."""
    n = math.prod(bj + 1 for bj in b)
    if not (0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n):
        return "index"
    if not np.isfinite(rate).all():
        return "non_finite"
    if not (rate > 0).all():
        return "negative_off_diagonal"
    level = enumerate_inventory_states(b)[:, :-1].sum(axis=1)
    if np.abs(level[dst] - level[src]).max() > 1:
        return "level_step"
    if _strong_components(n, src, dst, rate) != 1:
        return "reducible"
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    b=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    log_rates=st.lists(st.floats(-6, 6), min_size=5, max_size=5),
    transfer=st.booleans(),
)
def test_transition_arrays_define_an_irreducible_level_chain(b, log_rates, transfer):
    # What ReducedGenerator takes for granted of every config holds.  The
    # transfer channel needs two homogeneous locations.
    lam = [10.0 ** x for x in log_rates[:len(b)]]
    beta = None
    if transfer:
        b, lam, beta = [b[0]] * 2, [lam[0]] * 2, 10.0 ** log_rates[-2]
    cfg = make_config(lam, b, 10.0 ** log_rates[-1], beta=beta)
    src, dst, rate, _ = _transition_arrays(cfg)
    assert _broken_invariant(b, src, dst, rate) is None


def test_reducibility_detection():
    # Two closed classes, (0,0) <-> (0,1) and (1,0) <-> (1,1), against the
    # b=(1,1) arrays, which form one class.
    two_classes = np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]), np.ones(4)
    assert _strong_components(4, *two_classes) == 2
    src, dst, rate, _ = _transition_arrays(make_config((1.0, 1.0), (1, 1), 1.0))
    assert _strong_components(4, src, dst, rate) == 1


def _damaged(kind):
    """The b=(1,1) transition arrays with one invariant broken."""
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
    "kind", ["index", "non_finite", "negative_off_diagonal", "level_step", "reducible"])
def test_generator_guards(kind):
    # The property test above sees each kind of damage to real arrays, and
    # names it rather than an earlier invariant.
    src, dst, rate, _ = _transition_arrays(make_config((1.0, 1.0), (1, 1), 1.0))
    assert _broken_invariant((1, 1), src, dst, rate) is None
    assert _broken_invariant((1, 1), *_damaged(kind)) == kind


def _assert_level_blocks_hold_every_rate(cfg):
    gen = build_reduced_generator(cfg)
    n = gen.size
    starts = np.cumsum((0,) + gen.sizes)
    rows = [gen.order[starts[L]:starts[L + 1]] for L in range(len(gen.sizes))]
    on_hand = enumerate_inventory_states(cfg.b)[:, :-1]
    levels = on_hand.sum(axis=1)
    transfers = set(levels[gen.src[levels[gen.src] == levels[gen.dst]]].tolist())
    assert bool(transfers) == cfg.has_transfer
    Q = np.zeros((n, n))
    for L in range(1, len(gen.sizes)):
        same, down, up = gen.level_blocks(L)
        assert (same is not None) == (L in transfers)
        if same is not None:
            Q[np.ix_(rows[L], rows[L])] += same
        Q[np.ix_(rows[L], rows[L - 1])] += down
        Q[np.ix_(rows[L - 1], rows[L])] += up
        consumption = ((on_hand[rows[L]] > 0) * cfg.lam).sum(axis=1)
        assert np.allclose(down.sum(axis=1), consumption, rtol=1e-15, atol=0)
    off = gen.rates.copy()
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(Q, off)
    assert np.array_equal(levels[gen.order], np.repeat(np.arange(len(gen.sizes)), gen.sizes))


def test_level_blocks_hold_every_rate():
    # The level blocks, put back in canonical order, are the dense matrix
    # off its diagonal, and each down row sums to the state's consumption
    # rate.  A level has a same-level block exactly where a transfer stays
    # in it; without the channel (J=3) no level has one.
    _assert_level_blocks_hold_every_rate(make_config((1.1, 1.1), (3, 3), 0.8, beta=0.6))
    _assert_level_blocks_hold_every_rate(make_config((0.7, 1.3, 0.9), (2, 1, 2), 1.5))


def test_level_blocks_written_one_level_at_a_time():
    # (3,)*6: 4,096 states in 19 levels, whose dense blocks would take
    # 38 MB.  The generator keeps only edges, and the solve holds the R_L
    # and one level's blocks: 2.1 and 18.6 MiB measured.
    cfg = make_config((0.7, 1.3, 0.9, 1.1, 0.8, 1.2), (3,) * 6, 2.0)
    _, build = traced_peak(build_reduced_generator, cfg)
    _, both = traced_peak(lambda: solve_theta_exact(build_reduced_generator(cfg)))
    assert build < 3 * 2**20
    assert both < 25 * 2**20


def test_dense_size_cap(monkeypatch):
    # (100,100,100) has 1,030,301 states: the R_L of its 301 levels alone
    # would take 30 GiB.  It is refused before the transition arrays are
    # written or anything sizeable is allocated.
    def unreachable(config):
        raise AssertionError("transition arrays built for a refused box")

    monkeypatch.setattr("qinet.generator._transition_arrays", unreachable)
    huge = make_config((1.0,) * 3, (100,) * 3, 1.0)

    def refused():
        with pytest.raises(PreconditionError,
                           match="1030301 states needs 48511480410 bytes; the cap is 4294967296 bytes"):
            build_reduced_generator(huge)

    _, peak = traced_peak(refused)
    assert peak < 1 << 20
    assert method_inapplicable(huge, "exact") is not None
    # The north-star boxes stay admitted, and so does (5,)*6 (46,656
    # states), whose R_L and largest level's blocks take about 1.6 GiB.
    for b, mib in (((120, 120), 13), ((300, 300), 164), ((30, 30, 30), 147), ((5,) * 6, 1690)):
        assert round(exact_solve_bytes(b) / 2**20) == mib
        assert method_inapplicable(make_config((1.0,) * len(b), b, 1.0), "exact") is None


def build_and_solve(config):
    """Build and solve ``config``.  A measure past the float range fails only after all the work."""
    with contextlib.suppress(SolverError):
        solve_theta_exact(build_reduced_generator(config))


@pytest.mark.parametrize("config", [
    make_config((0.7, 1.3, 0.9, 1.1, 0.8, 1.2), (3,) * 6, 2.0),
    make_config((1.3, 0.8), (120, 120), 1.2),
    make_config((1.0, 1.0), (20000, 2), 1.0),  # 20,003 levels; its weights span 322 decades
], ids=["3^6", "120x120", "20000x2"])
def test_exact_charge_covers_the_solve(config):
    _, peak = traced_peak(build_and_solve, config)
    assert peak <= exact_solve_bytes(config.b)


def test_north_star_box_allocates_no_dense_matrix():
    # (120,120) has 14,641 states; one dense float64 matrix of them is
    # 1.7 GB.  Building and solving stay under a tenth of that.
    cfg = make_config((1.3, 0.8), (120, 120), 1.2)
    dense = 8 * 14641**2
    theta, peak = traced_peak(lambda: solve_theta_exact(build_reduced_generator(cfg)))
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
