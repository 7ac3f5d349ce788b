import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import draw_rates, make_config, mp_stationary
from qinet import (
    SolverError,
    ThetaMeasure,
    build_reduced_generator,
    enumerate_inventory_states,
    solve_theta_exact,
)


def hand_solved_unit_theta():
    """Independent oracle: the four balance equations of b=(1,1),
    lam=(1,1), nu=1 written out by hand and least-squares solved."""
    # state order: (0,0,2), (0,1,1), (1,0,1), (1,1,0)
    Q = np.array(
        [
            # from (0,0,2): replenish to (1,0,1) and (0,1,1) at nu/2 each
            [-1.0, 0.5, 0.5, 0.0],
            # from (0,1,1): consume at 2 -> (0,0,2); replenish 1 -> (1,1,0)
            [1.0, -2.0, 0.0, 1.0],
            # from (1,0,1): symmetric
            [1.0, 0.0, -2.0, 1.0],
            # from (1,1,0): consume either -> (0,1,1) / (1,0,1)
            [0.0, 1.0, 1.0, -2.0],
        ]
    )
    M = np.vstack([Q.T, np.ones(4)])
    rhs = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    theta, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return theta


# Frozen from the oracle above (verified in test_unit_example_oracle).
UNIT_THETA = {(0, 0, 2): 0.4, (0, 1, 1): 0.2, (1, 0, 1): 0.2, (1, 1, 0): 0.2}


def test_unit_example_oracle():
    oracle = hand_solved_unit_theta()
    assert np.allclose(oracle, [0.4, 0.2, 0.2, 0.2], atol=1e-12)


def test_unit_example_exact_solver():
    cfg = make_config((1, 1), (1, 1), 1.0)
    theta = solve_theta_exact(build_reduced_generator(cfg))
    assert theta.provenance == "exact"
    assert theta.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for k, weight in UNIT_THETA.items():
        assert theta.grid[k[:-1]] == pytest.approx(weight, abs=1e-13)


@pytest.mark.parametrize("b", [(1, 1), (3, 2), (2, 2, 2), (1, 3, 2)])
def test_residual_and_positivity(b, rng):
    for _ in range(5):
        cfg = make_config(draw_rates(rng, len(b)), b, float(draw_rates(rng, 1)[0]))
        gen = build_reduced_generator(cfg)
        theta = solve_theta_exact(gen)
        scale = np.abs(gen.rates).max()
        assert np.abs(theta.weights @ gen.rates).max() <= 1e-12 * scale
        assert theta.weights.min() > 0
        assert theta.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "lam, b, nu, beta, digest",
    [
        ((0.7, 1.3, 0.9, 1.1, 0.8, 1.2), (3,) * 6, 2.0, None,
         "4858115d9908e15e75048292b6d51bea89e3eb91897618e06d22edc6392cd7dd"),
        ((1.3, 0.8, 1.1), (12, 12, 12), 1.5, None,
         "d132cb3eb227dccd7d6c40df32d4606001fd1bc6263fdcaac898ee336b5e2aa7"),
        ((1.3, 0.8), (80, 80), 1.2, None, "800eda9bb6d60ea8a376c1b8734366d23e82fefaa5fbc8fb347680bb8c0a99aa"),
        ((1.1, 1.1), (6, 6), 0.8, 0.6, "05e3f948ae4ef9306c01e0199c2e8041f73ea470cccd5dd3cd2060050592b6a9"),
        ((0.05, 1.0, 20.0), (4, 1, 2), 100.0, None,
         "b6c360ebcf054a453b33dbdaa8efba07d2e7afc83bd22319864eca844764d241"),
    ],
    ids=["3^6", "12x12x12", "80x80", "6x6-transfer", "4x1x2-graded"],
)
def test_exact_weights_pinned(lam, b, nu, beta, digest):
    # Fingerprints of level elimination: a change to how the level blocks
    # are written, multiplied, summed or factored changes these bytes.
    theta = solve_theta_exact(build_reduced_generator(make_config(lam, b, nu, beta=beta)))
    assert hashlib.sha256(theta.weights.tobytes()).hexdigest() == digest


def test_homogeneous_symmetry(rng):
    cfg = make_config((1.4, 1.4), (2, 2), 0.9)
    grid = solve_theta_exact(build_reduced_generator(cfg)).grid
    assert grid == pytest.approx(grid.T, rel=1e-12)


def test_rate_scaling_invariance(rng):
    lam = (draw_rates(rng, 1)[0],) * 2  # transfer channel needs equal rates
    cfg1 = make_config(lam, (2, 2), 1.0, beta=0.4)
    c = 37.5
    cfg2 = make_config(tuple(c * l for l in lam), (2, 2), c * 1.0, beta=c * 0.4)
    t1 = solve_theta_exact(build_reduced_generator(cfg1))
    t2 = solve_theta_exact(build_reduced_generator(cfg2))
    assert np.allclose(t1.weights, t2.weights, atol=1e-13)


def test_cut_balance_on_random_partitions(rng):
    cfg = make_config(draw_rates(rng, 3), (2, 1, 2), 1.2)
    gen = build_reduced_generator(cfg)
    theta = solve_theta_exact(gen)
    n = gen.size
    flow = theta.weights[:, None] * gen.rates
    for _ in range(20):
        mask = rng.random(n) < 0.5
        if mask.all() or not mask.any():
            continue
        outward = flow[np.ix_(mask, ~mask)].sum()
        inward = flow[np.ix_(~mask, mask)].sum()
        assert outward == pytest.approx(inward, abs=1e-13)


def test_reducible_generator_rejected(monkeypatch):
    # Two closed 2-state classes, (0,0) <-> (0,1) and (1,0) <-> (1,1).  No
    # config routes like this, but a generator that did would be refused by
    # the solver rather than answered with one of its many measures.
    from qinet import generator

    monkeypatch.setattr(generator, "_transition_arrays", lambda config: (
        np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]), np.array([1.0, 1.0, 2.0, 2.0]), None))
    gen = build_reduced_generator(make_config((1.0, 1.0), (1, 1), 1.0))
    with pytest.raises(SolverError, match="censored block of level 1 is singular"):
        solve_theta_exact(gen)


def test_graded_box_matches_oracle():
    # Strongly graded rates: the smallest weight is 6e-15.  Dense LU lost
    # six digits here (relative error 8.6e-7); level elimination keeps
    # every weight to rounding against a 60-digit solve.
    gen = build_reduced_generator(make_config((1.0, 1.0), (10, 6), 0.3))
    theta = solve_theta_exact(gen).weights
    oracle = mp_stationary(gen)
    assert oracle.min() < 1e-14
    assert np.max(np.abs(theta - oracle) / oracle) <= 1e-13


def _assert_entrywise(b, lam, ratio, beta=None):
    gen = build_reduced_generator(make_config(lam, b, ratio * float(np.mean(lam)), beta=beta))
    oracle = mp_stationary(gen)
    assert np.max(np.abs(solve_theta_exact(gen).weights - oracle) / oracle) <= 1e-13


@pytest.mark.parametrize("b, lam", [((3, 3), (10.0, 0.1)), ((5, 1), (0.1, 10.0))])
def test_graded_levels_against_mpmath(b, lam):
    # nu = 100 mean(lam) with arrival rates 100 apart: here a diagonal
    # computed by subtraction (down_sum + diag - rowsum) instead of as a sum
    # of non-negative terms misses the bound (measured 4.8e-13 and 9.3e-13).
    _assert_entrywise(b, lam, 100.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_entrywise_against_mpmath(data):
    # J in 2..4, at most 36 states, arrival rates log-uniform in [0.1, 10],
    # nu / mean(lam) log-uniform in [1e-2, 1e2], and the transfer channel
    # for two equal locations.
    b = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)
                  .filter(lambda b: math.prod(x + 1 for x in b) <= 36), label="b")
    log_rate = st.floats(math.log(0.1), math.log(10.0))
    lam = tuple(math.exp(data.draw(log_rate, label="log_lam")) for _ in b)
    ratio = math.exp(data.draw(st.floats(math.log(1e-2), math.log(1e2)), label="log_ratio"))
    beta = None
    if len(b) == 2 and data.draw(st.booleans(), label="transfer"):
        b, lam = (b[0], b[0]), (lam[0], lam[0])
        beta = lam[0] * math.exp(data.draw(st.floats(math.log(1e-2), math.log(1e2)), label="log_beta"))
    _assert_entrywise(b, lam, ratio, beta)


def test_underflow_names_cell_value_and_range():
    # The smallest box found to underflow: at nu = lam / 100, (0, 1) waits
    # for 134 replenishments and weighs 1e-308.5 of the empty state, below
    # the smallest normal double.  The solve carries each level's scale, so
    # it knows the range, and refuses instead of clamping.  One unit less
    # still solves.
    solve_theta_exact(build_reduced_generator(make_config((1.0, 1.0), (133, 1), 0.01)))
    gen = build_reduced_generator(make_config((1.0, 1.0), (134, 1), 0.01))
    with pytest.raises(SolverError) as info:
        solve_theta_exact(gen)
    assert re.fullmatch(
        r"stationary solve failed: weight 3\.250e-309 at on-hand \(0, 1\) balances to \S+ relative "
        r"\(tolerance 1e-12\); log10\(max/min\) = 308\.5", str(info.value))


def test_blas_thread_count_restored(monkeypatch):
    # numpy and scipy each bundle an OpenBLAS with its own thread count; the
    # level loop pins both to one thread, and restores them on success and
    # on failure.
    # Only a build without the wheels' bundled libraries may skip: where
    # both library directories exist, both controls must load, or the pin
    # on one library would be lost without a failure.
    import scipy

    from qinet import exact

    libs = [os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
            for package in (np, scipy)]
    if not all(os.path.isdir(d) for d in libs):
        pytest.skip("numpy or scipy was not installed from a wheel bundling OpenBLAS")
    threads = exact._openblas_threads()
    assert len(threads) == 2
    original = [get() for get, _ in threads]
    seen = []
    real_dgesv = exact.dgesv

    def spy(*args, **kwargs):
        seen.append(tuple(get() for get, _ in threads))
        return real_dgesv(*args, **kwargs)

    def singular(*args, **kwargs):
        lu, piv, x, _ = spy(*args, **kwargs)
        return lu, piv, x, 1

    gen = build_reduced_generator(make_config((1.2, 0.7), (3, 2), 1.4))
    try:
        for _, set_ in threads:
            set_(2)
        monkeypatch.setattr(exact, "dgesv", spy)
        solve_theta_exact(gen)
        assert [get() for get, _ in threads] == [2, 2]
        monkeypatch.setattr(exact, "dgesv", singular)
        with pytest.raises(SolverError, match="censored block of level 5 is singular"):
            solve_theta_exact(gen)
        assert [get() for get, _ in threads] == [2, 2]
        assert seen and set(seen) == {(1, 1)}
    finally:
        for (_, set_), count in zip(threads, original):
            set_(count)


# Compares exact.dgesv with scipy.linalg.lapack.dgesv bit for bit on blocks
# of size 1, 3 and 81 and on a singular block; the two imports come in the
# order given by {first} and {second}.
_SAME_KERNEL = """
import numpy as np
{first}
{second}
from qinet import exact
from scipy.linalg.lapack import dgesv

assert exact.dgesv is not dgesv
rng = np.random.default_rng(5)
blocks = [rng.random((m, m)) + np.eye(m) for m in (1, 3, 81)] + [np.array([[1.0, 2.0], [2.0, 4.0]])]
infos = []
for a in blocks:
    rhs = rng.random((a.shape[0], 4))
    for kwargs in ({{}}, {{"overwrite_a": True}}):
        ours = exact.dgesv(a.T.copy(order="F"), rhs, **kwargs)
        theirs = dgesv(a.T.copy(order="F"), rhs, **kwargs)
        for x, y in zip(ours[:3], theirs[:3]):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert ours[3] == theirs[3]
    infos.append(int(ours[3]))
print(infos)
"""


@pytest.mark.parametrize("scipy_linalg_first", [True, False], ids=["scipy_first", "qinet_first"])
def test_dgesv_same_bits_as_scipy_linalg(scipy_linalg_first):
    # exact.dgesv is loaded from scipy's _flapack file without importing
    # scipy.linalg; it must be the same kernel whichever import runs first.
    imports = ["import scipy.linalg", "import qinet.exact"]
    first, second = imports if scipy_linalg_first else imports[::-1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _SAME_KERNEL.format(first=first, second=second)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0, 2]\n"


# Compares exact._csr_matvec() with scipy.sparse.csr_matrix(...) @ x bit for
# bit on int64 indices, with an empty row; the two imports come in the order
# given by {first} and {second}.  The kernel is loaded on first use only.
_SAME_MATVEC = """
import numpy as np
{first}
{second}
from qinet import exact
from scipy.sparse import csr_matrix, _sparsetools

assert exact._csr_matvec.cache_info().currsize == 0
csr_matvec = exact._csr_matvec()
assert csr_matvec is not _sparsetools.csr_matvec
rng = np.random.default_rng(11)
rows, cols = 200, 150
counts = rng.integers(1, 8, rows)
counts[17] = 0
indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
indices = rng.integers(0, cols, int(indptr[-1])).astype(np.int64)
data, x = rng.random(indices.size) * 10.0 ** rng.integers(-3, 4, indices.size), rng.random(cols)
ours = np.zeros(rows)
csr_matvec(rows, cols, indptr, indices, data, x, ours)
theirs = csr_matrix((data, indices, indptr), shape=(rows, cols)) @ x
assert ours.dtype == theirs.dtype and ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
print(int(np.count_nonzero(ours)), ours[17])
"""


@pytest.mark.parametrize("scipy_sparse_first", [True, False], ids=["scipy_first", "qinet_first"])
def test_csr_matvec_same_bits_as_scipy_sparse(scipy_sparse_first):
    # exact._csr_matvec() is loaded from scipy's _sparsetools file without
    # importing scipy.sparse; it must be the same kernel whichever import
    # runs first.
    imports = ["import scipy.sparse", "import qinet.exact"]
    first, second = imports if scipy_sparse_first else imports[::-1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _SAME_MATVEC.format(first=first, second=second)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "199 0.0\n"


def test_theta_measure_validation():
    with pytest.raises(SolverError):
        ThetaMeasure(grid=np.array([[0.5, 0.5], [0.0, 0.0]]), provenance="exact")
    with pytest.raises(SolverError, match="sum to one"):
        ThetaMeasure(grid=np.full((2, 2), 0.5), provenance="exact")
    # empirical measures may carry zeros
    emp = ThetaMeasure(grid=np.array([[0.5, 0.5], [0.0, 0.0]]), provenance="empirical")
    assert emp.grid[0, 1] == 0.5
    assert emp.b == (1, 1)
    assert np.array_equal(emp.weights, [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        ThetaMeasure(grid=np.full((2, 2), 0.25), provenance="guesswork")
    with pytest.raises(ValueError, match="b_j"):
        ThetaMeasure(grid=np.full((1, 4), 0.25), provenance="exact")


def test_grid_flattens_to_canonical_order():
    # weights is the grid read in the order of enumerate_inventory_states.
    cfg = make_config((1.3, 0.8, 1.1), (2, 1, 3), 0.9)
    gen = build_reduced_generator(cfg)
    theta = solve_theta_exact(gen)
    assert theta.grid.shape == (3, 2, 4) and theta.b == cfg.b
    for k, weight in zip(enumerate_inventory_states(cfg.b).tolist(), theta.weights):
        assert theta.grid[tuple(k[:-1])] == weight
