"""Shared helpers for the test suite."""
import tracemalloc

import numpy as np
import pytest

from qinet import ConfigError, NetworkConfig, ServiceRateProfile


def const_mu(rate, J):
    return tuple(ServiceRateProfile.constant(rate) for _ in range(J))


def make_config(lam, b, nu, mu_rate=None, beta=None):
    """Config with constant service rates, ergodic by default."""
    lam = tuple(lam)
    b = tuple(b)
    if mu_rate is None:
        mu_rate = 4.0 * max(lam)
    return NetworkConfig(
        lam=lam, mu=const_mu(mu_rate, len(b)), b=b, nu=nu, transfer_beta=beta
    )


def routing_probs(on_hand, b):
    """Probability that a finished item is routed to each location.

    Scalar reference for the replenishment family of the transition
    arrays.  The item goes to the location(s) with the largest deficit
    ``b_j - k_j``; a tie among m locations gives each probability 1/m.
    When every inventory is full the deficits tie at zero and the uniform
    value 1/J is returned; replenishment is guarded by ``k_i < b_i``, so
    that value never multiplies a positive rate.  ``on_hand`` is
    ``(k_1, ..., k_J)`` and must lie in the box ``0 <= k_j <= b_j``.
    """
    b = tuple(int(x) for x in b)
    on_hand = tuple(int(x) for x in on_hand)
    if len(on_hand) != len(b) or any(not 0 <= kj <= bj for kj, bj in zip(on_hand, b)):
        raise ConfigError("on-hand levels must satisfy 0 <= k_j <= b_j")
    deficits = [bj - kj for kj, bj in zip(on_hand, b)]
    top = max(deficits)
    p = 1.0 / deficits.count(top)
    return tuple(p if d == top else 0.0 for d in deficits)


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the most bytes tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw_rates(rng, n, lo=0.5, hi=2.0):
    """Log-uniform positive rates."""
    return tuple(float(x) for x in np.exp(rng.uniform(np.log(lo), np.log(hi), size=n)))


def grid_config(rng, b, ratio):
    """A config drawn as the solve grid draws one: ``lam`` log-uniform in
    [0.5, 2], ``nu = ratio * mean(lam)``, every ``mu`` tail ``4 max(lam)``."""
    lam = draw_rates(rng, len(b))
    return make_config(lam, b, ratio * float(np.mean(lam)))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def mp_stationary(gen, dps=60):
    """Stationary weights of ``gen`` from an mpmath LU solve at ``dps`` digits, as floats.

    The oracle for entrywise relative error: the anchored balance system
    (last equation replaced by the normalization) in high precision.
    """
    import mpmath

    n = gen.size
    with mpmath.workdps(dps):
        M = mpmath.zeros(n, n)  # M = Q^T
        for s, d, r in zip(gen.src.tolist(), gen.dst.tolist(), gen.rate.tolist()):
            M[d, s] += r
            M[s, s] -= r
        for j in range(n):
            M[n - 1, j] = 1
        rhs = mpmath.zeros(n, 1)
        rhs[n - 1] = 1
        return np.array([float(x) for x in mpmath.lu_solve(M, rhs)])
