"""The four benchmark workloads: inputs drawn from a seed, the timed ops, and
the correctness checks run on their outputs after the timed region.

A workload is a fixed list of ops (one *pass*).  Each op reaches qinet only
through ``qinet.cli.main(argv)`` or the public library functions, looked up
on the ``qinet`` package at call time so that the tracer in ``spans.py`` can
wrap them.  Every input is written as a JSON config file into the work
directory before timing starts; the program sees only those files.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("solve-grid", "solve-small", "verify-suite", "simulate-replicas")

# Tolerances of the output checks.  They equal the ones `qinet verify` and
# the acceptance suite use, so a check failure here is a real defect.
TOL_RESIDUAL = 1e-12
TOL_SUM = 1e-12
TOL_CLOSED_TV = 1e-12
TOL_SIM_THETA_TV = 0.02
TOL_SIM_DECOUPLING = 0.03

GRID_B = ((20, 20), (40, 40), (80, 80), (8, 8, 8), (12, 12, 12), (6,) * 4, (3,) * 6)
VERIFY_EVENTS = 1_000_000
SIM_REPLICAS = 16
SIM_EVENTS = 250_000


@dataclass
class Op:
    """One timed unit of work on one generated config."""

    id: str
    path: str  # the config file the program reads
    units: int  # work delivered when correct: states solved, configs verified, events simulated
    argv: list | None = None  # CLI ops; None means a library solve
    out: str | None = None  # --json output of a CLI op
    config: object = None  # NetworkConfig of a library op, loaded in set-up


@dataclass
class Outcome:
    """What one op did: an exit code (0 ok) and, for a failure, why."""

    code: int
    error: str = ""
    value: object = None  # the result of a library op, or the key of a kept output


def log_uniform(rng, n, lo=0.5, hi=2.0):
    return [float(x) for x in np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))]


def constant_mu(rate, J):
    return [{"head": [], "tail": float(rate)} for _ in range(J)]


def config_doc(lam, mu, b, nu, beta=None):
    doc = {"J": len(b), "lambda": list(lam), "mu": mu, "b": list(b), "nu": float(nu)}
    if beta is not None:
        doc["beta"] = float(beta)
    return doc


def grid_docs(rng):
    """The ROADMAP grid: seven base-stock shapes at four supplier ratios."""
    docs = []
    for b in GRID_B:
        J = len(b)
        for ratio in (0.5, 1.0, 2.0, 2.0 * J):
            lam = log_uniform(rng, J)
            nu = ratio * float(np.mean(lam))
            tag = "x".join(map(str, b))
            docs.append((f"grid-{tag}-r{ratio:g}", config_doc(lam, constant_mu(4 * max(lam), J), b, nu)))
    return docs


def small_docs(rng):
    """The acceptance criterion-1 population: J in 2..4, b in {1,2,3}^J, 20 draws."""
    docs = []
    for J in (2, 3, 4):
        for b in itertools.product((1, 2, 3), repeat=J):
            for draw in range(20):
                lam = log_uniform(rng, J)
                nu = log_uniform(rng, 1)[0]
                tag = "".join(map(str, b))
                docs.append((f"small-{tag}-{draw}", config_doc(lam, constant_mu(4 * max(lam), J), b, nu)))
    return docs


def _scaled(rng):
    """Draw a rate scale, and return a function giving ``x`` at that scale.

    Scaling every rate of a chain leaves its jump probabilities, and so the
    work of a solve or a simulated event, unchanged.  The seed picks the
    scale and a +-5% jitter per rate; the ratios that decide how many states
    a simulation visits stay put, so that the seed changes the inputs
    without changing how much work they are.
    """
    scale = log_uniform(rng, 1)[0]
    return lambda x: scale * x * float(rng.uniform(0.95, 1.05))


def verify_docs(rng):
    """Four configs that together reach every check `qinet verify` has."""
    rate = _scaled(rng)
    lam6, lam_t = rate(1.0), rate(1.0)
    lam2 = [rate(1.0), rate(0.7)]
    lam4 = [rate(0.6), rate(0.9), rate(1.2), rate(1.5)]
    heads = [[rate(2.0), rate(3.0)], [rate(2.5)]]
    return [
        ("verify-j6-homogeneous", config_doc([lam6] * 6, constant_mu(4 * lam6, 6), (2,) * 6, 9 * lam6)),
        ("verify-j2-heterogeneous",
         config_doc(lam2, [{"head": h, "tail": 4 * max(lam2)} for h in heads], (12, 6), 1.5 * sum(lam2))),
        ("verify-j2-transfer",
         config_doc([lam_t] * 2, constant_mu(4 * lam_t, 2), (6, 6), 3 * lam_t, beta=0.6 * lam_t)),
        ("verify-j4-unit", config_doc(lam4, constant_mu(4 * max(lam4), 4), (1,) * 4, 1.5 * sum(lam4))),
    ]


def simulate_docs(rng):
    rate = _scaled(rng)
    lam = [rate(0.8), rate(1.0), rate(1.3)]
    tail = 4 * max(lam)
    heads = [[rate(2.0), rate(3.5)], [rate(3.0)], []]
    mu = [{"head": h, "tail": tail} for h in heads]
    return [("simulate-j3", config_doc(lam, mu, (4, 3, 2), 1.5 * sum(lam)))]


def workload_docs(name, seed, quick=False):
    """The (id, config document) inputs of a workload, drawn from ``seed``.

    ``quick`` keeps a short prefix of the inputs, for the self-tests.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    docs = {"solve-grid": grid_docs, "solve-small": small_docs,
            "verify-suite": verify_docs, "simulate-replicas": simulate_docs}[name](rng)
    if quick:
        docs = {"solve-grid": docs[0:4] + docs[14:16], "solve-small": docs[:40] + docs[-20:],
                "verify-suite": docs[3:], "simulate-replicas": docs}[name]
    return docs


def make_ops(name, seed, workdir, quick=False):
    """Write the inputs into ``workdir`` and return the pass's ops."""
    import qinet.cli

    ops = []
    sim_seed = int(np.random.default_rng([seed, 99]).integers(1, 2**31))
    for op_id, doc in workload_docs(name, seed, quick):
        path = os.path.join(workdir, op_id + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(workdir, op_id + ".out.json")
        states = int(np.prod([bj + 1 for bj in doc["b"]]))
        if name == "solve-grid":
            ops.append(Op(op_id, path, states, ["solve", path, "--method", "auto", "--json", out], out))
        elif name == "solve-small":
            ops.append(Op(op_id, path, states, config=qinet.cli.load_config(path)))
        elif name == "verify-suite":
            events = 100_000 if quick else VERIFY_EVENTS
            ops.append(Op(op_id, path, 1, ["verify", path, "--seed", str(sim_seed),
                                           "--events", str(events), "--json", out], out))
        else:
            reps, events = (2, 100_000) if quick else (SIM_REPLICAS, SIM_EVENTS)
            ops.append(Op(op_id, path, reps * events, ["simulate", path, "--seed", str(sim_seed),
                                                       "--replications", str(reps), "--events", str(events),
                                                       "--json", out], out))
    return ops


def run_op(op, sink):
    """Run one op; CLI output goes to ``sink``, stderr is kept for the ledger."""
    import qinet

    if op.argv is None:
        try:
            theta = qinet.solve_theta_exact(qinet.build_reduced_generator(op.config))
        except qinet.QinetError as exc:
            return Outcome(3, f"{type(exc).__name__}: {exc}")
        return Outcome(0, value=np.array(theta.weights))
    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            code = qinet.cli.main(op.argv)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            return Outcome(-1, f"{type(exc).__name__}: {exc}")
    lines = err.getvalue().strip().splitlines()
    return Outcome(code, lines[-1] if code and lines else "")


# ---- output checks, run after the timed region -----------------------------

def _residual(gen, weights):
    scale = max(np.abs(gen.rates).max(), 1.0)
    return float(np.abs(weights @ gen.rates).max() / scale)


def check_measure(config, states, weights, tol_residual=TOL_RESIDUAL):
    """Names of the checks a stationary measure fails (empty: correct)."""
    import qinet

    gen = qinet.build_reduced_generator(config)
    failed = []
    if states is not None and [list(s.k) for s in gen.states] != [list(s) for s in states]:
        return ["state_order"]
    if _residual(gen, weights) > tol_residual:
        failed.append("balance_residual")
    if not np.all(weights > 0):
        failed.append("positivity")
    if abs(weights.sum() - 1.0) > TOL_SUM:
        failed.append("normalization")
    if all(bj == 1 for bj in config.b):
        closed = np.asarray(qinet.theta_unit_base_stock(config).weights)
        if 0.5 * np.abs(closed - weights).sum() > TOL_CLOSED_TV:
            failed.append("closed_form_tv")
    return failed


def check_solve_json(config_path, out_path):
    import qinet.cli

    with open(out_path) as fh:
        doc = json.load(fh)
    theta = doc["theta"]
    # The recursive route promises the residual `qinet verify` holds it to.
    tol = qinet.cli.TOL_RECURSIVE_RESIDUAL if doc["method"] == "recursive" else TOL_RESIDUAL
    return check_measure(qinet.cli.load_config(config_path), theta["states"],
                         np.array(theta["weights"], dtype=float), tol)


def check_verify_json(out_path, code):
    """Failing check names from a verify report, or ``["inconsistent_report"]``."""
    with open(out_path) as fh:
        doc = json.load(fh)
    checks = doc["checks"]
    failing = [c["name"] for c in checks if not c["passed"]]
    if (any(c["passed"] != (c["value"] <= c["tolerance"]) for c in checks)
            or doc["passed"] != (not failing) or (code == 0) != (not failing)):
        return ["inconsistent_report"]
    return failing


def check_simulate_json(config_path, out_path):
    import qinet
    import qinet.cli

    with open(out_path) as fh:
        doc = json.load(fh)
    config = qinet.cli.load_config(config_path)
    exact = np.asarray(qinet.solve_theta_exact(qinet.build_reduced_generator(config)).weights)
    empirical = np.array(doc["theta"]["weights"], dtype=float)
    failed = []
    tv = 0.5 * np.abs(empirical - exact).sum()
    if abs(tv - doc["merged"]["theta_tv"]) > 1e-9:
        failed.append("theta_tv_reported")
    if tv > TOL_SIM_THETA_TV:
        failed.append("theta_tv")
    if doc["merged"]["decoupling_tv"] > TOL_SIM_DECOUPLING:
        failed.append("decoupling_tv")
    if abs(empirical.sum() - 1.0) > 1e-9:
        failed.append("normalization")
    return failed
