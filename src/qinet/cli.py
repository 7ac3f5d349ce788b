"""Command-line interface: solve, verify and simulate network configs.

Config files are JSON with exactly the keys ``J``, ``lambda``, ``mu``,
``b``, ``nu`` and optionally ``beta``; each ``mu`` entry is an object with
``head`` (list) and ``tail`` (scalar).  Unknown keys anywhere are
rejected.

Exit codes: 0 success / all checks passed, 1 validation error (a usage
error, an option out of range or an unwritable output path included) or
standard output closed early, 2 property failure, 3 numerical failure.
Options and output paths are checked before any solve or simulation starts.

``solve --method`` names a route; one rule, :func:`_pick_method`, picks the
exact route's solver for ``solve`` and for ``verify``'s and ``simulate``'s reference.

``simulate`` runs its ``R`` replications, seeded ``seed + r``, on
``min(R, usable CPUs)`` forked processes, in this process when that is one;
the output bytes do not depend on the count.  ``verify`` splits its events
over two replications the same way, seeded ``seed`` and ``seed + 1``, the
first taking the odd event (one replication at ``--events 1``), and checks
their merge: ``simulate --replications 2 --events E/2 --seed S`` gives the
same TVs, and the output bytes do not depend on the worker count either.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import analysis
from .closed_form import theta_unit_base_stock
from .errors import ConfigError, ErgodicityError, PreconditionError, QinetError, SolverError
from .exact import COMPONENTWISE_RTOL, solve_theta_exact, solve_theta_iad
from .generator import balance_residuals, build_reduced_generator
from .model import (NetworkConfig, ServiceRateProfile, ThetaMeasure, enumerate_inventory_states,
                    level_sizes, method_inapplicable)
from .recursive import solve_theta_recursive
from .simulate import SimulationResult, decoupling_test, merge_results, simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_NUMERICAL = 3

# Tolerances for `verify` (simulation bounds assume the default event count).
TOL_EXACT_RESIDUAL = 1e-12
TOL_EXACT_COMPONENTWISE = COMPONENTWISE_RTOL
TOL_CLOSED_TV = 1e-12
TOL_RECURSIVE_TV = 1e-10
TOL_RECURSIVE_RESIDUAL = 1e-10
TOL_SYMMETRY = 1e-12
TOL_CUT = 1e-10
TOL_SIM_THETA_TV = 0.02
TOL_SIM_QUEUE_TV = 0.02
TOL_SIM_DECOUPLING = 0.03
DEFAULT_VERIFY_EVENTS = 1_000_000
# `verify` splits its events over this many replications, seeded `seed + r`.
# `verify-suite` goodput in configs per reference second on 2 vCPUs: 1 replica
# 1.83-1.95 (2 runs), 2 replicas 3.07-3.33 (5 runs), 4 replicas 3.02-3.08
# (2 runs), as each of 4 shorter runs rebuilds more of its rows and entries.
VERIFY_REPLICAS = 2
# The exact route solves a J >= 3 box iteratively when its largest level holds
# more states than this.  Best of three solves, at nu/mean(lam) in {0.5, 1, 2,
# 2J}, level solver against iterative solve, ms: (12,12,12) (largest level 127)
# 11-17 against 6.0-7.8, (14,14,14) (169) 24 against 7.0-12, (16,16,16) (217)
# 48-49 against 10-15, (6,)*4 (231) 25-26 against 4.3-7.1, (3,)*6 (580)
# 159-191 against 8.8-13.  The iterative solve is ahead below 200 too; the
# rule is kept until the pick weighs both costs, graded rates included.
IAD_MIN_LEVEL = 200


def load_config(path: str) -> NetworkConfig:
    """Parse and strictly validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    allowed = {"J", "lambda", "mu", "b", "nu", "beta"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"J", "lambda", "mu", "b", "nu"} - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    J = raw["J"]
    if not isinstance(J, int) or isinstance(J, bool):
        raise ConfigError("field J must be an integer")
    for key in ("lambda", "mu", "b"):
        if not isinstance(raw[key], list) or len(raw[key]) != J:
            raise ConfigError(f"field {key} must be a list of length J={J}")

    profiles = []
    for i, entry in enumerate(raw["mu"], start=1):
        if not isinstance(entry, dict):
            raise ConfigError(f"mu[{i}] must be an object with keys head and tail")
        extra = set(entry) - {"head", "tail"}
        if extra:
            raise ConfigError(f"mu[{i}] has unknown keys: {sorted(extra)}")
        if "head" not in entry or "tail" not in entry:
            raise ConfigError(f"mu[{i}] needs both head (list) and tail (scalar)")
        if not isinstance(entry["head"], list):
            raise ConfigError(f"mu[{i}].head must be a list")
        profiles.append(ServiceRateProfile(head=tuple(entry["head"]), tail=entry["tail"]))

    return NetworkConfig(
        lam=tuple(raw["lambda"]),
        mu=tuple(profiles),
        b=tuple(raw["b"]),
        nu=raw["nu"],
        transfer_beta=raw.get("beta"),
    )


def _pick_method(config: NetworkConfig, method: str) -> tuple[str, str]:
    """``(solver, note)`` for ``method``: ``auto`` is the closed form when every ``b_j = 1``, else exact.

    The exact route is the iterative solve when ``J >= 3``, its cap admits the box and some level
    holds more than ``IAD_MIN_LEVEL`` states, else the level solver.  A refused solver raises
    :class:`PreconditionError`.
    """
    solver, note = method, ""
    if method == "auto":
        if method_inapplicable(config, "closed") is None:
            return "closed", "auto: all base stocks are one"
        solver, note = "exact", "auto: level-by-level elimination"
    # The byte cap first: a box it refuses is never convolved into level sizes.
    if (solver == "exact" and config.J >= 3 and method_inapplicable(config, "iad") is None
            and level_sizes(config.b).max() > IAD_MIN_LEVEL):
        solver, note = "iad", f"{method}: a level holds more than {IAD_MIN_LEVEL} states"
    if (reason := method_inapplicable(config, solver)) is not None:
        raise PreconditionError(reason)
    return solver, note


def _solve(config: NetworkConfig, solver: str, note: str) -> tuple[str, str, ThetaMeasure]:
    """``(solver, note, measure)``, the iterative solve's sweeps and residual in the note.

    When the iterative solve raises :class:`SolverError`, the level solver
    answers where its cap admits the box, and the note gives the failure.
    """
    if solver == "closed":
        return solver, note, theta_unit_base_stock(config)
    if solver == "recursive":
        return solver, note, solve_theta_recursive(config)
    if solver == "iad":
        try:
            theta, sweeps, residual = solve_theta_iad(config)
            return solver, f"{note}; {sweeps} sweeps, residual {residual:.1e}", theta
        except SolverError as exc:
            if method_inapplicable(config, "exact") is not None:
                raise
            solver, note = "exact", f"{note.partition(':')[0]}: {exc}; level-by-level elimination"
    return solver, note, solve_theta_exact(build_reduced_generator(config))


def _solve_report(config: NetworkConfig, solver: str, note: str) -> tuple[dict, ThetaMeasure]:
    method, note, theta = _solve(config, solver, note)
    ergo = analysis.ergodicity_check(config)
    xi_params = []
    for diag in ergo.per_location:
        if diag.ergodic:
            qm = analysis.queue_marginal(config, diag.location)
            xi_params.append({"location": diag.location, "C": qm.C, "rho_tail": qm.rho_tail,
                              "xi0": qm.xi(0), "mean_queue_length": qm.mean_queue_length})
        else:
            xi_params.append({"location": diag.location, "unstable": True})
    marginals = [list(analysis.inventory_marginal(theta, j)) for j in range(1, config.J + 1)]
    residual, componentwise = balance_residuals(config, theta.weights)
    return {
        "method": method,
        "note": note,
        "ergodic": ergo.ergodic,
        "ergodicity": [
            {"location": d.location, "lambda": d.lam, "tail_rate": d.tail_rate,
             "rho_tail": d.rho_tail, "ergodic": d.ergodic}
            for d in ergo.per_location
        ],
        "theta": _theta_block(theta),
        "residual": residual,
        "componentwise_residual": componentwise,
        "inventory_marginals": marginals,
        "xi": xi_params,
    }, theta


def _theta_block(theta: ThetaMeasure) -> dict:
    """The ``theta`` block of a ``--json`` report: canonical states and their weights."""
    return {"states": enumerate_inventory_states(theta.b).tolist(), "weights": theta.weights.tolist(),
            "normalized": True, "provenance": theta.provenance}


def _print_theta(theta: ThetaMeasure) -> None:
    """The measure table: one row per canonical state, written by one ``%`` format per row."""
    J = len(theta.b)
    print("  ".join(f"k{j}" for j in range(1, J + 1)) + "  k_sup  weight")
    row = "  ".join(["%2d"] * J) + "  %5d  %.12g"
    columns = enumerate_inventory_states(theta.b).T.tolist() + [theta.weights.tolist()]
    print("\n".join(map(row.__mod__, zip(*columns))))


def _create(path: str, mode: str = "w", **kwargs):
    """``open(path, mode)``; a path that cannot be written is a :class:`ConfigError`."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_writable(*paths) -> None:
    """Refuse an unwritable output path before any work, leaving every path as it was."""
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        _create(path, "a").close()
        if not existed:
            os.remove(path)


def _write_json(path: str, doc: dict) -> None:
    """``doc`` as one line of compact JSON; ``json.dumps`` runs the C encoder, ``indent`` would not."""
    with _create(path) as fh:
        fh.write(json.dumps(doc) + "\n")


def _write_solve_csv(path: str, report: dict) -> None:
    J = len(report["theta"]["states"][0]) - 1
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"k{j}" for j in range(1, J + 1)] + ["k_supplier", "weight"])
        for state, w in zip(report["theta"]["states"], report["theta"]["weights"]):
            writer.writerow(list(state) + [f"{w:.17g}"])
        writer.writerow([])
        writer.writerow(["location", "level", "probability"])
        for j, marg in enumerate(report["inventory_marginals"], start=1):
            for level, p in enumerate(marg):
                writer.writerow([j, level, f"{p:.17g}"])
        writer.writerow([])
        writer.writerow(["check", "value"])
        writer.writerow(["balance_residual", f"{report['residual']:.17g}"])
        writer.writerow(["componentwise_residual", f"{report['componentwise_residual']:.17g}"])


def cmd_solve(args) -> int:
    config = load_config(args.config)
    _check_writable(args.json, args.csv)
    solver, note = _pick_method(config, args.method)
    if (reason := method_inapplicable(config, "report")) is not None:
        raise PreconditionError(reason)
    report, theta = _solve_report(config, solver, note)

    print(f"method: {report['method']}" + (f" ({report['note']})" if report["note"] else ""))
    verdict = "ergodic" if report["ergodic"] else "NOT ergodic"
    print(f"ergodicity: {verdict}")
    for d in report["ergodicity"]:
        print(
            f"  location {d['location']}: lambda={d['lambda']:g} "
            f"tail={d['tail_rate']:g} rho={d['rho_tail']:.6g} "
            f"{'ok' if d['ergodic'] else 'unstable'}"
        )
    print(f"balance residual (relative): {report['residual']:.3e}")
    print(f"componentwise residual: {report['componentwise_residual']:.3e}")
    print()
    _print_theta(theta)
    print()
    for j, marg in enumerate(report["inventory_marginals"], start=1):
        pretty = ", ".join(f"P(Y{j}={lvl})={p:.6g}" for lvl, p in enumerate(marg))
        print(f"inventory marginal {j}: {pretty}")
    for xi in report["xi"]:
        if xi.get("unstable"):
            print(f"queue {xi['location']}: unstable, no stationary marginal")
        else:
            print(
                f"queue {xi['location']}: C={xi['C']:.12g} rho={xi['rho_tail']:.6g} "
                f"xi(0)={xi['xi0']:.12g} mean={xi['mean_queue_length']:.6g}"
            )

    if args.json:
        _write_json(args.json, report)
    if args.csv:
        _write_solve_csv(args.csv, report)
    return EXIT_OK


def _scores(result: SimulationResult, theta_exact: ThetaMeasure, config: NetworkConfig) -> dict:
    """``theta_tv``, ``decoupling_tv``, then ``queue{j}_tv``: the TVs of a run against the analysis.

    Queue ``j``'s empirical marginal is compared with ``xi_j(n)`` for ``n < min(6, n_obs)``.
    """
    scores = {"theta_tv": analysis.total_variation(result.empirical_theta(), theta_exact),
              "decoupling_tv": decoupling_test(result)}
    clip = result.n_obs + 1
    for j in range(1, config.J + 1):
        qm = analysis.queue_marginal(config, j)
        xi = np.array([qm.xi(n) for n in range(min(6, result.n_obs))])
        # Queue j's digit of the cell codes: one column, not the (cells, J) queue view.
        queue = (result.codes // (clip ** (config.J - j) * result._n_states) % clip).astype(np.int64)
        emp = np.bincount(queue, result.mass, minlength=xi.size)[: xi.size]
        scores[f"queue{j}_tv"] = 0.5 * float(np.abs(emp - xi).sum())
    return scores


def _verify_checks(config: NetworkConfig, events: int, seed: int) -> tuple[list[dict], list[str]]:
    """The checks of ``qinet verify`` and its notices.

    A cross-check route that fails numerically fails its checks, with value
    ``None``, and a notice gives its error; a failure of the exact reference
    solve itself propagates.
    """
    checks: list[dict] = []
    notices: list[str] = []

    def add(name: str, value: float | None, tol: float) -> None:
        passed = value is not None and bool(value <= tol)
        checks.append({"name": name, "value": None if value is None else float(value),
                       "tolerance": tol, "passed": passed})

    theta_exact = _solve(config, *_pick_method(config, "exact"))[2]
    residual, componentwise = balance_residuals(config, theta_exact.weights)
    add("exact_balance_residual", residual, TOL_EXACT_RESIDUAL)
    add("exact_componentwise_residual", componentwise, TOL_EXACT_COMPONENTWISE)

    def tv(theta: ThetaMeasure) -> float:
        return analysis.total_variation(theta, theta_exact)

    # Each cross-check route's checks: (name, tolerance, value of the route's measure).
    routes = {"closed": [("closed_form_vs_exact_tv", TOL_CLOSED_TV, tv)],
              "recursive": [("recursive_vs_exact_tv", TOL_RECURSIVE_TV, tv),
                            ("recursive_balance_residual", TOL_RECURSIVE_RESIDUAL,
                             lambda theta: balance_residuals(config, theta.weights)[0])]}
    for route, route_checks in routes.items():
        if method_inapplicable(config, route) is not None:
            continue
        try:
            theta = _solve(config, route, "")[2]
        except SolverError as exc:
            notices.append(f"{route} route failed: {exc}")
            theta = None
        for name, tol, value in route_checks:
            add(name, None if theta is None else value(theta), tol)

    if config.is_homogeneous():
        add("symmetry", analysis.check_symmetry(theta_exact, config), TOL_SYMMETRY)
        add("cut_homogeneous", analysis.check_cut_homogeneous(theta_exact, config), TOL_CUT)
    if config.J == 2:
        cut = analysis.check_cut_heterogeneous(theta_exact, config)
        for family, value in cut.families.items():
            add(f"cut_{family}", value, TOL_CUT)

    ergo = analysis.ergodicity_check(config)
    if ergo.ergodic:
        # The replications of `qinet simulate --replications 2 --events events/2`, at its 8 buckets.
        replicas = min(VERIFY_REPLICAS, events)
        runs = _replicas([(config, events // replicas + (r < events % replicas), seed + r, 8)
                          for r in range(replicas)])
        scores = _scores(merge_results(runs), theta_exact, config)
        tols = {"theta_tv": TOL_SIM_THETA_TV, "decoupling_tv": TOL_SIM_DECOUPLING}
        for name in ["theta_tv", *list(scores)[2:], "decoupling_tv"]:
            add(f"simulation_{name}", scores[name], tols.get(name, TOL_SIM_QUEUE_TV))
    else:
        notices.append(
            "configuration not ergodic: inventory-level checks only, "
            "joint-distribution and simulation checks skipped"
        )
    return checks, notices


def cmd_verify(args) -> int:
    config = load_config(args.config)
    _check_writable(args.json)
    checks, notices = _verify_checks(config, args.events, args.seed)
    for notice in notices:
        print(f"notice: {notice}")
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        value = "n/a" if c["value"] is None else f"{c['value']:.6e}"
        print(f"{c['name']:<{width}}  {value:>12}  (tol {c['tolerance']:g})  {status}")
    failed = [c for c in checks if not c["passed"]]
    doc = {"checks": checks, "notices": notices, "passed": not failed}
    if args.json:
        _write_json(args.json, doc)
    if failed:
        print(f"{len(failed)} check(s) failed")
        return EXIT_PROPERTY
    print("all checks passed")
    return EXIT_OK


def _replica(job: tuple) -> SimulationResult:
    """One replication ``(config, events, seed, n_obs)``.

    A worker process looks this function up by name: the pool never pickles
    the ``simulate`` binding, which a tracer may have wrapped.
    """
    config, events, seed, n_obs = job
    return simulate(config, total_events=events, seed=seed, n_obs=n_obs)


def _replicas(jobs: list[tuple]) -> list[SimulationResult]:
    """The replications ``jobs``, in order, on ``min(len(jobs), usable CPUs)`` forked processes.

    With one worker they run in this process and no pool starts.
    """
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers == 1:
        return list(map(_replica, jobs))
    # Imported here: at module level they would slow every start by tens of ms.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers inherit the imported package; spawned ones would each
    # import it again.  A fork pool forks every worker before its own
    # thread starts, and the commands start no other thread.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_replica, jobs))


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    _check_writable(args.json)
    # A box too large to solve is refused before any run, a non-ergodic one before the solve.
    solver, note = _pick_method(config, "exact")
    runs = _replicas([(config, args.events, args.seed + r, args.n_obs) for r in range(args.replications)])
    theta_exact = _solve(config, solver, note)[2]
    rows = [{"seed": result.seed, "events": result.total_events, "sim_time": result.sim_time,
             **_scores(result, theta_exact, config)} for result in runs]
    merged = merge_results(runs) if len(runs) > 1 else runs[0]
    scores = _scores(merged, theta_exact, config)
    merged_tvs = {k: scores[k] for k in ("theta_tv", "decoupling_tv")}

    def tvs(row: dict) -> str:
        return "  ".join(f"{k}={v:.5f}" for k, v in row.items() if k.endswith("_tv"))

    for row in rows:
        print(f"seed {row['seed']}: time={row['sim_time']:.1f}  {tvs(row)}")
    print(f"merged ({len(runs)} run(s)): {tvs(merged_tvs)}")
    if args.json:
        _write_json(args.json, {"replications": rows, "merged": merged_tvs,
                                "theta": _theta_block(merged.empirical_theta())})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qinet",
        description="Stationary analysis of production-inventory networks "
        "with a shared supplier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the stationary inventory measure")
    p_solve.add_argument("config")
    p_solve.add_argument(
        "--method", choices=["auto", "exact", "closed", "recursive"], default="auto"
    )
    p_solve.add_argument("--json", metavar="PATH")
    p_solve.add_argument("--csv", metavar="PATH")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the full property suite")
    p_verify.add_argument("config")
    p_verify.add_argument("--events", type=int, default=DEFAULT_VERIFY_EVENTS)
    p_verify.add_argument("--seed", type=int, default=20240801)
    p_verify.add_argument("--json", metavar="PATH")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="empirical vs analytic comparison")
    p_sim.add_argument("config")
    p_sim.add_argument("--events", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, default=20240801)
    p_sim.add_argument("--n-obs", type=int, default=8)
    p_sim.add_argument("--replications", type=int, default=1)
    p_sim.add_argument("--json", metavar="PATH")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage and the error; --help exits 0
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        # Option ranges, checked before any command does work.
        for name, low in (("seed", 0), ("events", 1), ("n_obs", 1), ("replications", 1)):
            if getattr(args, name, low) < low:
                raise PreconditionError(f"{name} must be >= {low}, got {getattr(args, name)}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's flush at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except (ConfigError, PreconditionError, ErgodicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QinetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
