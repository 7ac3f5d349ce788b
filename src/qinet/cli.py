"""Command-line interface: solve, verify and simulate network configs.

Config files are JSON with exactly the keys ``J``, ``lambda``, ``mu``,
``b``, ``nu`` and optionally ``beta``; each ``mu`` entry is an object with
``head`` (list) and ``tail`` (scalar).  Unknown keys anywhere are
rejected.

Exit codes: 0 success / all checks passed, 1 validation error,
2 property failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import analysis
from .closed_form import theta_unit_base_stock
from .errors import (
    ConfigError,
    ErgodicityError,
    PreconditionError,
    QinetError,
    SolverError,
)
from .exact import ThetaMeasure, solve_theta_exact
from .generator import balance_residual, build_reduced_generator
from .model import NetworkConfig, ServiceRateProfile, enumerate_inventory_states, method_inapplicable
from .recursive import solve_theta_recursive
from .simulate import decoupling_test, merge_results, simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_NUMERICAL = 3

# Tolerances for `verify` (simulation bounds assume the default event count).
TOL_EXACT_RESIDUAL = 1e-12
TOL_CLOSED_TV = 1e-12
TOL_RECURSIVE_TV = 1e-10
TOL_RECURSIVE_RESIDUAL = 1e-10
TOL_SYMMETRY = 1e-12
TOL_CUT = 1e-10
TOL_SIM_THETA_TV = 0.02
TOL_SIM_QUEUE_TV = 0.02
TOL_SIM_DECOUPLING = 0.03
DEFAULT_VERIFY_EVENTS = 1_000_000


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
    """Resolve the requested method; returns (method, note)."""
    if method == "auto":
        if method_inapplicable(config, "closed") is None:
            return "closed", "auto: all base stocks are one"
        if method_inapplicable(config, "recursive") is None:
            return "recursive", "auto: two locations with base stocks above one"
        return "exact", "auto: fallback to the linear-algebra solve"
    reason = method_inapplicable(config, method)
    if reason:
        raise PreconditionError(reason)
    return method, ""


def _solve_with(config: NetworkConfig, method: str) -> ThetaMeasure:
    if method == "closed":
        return theta_unit_base_stock(config)
    if method == "recursive":
        return solve_theta_recursive(config)
    return solve_theta_exact(build_reduced_generator(config))


def _solve_report(config: NetworkConfig, method: str, note: str) -> tuple[dict, ThetaMeasure]:
    theta = _solve_with(config, method)
    residual = balance_residual(config, theta.weights)
    ergo = analysis.ergodicity_check(config)
    xi_params = []
    for diag in ergo.per_location:
        if diag.ergodic:
            qm = analysis.queue_marginal(config, diag.location)
            xi_params.append(
                {
                    "location": diag.location,
                    "C": qm.C,
                    "rho_tail": qm.rho_tail,
                    "xi0": qm.xi(0),
                    "mean_queue_length": qm.mean_queue_length,
                }
            )
        else:
            xi_params.append({"location": diag.location, "unstable": True})
    marginals = [
        list(analysis.inventory_marginal(theta, j)) for j in range(1, config.J + 1)
    ]
    return {
        "method": method,
        "note": note,
        "ergodic": ergo.ergodic,
        "ergodicity": [
            {
                "location": d.location,
                "lambda": d.lam,
                "tail_rate": d.tail_rate,
                "rho_tail": d.rho_tail,
                "ergodic": d.ergodic,
            }
            for d in ergo.per_location
        ],
        "theta": {
            "states": [list(s.k) for s in enumerate_inventory_states(theta.b)],
            "weights": theta.weights.tolist(),
            "normalized": theta.normalized,
            "provenance": theta.provenance,
        },
        "residual": residual,
        "inventory_marginals": marginals,
        "xi": xi_params,
    }, theta


def read_theta_json(path: str) -> ThetaMeasure:
    """Re-read a measure written by ``--json`` (exact round trip).

    Weights are placed by position, so the state rows must be the
    canonical enumeration of the inventory box; anything else raises
    :class:`ConfigError`.
    """
    with open(path) as fh:
        doc = json.load(fh)
    block = doc["theta"] if "theta" in doc else doc
    rows, weights = block["states"], np.array(block["weights"], dtype=float)
    # The last canonical row is (b_1, ..., b_J, 0).  Check its shape and the
    # row count before enumerating, so a bad file cannot ask for a huge box.
    b = rows[-1][:-1] if isinstance(rows, list) and rows and isinstance(rows[-1], list) else []
    if (
        len(b) < 2
        or any(type(bj) is not int for bj in b)
        or len(rows) != math.prod(bj + 1 for bj in b)
        or weights.shape != (len(rows),)
        or rows != [list(s.k) for s in enumerate_inventory_states(b)]
    ):
        raise ConfigError("theta states are not the canonical enumeration of an inventory box")
    return ThetaMeasure(
        grid=weights.reshape([bj + 1 for bj in b]),
        normalized=block["normalized"],
        provenance=block["provenance"],
    )


def _print_theta(theta: ThetaMeasure) -> None:
    J = len(theta.b)
    header = "  ".join(f"k{j}" for j in range(1, J + 1)) + "  k_sup  weight"
    print(header)
    for state, w in zip(enumerate_inventory_states(theta.b), theta.weights):
        coords = "  ".join(f"{x:>2d}" for x in state.on_hand)
        print(f"{coords}  {state.k[-1]:>5d}  {w:.12g}")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_solve_csv(path: str, report: dict) -> None:
    J = len(report["theta"]["states"][0]) - 1
    with open(path, "w", newline="") as fh:
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
        for check in report.get("checks", []):
            writer.writerow([check["name"], f"{check['value']:.17g}"])


def cmd_solve(args) -> int:
    config = load_config(args.config)
    method, note = _pick_method(config, args.method)
    report, theta = _solve_report(config, method, note)

    print(f"method: {method}" + (f" ({note})" if note else ""))
    verdict = "ergodic" if report["ergodic"] else "NOT ergodic"
    print(f"ergodicity: {verdict}")
    for d in report["ergodicity"]:
        print(
            f"  location {d['location']}: lambda={d['lambda']:g} "
            f"tail={d['tail_rate']:g} rho={d['rho_tail']:.6g} "
            f"{'ok' if d['ergodic'] else 'unstable'}"
        )
    print(f"balance residual (relative): {report['residual']:.3e}")
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


def _verify_checks(config: NetworkConfig, events: int, seed: int) -> tuple[list[dict], list[str]]:
    checks: list[dict] = []
    notices: list[str] = []

    def add(name: str, value: float, tol: float) -> None:
        checks.append(
            {"name": name, "value": float(value), "tolerance": tol, "passed": bool(value <= tol)}
        )

    theta_exact = solve_theta_exact(build_reduced_generator(config))
    add("exact_balance_residual", balance_residual(config, theta_exact.weights), TOL_EXACT_RESIDUAL)

    if method_inapplicable(config, "closed") is None:
        theta_closed = theta_unit_base_stock(config)
        add("closed_form_vs_exact_tv", analysis.total_variation(theta_closed, theta_exact), TOL_CLOSED_TV)

    if method_inapplicable(config, "recursive") is None:
        theta_rec = solve_theta_recursive(config)
        add("recursive_vs_exact_tv", analysis.total_variation(theta_rec, theta_exact), TOL_RECURSIVE_TV)
        add("recursive_balance_residual", balance_residual(config, theta_rec.weights), TOL_RECURSIVE_RESIDUAL)

    if config.is_homogeneous():
        add("symmetry", analysis.check_symmetry(theta_exact, config), TOL_SYMMETRY)
        add("cut_homogeneous", analysis.check_cut_homogeneous(theta_exact, config), TOL_CUT)
    if config.J == 2:
        cut = analysis.check_cut_heterogeneous(theta_exact, config)
        for family, value in cut.families.items():
            add(f"cut_{family}", value, TOL_CUT)

    ergo = analysis.ergodicity_check(config)
    if ergo.ergodic:
        result = simulate(config, total_events=events, seed=seed)
        add(
            "simulation_theta_tv",
            analysis.total_variation(result.empirical_theta(), theta_exact),
            TOL_SIM_THETA_TV,
        )
        for j in range(1, config.J + 1):
            qm = analysis.queue_marginal(config, j)
            emp = result.queue_marginals[j - 1]
            window = range(min(6, result.n_obs))
            tv = 0.5 * sum(abs(emp.get(nv, 0.0) - qm.xi(nv)) for nv in window)
            add(f"simulation_queue{j}_tv", tv, TOL_SIM_QUEUE_TV)
        add("simulation_decoupling_tv", decoupling_test(result), TOL_SIM_DECOUPLING)
    else:
        notices.append(
            "configuration not ergodic: inventory-level checks only, "
            "joint-distribution and simulation checks skipped"
        )
    return checks, notices


def cmd_verify(args) -> int:
    config = load_config(args.config)
    checks, notices = _verify_checks(config, args.events, args.seed)
    for notice in notices:
        print(f"notice: {notice}")
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"{c['name']:<{width}}  {c['value']:.6e}  (tol {c['tolerance']:g})  {status}")
    failed = [c for c in checks if not c["passed"]]
    doc = {"checks": checks, "notices": notices, "passed": not failed}
    if args.json:
        _write_json(args.json, doc)
    if failed:
        print(f"{len(failed)} check(s) failed")
        return EXIT_PROPERTY
    print("all checks passed")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.replications < 1:
        raise PreconditionError("--replications must be >= 1")
    ergo = analysis.ergodicity_check(config)
    if not ergo.ergodic:
        print("simulation refused: configuration is not ergodic", file=sys.stderr)
        for d in ergo.per_location:
            flag = "ok" if d.ergodic else "UNSTABLE"
            print(
                f"  location {d.location}: lambda={d.lam:g} vs tail rate "
                f"{d.tail_rate:g} ({flag})",
                file=sys.stderr,
            )
        return EXIT_VALIDATION

    theta_exact = solve_theta_exact(build_reduced_generator(config))
    runs = []
    rows = []
    for r in range(args.replications):
        result = simulate(config, total_events=args.events, seed=args.seed + r, n_obs=args.n_obs)
        runs.append(result)
        row = {
            "seed": args.seed + r,
            "events": result.total_events,
            "sim_time": result.sim_time,
            "theta_tv": analysis.total_variation(result.empirical_theta(), theta_exact),
            "decoupling_tv": decoupling_test(result),
        }
        for j in range(1, config.J + 1):
            qm = analysis.queue_marginal(config, j)
            emp = result.queue_marginals[j - 1]
            row[f"queue{j}_tv"] = 0.5 * sum(
                abs(emp.get(nv, 0.0) - qm.xi(nv)) for nv in range(min(6, args.n_obs))
            )
        rows.append(row)

    merged = merge_results(runs) if len(runs) > 1 else runs[0]
    merged_theta = merged.empirical_theta()
    merged_theta_tv = analysis.total_variation(merged_theta, theta_exact)
    merged_dec = decoupling_test(merged)

    for row in rows:
        extras = "  ".join(f"{k}={v:.5f}" for k, v in row.items() if k.endswith("_tv"))
        print(f"seed {row['seed']}: time={row['sim_time']:.1f}  {extras}")
    print(f"merged ({len(runs)} run(s)): theta_tv={merged_theta_tv:.5f}  decoupling_tv={merged_dec:.5f}")

    if args.json:
        _write_json(
            args.json,
            {
                "replications": rows,
                "merged": {"theta_tv": merged_theta_tv, "decoupling_tv": merged_dec},
                "theta": {
                    "states": [list(s.k) for s in enumerate_inventory_states(merged_theta.b)],
                    "weights": merged_theta.weights.tolist(),
                    "normalized": True,
                    "provenance": "empirical",
                },
            },
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
