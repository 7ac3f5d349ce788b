"""qinet benchmark: solve, verify and simulate, end to end and per layer.

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1                      # all four workloads

Each workload runs in a fresh child process (``child.py``) so that set-up
time and peak memory are its own.  The report lines name every metric with
its unit and sample count, then the failure ledger; the last line of
standard output is one JSON object.  For a single workload that object has
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  For ``--workload all`` it is the full record,
also written to ``--out`` if given.  See README.md for what each number means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

SETUP_SAMPLES = 5  # set-ups timed per run, the measured child's included
CHILD_TIMEOUT_S = 150
# One BLAS thread: the host-speed sampler sees only the core the program's
# own thread runs on, and the other vCPU's slow spells are its own.
BLAS_THREADS = 1


def tail_percentile(n):
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def summary(values):
    """Median and tail percentile of a list of timings, with the sample count."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_child(args, extra=()):
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--quick"] if args.quick else []), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    words = proc.stdout.readline().split()
    ready = time.perf_counter() - start
    if len(words) != 3 or words[0] != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload}: child set-up failed (exit {proc.returncode})")
    scale, spent = float(words[1]), float(words[2])
    return proc, (ready - spent, (ready - spent) * scale)


def finish(proc, workload):
    """Wait for a child (killing it on timeout); returns its standard output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {proc.returncode}")
    return out


def run_workload(args):
    """Set up ``SETUP_SAMPLES`` times, measure once; returns the child's record.

    Set-up times are kept as wall seconds and as reference seconds.
    """
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_child(args, ["--setup-only"])
        finish(proc, args.workload)
        setups.append(ready)
    proc, ready = start_child(args)
    setups.append(ready)
    record = json.loads(finish(proc, args.workload).strip().splitlines()[-1])
    record["setup_wall_s"], record["setup_s"] = map(list, zip(*setups))
    return record


def pass_seconds(passes, key):
    """A pass timed as the sum over its ops of each op's median time in the run."""
    return sum(statistics.median(t) for t in zip(*(p[key] for p in passes)))


def metrics_of(record):
    """Every end-to-end metric of a workload record, as {name: (value, unit, note)}.

    ``setup_s``, ``goodput_per_s`` and its aliases are in reference seconds
    (``hostspeed.py``); ``*_wall*``, ``wall_s`` and ``op_p*_ms`` are wall-clock.
    """
    name = record["workload"]
    untraced = [p for p in record["passes"] if p["kind"] == "untraced"]
    pass_s = pass_seconds(untraced, "op_ref_seconds")
    pass_wall_s = pass_seconds(untraced, "op_seconds")
    units = statistics.median(p["units"] for p in untraced)
    goodput = units / pass_s
    wall = summary([p["seconds"] for p in untraced])
    wall["sum_of_op_medians"] = pass_wall_s
    setup = summary(record["setup_s"])
    attempted = sum(p["ops"] for p in untraced)
    failed = sum(p["failed"] for p in untraced)
    unit_of_work = {"solve-grid": "solved state", "solve-small": "solved state",
                    "verify-suite": "passing config", "simulate-replicas": "simulated event"}[name]
    m = {
        "setup_s": (setup["median"], "s", setup),
        "setup_wall_s": (statistics.median(record["setup_wall_s"]), "s", summary(record["setup_wall_s"])),
        "goodput_per_s": (goodput, "1/s", {"n": len(untraced), "unit_of_work": unit_of_work}),
        "goodput_wall_per_s": (units / pass_wall_s, "1/s", {"n": len(untraced)}),
        "host_speed": (record["host_speed"], "ratio", {"n": 1}),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", {"n": 1}),
        "fail_share": (failed / attempted, "ratio", {"n": attempted}),
    }
    if name in ("solve-grid", "solve-small"):
        m["solved_states_per_s"] = (goodput, "states/s", {"n": len(untraced)})
    if name != "solve-grid":
        m["wall_s"] = (pass_wall_s, "s", wall)
    if name == "solve-small":
        op_s = [s for p in untraced for s in p["op_seconds"]]
        note = {"n": len(op_s), "beyond_p99": len(op_s) // 100}
        m["op_p50_ms"] = (1e3 * statistics.median(op_s), "ms", note)
        m["op_p99_ms"] = (1e3 * statistics.quantiles(op_s, n=100, method="inclusive")[98], "ms", note)
    if name == "simulate-replicas":
        m["events_per_s"] = (goodput, "events/s", {"n": len(untraced)})
    return m


def layer_metrics(record):
    """Every per-layer metric of a traced record, plus the tracing overhead."""
    out = dict(record["layers"])
    wall = {kind: statistics.median(p["seconds"] for p in record["passes"] if p["kind"] == kind)
            for kind in ("untraced", "traced")}
    out["trace.overhead_s"] = wall["traced"] - wall["untraced"]
    return out


def provenance(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                   platform.processor())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") and \
            (ROOT / ".git" / ref[5:]).is_file() else ref
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "qinet").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": commit, "seed": seed, "src_lines": src_lines,
    }


def print_report(record, traced=None):
    """Report lines: end-to-end metrics, per-layer metrics of ``traced``, ledger."""
    name = record["workload"]
    print(f"== {name} (seed {record['seed']}, {record['ops_per_pass']} ops per pass)")
    for metric, (value, unit, note) in metrics_of(record).items():
        print(f"  {metric:<22} {value:>14.6g} {unit:<9} {json.dumps(note)}")
    if traced is not None:
        for metric, value in layer_metrics(traced).items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<34} {shown:>14}  (per traced pass)")
    for entry in record["ledger"]:
        print(f"  FAILED {json.dumps(entry)}")


def result_line(record, bench, trace):
    untraced = [p for p in record["passes"] if p["kind"] == "untraced"]
    if trace:
        values = layer_metrics(record)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        values = metrics_of(record)
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in bench["end_to_end"]}
    return {"correct": record["wrong"] == 0, "attempted": sum(p["ops"] for p in untraced),
            "failed": sum(p["failed"] for p in untraced), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="truncated inputs, for the self-tests")
    parser.add_argument("--out", help="with --workload all: also write the record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qinet" / "__init__.py").is_file():
        print(f"perfbench: no qinet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance(args.seed)
    print(f"provenance: {json.dumps(prov)}")

    if args.workload != "all":
        record = run_workload(args)
        print_report(record, record if args.trace else None)
        print(json.dumps(result_line(record, bench, args.trace)))
        return 0

    # End-to-end metrics come from an untraced child; with --trace 1 a
    # second, traced child gives the per-layer metrics.
    full = {"provenance": prov, "seconds": args.seconds, "workloads": {}}
    for name in NAMES:
        record = run_workload(argparse.Namespace(**{**vars(args), "workload": name, "trace": 0}))
        traced = run_workload(argparse.Namespace(**{**vars(args), "workload": name})) if args.trace else None
        print_report(record, traced)
        entry = {"metrics": {k: {"value": v, "unit": u, **n} for k, (v, u, n) in metrics_of(record).items()},
                 "ledger": record["ledger"], "correct": record["wrong"] == 0}
        if traced is not None:
            entry["per_layer"] = layer_metrics(traced)
            entry["traced_ledger"] = traced["ledger"]
        full["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(full))
    return 0


if __name__ == "__main__":
    sys.exit(main())
