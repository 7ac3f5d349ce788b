"""One workload in a fresh process: set up, time passes, then check outputs.

Started by ``run.py``; prints ``READY <scale> <spent>`` once set-up
(interpreter start, ``import qinet`` and input generation) is done, with the
host-speed scale over set-up and the sampler's own time in it (see
``hostspeed.py``), and at the end one JSON line with the raw measurements.
With ``--setup-only`` it stops after ``READY``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_qinet():
    """Import qinet from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "qinet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qinet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qinet

    if Path(qinet.__file__).resolve().parent != (SRC / "qinet").resolve():
        raise SystemExit(f"perfbench: imported qinet from {qinet.__file__}, not from {SRC}")
    return qinet


def run_pass(ops, sink, run_op, kept, sampler, tracer=None):
    """Run every op once; returns per-op (seconds, start, end, outcome).

    ``seconds`` is the op's wall time less the host-speed sampler's.

    Each distinct output is kept once for the checks, in ``kept`` (key ->
    (key, result)) for a library result and as a renamed file for a CLI
    one, and the outcome holds its key.  None of this is timed.
    """
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        spent = sampler.spent
        start = time.perf_counter()
        outcome = run_op(op, sink)
        end = time.perf_counter()
        results.append((end - start - (sampler.spent - spent), start, end, outcome))
        if outcome.value is not None:
            key = (op.id, hashlib.sha256(outcome.value.tobytes()).hexdigest())
            outcome.value = kept.setdefault(key, (key, outcome.value))[0]
        elif op.out and os.path.exists(op.out):
            with open(op.out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            outcome.value = f"{op.out}.{digest}"
            os.replace(op.out, outcome.value)
    return results


def judge(name, op, outcome, verdicts, kept, workloads):
    """Failing check names for one outcome (cached per distinct output)."""
    if outcome.code != 0 and name != "verify-suite":
        return None
    key = outcome.value
    if key in verdicts:
        return verdicts[key]
    if name == "solve-small":
        verdict = workloads.check_measure(op.config, None, kept[key][1])
    elif name == "solve-grid":
        verdict = workloads.check_solve_json(op.path, outcome.value)
    elif name == "verify-suite":
        if outcome.code not in (0, 2) or outcome.value is None:
            return None
        verdict = workloads.check_verify_json(outcome.value, outcome.code)
    else:
        verdict = workloads.check_simulate_json(op.path, outcome.value)
    verdicts[key] = verdict
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.install()
    try:
        return run(args, sampler)
    finally:
        sampler.uninstall()


def run(args, sampler):
    setup_start = time.perf_counter()
    import_qinet()
    import spans
    import workloads

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir, args.quick)
        print(f"READY {sampler.scale(setup_start, time.perf_counter())!r} {sampler.spent!r}", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, ops, workloads, spans, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(args, ops, workloads, spans, sampler):
    name = args.workload
    with open(os.devnull, "w") as sink:
        if name == "solve-small":
            # The first pass over 2,340 tiny solves runs slower than later
            # ones; library users pay that once per process, not per solve.
            run_pass(ops, sink, workloads.run_op, {}, sampler)
        kept = {}
        untraced, traced = [], []
        tracer = spans.Tracer() if args.trace else None
        start = time.perf_counter()
        while not untraced or (tracer and not traced) or time.perf_counter() - start < args.seconds:
            untraced.append(run_pass(ops, sink, workloads.run_op, kept, sampler))
            if tracer:
                tracer.install()
                try:
                    traced.append(run_pass(ops, sink, workloads.run_op, kept, sampler, tracer))
                finally:
                    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler.uninstall()

    verdicts = {}
    passes = []
    ledger = {}
    wrong = 0
    for kind, runs in (("untraced", untraced), ("traced", traced)):
        for run in runs:
            record = {"kind": kind, "seconds": 0.0, "units": 0, "ops": 0, "failed": 0,
                      "op_seconds": [], "op_ref_seconds": []}
            for index, (op, (seconds, start, end, outcome)) in enumerate(zip(ops, run)):
                failing = judge(name, op, outcome, verdicts, kept, workloads)
                ok = outcome.code == 0 and failing == []
                record["seconds"] += seconds
                record["op_seconds"].append(seconds)
                record["op_ref_seconds"].append(seconds * sampler.scale(start, end))
                record["ops"] += 1
                if ok:
                    record["units"] += op.units
                    continue
                record["failed"] += 1
                if outcome.code == 0 or failing == ["inconsistent_report"]:
                    wrong += 1  # an answer the program gave as correct was not
                entry = ledger.setdefault(op.id, {"config": op.id, "exit_code": outcome.code,
                                                  "error": outcome.error, "failing_checks": failing or [],
                                                  "count": 0})
                entry["count"] += 1
                if kind == "traced" and tracer.first_error(index) is not None:
                    entry["exception"] = "{1} in {0}".format(*tracer.first_error(index))
            passes.append(record)

    result = {"workload": name, "seed": args.seed, "peak_rss_mb": peak_rss_mb,
              "host_speed": sampler.speed(),
              "passes": passes, "ledger": sorted(ledger.values(), key=lambda e: e["config"]),
              "wrong": wrong, "ops_per_pass": len(ops)}
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, len(traced), len(ops))
    return result


if __name__ == "__main__":
    sys.exit(main())
