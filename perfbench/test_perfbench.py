"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench`` from the repo root."""
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

child.import_qinet()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.2", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_quick_mode_prints_every_metric_with_its_unit():
    lines = run_bench("--workload", "all", "--seed", "3")
    record = json.loads(lines[-1])
    assert set(record["workloads"]) == set(workloads.NAMES)
    expected = {"setup_s": "s", "setup_wall_s": "s", "goodput_per_s": "1/s", "goodput_wall_per_s": "1/s",
                "host_speed": "ratio", "peak_rss_mb": "MB", "fail_share": "ratio"}
    per_workload = {"solve-grid": {"solved_states_per_s": "states/s"},
                    "solve-small": {"solved_states_per_s": "states/s", "wall_s": "s",
                                    "op_p50_ms": "ms", "op_p99_ms": "ms"},
                    "verify-suite": {"wall_s": "s"},
                    "simulate-replicas": {"wall_s": "s", "events_per_s": "events/s"}}
    report = "\n".join(lines[:-1])
    for name, entry in record["workloads"].items():
        want = {**expected, **per_workload[name]}
        assert {k: v["unit"] for k, v in entry["metrics"].items()} == want
        assert all("n" in v for v in entry["metrics"].values())
        for metric, unit in want.items():
            assert f"  {metric} " in report and f" {unit} " in report
    assert set(record["provenance"]) == {"nproc", "cpu_model", "blas", "python", "numpy", "scipy",
                                         "git_commit", "seed", "src_lines"}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_the_benchmark_metrics(trace):
    last = json.loads(run_bench("--workload", "solve-grid", "--seed", "4", "--trace", trace)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert last["attempted"] >= 1 and 0 < last["failed"] < last["attempted"]


def test_ledger_records_the_known_grid_failures():
    lines = run_bench("--workload", "solve-grid", "--seed", "5", "--trace", "1")
    ledger = [json.loads(line.split("FAILED ", 1)[1]) for line in lines if "FAILED {" in line]
    assert ledger and all(e["exit_code"] == 3 for e in ledger)
    assert all(e["exception"].split()[0] in ("SolverError", "DegenerateEliminationError") for e in ledger)


def test_same_seed_gives_byte_identical_configs(tmp_path):
    for name in workloads.NAMES:
        dirs = [tmp_path / f"{name}-{k}" for k in range(3)]
        for d, seed in zip(dirs, (7, 7, 8)):
            d.mkdir()
            workloads.make_ops(name, seed, str(d))
        files = sorted(os.listdir(dirs[0]))
        assert files == sorted(os.listdir(dirs[1]))
        same = [(dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files]
        other = [(dirs[0] / f).read_bytes() == (dirs[2] / f).read_bytes() for f in files]
        assert all(same) and not any(other)


def test_input_sizes_match_the_workload_definitions():
    sizes = {name: len(workloads.workload_docs(name, 1)) for name in workloads.NAMES}
    assert sizes == {"solve-grid": 28, "solve-small": 2340, "verify-suite": 4, "simulate-replicas": 1}


@pytest.mark.parametrize("name", ["solve-grid", "simulate-replicas"])
def test_traced_and_untraced_json_measures_are_bit_identical(tmp_path, name):
    ops = workloads.make_ops(name, 11, str(tmp_path), quick=True)
    ops = [op for op in ops if op.id in ("grid-8x8x8-r2", "simulate-j3")]
    outputs = []
    tracer = spans.Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            outcome = workloads.run_op(ops[0], io.StringIO())
        finally:
            tracer.uninstall()
        assert outcome.code == 0
        outputs.append(json.loads(Path(ops[0].out).read_text())["theta"])
    assert outputs[0] == outputs[1]
    assert tracer.spans and {s.name for s in tracer.spans} >= {"cli.main", "generator.build"}


def test_sampler_scales_wall_time_to_the_reference_speed():
    sampler = hostspeed.Sampler()
    sampler.starts, sampler.seconds = [1.0, 2.0, 3.0], [2 * hostspeed.NOMINAL_S] * 2 + [hostspeed.NOMINAL_S]
    assert sampler.scale(0.9, 2.1) == 0.5  # the host ran at half the reference speed
    assert sampler.scale(2.9, 3.0) == 1.0
    assert sampler.scale(5.0, 6.0) == 1.0  # no sample near: the nearest one counts
    assert sampler.speed() == 0.5


def test_sampler_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    sampler.install()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    sampler.uninstall()
    assert len(sampler.seconds) >= 3 and sampler.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (before, signal.SIG_DFL)


def test_tracer_restores_the_wrapped_functions():
    import qinet.analysis
    import qinet.cli

    before = (qinet.cli.solve_theta_exact, qinet.analysis.check_symmetry)
    tracer = spans.Tracer()
    tracer.install()
    assert qinet.cli.solve_theta_exact is not before[0]
    tracer.uninstall()
    assert (qinet.cli.solve_theta_exact, qinet.analysis.check_symmetry) == before


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
